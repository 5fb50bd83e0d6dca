package main

import (
	"fmt"
	"time"

	"recycle/internal/core"
	"recycle/internal/dataplane"
	"recycle/internal/rotation"
	"recycle/internal/telemetry"
)

// The traced fwd_* run: the headline replay once bare and once with the
// decorators, a registry and span sampling on, a two-shard pass for what
// the second worker buys and costs, and single-thread calibrations of each
// layer over the same pool. Together they give a per-decision budget that
// must close: what the layers cost alone may not exceed what the engine
// run cost.

func traceFwd(c *runCtx, spec fwdSpec, p *pool, seg int) error {
	row, _, err := stagedBuild(c, spec.topo)
	if err != nil {
		return err
	}
	stageRows{row}.report(c)
	c.set("fib.mem_mbytes", float64(p.fib.MemBytes())/1e6)
	c.set("walk.stretch_mean", p.stretch)
	total := float64(p.decisions())
	c.set("fib.fastpath_frac", float64(p.classes[core.EventRoute])/total)
	c.set("fib.event.detect", 1e3*float64(p.classes[core.EventDetect])/total)
	c.set("fib.event.cycle", 1e3*float64(p.classes[core.EventCycle])/total)
	c.set("fib.event.continue", 1e3*float64(p.classes[core.EventContinue])/total)
	c.set("fib.event.resume", 1e3*float64(p.classes[core.EventResume])/total)

	bare, _, err := runReplay(p, spec, c.shards, 0.25*c.seconds, seg, nil, nil)
	if err != nil {
		return err
	}
	reg := telemetry.NewRegistry()
	c.beginWindow()
	traced, r, err := runReplay(p, spec, c.shards, 0.25*c.seconds, seg, reg, c.tracer)
	if err != nil {
		return err
	}
	c.endWindow(float64(traced.decisions))
	snap := reg.Snapshot()
	if err := crossCheckEvents(snap, r, spec.wire, traced.decisions); err != nil {
		return err
	}
	if bare.dropped+traced.dropped > 0 {
		return fmt.Errorf("egress dropped %d packets at %g b/s", bare.dropped+traced.dropped, egressBps)
	}
	wideReg := telemetry.NewRegistry()
	wide, rWide, err := runReplay(p, spec, engineShards(), 0.2*c.seconds, seg, wideReg, c.tracer)
	if err != nil {
		return err
	}
	c.attempted = bare.decisions + traced.decisions + wide.decisions
	rate := quietRate(traced.rates)
	c.set("trace_overhead_frac", 1-rate/quietRate(bare.rates))
	c.set("engine.scaling_x", quietRate(wide.rates)/rate)
	c.set("engine.submit_ns", float64(r.submitNs.Load())/float64(traced.decisions/batchSize))
	c.set("engine.inflight_us_p50", median(traced.latencyUs))
	c.set("engine.inflight_us_p99", quantile(traced.latencyUs, 0.99))

	// Calibrations share what is left of the window.
	each := time.Duration(0.08 * c.seconds * float64(time.Second))
	var fibNs float64
	if spec.wire {
		fibNs = calibrateWire(p, each)
		c.set("wire.forward_ns", fibNs)
	} else {
		fast, slow := calibrateDecide(p, each)
		c.set("fib.decide_fast_ns", fast)
		c.set("fib.decide_slow_ns", slow)
		routed := float64(p.classes[core.EventRoute])
		fibNs = (fast*routed + slow*(total-routed)) / total
	}
	var egressNs float64
	if spec.egress {
		egressNs = float64(r.egress.ns.Load()) / float64(traced.decisions)
		c.set("egress.transmit_ns", egressNs)
		c.set("egress.send_ns", calibrateSend(p, each))
		// What sharing the per-dart queues with a second worker does to
		// the time one packet spends in Transmit.
		c.set("egress.contention_x", float64(rWide.egress.ns.Load())/float64(wide.decisions)/egressNs)
		wideSnap := wideReg.Snapshot()
		sent := wideSnap.Counter(dataplane.MetricTxSent)
		c.set("egress.drop_frac", float64(wide.dropped)/float64(sent+wide.dropped))
		wait := wideSnap.Histograms[dataplane.MetricTxQueueWaitNs]
		c.set("egress.queue_wait_ns_p50", float64(wait.Quantile(0.5)))
		c.set("egress.queue_wait_ns_p99", float64(wait.Quantile(0.99)))
	}

	// The budget, in worker nanoseconds per decision, over the whole traced
	// run: the clocks inside OnDone and Transmit ran for all of it.
	perDecision := float64(c.shards) * float64(traced.wall.Nanoseconds()) / float64(traced.decisions)
	driverNs := float64(r.doneNs.Load()) / float64(traced.decisions)
	residual := perDecision - driverNs - fibNs - egressNs
	c.set("driver.done_ns", driverNs)
	c.set("engine.overhead_ns", residual)
	fmt.Printf("# budget, ns per decision on %d worker(s): total %.2f = driver %.2f + fib/wire %.2f + egress %.2f + engine residual %.2f\n",
		c.shards, perDecision, driverNs, fibNs, egressNs, residual)
	// Under half a second of work the table is noise and is only printed.
	if residual < -0.10*perDecision && traced.wall >= 500*time.Millisecond {
		return fmt.Errorf("budget does not close: layers alone cost %.2f ns per decision, the engine run %.2f",
			driverNs+fibNs+egressNs, perDecision)
	}
	return nil
}

// crossCheckEvents requires the engine's own event counters to equal the
// pool's expected events summed over the batches that completed.
func crossCheckEvents(snap *telemetry.Snapshot, r *replay, wire bool, decided int64) error {
	names := [numClasses]string{
		core.EventRoute: dataplane.MetricEventRoute, core.EventDetect: dataplane.MetricEventDetect,
		core.EventCycle: dataplane.MetricEventCycle, core.EventContinue: dataplane.MetricEventContinue,
		core.EventResume: dataplane.MetricEventResume,
	}
	if got := int64(snap.Counter(dataplane.MetricDecided)); got != decided {
		return fmt.Errorf("engine.decided reads %d; the engine decided %d", got, decided)
	}
	if wire {
		if got := int64(snap.Counter(dataplane.MetricWireForwarded)); got != decided {
			return fmt.Errorf("engine.wire.forwarded reads %d of %d frames", got, decided)
		}
		return nil
	}
	for cl, name := range names {
		if got, want := int64(snap.Counter(name)), r.classes[cl].Load(); got != want {
			return fmt.Errorf("%s reads %d; the replayed batches hold %d", name, got, want)
		}
	}
	return nil
}

// The calibrations time one layer on one thread over the pool and return
// nanoseconds per operation of the fastest pass. Neighbours on the box
// only ever slow a pass down, so the fastest is the layer's own cost, and
// a budget built on it errs on the side of closing.

// fastest runs pass until each has gone by and returns the least time one
// pass took, divided by the n operations it holds.
func fastest(each time.Duration, n int, pass func() time.Duration) float64 {
	best := time.Duration(1<<63 - 1)
	for spent := time.Duration(0); spent < each; {
		d := pass()
		spent += d
		if d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds()) / float64(n)
}

// calibrateDecide times FIB.DecideBatch over the pool's hops, split into
// route decisions and all others (0 for an empty class).
func calibrateDecide(p *pool, each time.Duration) (fast, slow float64) {
	var in [2][]dataplane.Packet
	for _, s := range p.slots {
		for _, h := range s.hops {
			k := 1
			if h.want.Event == core.EventRoute {
				k = 0
			}
			in[k] = append(in[k], dataplane.Packet{Node: h.node, Dst: h.dst, Ingress: h.ingress, Hdr: h.hdr})
		}
	}
	var out [2]float64
	for k, pristine := range in {
		if len(pristine) == 0 {
			continue
		}
		work := make([]dataplane.Packet, len(pristine))
		out[k] = fastest(each, len(work), func() time.Duration {
			copy(work, pristine)
			t0 := time.Now()
			p.fib.DecideBatch(work, p.links)
			return time.Since(t0)
		})
	}
	return out[0], out[1]
}

// calibrateWire times FIB.ForwardWireBatch, batch by batch over the pool.
func calibrateWire(p *pool, each time.Duration) float64 {
	return fastest(each, p.decisions(), func() (d time.Duration) {
		for _, s := range p.slots {
			s.restore(false)
			t0 := time.Now()
			p.fib.ForwardWireBatch(s.b.Wire, p.links)
			d += time.Since(t0)
		}
		return d
	})
}

// calibrateSend times TxQueue.Send, uncontended, over the pool's egress
// darts.
func calibrateSend(p *pool, each time.Duration) float64 {
	var darts []rotation.DartID
	for _, s := range p.slots {
		for _, h := range s.hops {
			darts = append(darts, h.want.Egress)
		}
	}
	tx := dataplane.NewTxQueue(p.fib, dataplane.TxConfig{BandwidthBps: egressBps, Metrics: telemetry.NewRegistry()})
	return fastest(each, len(darts), func() time.Duration {
		t0 := time.Now()
		for _, d := range darts {
			tx.Send(d, 8192, p.links)
		}
		return time.Since(t0)
	})
}
