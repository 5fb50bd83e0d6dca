package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"recycle"
	"recycle/internal/core"
	"recycle/internal/dataplane"
	"recycle/internal/telemetry"
)

// The four fwd_* workloads: trace replay in a closed loop. The pool's
// batches are all in flight at once; OnDone runs on the engine worker,
// checks and restores the batch and hands it straight back to the shard it
// came from, so the driver goroutine only seeds the window and waits. Work
// is counted in fixed segments while the pipeline keeps running; a run ends
// at the first segment boundary past -seconds.
//
// The headline runs on one shard. Two busy workers on this class of box
// (two virtual CPUs that may or may not be hyperthreads of one core from
// one minute to the next) read 30% apart between runs of the same binary;
// one worker reads within a few percent. The traced run adds a two-shard
// pass and reports what the second worker buys as engine.scaling_x.
//
// segBatches makes a segment about a millisecond and a half of work: the
// rate is read at the fast end of the segments (quietRate), and the quiet
// stretches between the neighbours' bursts are that short.

var (
	fwdClean   = fwdSpec{topo: "rand:512@1", segBatches: 1 << 10}
	fwdEgress  = fwdSpec{topo: "rand:512@1", egress: true, segBatches: 1 << 6}
	fwdRecycle = fwdSpec{topo: "geant", failures: 4, segBatches: 1 << 9,
		mix: [numClasses]int{core.EventRoute: 630, core.EventDetect: 50, core.EventCycle: 250, core.EventContinue: 20, core.EventResume: 50}}
	fwdWire = fwdSpec{topo: "geant", failures: 4, wire: true, segBatches: 1 << 8, mix: fwdRecycle.mix}
)

func runFwdClean(c *runCtx) error   { return runFwd(c, fwdClean) }
func runFwdEgress(c *runCtx) error  { return runFwd(c, fwdEgress) }
func runFwdRecycle(c *runCtx) error { return runFwd(c, fwdRecycle) }
func runFwdWire(c *runCtx) error    { return runFwd(c, fwdWire) }

const (
	fwdShards   = 1
	poolBatches = 256
	minSegments = 5
	maxSegments = 1 << 16
	// sampleEvery is how often a batch's pass is checked in full and timed
	// from Submit to OnDone after its first pass.
	sampleEvery = 64
	egressBps   = 100e9
)

// replay is one closed-loop run of a pool through an engine.
type replay struct {
	p       *pool
	eng     *dataplane.Engine
	seconds float64
	seg     int64 // batches per segment
	traced  bool
	tracer  *telemetry.Tracer
	egress  *timedEgress

	start     time.Time
	completed atomic.Int64
	inflight  atomic.Int64
	stop      atomic.Bool
	done      chan struct{}
	marks     []time.Duration // marks[k]: when segment k completed
	bad       atomic.Int64
	refused   atomic.Int64
	latency   []int64 // sampled SubmitTo→OnDone times, in nanoseconds
	nLatency  atomic.Int64

	// Traced runs only.
	doneNs, submitNs atomic.Int64
	classes          [numClasses]atomic.Int64
}

// replayResult is what a run measured.
type replayResult struct {
	decisions int64     // decided by the engine, drain included
	rates     []float64 // decisions per second, one per segment
	wall      time.Duration
	latencyUs []float64 // sampled batch times
	dropped   uint64    // packets the egress stage refused
}

// timedEgress decorates the transmit stage with a clock, for the traced
// run's budget.
type timedEgress struct {
	r     *replay
	inner dataplane.Egress
	ns    atomic.Int64
}

func (t *timedEgress) Transmit(b *dataplane.Batch, st *dataplane.LinkState) {
	var span telemetry.Span
	if s := t.r.p.bySlot[b]; s.sampled {
		span = t.r.tracer.Start("egress.transmit", s.span.ID())
	}
	t0 := time.Now()
	t.inner.Transmit(b, st)
	t.ns.Add(int64(time.Since(t0)))
	span.End()
}

// engineShards is the worker count of the engines that are not the fwd_*
// headline: the idle engine under ctl_churn, the soak, the traced runs'
// scaling figure.
func engineShards() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// runReplay pushes the pool through a fresh engine for seconds and returns
// once every batch is back. reg, when set, meters engine and egress.
func runReplay(p *pool, spec fwdSpec, shards int, seconds float64, segBatches int, reg *telemetry.Registry, tracer *telemetry.Tracer) (*replayResult, *replay, error) {
	r := &replay{p: p, seconds: seconds, seg: int64(segBatches), traced: tracer != nil, tracer: tracer,
		done: make(chan struct{}), marks: make([]time.Duration, maxSegments), latency: make([]int64, 1<<18)}
	cfg := dataplane.EngineConfig{Shards: shards, OnDone: r.onDone, Metrics: reg}
	var tx *dataplane.TxQueue
	// The egress account needs a registry either way: drops are failures.
	txReg := reg
	if spec.egress {
		if txReg == nil {
			txReg = telemetry.NewRegistry()
		}
		tx = dataplane.NewTxQueue(p.fib, dataplane.TxConfig{BandwidthBps: egressBps, Metrics: txReg})
		cfg.Egress = tx
		if r.traced {
			r.egress = &timedEgress{r: r, inner: tx}
			cfg.Egress = r.egress
		}
	}
	r.eng = dataplane.NewEngine(p.fib, cfg)
	for _, l := range p.failed {
		r.eng.SetLink(recycle.LinkID(l), true)
	}
	for _, s := range p.slots {
		s.pass, s.verify, s.sampled = 0, true, false
		s.restore(true)
	}
	r.inflight.Store(int64(len(p.slots)))
	r.start = time.Now()
	for _, s := range p.slots {
		if !r.eng.SubmitTo(s.idx%r.eng.Shards(), &s.b) {
			r.eng.Close()
			return nil, nil, fmt.Errorf("engine refused batch %d of the opening window", s.idx)
		}
	}
	<-r.done
	wall := time.Since(r.start)
	decided := r.eng.Close()

	res := &replayResult{decisions: int64(decided), wall: wall}
	// Every mark up to here is written: its writer left OnDone before done closed.
	n := int(r.completed.Load() / r.seg)
	prev := time.Duration(0)
	for k := 0; k < n; k++ {
		res.rates = append(res.rates, float64(r.seg*batchSize)/(r.marks[k]-prev).Seconds())
		prev = r.marks[k]
	}
	nl := int(r.nLatency.Load())
	if nl > len(r.latency) {
		nl = len(r.latency)
	}
	for _, ns := range r.latency[:nl] {
		res.latencyUs = append(res.latencyUs, float64(ns)/1e3)
	}
	if bad := r.bad.Load(); bad > 0 {
		return res, r, fmt.Errorf("%d replayed decisions differ from their recorded output", bad)
	}
	if refused := r.refused.Load(); refused > 0 {
		return res, r, fmt.Errorf("engine refused %d batches", refused)
	}
	if tx != nil {
		res.dropped = dataplane.TxDropped(txReg.Snapshot())
	}
	return res, r, nil
}

// onDone runs on the deciding worker once per batch pass. Until it hands
// the batch back with SubmitTo, the slot is this goroutine's alone.
func (r *replay) onDone(b *dataplane.Batch) {
	var t0 time.Time
	s := r.p.bySlot[b]
	if r.traced || s.sampled {
		t0 = time.Now()
	}
	var doneSpan telemetry.Span
	if s.sampled {
		if i := r.nLatency.Add(1) - 1; int(i) < len(r.latency) {
			r.latency[i] = int64(t0.Sub(r.start)) - s.submitAt
		}
		doneSpan = r.tracer.Start("driver.done", s.span.ID())
		s.span.End()
	}
	if s.verify {
		if bad := s.check(); bad > 0 {
			r.bad.Add(bad)
		}
	}
	if r.traced {
		for c, k := range s.classes {
			r.classes[c].Add(k)
		}
	}
	if k := r.completed.Add(1); k%r.seg == 0 {
		elapsed := time.Since(r.start)
		i := k/r.seg - 1
		r.marks[i] = elapsed
		if (elapsed.Seconds() >= r.seconds && i+1 >= minSegments) || i+1 == maxSegments {
			r.stop.Store(true)
		}
	}
	if r.stop.Load() {
		doneSpan.End()
		if r.inflight.Add(-1) == 0 {
			close(r.done)
		}
		return
	}
	s.pass++
	next := (s.pass+s.idx)%sampleEvery == 0
	s.verify, s.sampled = next, next
	s.restore(next)
	doneSpan.End()
	if r.traced {
		t1 := time.Now()
		r.doneNs.Add(int64(t1.Sub(t0)))
		t0 = t1
	}
	if next {
		s.span = r.tracer.Start("engine.inflight", 0)
		s.span.SetAttr(telemetry.AttrLo, int64(s.idx)) // the batch's number in the pool
		s.submitAt = int64(time.Since(r.start))
	}
	if !r.eng.SubmitTo(s.idx%r.eng.Shards(), b) {
		r.refused.Add(1)
		if r.inflight.Add(-1) == 0 {
			close(r.done)
		}
		return
	}
	if r.traced {
		r.submitNs.Add(int64(time.Since(t0)))
	}
}

func runFwd(c *runCtx, spec fwdSpec) error {
	batches := c.scaled(poolBatches, 8)
	seg := spec.segBatches
	p, err := timeSetup(c, func() (*pool, error) { return buildPool(spec, c.seed, batches, nil, false) })
	if err != nil {
		return err
	}
	c.shards = fwdShards
	c.poolHash = fmt.Sprintf("%016x", p.hash)
	c.failures = p.failed
	if !c.trace {
		c.beginWindow()
		res, _, err := runReplay(p, spec, c.shards, c.seconds, seg, nil, nil)
		if err != nil {
			return err
		}
		if res.dropped > 0 {
			return fmt.Errorf("egress dropped %d packets at %g b/s", res.dropped, egressBps)
		}
		c.endWindow(float64(res.decisions))
		c.attempted = res.decisions
		c.reportRate(res.rates)
		return nil
	}
	return traceFwd(c, spec, p, seg)
}
