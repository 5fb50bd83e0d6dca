package main

import (
	"bytes"
	"fmt"
	"time"

	"recycle"
	"recycle/internal/dataplane"
	"recycle/internal/eval"
	"recycle/internal/telemetry"
)

// soak_mixed: recycle.RunSoak offered about eight times what it delivers,
// so the pump, the engine, egress, the referee, the failure scenario and
// the hot-swaps all run at once at saturation. It is the one workload
// driven by the wall clock, and the only one that puts eval,
// failure.Oracle and telemetry on the hot path. At three times, the pump
// still finds gaps, workers park and wake, and the delivered rate reads
// 13% apart between runs; at eight it reads within 3%.

const (
	soakTopo    = "grid:6x6"
	soakFlows   = 50_000
	soakTraffic = "poisson:rate=300" // per flow: 15 M packets/s offered
	// The default process (a failure per link every 20 s) would land about
	// one event in an emission window this short; this lands about five, as
	// the default does in the 1.5 s soak it was tuned on.
	soakFailures = "mtbf:up=5s,down=100ms"
	soakReps     = 3
	// soakOverload is offered ÷ delivered rate as calibrated on the
	// two-core reference box; it sizes the emission window so that three
	// repetitions, drain included, fill -seconds.
	soakOverload = 7.8
)

func soakOnce(seed int64, emit time.Duration, tracer *telemetry.Tracer) (*recycle.SoakResult, error) {
	res, err := recycle.RunSoak(soakTopo, recycle.SoakConfig{
		Panel:     recycle.Panel{Spec: soakFailures, Seed: seed, Tracer: tracer},
		Flows:     soakFlows,
		Duration:  emit,
		Traffic:   soakTraffic,
		SwapEvery: emit / 10,
		Shards:    engineShards(),
	})
	if err != nil {
		return nil, err
	}
	if !res.Pass {
		var report bytes.Buffer
		recycle.WriteSoakReport(&report, res)
		return res, fmt.Errorf("soak verdict is FAIL: %v\n%s", res.FailReasons, report.String())
	}
	return res, nil
}

func runSoak(c *runCtx) error {
	c.shards = engineShards()
	// Set-up is a short soak of its own: it brings heap, goroutines and
	// timers to working state before anything is timed.
	warm := time.Duration(20 * c.scale * float64(time.Millisecond))
	if warm < 5*time.Millisecond {
		warm = 5 * time.Millisecond
	}
	if _, err := timeSetup(c, func() (*recycle.SoakResult, error) { return soakOnce(c.seed, warm, nil) }); err != nil {
		return err
	}
	emit := time.Duration(c.seconds / (soakReps * soakOverload) * float64(time.Second))
	var (
		rates     [2][]float64 // bare, traced
		last      *recycle.SoakResult
		delivered float64
	)
	c.beginWindow()
	for rep := 0; rep < soakReps; rep++ {
		// Traced runs give the middle repetition a tracer; RunSoak always
		// carries a registry.
		k := 0
		var tracer *telemetry.Tracer
		if c.trace && rep == 1 {
			k, tracer = 1, c.tracer
		}
		res, err := soakOnce(c.seed+int64(rep), emit, tracer)
		if err != nil {
			return err
		}
		c.attempted += int64(res.Generated)
		c.failed += int64(res.Violations)
		delivered += float64(res.Delivered)
		rates[k] = append(rates[k], res.DeliveredPerSec)
		last = res
	}
	c.endWindow(delivered)
	if !c.trace {
		// A segment is one soak.
		c.reportRate(rates[0])
		return nil
	}
	row, _, err := stagedBuild(c, soakTopo)
	if err != nil {
		return err
	}
	stageRows{row}.report(c)
	agg := last.Aggregate
	c.set("eval.batch_fill_mean", float64(agg.Counter(dataplane.MetricDecided))/float64(agg.Counter(dataplane.MetricBatches)))
	c.set("eval.hops_per_pkt", float64(last.Decisions)/float64(last.Generated))
	c.set("eval.calendar_lag_ms", float64(agg.Gauge(eval.MetricSoakLagNs))/1e6)
	c.set("eval.drain_s", (last.Elapsed - last.Horizon).Seconds())
	c.set("eval.transient_frac", float64(last.Transient)/float64(last.Generated))
	c.set("eval.excused_frac", float64(last.Excused)/float64(last.Generated))
	c.set("eval.alloc_b_per_decision", float64(last.AllocBytes)/float64(last.Decisions))
	c.set("eval.swaps", float64(last.Swaps))
	c.set("eval.link_events", float64(last.ScenarioEvents))
	sent := agg.Counter(dataplane.MetricTxSent)
	dropped := dataplane.TxDropped(agg)
	c.set("egress.drop_frac", float64(dropped)/float64(sent+dropped))
	wait := agg.Histograms[dataplane.MetricTxQueueWaitNs]
	c.set("egress.queue_wait_ns_p50", float64(wait.Quantile(0.5)))
	c.set("egress.queue_wait_ns_p99", float64(wait.Quantile(0.99)))
	c.set("trace_overhead_frac", 1-median(rates[1])/median(rates[0]))
	return nil
}
