package main

// The benchmark's vocabulary: workload and metric names exactly as
// BENCHMARK.json lists them (TestSpecMatchesBenchmarkJSON fails on any
// drift). Every run reports every end-to-end metric, and every traced run
// every per-layer metric; a layer the workload never enters reports 0.

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: tolerated relative worsening
}

type workloadDef struct {
	Name string
	Why  string
	run  func(*runCtx) error
}

// An "operation" is the unit each workload counts: one forwarding decision
// (fwd_*), one cold build (ctl_compile), one edit set applied and live
// (ctl_churn), one delivered packet (soak_mixed).
//
// ops_per_s is read at the quiet end of a run's segments (stats.go), so it
// is the rate the program reaches between the neighbours' bursts and not
// the run's mean rate; the typical segment is printed beside it. Timing
// tails are per-layer rows: in a closed loop the mean time of an operation
// is the window over the rate, and the tail is the neighbours.
//
// Every bound is the largest the contract allows. The box this runs on is
// two virtual CPUs of a shared host; what it measures on one binary moves
// by a few percent in a quiet half hour and by several times that in a
// busy one, and a bound under a spread rejects the benchmark itself.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

var perLayer = []metricDef{
	// Build stages of the workload's topology, re-run one by one.
	{Name: "topo.build_ms", Unit: "ms", Better: "lower"},
	{Name: "embedding.embed_ms", Unit: "ms", Better: "lower"},
	{Name: "route.build_ms", Unit: "ms", Better: "lower"},
	{Name: "core.new_ms", Unit: "ms", Better: "lower"},
	{Name: "fib.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "compile.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "compile.mallocs", Unit: "count", Better: "lower"},
	{Name: "fib.mem_mbytes", Unit: "MB", Better: "lower"},
	// Forwarding table.
	{Name: "fib.decide_fast_ns", Unit: "ns", Better: "lower"},
	{Name: "fib.decide_slow_ns", Unit: "ns", Better: "lower"},
	{Name: "fib.fastpath_frac", Unit: "ratio", Better: "higher"},
	{Name: "fib.event.detect", Unit: "1/1000", Better: "lower"},
	{Name: "fib.event.cycle", Unit: "1/1000", Better: "lower"},
	{Name: "fib.event.continue", Unit: "1/1000", Better: "lower"},
	{Name: "fib.event.resume", Unit: "1/1000", Better: "lower"},
	{Name: "wire.forward_ns", Unit: "ns", Better: "lower"},
	{Name: "walk.stretch_mean", Unit: "ratio", Better: "lower"},
	// Engine.
	{Name: "engine.submit_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.inflight_us_p50", Unit: "us", Better: "lower"},
	{Name: "engine.inflight_us_p99", Unit: "us", Better: "lower"},
	{Name: "engine.scaling_x", Unit: "ratio", Better: "higher"},
	{Name: "engine.overhead_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.swap_us_p50", Unit: "us", Better: "lower"},
	{Name: "engine.swap_us_p99", Unit: "us", Better: "lower"},
	// Egress.
	{Name: "egress.transmit_ns", Unit: "ns", Better: "lower"},
	{Name: "egress.send_ns", Unit: "ns", Better: "lower"},
	{Name: "egress.contention_x", Unit: "ratio", Better: "lower"},
	{Name: "egress.drop_frac", Unit: "ratio", Better: "lower"},
	{Name: "egress.queue_wait_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "egress.queue_wait_ns_p99", Unit: "ns", Better: "lower"},
	// The harness itself, so the budget closes.
	{Name: "driver.done_ns", Unit: "ns", Better: "lower"},
	// Recompiler.
	{Name: "recompile.apply_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "recompile.apply_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "recompile.apply_weight_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "recompile.apply_batch_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "recompile.apply_struct_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "recompile.dirty_dst_frac", Unit: "ratio", Better: "lower"},
	{Name: "recompile.trees_repaired_per_edit", Unit: "count", Better: "lower"},
	{Name: "recompile.full_fallbacks", Unit: "count", Better: "lower"},
	{Name: "recompile.coalesced_frac", Unit: "ratio", Better: "higher"},
	{Name: "recompile.alloc_kb_per_edit", Unit: "kB", Better: "lower"},
	{Name: "recompile.vs_full_x", Unit: "ratio", Better: "higher"},
	// Soak harness.
	{Name: "eval.batch_fill_mean", Unit: "count", Better: "higher"},
	{Name: "eval.hops_per_pkt", Unit: "count", Better: "lower"},
	{Name: "eval.calendar_lag_ms", Unit: "ms", Better: "lower"},
	{Name: "eval.drain_s", Unit: "s", Better: "lower"},
	{Name: "eval.transient_frac", Unit: "ratio", Better: "lower"},
	{Name: "eval.excused_frac", Unit: "ratio", Better: "lower"},
	{Name: "eval.alloc_b_per_decision", Unit: "B", Better: "lower"},
	{Name: "eval.swaps", Unit: "count", Better: "higher"},
	{Name: "eval.link_events", Unit: "count", Better: "higher"},
	// Every workload.
	{Name: "cpu.us_per_op", Unit: "us", Better: "lower"},
	{Name: "gc.cycles", Unit: "count", Better: "lower"},
	{Name: "gc.pause_ms", Unit: "ms", Better: "lower"},
	{Name: "alloc.per_kop", Unit: "B", Better: "lower"},
	{Name: "trace_overhead_frac", Unit: "ratio", Better: "lower"},
}

var workloads = []workloadDef{
	{"fwd_clean", "rand:512, no failures, no egress: fast path only, isolates ring hand-off and DecideBatch; egress, recovery and wire changes must leave it flat", runFwdClean},
	{"fwd_egress", "fwd_clean's pool plus TxQueue at 100 Gb/s: differs only by the transmit stage, which costs several times the decision it carries", runFwdEgress},
	{"fwd_recycle", "geant with 4 failed links, 37% of decisions detect/cycle/continue/resume on a cache-resident FIB: the paper's mechanism itself", runFwdRecycle},
	{"fwd_wire", "fwd_recycle's packets as IPv4/DSCP frames through ForwardWireBatch: a rule rewrite that helps structs and hurts bytes shows as the pair moving apart", runFwdWire},
	{"ctl_compile", "cold builds of rand:1000 through the facade: graph, embedding, all-destination trees, quantiser, column fill; the data plane does nothing here", runCompile},
	{"ctl_churn", "a seeded deck of weight, batch and structural edit sets replayed against a fresh Recompiler and a live engine on rand:512: the write side of the RCU pair", runChurn},
}

// byHand run with -workload like the others but are not in BENCHMARK.json.
// soak_mixed is driven by the wall clock and runs more threads than the box
// has cores; its delivered rate read 17 to 23% apart between runs of one
// binary, which a gate with a 25% bound cannot carry. It comes back when
// the soak has virtual time.
var byHand = []workloadDef{
	{"soak_mixed", "RunSoak on grid:6x6 offered 8x what it delivers: pump, engine, egress, referee, failures and hot-swaps all at once at saturation", runSoak},
}

func allWorkloads() []workloadDef { return append(append([]workloadDef(nil), workloads...), byHand...) }

func findWorkload(name string) *workloadDef {
	for _, w := range allWorkloads() {
		if w.Name == name {
			return &w
		}
	}
	return nil
}
