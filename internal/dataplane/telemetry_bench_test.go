package dataplane_test

import (
	"sort"
	"testing"
	"time"

	"recycle/internal/core"
	"recycle/internal/dataplane"
	"recycle/internal/embedding"
	"recycle/internal/graph"
	"recycle/internal/rotation"
	"recycle/internal/route"
	"recycle/internal/telemetry"
	"recycle/internal/topo"
)

// BenchmarkFIBDecideInstrumented is BenchmarkFIBDecide with the engine's
// per-decision accounting applied: one non-atomic tally increment per
// decision, the tally flushed through a CounterBank at batch (256)
// granularity. CI gates it at 0 allocs/op and within the ns/op budget of
// BENCH_baseline.json; TestInstrumentedDecideOverhead pins it against
// the bare decide directly.
func BenchmarkFIBDecideInstrumented(b *testing.B) {
	fib, g, _ := benchFixture(b, "geant")
	st := dataplane.FromFailureSet(g.NumLinks(), graph.NewFailureSet(0))
	ingress := rotation.DartID(4)
	node := g.Link(rotation.LinkOf(ingress)).B
	dst := graph.NodeID(g.NumNodes() - 1)
	hdr := core.Header{PR: true, DD: 3}

	reg := telemetry.NewRegistry()
	bank := telemetry.NewCounterBank(reg,
		dataplane.MetricEventRoute, dataplane.MetricEventDetect,
		dataplane.MetricEventCycle, dataplane.MetricEventContinue,
		dataplane.MetricEventResume, dataplane.MetricDropNoRoute)
	var tally telemetry.Tally
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decisionSink = fib.Decide(node, dst, ingress, hdr, st)
		// The engine counts at each branch site, where the event class is
		// a compile-time constant (DecideBatchTally); reading the event
		// back out of the returned struct would instead stall on store
		// forwarding and misstate the real accounting cost.
		tally[int(core.EventCycle)]++
		if i&255 == 255 {
			bank.Flush(&tally)
		}
	}
}

// BenchmarkEngineInstrumented is the metered twin of the CI-gated
// BenchmarkEngine shape (geant, 2 shards): the full engine pipeline with
// a live telemetry registry attached. The benchdiff gate holds it to 0
// allocs/op — instrumentation must not add a single allocation to the
// batch path.
func BenchmarkEngineInstrumented(b *testing.B) {
	const batchSize = 256
	fib, g, sys := benchFixture(b, "geant")
	reg := telemetry.NewRegistry()
	free := make(chan *dataplane.Batch, 64)
	eng := dataplane.NewEngine(fib, dataplane.EngineConfig{
		Shards:  2,
		OnDone:  func(batch *dataplane.Batch) { free <- batch },
		Metrics: reg,
	})
	eng.SetLink(0, true)
	for i := 0; i < 8; i++ {
		free <- &dataplane.Batch{Pkts: benchWorkload(g, sys, int64(i+1))[:batchSize]}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batchSize {
		batch := <-free
		for !eng.Submit(batch) {
		}
	}
	decided := eng.Close()
	b.StopTimer()
	b.ReportMetric(float64(decided)/b.Elapsed().Seconds(), "decisions/s")
}

// pinOverhead measures bare vs instrumented as the median of paired
// ratios: each round times the two sides back to back (alternating the
// order), so slow spells on a shared machine hit both sides of a pair
// equally and cancel in the ratio, and the median discards the rounds a
// scheduler preemption still skews. Returns the fractional overhead and
// the two best per-decision times in nanoseconds over all rounds.
func pinOverhead(rounds int, bare, instrumented func() float64) (overhead, bestBare, bestInstr float64) {
	bare()
	instrumented() // warm both paths
	ratios := make([]float64, 0, rounds)
	bestBare, bestInstr = 1e18, 1e18
	for round := 0; round < rounds; round++ {
		var b, in float64
		if round&1 == 0 {
			b = bare()
			in = instrumented()
		} else {
			in = instrumented()
			b = bare()
		}
		ratios = append(ratios, in/b)
		if b < bestBare {
			bestBare = b
		}
		if in < bestInstr {
			bestInstr = in
		}
	}
	sort.Float64s(ratios)
	return ratios[rounds/2] - 1, bestBare, bestInstr
}

// TestInstrumentedDecideOverhead pins the tentpole's hot-path budget
// from two angles.
//
// The single-decision pin is absolute: a forwarding decision (the
// BenchmarkFIBDecide body) with the engine's marginal per-decision
// accounting added — one non-atomic tally increment whose index is a
// constant at the counting site, plus the per-256 bank flush and shard
// counters — may cost at most 1 ns more than the bare one, best round
// against best round. That is exactly what a metered decision costs
// over an unmetered one, ≈ 0.55 ns. It used to be a ratio (≤ 5%), which
// the same half nanosecond broke once a bare Decide fell from 10 ns to
// 3; the ratio is only logged now. A busy sibling core slows both sides
// 1.7× and the difference with them, to ≈ 1 ns, so the two bests are
// taken over enough rounds (≈ 0.5 s) that each side meets a quiet spell:
// over 25 rounds they often do not.
//
// The batch pin compares DecideBatch against the full metered batch
// stage (DecideBatchTally + flush). The bare batch loop's fast path is
// ~3ns/decision, so even the handful of amortised atomics per 256
// packets shows up as a few percent; the 20% budget here matches the
// benchdiff gate for BenchmarkEngineInstrumented and exists to catch
// structural regressions (e.g. reintroducing a post-decide sweep over
// the packet structs, which costs >50%).
func TestInstrumentedDecideOverhead(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation distorts the timing ratio")
	}
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	fib, g, sys := engineFixture(t)
	st := dataplane.FromFailureSet(g.NumLinks(), graph.NewFailureSet(0))
	work := benchWorkload(g, sys, 1)
	pkts := make([]dataplane.Packet, len(work))

	reg := telemetry.NewRegistry()
	bank := telemetry.NewCounterBank(reg,
		dataplane.MetricEventRoute, dataplane.MetricEventDetect,
		dataplane.MetricEventCycle, dataplane.MetricEventContinue,
		dataplane.MetricEventResume, dataplane.MetricDropNoRoute)
	decided := reg.Counter(dataplane.MetricDecided).Handle()
	batches := reg.Counter(dataplane.MetricBatches).Handle()
	var tally telemetry.Tally

	ingress := rotation.DartID(4)
	node := g.Link(rotation.LinkOf(ingress)).B
	dst := graph.NodeID(g.NumNodes() - 1)
	hdr := core.Header{PR: true, DD: 3}

	const singleReps = 51200
	overhead, bestBare, bestInstr := pinOverhead(1001,
		func() float64 {
			start := time.Now()
			for i := 0; i < singleReps; i++ {
				decisionSink = fib.Decide(node, dst, ingress, hdr, st)
			}
			return float64(time.Since(start)) / float64(singleReps)
		},
		func() float64 {
			start := time.Now()
			for i := 0; i < singleReps; i++ {
				decisionSink = fib.Decide(node, dst, ingress, hdr, st)
				tally[int(core.EventCycle)]++
				if i&255 == 255 {
					bank.Flush(&tally)
					decided.Add(256)
					batches.Inc()
				}
			}
			return float64(time.Since(start)) / float64(singleReps)
		},
	)
	t.Logf("decision: bare %.2f ns, instrumented %.2f ns — +%.2f ns, %.1f%% overhead",
		bestBare, bestInstr, bestInstr-bestBare, 100*overhead)
	if bestInstr-bestBare > 1 {
		t.Fatalf("per-decision instrumentation costs %.2f ns, over the 1 ns budget (bare %.2f ns, instrumented %.2f ns)",
			bestInstr-bestBare, bestBare, bestInstr)
	}

	const reps = 200 // batches per sample
	overhead, bestBare, bestInstr = pinOverhead(25,
		func() float64 {
			start := time.Now()
			for r := 0; r < reps; r++ {
				copy(pkts, work)
				fib.DecideBatch(pkts, st)
			}
			return float64(time.Since(start)) / float64(reps*len(pkts))
		},
		func() float64 {
			start := time.Now()
			for r := 0; r < reps; r++ {
				copy(pkts, work)
				fib.DecideBatchTally(pkts, st, (*[telemetry.TallySize]uint64)(&tally))
				bank.Flush(&tally)
				decided.Add(uint64(len(pkts)))
				batches.Inc()
			}
			return float64(time.Since(start)) / float64(reps*len(pkts))
		},
	)
	t.Logf("batch: bare %.2f ns, instrumented %.2f ns per decision — %.1f%% overhead",
		bestBare, bestInstr, 100*overhead)
	if overhead > 0.20 {
		t.Fatalf("batch instrumentation overhead %.1f%% exceeds the 20%% budget (bare %.2f ns, instrumented %.2f ns)",
			100*overhead, bestBare, bestInstr)
	}
}

// compileTracedFixture prebuilds everything BenchmarkCompile prebuilds
// (routing tables, protocol, quantiser) for the traced-compile numbers,
// so the timed region is exactly the compile pipeline.
func compileTracedFixture(tb testing.TB, spec string) (*core.Protocol, *core.Quantiser) {
	tb.Helper()
	tp, err := topo.Generated(spec)
	if err != nil {
		tb.Fatal(err)
	}
	sys, err := (embedding.Auto{Seed: 1}).Embed(tp.Graph)
	if err != nil {
		tb.Fatal(err)
	}
	tbl := route.BuildWorkers(tp.Graph, route.HopCount, 4)
	p, err := core.New(tp.Graph, sys, tbl, core.Config{Variant: core.Full, Quantise: true})
	if err != nil {
		tb.Fatal(err)
	}
	return p, core.BuildQuantiserWorkers(tbl, 4)
}

// BenchmarkCompileTraced is BenchmarkCompile/rand:512 with a live span
// tracer and phase histograms attached: per-phase spans, one span per
// worker fill range, and the compile.phase_ns observations. The
// benchdiff gate holds it to the same budget as the bare compile —
// span instrumentation is a handful of ring writes per compile, not a
// per-column cost — and TestTracerOverhead pins the ratio directly.
func BenchmarkCompileTraced(b *testing.B) {
	p, quant := compileTracedFixture(b, "rand:512")
	tracer := telemetry.NewTracer(0)
	reg := telemetry.NewRegistry()
	opts := dataplane.CompileOptions{Workers: 4, Tracer: tracer, Metrics: reg}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dataplane.CompileWithOptions(p, quant, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTracerOverhead pins the issue's acceptance bound: compiling with
// the span tracer and phase histograms attached must cost ≤5% over the
// bare compile. Measured as the median of paired ratios (pinOverhead),
// so shared-machine noise cancels; the span count per compile is fixed
// (one root, one per phase, one per worker range), so the overhead is
// a constant handful of clock reads and ring writes against ~2ms of
// compile.
func TestTracerOverhead(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation distorts the timing ratio")
	}
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	p, quant := compileTracedFixture(t, "rand:512")
	bareOpts := dataplane.CompileOptions{Workers: 4}
	tracer := telemetry.NewTracer(0)
	reg := telemetry.NewRegistry()
	tracedOpts := dataplane.CompileOptions{Workers: 4, Tracer: tracer, Metrics: reg}

	compile := func(opts dataplane.CompileOptions) float64 {
		start := time.Now()
		if _, err := dataplane.CompileWithOptions(p, quant, opts); err != nil {
			t.Fatal(err)
		}
		return float64(time.Since(start))
	}
	// A compile is ~2ms — long enough that pinOverhead's one-shot pairs
	// straddle load changes when the suite runs alongside other test
	// binaries. Same paired/alternating/median design, but each side of
	// a round is the min of 3 finely-interleaved compiles, so a noisy
	// neighbour must stall every repetition of one side and none of the
	// other to skew a ratio.
	compile(bareOpts)
	compile(tracedOpts) // warm both paths
	const rounds = 25
	ratios := make([]float64, 0, rounds)
	bestBare, bestTraced := 1e18, 1e18
	for round := 0; round < rounds; round++ {
		minBare, minTraced := 1e18, 1e18
		for k := 0; k < 3; k++ {
			var b, tr float64
			if (round+k)&1 == 0 {
				b = compile(bareOpts)
				tr = compile(tracedOpts)
			} else {
				tr = compile(tracedOpts)
				b = compile(bareOpts)
			}
			if b < minBare {
				minBare = b
			}
			if tr < minTraced {
				minTraced = tr
			}
		}
		ratios = append(ratios, minTraced/minBare)
		if minBare < bestBare {
			bestBare = minBare
		}
		if minTraced < bestTraced {
			bestTraced = minTraced
		}
	}
	sort.Float64s(ratios)
	median := ratios[rounds/2] - 1
	best := bestTraced/bestBare - 1
	// Two estimators of the same overhead: the median of paired ratios
	// and the ratio of best-of-run times. Contention noise is strictly
	// additive and can inflate either one on an oversubscribed box, but
	// a real regression is baked into every sample and inflates both —
	// so gate on whichever reads lower.
	overhead := median
	if best < overhead {
		overhead = best
	}
	t.Logf("compile: bare %.0f ns, traced %.0f ns — %.1f%% overhead (median %.1f%%, best-ratio %.1f%%)",
		bestBare, bestTraced, 100*overhead, 100*median, 100*best)
	if overhead > 0.05 {
		t.Fatalf("span instrumentation overhead %.1f%% exceeds the 5%% budget (bare %.0f ns, traced %.0f ns)",
			100*overhead, bestBare, bestTraced)
	}
	if snap := tracer.SpanSnapshot(); len(snap.Spans) == 0 {
		t.Fatal("traced compiles produced no spans — the instrumented side measured nothing")
	}
}

// TestDecideBatchTallyMatchesDecideBatch proves the metered batch stage
// is the bare one plus counting: identical per-packet decisions, and a
// tally that recounts the decided batch exactly — including slow-path
// packets forced by a failed link and refusals (dst == node packets on
// an isolated node have no usable egress only when links fail; refusals
// are counted under slot 5).
func TestDecideBatchTallyMatchesDecideBatch(t *testing.T) {
	fib, g, sys := engineFixture(t)
	st := dataplane.FromFailureSet(g.NumLinks(), graph.NewFailureSet(0, 3))
	for seed := int64(1); seed <= 4; seed++ {
		work := benchWorkload(g, sys, seed)
		want := append([]dataplane.Packet(nil), work...)
		fib.DecideBatch(want, st)

		got := append([]dataplane.Packet(nil), work...)
		var tally [telemetry.TallySize]uint64
		fib.DecideBatchTally(got, st, &tally)

		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: packet %d decided differently: got %+v, want %+v", seed, i, got[i], want[i])
			}
		}
		var recount [telemetry.TallySize]uint64
		for i := range want {
			if want[i].OK {
				recount[int(want[i].Event)&(telemetry.TallySize-1)]++
			} else {
				recount[5]++
			}
		}
		if tally != recount {
			t.Fatalf("seed %d: tally %v, recount from decisions %v", seed, tally, recount)
		}
	}
}
