package eval

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
	"unsafe"

	"recycle/internal/dataplane"
	"recycle/internal/failure"
	"recycle/internal/graph"
	"recycle/internal/sim"
	"recycle/internal/telemetry"
	"recycle/internal/topo"
)

// soakIdentities asserts the accounting every soak run must close:
// each emitted packet is delivered, dropped on its walk or refused by
// its egress queue, each walk drop is refereed exactly once, and the
// per-epoch timeline sums to the aggregate (RunSoak verifies the last
// internally; here we re-derive it from the public result so the
// exported Epochs/Aggregate pair stands alone).
func soakIdentities(t *testing.T, r *SoakResult) {
	t.Helper()
	if r.Generated == 0 {
		t.Fatal("soak emitted no traffic")
	}
	tx := dataplane.TxDropped(r.Aggregate)
	if got := r.Delivered + r.DropNoRoute + r.DropTTL + tx; got != r.Generated {
		t.Fatalf("accounting leak: delivered %d + no-route %d + ttl %d + tx %d = %d; generated %d",
			r.Delivered, r.DropNoRoute, r.DropTTL, tx, got, r.Generated)
	}
	if got := r.Violations + r.Transient + r.Excused; got != r.DropNoRoute+r.DropTTL {
		t.Fatalf("referee leak: classified %d; dropped %d", got, r.DropNoRoute+r.DropTTL)
	}
	if r.Decisions < r.Generated {
		t.Fatalf("decisions %d < generated %d; every packet takes at least one hop",
			r.Decisions, r.Generated)
	}
	if len(r.Epochs) == 0 || r.Aggregate == nil {
		t.Fatal("timeline missing from result")
	}
	sum := telemetry.NewSnapshot()
	for _, e := range r.Epochs {
		sum.Merge(e.Delta)
	}
	if err := checkTimelineExact(sum, r.Aggregate); err != nil {
		t.Fatalf("epoch sums drifted from aggregate: %v", err)
	}
	if agg := r.Aggregate.Counter(sim.MetricGenerated); agg != r.Generated {
		t.Fatalf("aggregate counter %s = %d; result says %d", sim.MetricGenerated, agg, r.Generated)
	}
	if agg := r.Aggregate.Counter(sim.MetricLossViolation); agg != r.Violations {
		t.Fatalf("aggregate counter %s = %d; result says %d", sim.MetricLossViolation, agg, r.Violations)
	}
	if mem := r.Aggregate.Gauge(dataplane.MetricFIBMemBytes); mem <= 0 {
		t.Fatalf("%s gauge = %d; the engine publishes resident FIB bytes at start and every swap",
			dataplane.MetricFIBMemBytes, mem)
	}
}

// TestRunSoakSmoke: a short full-stack soak — live engine, TxQueue
// egress, continuous MTBF churn and a dense hot-swap stream — must
// close its accounting, roll at least one epoch per control action,
// and show zero violations.
func TestRunSoakSmoke(t *testing.T) {
	res, err := RunSoak(mustTopo(t, "grid:4x4"), SoakConfig{
		Panel:     Panel{Spec: "mtbf:up=2s,down=100ms"},
		Flows:     3_000,
		Duration:  1200 * time.Millisecond,
		SwapEvery: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	soakIdentities(t, res)
	if res.Violations != 0 {
		t.Fatalf("%d violations under soak; the §5 guarantee demands 0", res.Violations)
	}
	if res.Genus != 0 {
		t.Fatalf("soak ran on a genus-%d embedding", res.Genus)
	}
	if res.Swaps+res.SkippedSwaps < 3 {
		t.Fatalf("only %d swaps attempted (%d applied) over %d intervals",
			res.Swaps+res.SkippedSwaps, res.Swaps, 12)
	}
	var swapEpochs, linkEpochs int
	for _, e := range res.Epochs {
		if strings.Contains(e.Label, "swap:") {
			swapEpochs++
		}
		if strings.Contains(e.Label, "link ") && !strings.Contains(e.Label, "swap:") {
			linkEpochs++
		}
	}
	if res.Swaps > 0 && swapEpochs == 0 {
		t.Fatal("swaps applied but no swap-labelled epoch rolled")
	}
	if res.ScenarioEvents > 0 && linkEpochs == 0 {
		t.Fatal("scenario events applied but no link-labelled epoch rolled")
	}
	if res.Aggregate.Counter(dataplane.MetricTxSent) == 0 {
		t.Fatal("TxQueue egress saw no frames")
	}
}

// TestSoakOverloadBalances: on links far slower than the offered load
// the egress queues refuse packets. A refused packet stops where it was
// refused and is counted once, under tx.drop.*: it is neither delivered
// nor refereed, so generated = delivered + no-route + ttl + tx drops.
func TestSoakOverloadBalances(t *testing.T) {
	res, err := RunSoak(mustTopo(t, "grid:4x4"), SoakConfig{
		Panel:        Panel{Spec: "mtbf:up=2s,down=100ms", Seed: 3},
		Flows:        2_000,
		Duration:     300 * time.Millisecond,
		BandwidthBps: 1e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	tx := dataplane.TxDropped(res.Aggregate)
	if tx == 0 {
		t.Fatal("a 1 Mb/s egress refused nothing; the run is not overloaded")
	}
	if got := res.Delivered + res.DropNoRoute + res.DropTTL + tx; got != res.Generated {
		t.Fatalf("delivered %d + no-route %d + ttl %d + tx %d = %d; generated %d",
			res.Delivered, res.DropNoRoute, res.DropTTL, tx, got, res.Generated)
	}
	t.Logf("generated %d = delivered %d + no-route %d + ttl %d + tx %d",
		res.Generated, res.Delivered, res.DropNoRoute, res.DropTTL, tx)
	soakIdentities(t, res)
	if res.Pass {
		t.Fatalf("verdict PASS with drop fraction %.4f over the %.4f bound", res.DropFrac(), 0.02)
	}
}

var updateGolden = flag.Bool("update", false, "rewrite testdata goldens from this run")

// TestSoakReproducible: one seed gives one run. TestRunSoakSmoke's
// config runs twice, and once more on one P; every account field and
// every epoch's sim.* and tx.* counter deltas must agree, and the epoch
// table must match testdata/soak_epochs_seed1.golden.
func TestSoakReproducible(t *testing.T) {
	run := func() *SoakResult {
		t.Helper()
		res, err := RunSoak(mustTopo(t, "grid:4x4"), SoakConfig{
			Panel:     Panel{Spec: "mtbf:up=2s,down=100ms", Seed: 1},
			Flows:     3_000,
			Duration:  1200 * time.Millisecond,
			SwapEvery: 100 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := run()
	table := soakEpochTable(first)
	golden := filepath.Join("testdata", "soak_epochs_seed1.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(table), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if table != string(want) {
		t.Errorf("seed-1 epoch table differs from %s:\n--- got\n%s--- want\n%s", golden, table, want)
	}

	again := run()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	onOneP := run()
	for name, r := range map[string]*SoakResult{"second run": again, "GOMAXPROCS=1": onOneP} {
		// Wall time, its rates and the allocator's figures are the only
		// fields a clock or a runtime may move.
		rv, fv := reflect.ValueOf(*r), reflect.ValueOf(*first)
		for i := 0; i < rv.NumField(); i++ {
			switch f := rv.Type().Field(i).Name; f {
			case "Elapsed", "DecisionsPerSec", "DeliveredPerSec", "AllocBytes", "Mallocs", "NumGC", "Epochs", "Aggregate":
			default:
				if !reflect.DeepEqual(rv.Field(i).Interface(), fv.Field(i).Interface()) {
					t.Errorf("%s: %s = %v; the first run had %v", name, f, rv.Field(i), fv.Field(i))
				}
			}
		}
		if got := soakEpochTable(r); got != table {
			t.Errorf("%s: epoch table differs:\n--- got\n%s--- first run\n%s", name, got, table)
		}
	}
}

// TestSoakSpecSeed: flow k draws the traffic source's flow k, so a
// spec's seed= moves the run and a spec without one runs on the soak's
// seed — the contract ParseSpecSeeded states. The soak once seeded its
// flows from its own seed alone and printed one report for all three.
func TestSoakSpecSeed(t *testing.T) {
	table := func(spec string) string {
		t.Helper()
		res, err := RunSoak(mustTopo(t, "grid:4x4"), SoakConfig{
			Panel:     Panel{Spec: "mtbf:up=2s,down=100ms", Seed: 1},
			Flows:     3_000,
			Duration:  1200 * time.Millisecond,
			SwapEvery: 100 * time.Millisecond,
			Traffic:   spec,
		})
		if err != nil {
			t.Fatal(err)
		}
		return soakEpochTable(res)
	}
	def, seed1, seed7, seed8 := table(""), table("poisson:rate=2,seed=1"), table("poisson:rate=2,seed=7"), table("poisson:rate=2,seed=8")
	if seed1 != def {
		t.Error("poisson:rate=2,seed=1 differs from the default traffic at -seed 1")
	}
	if seed7 == def || seed8 == def || seed7 == seed8 {
		t.Error("a spec's seed= did not move the run")
	}
}

// TestSoakFlowSize pins a flow's whole footprint at 56 bytes: its
// 32-byte soakFlow plus its 24-byte entry on the pump's calendar. A soak
// holds one of each per flow, a hundred thousand by default.
func TestSoakFlowSize(t *testing.T) {
	flow, entry := unsafe.Sizeof(soakFlow{}), unsafe.Sizeof(sim.Entry[int32]{})
	if flow+entry != 56 {
		t.Errorf("a flow takes %d bytes (soakFlow %d + calendar entry %d); want 56", flow+entry, flow, entry)
	}
}

// TestSoakLandsControlAfterDrain: the control plane runs to the horizon
// whether or not traffic does. Two flows fall silent long before a flap
// burst late in the run, so the pump drains with link events and swaps
// still scheduled; every one of them lands, and each link event opens
// its own epoch. The pump once returned at the drain and landed none of
// them.
func TestSoakLandsControlAfterDrain(t *testing.T) {
	tp := mustTopo(t, "ring:8")
	cfg := SoakConfig{
		Panel:     Panel{Spec: "flap:link=3,at=700ms,flaps=4,period=50ms", Seed: 1},
		Flows:     2,
		Duration:  time.Second,
		SwapEvery: 100 * time.Millisecond,
		Traffic:   "poisson:rate=2",
	}
	res, err := RunSoak(tp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := failure.ParseScenario(cfg.Spec)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := proc.Generate(tp.Graph, cfg.Duration, failure.DrawSeed(cfg.Seed, 0))
	if err != nil {
		t.Fatal(err)
	}
	events, err := sc.Events(tp.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 8 {
		t.Fatalf("the flap burst has %d events; want 8", len(events))
	}
	if res.ScenarioEvents != len(events) {
		t.Errorf("%d scenario events landed; want all %d", res.ScenarioEvents, len(events))
	}
	if got := res.Swaps + res.SkippedSwaps; got != 9 {
		t.Errorf("%d swaps attempted; want 9, one every 100ms before the 1s horizon", got)
	}
	starts := map[time.Duration]string{}
	for _, e := range res.Epochs {
		starts[e.Start] = e.Label
	}
	for _, ev := range events {
		dir := "up"
		if ev.Down {
			dir = "down"
		}
		want := fmt.Sprintf("link %d %s", ev.Link, dir)
		if label, ok := starts[ev.At]; !ok || !strings.HasPrefix(label, want) {
			t.Errorf("no epoch opens at %v with %q (epoch there: %q)", ev.At, want, label)
		}
	}
}

// soakEpochTable prints one line per epoch: index, bounds, label and
// its non-zero sim.* and tx.* counter deltas, names sorted.
func soakEpochTable(r *SoakResult) string {
	var b strings.Builder
	for _, e := range r.Epochs {
		fmt.Fprintf(&b, "%d %v %v %q", e.Index, e.Start, e.End, e.Label)
		var names []string
		for name, v := range e.Delta.Counters {
			if v != 0 && (strings.HasPrefix(name, "sim.") || strings.HasPrefix(name, "tx.")) {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(&b, " %s=%d", name, e.Delta.Counters[name])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestSoakAcceptance is the PR's headline gate: ≥100k concurrent flows
// sustained for 30s of virtual time through the engine while the MTBF
// scenario and ≥10 hot-swaps (at least one structural) land on it —
// zero violations, bounded drops, exact timeline. Short mode scales down
// but keeps every structural element (scenario churn, structural swap,
// verdict).
func TestSoakAcceptance(t *testing.T) {
	cfg := SoakConfig{Flows: 100_000, Duration: 30 * time.Second}
	if testing.Short() {
		cfg = SoakConfig{
			Panel:     Panel{Spec: "mtbf:up=6s,down=150ms"},
			Flows:     20_000,
			Duration:  6 * time.Second,
			SwapEvery: 500 * time.Millisecond,
		}
	}
	res, err := RunSoak(mustTopo(t, "grid:8x8"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	soakIdentities(t, res)
	if res.Violations != 0 {
		t.Fatalf("%d violations across %d packets; want 0", res.Violations, res.Generated)
	}
	if !res.Pass {
		t.Fatalf("soak verdict FAIL: %v (drop frac %.4f)", res.FailReasons, res.DropFrac())
	}
	if res.Swaps < 10 {
		t.Fatalf("only %d hot-swaps landed; the acceptance bar is ≥10", res.Swaps)
	}
	if res.StructuralSwaps < 1 {
		t.Fatal("no structural hot-swap landed on the running engine")
	}
	if res.ScenarioEvents == 0 {
		t.Fatal("the failure scenario never touched the engine")
	}
	if res.DecisionsPerSec <= 0 || res.DeliveredPerSec <= 0 {
		t.Fatalf("sustained rates not reported: %+v", res)
	}
	t.Logf("soak: %d flows, %s: %d generated, %.0f decisions/s, %d swaps (%d structural), %d scenario events, drop frac %.4f",
		res.Flows, res.Elapsed.Round(time.Millisecond), res.Generated, res.DecisionsPerSec,
		res.Swaps, res.StructuralSwaps, res.ScenarioEvents, res.DropFrac())
}

// TestSoakSharedRegistry: handing RunSoak a live registry (the
// `prsim -metrics` path) must not double-count — the run subtracts its
// base snapshot, so pre-existing counts stay out of the result.
func TestSoakSharedRegistry(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter(sim.MetricGenerated).Add(1_000_000) // pre-existing noise
	res, err := RunSoak(mustTopo(t, "ring:12"), SoakConfig{
		Panel:    Panel{Metrics: reg},
		Flows:    500,
		Duration: 400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	soakIdentities(t, res)
	if res.Generated >= 1_000_000 {
		t.Fatalf("pre-existing registry counts bled into the run: generated %d", res.Generated)
	}
}

func TestSoakBadConfig(t *testing.T) {
	tp := mustTopo(t, "ring:8")
	if _, err := RunSoak(tp, SoakConfig{Panel: Panel{Spec: "quake:mag=9"}, Duration: time.Second}); err == nil {
		t.Fatal("unknown failure spec accepted")
	}
	if _, err := RunSoak(tp, SoakConfig{Traffic: "carrier-pigeon", Duration: time.Second}); err == nil {
		t.Fatal("unknown traffic spec accepted")
	}
	// Negative sizes and intervals once panicked (flows, batch), passed
	// over zero packets (duration) or never ended (swap interval).
	for _, tc := range []struct {
		name string
		cfg  SoakConfig
		want string
	}{
		{"flows", SoakConfig{Flows: -5}, "Flows must be ≥ 0 (got -5)"},
		{"batch", SoakConfig{BatchSize: -3}, "BatchSize must be ≥ 0 (got -3)"},
		{"max hops", SoakConfig{MaxHops: -1}, "MaxHops must be ≥ 0 (got -1)"},
		{"duration", SoakConfig{Duration: -time.Second}, "Duration must be ≥ 0 (got -1s)"},
		{"swap interval", SoakConfig{SwapEvery: -time.Second}, "SwapEvery must be ≥ 0 (got -1s)"},
	} {
		if _, err := RunSoak(tp, tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("negative %s: err %v; want %q", tc.name, err, tc.want)
		}
	}
	// A horizon too short for the default swap interval once divided by
	// a zero interval.
	if _, err := RunSoak(tp, SoakConfig{Flows: 10, Duration: 5}); err != nil {
		t.Fatalf("5ns soak: %v", err)
	}
}

// noFailures draws the empty scenario.
type noFailures struct{}

func (noFailures) Name() string    { return "none" }
func (noFailures) Validate() error { return nil }
func (noFailures) Generate(*graph.Graph, time.Duration, int64) (*failure.Scenario, error) {
	return &failure.Scenario{Name: "none"}, nil
}

// TestSoakQuietRunExcusesNothing: with no scenario event and no swap
// scheduled, the referee has nothing to excuse a loss with — the run
// must end with no transient, no excused and no violating loss at all.
func TestSoakQuietRunExcusesNothing(t *testing.T) {
	res, err := RunSoak(mustTopo(t, "grid:4x4"), SoakConfig{
		Panel:     Panel{Process: noFailures{}},
		Flows:     2_000,
		Duration:  400 * time.Millisecond,
		SwapEvery: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	soakIdentities(t, res)
	if res.Swaps != 0 || res.ScenarioEvents != 0 {
		t.Fatalf("%d swaps and %d link events applied; none was scheduled", res.Swaps, res.ScenarioEvents)
	}
	if res.Transient != 0 || res.Excused != 0 || res.Violations != 0 {
		t.Fatalf("transient %d, excused %d, violations %d; want all 0", res.Transient, res.Excused, res.Violations)
	}
}

// TestSoakRefereeAndSchedule pins the soak's referee and control
// schedule on a hand-built scenario: node 0 of ring:8 loses one link at
// 1 s and its other at 3 s (cut off until both repair at 4 s), and a
// swap is scheduled every 5 s before a 20 s horizon.
func TestSoakRefereeAndSchedule(t *testing.T) {
	tp := mustTopo(t, "ring:8")
	g := tp.Graph
	nb := g.Neighbors(0)
	la, lb := nb[0].Link, nb[1].Link
	sc := &failure.Scenario{Name: "hand-built", Outages: []failure.Outage{
		failure.LinkOutage(la, time.Second, 4*time.Second),
		failure.LinkOutage(lb, 3*time.Second, 4*time.Second),
	}}
	oracle, err := failure.NewOracle(g, sc)
	if err != nil {
		t.Fatal(err)
	}
	const ms = time.Millisecond
	// The pump's account: the oracle, with the swap schedule as its
	// excuse rule. A drop's class is the loss counter it moved.
	reg := telemetry.NewRegistry()
	acct := sim.NewAccount(reg, oracle, (&soakControl{every: 5 * time.Second, horizon: 20 * time.Second}).swapIn)
	classify := func(src, dst graph.NodeID, emit, now time.Duration) failure.Loss {
		base := reg.Snapshot()
		acct.Drop(sim.DropTTL, src, dst, emit, now)
		d := sim.TotalsOf(reg.Snapshot().Sub(base))
		return [...]failure.Loss{failure.LossViolation, failure.LossTransient, failure.LossExcused}[d.Transient+2*d.Excused]
	}
	for _, tc := range []struct {
		name      string
		src, dst  graph.NodeID
		emit, now time.Duration
		want      failure.Loss
	}{
		{"nothing in the window", 2, 5, 100 * ms, 200 * ms, failure.LossViolation},
		{"steady under a failure", 2, 5, 1100 * ms, 1200 * ms, failure.LossViolation},
		{"event inside the window", 2, 5, 900 * ms, 1100 * ms, failure.LossTransient},
		{"event exactly at emit", 2, 5, time.Second, 1200 * ms, failure.LossViolation},
		{"swap inside the window", 2, 5, 4900 * ms, 5100 * ms, failure.LossTransient},
		{"swap exactly at emit", 2, 5, 5 * time.Second, 5100 * ms, failure.LossViolation},
		{"no swap at the horizon", 2, 5, 19900 * ms, 20100 * ms, failure.LossViolation},
		{"partition", 0, 4, 3100 * ms, 3200 * ms, failure.LossExcused},
	} {
		if got := classify(tc.src, tc.dst, tc.emit, tc.now); got != tc.want {
			t.Errorf("%s: %d→%d over (%v, %v] classified %d; want %d",
				tc.name, tc.src, tc.dst, tc.emit, tc.now, got, tc.want)
		}
	}

	// The schedule: an event and a swap at one instant land event first,
	// and nothing lands before its instant.
	st, err := buildStack(tp, dataplane.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := st.recompiler(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := dataplane.NewEngine(st.fib, dataplane.EngineConfig{Shards: 1})
	defer eng.Close()
	events, err := sc.Events(g)
	if err != nil {
		t.Fatal(err)
	}
	events = append([]failure.Event{{At: 500 * ms, Link: lb, Down: true}, {At: 500 * ms, Link: lb, Down: false}}, events...)
	tl := telemetry.NewTimeline(telemetry.NewRegistry())
	c := newSoakControl(SoakConfig{Duration: 2 * time.Second, SwapEvery: 500 * ms, Panel: Panel{Seed: 1}},
		eng, dataplane.NewTxQueue(st.fib, dataplane.TxConfig{}), rec, tl, events, 0)
	c.applyDue(499 * ms)
	if c.ei != 0 || c.swaps != 0 {
		t.Fatalf("before 500ms: %d events and %d swaps applied; want none", c.ei, c.swaps)
	}
	if got := c.next(); got != 500*ms {
		t.Fatalf("next control instant %v; want 500ms", got)
	}
	fib0 := eng.FIB()
	c.applyDue(500 * ms)
	if c.ei != 2 || c.swaps != 1 || eng.FIB() == fib0 {
		t.Fatalf("at 500ms: %d events, %d swaps applied, FIB swapped %v; want 2, 1, true",
			c.ei, c.swaps, eng.FIB() != fib0)
	}
	if got := c.next(); got != time.Second {
		t.Fatalf("next control instant %v; want 1s", got)
	}
	c.applyDue(time.Second)
	if !eng.Snapshot().Down(la) {
		t.Fatalf("link %d not down on the engine after its 1s failure", la)
	}
	epochs := tl.Finish(2 * time.Second)
	want := []string{"start", fmt.Sprintf("link %d down; link %d up; swap: ", lb, lb), fmt.Sprintf("link %d down; swap: ", la)}
	if len(epochs) != len(want) {
		t.Fatalf("%d epochs; want %d: %+v", len(epochs), len(want), epochs)
	}
	for i, e := range epochs {
		if !strings.HasPrefix(e.Label, want[i]) {
			t.Errorf("epoch %d label %q; want prefix %q", i, e.Label, want[i])
		}
	}
}

func TestWriteSoakReport(t *testing.T) {
	res, err := RunSoak(mustTopo(t, "grid:4x4"), SoakConfig{
		Flows:     1_000,
		Duration:  600 * time.Millisecond,
		SwapEvery: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	WriteSoakReport(&b, res)
	out := b.String()
	for _, want := range []string{
		"soak:", "flows", "scenario", "generated", "delivered",
		"violations", "swaps", "decisions", "verdict:",
		"ep ", // the per-epoch table header
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report lacks %q:\n%s", want, out)
		}
	}
	if res.Pass && !strings.Contains(out, "verdict: PASS") {
		t.Fatalf("passing run must grep as \"verdict: PASS\":\n%s", out)
	}
}

// BenchmarkSoak measures whole-stack throughput: decisions per
// CPU-second of a virtual-time soak under churn and hot-swaps. It lives
// in internal/eval deliberately: the CI bench gate pins the dataplane
// microbenchmarks by name and does not sweep this package, whose
// multi-second whole-stack iterations it was never tuned for.
func BenchmarkSoak(b *testing.B) {
	tp, err := topo.ByName("grid:6x6")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := RunSoak(tp, SoakConfig{
			Flows:     20_000,
			Duration:  2 * time.Second,
			SwapEvery: 250 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.DecisionsPerSec, "decisions/s")
		b.ReportMetric(res.DeliveredPerSec, "delivered/s")
	}
}
