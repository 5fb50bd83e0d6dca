package sim

import (
	"testing"
	"time"

	"recycle/internal/core"
	"recycle/internal/dataplane"
	"recycle/internal/embedding"
	"recycle/internal/graph"
	"recycle/internal/route"
	"recycle/internal/telemetry"
	"recycle/internal/topo"
)

// prProtocol builds the v-variant protocol over g's automatic embedding
// and hop-count tables.
func prProtocol(t *testing.T, g *graph.Graph, v core.Variant) *core.Protocol {
	t.Helper()
	sys, err := (embedding.Auto{Seed: 1}).Embed(g)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.New(g, sys, route.Build(g, route.HopCount), core.Config{Variant: v})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// prScheme is PR on the FIB compiled from prProtocol.
func prScheme(t *testing.T, g *graph.Graph, v core.Variant) *PRScheme {
	t.Helper()
	return compiledScheme(t, prProtocol(t, g, v))
}

// compiledScheme is PR on the FIB compiled from p.
func compiledScheme(t *testing.T, p *core.Protocol) *PRScheme {
	t.Helper()
	fib, err := dataplane.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	return &PRScheme{FIB: fib}
}

func TestConfigValidation(t *testing.T) {
	g := graph.Ring(4)
	if _, err := New(Config{Scheme: prScheme(t, g, core.Full), Horizon: time.Second}); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := New(Config{Graph: g, Horizon: time.Second}); err == nil {
		t.Fatal("nil scheme accepted")
	}
	if _, err := New(Config{Graph: g, Scheme: prScheme(t, g, core.Full)}); err == nil {
		t.Fatal("zero horizon accepted")
	}
	if _, err := New(Config{Graph: g, Scheme: prScheme(t, g, core.Full), Horizon: time.Second,
		Flows: []Flow{{Src: 0, Dst: 1}}}); err == nil {
		t.Fatal("zero-interval flow accepted")
	}
}

func TestFailureFreeDeliveryAndLatency(t *testing.T) {
	g := graph.Ring(4) // unit weights → min 10 µs propagation per hop
	s, err := New(Config{
		Graph:   g,
		Scheme:  prScheme(t, g, core.Full),
		Horizon: time.Second,
		Flows:   []Flow{{Src: 0, Dst: 2, Interval: 10 * time.Millisecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := s.Run()
	if st.Counter(MetricGenerated) == 0 {
		t.Fatal("no packets generated")
	}
	if DeliveryRate(st) != 1 {
		t.Fatalf("delivery rate = %v; want 1 without failures", DeliveryRate(st))
	}
	// Two hops of ≥10 µs plus two ≈0.8 µs serialisations each way.
	if MeanLatency(st) < 20*time.Microsecond {
		t.Fatalf("mean latency = %v; want ≥ 20 µs", MeanLatency(st))
	}
	if st.Counter(MetricHops) != 2*st.Counter(MetricDelivered) {
		t.Fatalf("hops = %d; want 2 per packet", st.Counter(MetricHops))
	}
}

func TestDeterministicRuns(t *testing.T) {
	g := graph.Ring(6)
	run := func() *telemetry.Snapshot {
		s, err := New(Config{
			Graph:   g,
			Scheme:  prScheme(t, g, core.Full),
			Horizon: 500 * time.Millisecond,
			Flows: []Flow{
				{Src: 0, Dst: 3, Interval: 3 * time.Millisecond},
				{Src: 2, Dst: 5, Interval: 5 * time.Millisecond},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		s.FailLinkAt(0, 100*time.Millisecond)
		return s.Run()
	}
	a, b := run(), run()
	if a.Counter(MetricGenerated) != b.Counter(MetricGenerated) || a.Counter(MetricDelivered) != b.Counter(MetricDelivered) || a.Counter(MetricLatencyNs) != b.Counter(MetricLatencyNs) {
		t.Fatalf("runs differ: %+v vs %+v", a, b)
	}
}

// TestPRLossWindowIsDetectionOnly: PR drops exactly the packets emitted
// into the dead link during the detection delay, then recovers instantly.
func TestPRLossWindowIsDetectionOnly(t *testing.T) {
	tp := topo.Abilene(topo.UnitWeights)
	g := tp.Graph
	res, err := RunLossWindow(Config{
		Graph:          g,
		Scheme:         prScheme(t, g, core.Full),
		Horizon:        2 * time.Second,
		DetectionDelay: 50 * time.Millisecond,
	}, g.NodeByName("Seattle"), g.NodeByName("LosAngeles"), 1000, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// 1000 pps × 50 ms ≈ 50 packets blackholed (±few for boundary/in-flight).
	if res.Blackhole < 40 || res.Blackhole > 60 {
		t.Fatalf("blackholed = %d; want ≈50 (detection window only)", res.Blackhole)
	}
	if res.NoRoute != 0 || res.TTL != 0 {
		t.Fatalf("PR dropped outside the detection window: %+v", res)
	}
	if res.Delivered+res.Blackhole < res.Generated-2 {
		t.Fatalf("unaccounted packets: %+v", res)
	}
}

// TestReconvLossWindowLargerThanPR reproduces the paper's motivation: the
// reconverging IGP loses far more packets than PR for the same outage.
func TestReconvLossWindowLargerThanPR(t *testing.T) {
	tp := topo.Abilene(topo.UnitWeights)
	g := tp.Graph
	src, dst := g.NodeByName("Seattle"), g.NodeByName("LosAngeles")

	prRes, err := RunLossWindow(Config{
		Graph: g, Scheme: prScheme(t, g, core.Full), Horizon: 2 * time.Second,
	}, src, dst, 2000, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	rcRes, err := RunLossWindow(Config{
		Graph: g, Scheme: &ReconvScheme{}, Horizon: 2 * time.Second,
	}, src, dst, 2000, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	prLost := prRes.Generated - prRes.Delivered
	rcLost := rcRes.Generated - rcRes.Delivered
	if rcLost <= prLost {
		t.Fatalf("reconvergence lost %d ≤ PR lost %d; paper's motivation not reproduced", rcLost, prLost)
	}
	// Reconvergence eventually recovers too.
	if rcRes.Delivered == 0 {
		t.Fatal("reconvergence never delivered")
	}
}

// TestFCPSchemeRecovers: FCP loses only the detection window, like PR.
func TestFCPSchemeRecovers(t *testing.T) {
	tp := topo.Abilene(topo.UnitWeights)
	g := tp.Graph
	res, err := RunLossWindow(Config{
		Graph: g, Scheme: &FCPScheme{}, Horizon: 2 * time.Second,
	}, g.NodeByName("Seattle"), g.NodeByName("LosAngeles"), 1000, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.NoRoute != 0 || res.TTL != 0 {
		t.Fatalf("FCP dropped outside detection: %+v", res)
	}
	if res.Blackhole > 60 {
		t.Fatalf("FCP blackholed %d; want ≈50", res.Blackhole)
	}
}

// TestLinkRepair: traffic switches back after the link recovers and
// detection propagates.
func TestLinkRepair(t *testing.T) {
	g := graph.Ring(4)
	s, err := New(Config{
		Graph:          g,
		Scheme:         prScheme(t, g, core.Full),
		Horizon:        time.Second,
		DetectionDelay: 10 * time.Millisecond,
		Flows:          []Flow{{Src: 0, Dst: 1, Interval: 5 * time.Millisecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.FailLinkAt(0, 200*time.Millisecond)
	s.RepairLinkAt(0, 400*time.Millisecond)
	st := s.Run()
	// Roughly (10ms detection + in-flight) / 5ms ≈ 2-4 blackholes; all the
	// rest delivered.
	if st.Counter(MetricDropBlackhole) > 5 {
		t.Fatalf("blackholed = %d; want a handful", st.Counter(MetricDropBlackhole))
	}
	if DeliveryRate(st) < 0.97 {
		t.Fatalf("delivery rate = %v; want ≈1 with recovery", DeliveryRate(st))
	}
}

// TestSerialisationBackpressure: a slow link forces queueing latency.
func TestSerialisationBackpressure(t *testing.T) {
	g := graph.Ring(3)
	s, err := New(Config{
		Graph:        g,
		Scheme:       prScheme(t, g, core.Full),
		Horizon:      100 * time.Millisecond,
		BandwidthBps: 1e6, // 1 Mb/s: 8192 bits ≈ 8.2 ms per packet
		Flows:        []Flow{{Src: 0, Dst: 1, Interval: time.Millisecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := s.Run()
	if st.Counter(MetricDelivered) == 0 {
		t.Fatal("nothing delivered")
	}
	// Queue builds: mean latency must exceed one serialisation time.
	if MeanLatency(st) < 8*time.Millisecond {
		t.Fatalf("mean latency = %v; want ≥ 8 ms under backpressure", MeanLatency(st))
	}
	if MaxLatency(st) <= MeanLatency(st) {
		t.Fatal("max latency should exceed mean under growing queue")
	}
}

// TestTTLDropsOnLoop: the Basic variant's Figure 1(c) loop must surface as
// TTL drops, not hang the simulator.
func TestTTLDropsOnLoop(t *testing.T) {
	tp := topo.PaperExample()
	g := tp.Graph
	tbl := route.Build(g, route.HopCount)
	p, err := core.New(g, tp.Embedding, tbl, core.Config{Variant: core.Basic})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Graph:          g,
		Scheme:         compiledScheme(t, p),
		Horizon:        200 * time.Millisecond,
		DetectionDelay: time.Millisecond,
		Flows:          []Flow{{Src: g.NodeByName("A"), Dst: g.NodeByName("F"), Interval: 10 * time.Millisecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.FailLinkAt(g.FindLink(g.NodeByName("D"), g.NodeByName("E")), 20*time.Millisecond)
	s.FailLinkAt(g.FindLink(g.NodeByName("B"), g.NodeByName("C")), 20*time.Millisecond)
	st := s.Run()
	if st.Counter(MetricDropTTL) == 0 {
		t.Fatal("expected TTL drops from the basic-variant loop")
	}
}

func TestStatsHelpers(t *testing.T) {
	st := &telemetry.Snapshot{Counters: map[string]uint64{}}
	if DeliveryRate(st) != 1 || MeanLatency(st) != 0 || Dropped(st) != 0 {
		t.Fatal("zero-value delta helpers wrong")
	}
	st.SetCounter(MetricGenerated, 4)
	st.SetCounter(MetricDelivered, 2)
	st.SetCounter(MetricDropTTL, 2)
	st.SetCounter(MetricLatencyNs, uint64(10*time.Millisecond))
	if DeliveryRate(st) != 0.5 || Dropped(st) != 2 || MeanLatency(st) != 5*time.Millisecond {
		t.Fatalf("delta helpers wrong: %+v", st)
	}
}
