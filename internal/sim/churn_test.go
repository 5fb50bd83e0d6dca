package sim

import (
	"testing"
	"time"

	"recycle/internal/core"
	"recycle/internal/dataplane"
	"recycle/internal/graph"
	"recycle/internal/telemetry"
	"recycle/internal/topo"
)

// churnScheme builds a compiled PR scheme with a delta recompiler over a
// topology.
func churnScheme(t *testing.T, p *core.Protocol) *PRScheme {
	t.Helper()
	rec, err := dataplane.NewRecompiler(p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &PRScheme{FIB: rec.FIB(), Recompiler: rec}
}

// TestMaintenanceDrain pins the maintenance scenario class: drain, then
// kill. A delta-recompiled PR router has moved every packet off the link
// before it dies — zero loss, no recycling stretch; a stale router
// survives on re-cycling but eats the detection window's blackhole loss;
// the announced update spares the reconverging IGP its §1 loss too.
func TestMaintenanceDrain(t *testing.T) {
	tp := topo.Geant(topo.DistanceWeights)
	cfg := Config{
		Graph:          tp.Graph,
		Horizon:        3 * time.Second,
		DetectionDelay: 50 * time.Millisecond,
	}
	src, dst := graph.NodeID(0), graph.NodeID(12)
	const pps = 1000
	drainAt, failAt := 1*time.Second, 2*time.Second

	interpreted := prProtocol(t, tp.Graph, core.Full)

	// Updated PR: zero loss across the planned outage.
	cfg.Scheme = churnScheme(t, interpreted)
	updated, err := RunMaintenance(cfg, src, dst, pps, drainAt, failAt)
	if err != nil {
		t.Fatal(err)
	}
	if updated.Blackhole != 0 || updated.NoRoute != 0 || updated.TTL != 0 {
		t.Fatalf("updated PR lost packets across planned maintenance: %+v", updated)
	}
	if updated.Delivered != updated.Generated {
		t.Fatalf("updated PR delivered %d of %d", updated.Delivered, updated.Generated)
	}

	// Stale PR (no recompiler): still forwarding over the drained link
	// when it dies — the detection window's blackhole loss, even though
	// the outage was announced.
	cfg.Scheme = &PRScheme{FIB: churnScheme(t, interpreted).FIB}
	stale, err := RunMaintenance(cfg, src, dst, pps, drainAt, failAt)
	if err != nil {
		t.Fatal(err)
	}
	if stale.Blackhole == 0 {
		t.Fatalf("stale PR should blackhole during the detection window: %+v", stale)
	}

	// Reconverging IGP: the announced drain converges before the kill,
	// so planned maintenance costs it nothing either.
	cfg.Scheme = &ReconvScheme{}
	igp, err := RunMaintenance(cfg, src, dst, pps, drainAt, failAt)
	if err != nil {
		t.Fatal(err)
	}
	if igp.Blackhole != 0 || igp.NoRoute != 0 {
		t.Fatalf("IGP lost packets across announced maintenance: %+v", igp)
	}
}

// TestTopologyUpdateAddLink grows the simulated network mid-run: a new
// chord comes up, the delta recompiler picks it up, and the flow's path
// shortens — while an un-updated scheme keeps its longer (but still
// delivered) route.
func TestTopologyUpdateAddLink(t *testing.T) {
	g := graph.Ring(12)
	interpreted := prProtocol(t, g, core.Full)

	run := func(scheme Scheme) *telemetry.Snapshot {
		s, err := New(Config{
			Graph:   g,
			Scheme:  scheme,
			Flows:   []Flow{{Src: 0, Dst: 6, Interval: time.Millisecond}},
			Horizon: 2 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.UpdateTopologyAt(time.Second, graph.AddLinkEdit(0, 6, 1)); err != nil {
			t.Fatal(err)
		}
		return s.Run()
	}

	withDelta := run(churnScheme(t, interpreted))
	stale := run(&PRScheme{FIB: churnScheme(t, interpreted).FIB})
	if withDelta.Counter(MetricDelivered) != withDelta.Counter(MetricGenerated) {
		t.Fatalf("delta scheme dropped: %+v", withDelta)
	}
	if stale.Counter(MetricDelivered) != stale.Counter(MetricGenerated) {
		t.Fatalf("stale scheme dropped: %+v", stale)
	}
	if withDelta.Counter(MetricHops) >= stale.Counter(MetricHops) {
		t.Fatalf("new link unused: delta %d hops, stale %d", withDelta.Counter(MetricHops), stale.Counter(MetricHops))
	}
}

// TestUpdateTopologyAtValidation covers the rejected maintenance plans.
func TestUpdateTopologyAtValidation(t *testing.T) {
	g := graph.Ring(6)
	s, err := New(Config{
		Graph:   g,
		Scheme:  prScheme(t, g, core.Full),
		Horizon: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.UpdateTopologyAt(time.Millisecond); err == nil {
		t.Fatal("empty update accepted")
	}
	if err := s.UpdateTopologyAt(time.Millisecond, graph.RemoveLinkEdit(0)); err == nil {
		t.Fatal("mid-run removal accepted")
	}
	if err := s.UpdateTopologyAt(time.Millisecond, graph.Edit{Kind: graph.EditKind(9)}); err == nil {
		t.Fatal("unknown edit kind accepted")
	}
}

// TestTopologyUpdateFaults feeds the simulator the two internal faults a
// planned update can hit — an edit naming a link that does not exist, and
// a recompiler that rejects an edit the simulator accepted — and expects
// each run to finish on the stale state, every packet delivered, with the
// fault counted once.
func TestTopologyUpdateFaults(t *testing.T) {
	g := graph.Ring(12)
	scheme := churnScheme(t, prProtocol(t, g, core.Full))
	// A recompiler over a smaller ring: link 9 exists in g, not there.
	scheme.Recompiler = churnScheme(t, prProtocol(t, graph.Ring(6), core.Full)).Recompiler

	for _, tc := range []struct {
		name   string
		edit   graph.Edit
		metric string
	}{
		{"out-of-range link", graph.SetWeight(99, 2), MetricFaultTopoUpdate},
		{"failed recompile", graph.SetWeight(9, 2), MetricFaultRecompile},
	} {
		s, err := New(Config{
			Graph:   g,
			Scheme:  scheme,
			Flows:   []Flow{{Src: 0, Dst: 6, Interval: time.Millisecond}},
			Horizon: 2 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.UpdateTopologyAt(time.Second, tc.edit); err != nil {
			t.Fatal(err)
		}
		res := s.Run()
		if got := res.Counter(tc.metric); got != 1 {
			t.Fatalf("%s: %s = %d; want 1", tc.name, tc.metric, got)
		}
		if faults := res.Counter(MetricFaultTopoUpdate) + res.Counter(MetricFaultRecompile); faults != 1 {
			t.Fatalf("%s: %d faults counted; want 1", tc.name, faults)
		}
		if gen, del := res.Counter(MetricGenerated), res.Counter(MetricDelivered); gen < 1900 || del != gen {
			t.Fatalf("%s: delivered %d of %d after the fault", tc.name, del, gen)
		}
	}
}

// TestStaleSchemeIgnoresUnknownLink: a compiled scheme the control plane
// has not updated keeps the link space of its FIB. When a link added after
// that fails, the router was never told of it and cannot detect its
// failure: the detection is ignored, not written past the link-state
// bitset (a panic on ring:64, whose 64 links fill one word exactly; a
// skewed failed-link count on other sizes).
func TestStaleSchemeIgnoresUnknownLink(t *testing.T) {
	g := graph.Ring(64)
	fib := churnScheme(t, prProtocol(t, g, core.Full)).FIB
	compiled, wire := &PRScheme{FIB: fib}, &WirePRScheme{FIB: fib}
	for _, tc := range []struct {
		scheme Scheme
		state  func() *dataplane.LinkState
	}{
		{compiled, func() *dataplane.LinkState { return compiled.state }},
		{wire, func() *dataplane.LinkState { return wire.state }},
	} {
		s, err := New(Config{
			Graph:   g,
			Scheme:  tc.scheme,
			Flows:   []Flow{{Src: 0, Dst: 32, Interval: time.Millisecond}},
			Horizon: 3 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.UpdateTopologyAt(time.Second, graph.AddLinkEdit(0, 32, 1)); err != nil {
			t.Fatal(err)
		}
		s.FailLinkAt(64, 2*time.Second)
		res := s.Run()
		if got := tc.state().CountDown(); got != 0 {
			t.Errorf("%s: %d links down in a link space that does not hold the failed one", tc.scheme.Name(), got)
		}
		if gen, del := res.Counter(MetricGenerated), res.Counter(MetricDelivered); gen < 2900 || del != gen {
			t.Errorf("%s: delivered %d of %d on the stale FIB", tc.scheme.Name(), del, gen)
		}
	}
}
