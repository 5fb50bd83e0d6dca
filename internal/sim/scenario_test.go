package sim

import (
	"testing"
	"time"

	"recycle/internal/core"
	"recycle/internal/failure"
	"recycle/internal/graph"
	"recycle/internal/traffic"
)

// TestFailNodeAt: a node outage scheduled through ApplyScenario behaves
// like graph.FailNode — every incident link fails at the instant, and
// flows through the dead router reroute or die exactly as the §4
// dead-router model says.
func TestFailNodeAt(t *testing.T) {
	g := graph.Ring(6)
	s, err := New(Config{
		Graph:   g,
		Scheme:  prScheme(t, g, core.Full),
		Horizon: time.Second,
		Flows:   []Flow{{Src: 0, Dst: 3, Source: traffic.Fixed{Interval: 5 * time.Millisecond}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Node 1 sits on the clockwise 0→3 shortest path; killing it forces
	// packets the long way round. It never comes back.
	sc := &failure.Scenario{Name: "node 1", Outages: []failure.Outage{
		failure.NodeOutageAt(1, 200*time.Millisecond, failure.Forever),
	}}
	if err := s.ApplyScenario(sc); err != nil {
		t.Fatal(err)
	}
	st := s.Run()
	if st.Counter(MetricGenerated) == 0 || st.Counter(MetricDelivered) == 0 {
		t.Fatalf("no traffic flowed: %+v", st)
	}
	// The pair stays connected (counter-clockwise path survives): only the
	// detection-window losses may occur, everything after must deliver.
	lost := st.Counter(MetricGenerated) - st.Counter(MetricDelivered)
	if lost == 0 {
		t.Fatal("node failure on the shortest path lost nothing; detection window should bite")
	}
	// The knownDown set must end up covering exactly node 1's links.
	want := graph.FailNode(g, 1)
	for _, l := range want.Links() {
		if !s.KnownFailures().Down(l) {
			t.Fatalf("incident link %d not detected down after the node outage", l)
		}
	}
	if s.KnownFailures().Len() != want.Len() {
		t.Fatalf("known failures %v; want exactly node 1's incident links %v", s.KnownFailures(), want)
	}
}

// TestRepairNodeAt: the node's return repairs every incident link.
func TestRepairNodeAt(t *testing.T) {
	g := graph.Ring(6)
	s, err := New(Config{
		Graph:   g,
		Scheme:  prScheme(t, g, core.Full),
		Horizon: time.Second,
		Flows:   []Flow{{Src: 0, Dst: 3, Source: traffic.Fixed{Interval: 5 * time.Millisecond}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	sc := &failure.Scenario{Name: "node 1", Outages: []failure.Outage{
		failure.NodeOutageAt(1, 100*time.Millisecond, 300*time.Millisecond),
	}}
	if err := s.ApplyScenario(sc); err != nil {
		t.Fatal(err)
	}
	st := s.Run()
	if st.Counter(MetricGenerated) == 0 {
		t.Fatal("no packets generated")
	}
	if s.KnownFailures().Len() != 0 {
		t.Fatalf("links still marked down after the node's repair: %v", s.KnownFailures())
	}
}

// TestApplyScenarioSchedulesMergedEvents: overlapping outages of one link
// must not resurrect it when the first cause repairs.
func TestApplyScenarioSchedulesMergedEvents(t *testing.T) {
	g := graph.Ring(6)
	s, err := New(Config{
		Graph:          g,
		Scheme:         prScheme(t, g, core.Full),
		Horizon:        time.Second,
		DetectionDelay: InstantDetection,
		Flows:          []Flow{{Src: 0, Dst: 3, Source: traffic.Fixed{Interval: 5 * time.Millisecond}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	sc := &failure.Scenario{Name: "overlap", Outages: []failure.Outage{
		failure.LinkOutage(0, 100*time.Millisecond, 400*time.Millisecond),
		failure.LinkOutage(0, 200*time.Millisecond, 600*time.Millisecond),
	}}
	if err := s.ApplyScenario(sc); err != nil {
		t.Fatal(err)
	}
	if s.Oracle() == nil {
		t.Fatal("ApplyScenario did not install the oracle")
	}
	st := s.Run()
	// With instantaneous detection and the pair connected throughout (one
	// ring link down at a time), PR must deliver everything: a violation
	// here would mean the merge resurrected link 0 at 400ms and a packet
	// died on the phantom repair.
	if st.Counter(MetricLossViolation) != 0 {
		t.Fatalf("violations = %d; want 0 (overlap merge must hold the link down until 600ms)", st.Counter(MetricLossViolation))
	}
	if st.Counter(MetricDelivered) != st.Counter(MetricGenerated) {
		t.Fatalf("delivered %d of %d with instant detection and a connected pair", st.Counter(MetricDelivered), st.Counter(MetricGenerated))
	}
}

func TestApplyScenarioRejectsInvalid(t *testing.T) {
	g := graph.Ring(4)
	s, err := New(Config{
		Graph:   g,
		Scheme:  prScheme(t, g, core.Full),
		Horizon: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	bad := &failure.Scenario{Name: "bad", Outages: []failure.Outage{
		failure.LinkOutage(99, 0, time.Second),
	}}
	if err := s.ApplyScenario(bad); err == nil {
		t.Fatal("out-of-range scenario accepted")
	}
	if s.Oracle() != nil {
		t.Fatal("oracle installed despite the rejected scenario")
	}
}

// TestLossClassification drives each of the three loss classes:
// violations (connected + stable — must be zero for PR), excused (the
// pair was partitioned), and delivery through everything else.
func TestLossClassification(t *testing.T) {
	g := graph.Ring(4)
	// Partition node 0: both incident links (0 and 3) down for [100ms, 500ms).
	sc := &failure.Scenario{Name: "partition", Outages: []failure.Outage{
		failure.LinkOutage(0, 100*time.Millisecond, 500*time.Millisecond),
		failure.LinkOutage(3, 100*time.Millisecond, 500*time.Millisecond),
	}}
	s, err := New(Config{
		Graph:          g,
		Scheme:         prScheme(t, g, core.Full),
		Horizon:        time.Second,
		DetectionDelay: InstantDetection,
		Flows:          []Flow{{Src: 0, Dst: 2, Source: traffic.Fixed{Interval: 5 * time.Millisecond}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyScenario(sc); err != nil {
		t.Fatal(err)
	}
	st := s.Run()
	if st.Counter(MetricLossExcused) == 0 {
		t.Fatalf("no excused losses across a 400ms partition: %+v", st)
	}
	if st.Counter(MetricLossViolation) != 0 {
		t.Fatalf("PR shows %d violations with instant detection; want 0", st.Counter(MetricLossViolation))
	}
	if st.Counter(MetricLossExcused)+st.Counter(MetricLossTransient)+st.Counter(MetricLossViolation) != st.Counter(MetricGenerated)-st.Counter(MetricDelivered) {
		t.Fatalf("classification does not partition the losses: %+v", st)
	}
}

// TestTransientClassification: with a real (non-instant) detection delay,
// packets in flight when a link dies are lost in the §7 transient regime,
// not counted as violations.
func TestTransientClassification(t *testing.T) {
	g := graph.Ring(6)
	sc := &failure.Scenario{Name: "one-cut", Outages: []failure.Outage{
		failure.LinkOutage(0, 100*time.Millisecond, failure.Forever),
	}}
	s, err := New(Config{
		Graph:          g,
		Scheme:         prScheme(t, g, core.Full),
		Horizon:        time.Second,
		DetectionDelay: 50 * time.Millisecond,
		Flows:          []Flow{{Src: 0, Dst: 3, Source: traffic.Fixed{Interval: time.Millisecond}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyScenario(sc); err != nil {
		t.Fatal(err)
	}
	st := s.Run()
	// The pair stays connected (it is one ring link): every detection-
	// window loss is transient — created before or during the state
	// change's epoch boundary... packets created *after* the change that
	// still die (routers not yet aware) lived under one stable epoch and
	// are violations of the instant-knowledge ideal, but PR's §1 guarantee
	// is stated for detected failures; the sim therefore only reaches zero
	// violations under InstantDetection. Here we assert the split is
	// consistent and that losses exist at all.
	lost := st.Counter(MetricGenerated) - st.Counter(MetricDelivered)
	if lost == 0 {
		t.Fatal("no detection-window losses on an undetected cut")
	}
	if st.Counter(MetricLossExcused) != 0 {
		t.Fatalf("excused = %d on a connected pair; want 0", st.Counter(MetricLossExcused))
	}
	if st.Counter(MetricLossViolation)+st.Counter(MetricLossTransient) != lost {
		t.Fatalf("violations %d + transient %d ≠ lost %d", st.Counter(MetricLossViolation), st.Counter(MetricLossTransient), lost)
	}
}

// TestInstantDetectionZeroLoss: the guarantee regime — with instantaneous
// detection and the pair connected throughout, PR delivers every packet
// across a mid-run failure.
func TestInstantDetectionZeroLoss(t *testing.T) {
	g := graph.Ring(6)
	s, err := New(Config{
		Graph:          g,
		Scheme:         prScheme(t, g, core.Full),
		Horizon:        time.Second,
		DetectionDelay: InstantDetection,
		Flows:          []Flow{{Src: 0, Dst: 3, Source: traffic.Fixed{Interval: time.Millisecond}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.FailLinkAt(0, 100*time.Millisecond)
	s.RepairLinkAt(0, 600*time.Millisecond)
	st := s.Run()
	if st.Counter(MetricDelivered) != st.Counter(MetricGenerated) {
		t.Fatalf("lost %d packets under instant detection on a connected pair: %+v",
			st.Counter(MetricGenerated)-st.Counter(MetricDelivered), st)
	}
}

// TestInstantDetectionHoldDownStillDelays: InstantDetection removes the
// detection latency but a configured hold-down still damps recoveries.
func TestInstantDetectionHoldDownStillDelays(t *testing.T) {
	g := graph.Ring(4)
	s, err := New(Config{
		Graph:          g,
		Scheme:         prScheme(t, g, core.Full),
		Horizon:        time.Second,
		DetectionDelay: InstantDetection,
		HoldDown:       200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.FailLinkAt(0, 100*time.Millisecond)
	s.RepairLinkAt(0, 300*time.Millisecond)
	st := s.Run()
	_ = st
	// At 300ms the link is physically up but held down until 500ms.
	// Run() has completed, so the final state must be repaired.
	if s.KnownFailures().Down(0) {
		t.Fatal("link still known-down after the hold-down expired")
	}
}

func TestNegativeDetectionDelayRejected(t *testing.T) {
	g := graph.Ring(4)
	if _, err := New(Config{
		Graph:          g,
		Scheme:         prScheme(t, g, core.Full),
		Horizon:        time.Second,
		DetectionDelay: -2,
	}); err == nil {
		t.Fatal("negative detection delay other than InstantDetection accepted")
	}
}
