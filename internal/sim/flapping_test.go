package sim

import (
	"testing"
	"time"

	"recycle/internal/core"
	"recycle/internal/graph"
	"recycle/internal/traffic"
)

// TestFlapDampingSuppressesBouncingLink: a link that flaps faster than the
// hold-down never re-enters the routers' view as up, so forwarding stays on
// the stable detour (§7's flap-damping discussion).
func TestFlapDampingSuppressesBouncingLink(t *testing.T) {
	g := graph.Ring(4)
	s, err := New(Config{
		Graph:          g,
		Scheme:         prScheme(t, g, core.Full),
		Horizon:        time.Second,
		DetectionDelay: 5 * time.Millisecond,
		HoldDown:       200 * time.Millisecond,
		Flows:          []Flow{{Src: 0, Dst: 1, Source: traffic.Fixed{Interval: 2 * time.Millisecond}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Link 0 (0-1) fails at 100 ms then flaps up/down every 50 ms — each
	// up-transition is cancelled by the next down before the 200 ms
	// hold-down expires.
	s.FailLinkAt(0, 100*time.Millisecond)
	for ts := 150 * time.Millisecond; ts < 900*time.Millisecond; ts += 100 * time.Millisecond {
		s.RepairLinkAt(0, ts)
		s.FailLinkAt(0, ts+50*time.Millisecond)
	}
	st := s.Run()
	// Without damping, every brief up-phase would pull traffic back onto
	// the flapping link and blackhole it at the next down. With damping,
	// losses are limited to the initial detection window.
	if st.Counter(MetricDropBlackhole) > 5 {
		t.Fatalf("blackholed = %d with hold-down; want only the initial detection window", st.Counter(MetricDropBlackhole))
	}
	if DeliveryRate(st) < 0.97 {
		t.Fatalf("delivery rate = %v; want ≈1", DeliveryRate(st))
	}
}

// TestNoHoldDownSuffersFromFlapping is the control: with recoveries acted
// on immediately, the same flap pattern blackholes packets repeatedly.
func TestNoHoldDownSuffersFromFlapping(t *testing.T) {
	g := graph.Ring(4)
	s, err := New(Config{
		Graph:          g,
		Scheme:         prScheme(t, g, core.Full),
		Horizon:        time.Second,
		DetectionDelay: 5 * time.Millisecond,
		Flows:          []Flow{{Src: 0, Dst: 1, Source: traffic.Fixed{Interval: 2 * time.Millisecond}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.FailLinkAt(0, 100*time.Millisecond)
	for ts := 150 * time.Millisecond; ts < 900*time.Millisecond; ts += 100 * time.Millisecond {
		s.RepairLinkAt(0, ts)
		s.FailLinkAt(0, ts+50*time.Millisecond)
	}
	st := s.Run()
	if st.Counter(MetricDropBlackhole) <= 5 {
		t.Fatalf("blackholed = %d without hold-down; expected repeated losses from flapping", st.Counter(MetricDropBlackhole))
	}
}

// TestHoldDownEventuallyRestoresLink: once the link stays up longer than
// the hold-down, traffic returns to the shortest path.
func TestHoldDownEventuallyRestoresLink(t *testing.T) {
	g := graph.Ring(4)
	s, err := New(Config{
		Graph:          g,
		Scheme:         prScheme(t, g, core.Full),
		Horizon:        2 * time.Second,
		DetectionDelay: 5 * time.Millisecond,
		HoldDown:       100 * time.Millisecond,
		Flows:          []Flow{{Src: 0, Dst: 1, Start: time.Second, Source: traffic.Fixed{Interval: 5 * time.Millisecond}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Fail and repair long before traffic starts: by t=1 s the link is
	// back and the hold-down has expired, so all packets take 1 hop.
	s.FailLinkAt(0, 100*time.Millisecond)
	s.RepairLinkAt(0, 200*time.Millisecond)
	st := s.Run()
	if DeliveryRate(st) != 1 {
		t.Fatalf("delivery rate = %v; want 1", DeliveryRate(st))
	}
	if tot := TotalsOf(st); tot.Hops != tot.Delivered {
		t.Fatalf("hops = %d for %d packets; want direct single-hop paths after recovery",
			tot.Hops, tot.Delivered)
	}
}
