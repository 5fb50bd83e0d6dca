package failure

import (
	"math/rand"
	"testing"
	"time"

	"recycle/internal/graph"
)

// TestOraclePropertyAgainstReachability is the referee's own referee: on
// 100 random 2-edge-connected graphs, draw a random timed failure
// scenario, then check at random instants that the oracle's ConnectedAt
// answer equals a from-scratch graph.ReachableUnder BFS over the failure
// set the scenario imposes at that instant (reconstructed independently
// from the outage intervals, not via Events). Violation classification
// hinges on exactly this equivalence: a loss is excusable iff
// ReachableUnder would say the pair was cut.
func TestOraclePropertyAgainstReachability(t *testing.T) {
	const horizon = 4 * time.Second
	for trial := 0; trial < 100; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		n := 6 + rng.Intn(15)
		g := graph.RandomTwoConnected(n, n+rng.Intn(n), int64(trial))
		// A random pile of outages: some links, some nodes, overlapping
		// freely, a few never repaired.
		sc := &Scenario{Name: "prop"}
		for k := 2 + rng.Intn(8); k > 0; k-- {
			from := time.Duration(rng.Int63n(int64(horizon)))
			to := from + time.Duration(1+rng.Int63n(int64(time.Second)))
			if rng.Intn(6) == 0 {
				to = Forever
			}
			if rng.Intn(4) == 0 {
				sc.Outages = append(sc.Outages, NodeOutageAt(graph.NodeID(rng.Intn(n)), from, to))
			} else {
				sc.Outages = append(sc.Outages, LinkOutage(graph.LinkID(rng.Intn(g.NumLinks())), from, to))
			}
		}
		oracle, err := NewOracle(g, sc)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// groundTruth reconstructs the failure set at t directly from the
		// outage intervals — deliberately NOT via Events, so the test
		// catches normalisation bugs rather than inheriting them.
		groundTruth := func(at time.Duration) *graph.FailureSet {
			fs := graph.NewFailureSet()
			for _, o := range sc.Outages {
				if at < o.From || (o.To != Forever && at >= o.To) {
					continue
				}
				if o.Node != graph.NoNode {
					for _, nb := range g.Neighbors(o.Node) {
						fs.Add(nb.Link)
					}
				} else {
					fs.Add(o.Link)
				}
			}
			return fs
		}
		for q := 0; q < 50; q++ {
			at := time.Duration(rng.Int63n(int64(horizon + time.Second)))
			src := graph.NodeID(rng.Intn(n))
			dst := graph.NodeID(rng.Intn(n))
			reach := graph.ReachableUnder(g, src, groundTruth(at))
			if got, want := oracle.ConnectedAt(src, dst, at), reach[dst]; got != want {
				t.Fatalf("trial %d: ConnectedAt(%d, %d, %v) = %v; BFS over the interval-reconstructed failure set says %v\nscenario: %v",
					trial, src, dst, at, got, want, sc.Outages)
			}
			// The oracle's own failure set must match the reconstruction.
			fs, want := oracle.FailuresAt(at), groundTruth(at)
			if fs.Len() != want.Len() {
				t.Fatalf("trial %d: FailuresAt(%v) = %v; want %v", trial, at, fs, want)
			}
			for _, l := range want.Links() {
				if !fs.Down(l) {
					t.Fatalf("trial %d: FailuresAt(%v) misses link %d; want %v", trial, at, l, want)
				}
			}
		}
	}
}

func TestOracleConnectedThroughout(t *testing.T) {
	// ring:4 with links 0 (0-1) and 3 (3-0): node 0 is cut off while both
	// are down, [1s, 2s).
	g := graph.Ring(4)
	sc := &Scenario{Name: "cut", Outages: []Outage{
		LinkOutage(0, time.Second, 2*time.Second),
		LinkOutage(3, time.Second, 2*time.Second),
	}}
	oracle, err := NewOracle(g, sc)
	if err != nil {
		t.Fatal(err)
	}
	if oracle.ConnectedAt(0, 2, 1500*time.Millisecond) {
		t.Fatal("node 0 connected while both incident links are down")
	}
	if !oracle.ConnectedAt(0, 2, 2*time.Second) {
		t.Fatal("node 0 still cut at the repair instant; [from, to) means repaired")
	}
	// An interval that overlaps the partition epoch is not connected
	// throughout; one entirely before or after is.
	if oracle.ConnectedThroughout(0, 2, 500*time.Millisecond, 1200*time.Millisecond) {
		t.Fatal("interval crossing the partition reported connected throughout")
	}
	if !oracle.ConnectedThroughout(0, 2, 0, 999*time.Millisecond) {
		t.Fatal("pre-partition interval reported disconnected")
	}
	if !oracle.ConnectedThroughout(0, 2, 2*time.Second, 3*time.Second) {
		t.Fatal("post-repair interval reported disconnected")
	}
	if oracle.Epochs() != 3 {
		t.Fatalf("Epochs() = %d; want 3 (before, during, after)", oracle.Epochs())
	}
}

func TestOracleStableThroughout(t *testing.T) {
	g := graph.Ring(4)
	sc := &Scenario{Name: "one", Outages: []Outage{LinkOutage(0, time.Second, 2*time.Second)}}
	oracle, err := NewOracle(g, sc)
	if err != nil {
		t.Fatal(err)
	}
	if !oracle.StableThroughout(0, 999*time.Millisecond) {
		t.Fatal("pre-failure window reported unstable")
	}
	if oracle.StableThroughout(500*time.Millisecond, 1500*time.Millisecond) {
		t.Fatal("window crossing the failure reported stable")
	}
	// A transition exactly at the window start does not count: the packet
	// lives entirely under the new state.
	if !oracle.StableThroughout(time.Second, 1500*time.Millisecond) {
		t.Fatal("window starting at the failure instant reported unstable")
	}
}

// TestOracleClassify drives the loss referee through each class and its
// window edges. On ring:4, links 0 (0-1) and 3 (3-0) cut node 0 off over
// [1s, 2s); link 1 (1-2) fails at 3s for good, which leaves 0 and 2
// connected through 3.
func TestOracleClassify(t *testing.T) {
	g := graph.Ring(4)
	sc := &Scenario{Name: "classify", Outages: []Outage{
		LinkOutage(0, time.Second, 2*time.Second),
		LinkOutage(3, time.Second, 2*time.Second),
		LinkOutage(1, 3*time.Second, Forever),
	}}
	oracle, err := NewOracle(g, sc)
	if err != nil {
		t.Fatal(err)
	}
	ms := time.Millisecond
	for _, tc := range []struct {
		name     string
		from, to time.Duration
		want     Loss
	}{
		{"stable and connected", 0, 900 * ms, LossViolation},
		{"plain transition mid-flight", 2500 * ms, 3500 * ms, LossTransient},
		{"partition mid-flight", 500 * ms, 1500 * ms, LossExcused},
		{"transition exactly at from", 3 * time.Second, 3500 * ms, LossViolation},
		{"partition and transition in one window", 1500 * ms, 3500 * ms, LossExcused},
		{"negative from, stable", -time.Second, 900 * ms, LossViolation},
		{"negative from, partitioned", -time.Second, 1500 * ms, LossExcused},
		{"to before from, stable", 3500 * ms, 2500 * ms, LossViolation},
		{"to before from, partitioned", 1500 * ms, 500 * ms, LossExcused},
	} {
		if got := oracle.Classify(0, 2, tc.from, tc.to); got != tc.want {
			t.Errorf("%s: Classify(0, 2, %v, %v) = %d; want %d", tc.name, tc.from, tc.to, got, tc.want)
		}
	}
}

func TestOracleOutagesAtTimeZero(t *testing.T) {
	// An outage from t=0 must land in epoch 0, not create a same-instant
	// second epoch.
	g := graph.Ring(4)
	sc := &Scenario{Name: "zero", Outages: []Outage{LinkOutage(0, 0, time.Second)}}
	oracle, err := NewOracle(g, sc)
	if err != nil {
		t.Fatal(err)
	}
	if !oracle.FailuresAt(0).Down(0) {
		t.Fatal("t=0 outage invisible at t=0")
	}
	if oracle.FailuresAt(time.Second).Down(0) {
		t.Fatal("t=0 outage still live after its repair")
	}
	if oracle.Epochs() != 2 {
		t.Fatalf("Epochs() = %d; want 2 (down from the start, then repaired)", oracle.Epochs())
	}
	// Negative query times clamp to 0.
	if !oracle.ConnectedAt(0, 2, -time.Second) {
		t.Fatal("negative-time query on a ring with one failure reported disconnected")
	}
}
