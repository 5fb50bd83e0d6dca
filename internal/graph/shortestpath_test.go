package graph

import (
	"math"
	"testing"
)

func TestShortestPathTreeLine(t *testing.T) {
	// a -1- b -2- c; tree rooted at c.
	g := New(3, 2)
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	mustLink(t, g, a, b, 1)
	mustLink(t, g, b, c, 2)
	g.Freeze()

	tr := ShortestPathTree(g, c, nil)
	if tr.Dist[a] != 3 || tr.Dist[b] != 2 || tr.Dist[c] != 0 {
		t.Fatalf("dist = %v; want [3 2 0]", tr.Dist)
	}
	if tr.Hops[a] != 2 || tr.Hops[b] != 1 || tr.Hops[c] != 0 {
		t.Fatalf("hops = %v; want [2 1 0]", tr.Hops)
	}
	if tr.NextNode(g, a) != b || tr.NextNode(g, b) != c || tr.NextNode(g, c) != NoNode {
		t.Fatalf("next nodes wrong: next links %v", tr.NextLink)
	}
	path := tr.Path(g, a)
	if len(path) != 3 || path[0] != a || path[2] != c {
		t.Fatalf("Path(a) = %v", path)
	}
	links := tr.PathLinks(g, a)
	if len(links) != 2 || links[0] != 0 || links[1] != 1 {
		t.Fatalf("PathLinks(a) = %v", links)
	}
}

func TestShortestPathPrefersCheaperRoute(t *testing.T) {
	// a-b direct weight 10; a-c-b weight 2+2.
	g := New(3, 3)
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	mustLink(t, g, a, b, 10)
	mustLink(t, g, a, c, 2)
	mustLink(t, g, c, b, 2)
	g.Freeze()
	tr := ShortestPathTree(g, b, nil)
	if tr.Dist[a] != 4 {
		t.Fatalf("dist a→b = %v; want 4", tr.Dist[a])
	}
	if tr.NextNode(g, a) != c {
		t.Fatalf("a's next hop = %v; want c", tr.NextNode(g, a))
	}
	if tr.Hops[a] != 2 {
		t.Fatalf("a's hop discriminator = %d; want 2", tr.Hops[a])
	}
}

func TestShortestPathDeterministicTieBreak(t *testing.T) {
	// Two equal-cost paths from a to d: via b (node 1) and via c (node 2).
	// The tie-break must choose the smaller next-hop node, b.
	g := New(4, 4)
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	d := g.AddNode("d")
	mustLink(t, g, a, b, 1)
	mustLink(t, g, a, c, 1)
	mustLink(t, g, b, d, 1)
	mustLink(t, g, c, d, 1)
	g.Freeze()
	for i := 0; i < 10; i++ {
		tr := ShortestPathTree(g, d, nil)
		if tr.NextNode(g, a) != b {
			t.Fatalf("run %d: a's next hop = %v; want b (deterministic tie-break)", i, tr.NextNode(g, a))
		}
	}
}

func TestShortestPathUnderFailures(t *testing.T) {
	g := Ring(5)
	// Ring 0-1-2-3-4-0; fail link 0 (0-1): node 1 must reach 0 the long way.
	tr := ShortestPathTree(g, 0, NewFailureSet(0))
	if tr.Dist[1] != 4 {
		t.Fatalf("dist 1→0 with 0-1 failed = %v; want 4", tr.Dist[1])
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := New(3, 1)
	a := g.AddNode("a")
	b := g.AddNode("b")
	g.AddNode("island")
	mustLink(t, g, a, b, 1)
	g.Freeze()
	tr := ShortestPathTree(g, a, nil)
	if tr.Reachable(2) {
		t.Fatal("island reported reachable")
	}
	if !math.IsInf(tr.Dist[2], 1) || tr.Hops[2] != -1 {
		t.Fatalf("island dist/hops = %v/%d; want +Inf/-1", tr.Dist[2], tr.Hops[2])
	}
	if tr.Path(g, 2) != nil || tr.PathLinks(g, 2) != nil {
		t.Fatal("paths from unreachable node should be nil")
	}
}

func TestUsesLink(t *testing.T) {
	g := Ring(4) // links: 0:0-1, 1:1-2, 2:2-3, 3:3-0
	tr := ShortestPathTree(g, 0, nil)
	if !tr.UsesLink(g, 1, 0) {
		t.Fatal("path 1→0 should use link 0")
	}
	if tr.UsesLink(g, 1, 2) {
		t.Fatal("path 1→0 should not use link 2")
	}
	if tr.UsesLink(g, 0, 0) {
		t.Fatal("destination uses no links")
	}
}

// TestDijkstraAgreesWithFloydWarshall cross-checks the two shortest-path
// implementations on seeded random graphs.
func TestDijkstraAgreesWithFloydWarshall(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		g := RandomTwoConnected(12, 22, seed)
		ap := AllPairs(g, nil)
		for dest := 0; dest < g.NumNodes(); dest++ {
			tr := ShortestPathTree(g, NodeID(dest), nil)
			for src := 0; src < g.NumNodes(); src++ {
				want := ap[src][dest]
				got := tr.Dist[src]
				if math.Abs(got-want) > 1e-9 {
					t.Fatalf("seed %d: dist %d→%d: dijkstra %v, floyd-warshall %v", seed, src, dest, got, want)
				}
			}
		}
	}
}

// TestTreePathCostsMatchDist verifies that walking the tree reproduces the
// claimed distances and hop counts.
func TestTreePathCostsMatchDist(t *testing.T) {
	g := RandomTwoConnected(15, 30, 42)
	tr := ShortestPathTree(g, 3, nil)
	for src := 0; src < g.NumNodes(); src++ {
		links := tr.PathLinks(g, NodeID(src))
		sum := 0.0
		for _, l := range links {
			sum += g.Weight(l)
		}
		if math.Abs(sum-tr.Dist[src]) > 1e-9 {
			t.Fatalf("src %d: path weight %v != dist %v", src, sum, tr.Dist[src])
		}
		if len(links) != int(tr.Hops[src]) {
			t.Fatalf("src %d: path hops %d != hops %d", src, len(links), tr.Hops[src])
		}
	}
}

func TestHopDiameter(t *testing.T) {
	if d := HopDiameter(Ring(6)); d != 3 {
		t.Fatalf("diameter of C6 = %d; want 3", d)
	}
	if d := HopDiameter(Complete(5)); d != 1 {
		t.Fatalf("diameter of K5 = %d; want 1", d)
	}
	if d := HopDiameter(Grid(3, 4)); d != 5 {
		t.Fatalf("diameter of 3x4 grid = %d; want 5", d)
	}
	// Disconnected.
	g := New(2, 0)
	g.AddNode("a")
	g.AddNode("b")
	g.Freeze()
	if d := HopDiameter(g); d != -1 {
		t.Fatalf("diameter of disconnected graph = %d; want -1", d)
	}
	// Trivial.
	single := New(1, 0)
	single.AddNode("only")
	single.Freeze()
	if d := HopDiameter(single); d != 0 {
		t.Fatalf("diameter of single node = %d; want 0", d)
	}
}

func TestHopDistances(t *testing.T) {
	g := Grid(2, 3)
	d := HopDistances(g, 0, nil)
	// Node 5 is the far corner of the 2x3 grid: 3 hops away.
	if d[5] != 3 {
		t.Fatalf("hop distance to far corner = %d; want 3", d[5])
	}
}

func TestAllPairsRespectsFailures(t *testing.T) {
	g := Ring(4)
	ap := AllPairs(g, NewFailureSet(0)) // fail 0-1
	if ap[0][1] != 3 {
		t.Fatalf("dist 0→1 with link 0 failed = %v; want 3", ap[0][1])
	}
}
