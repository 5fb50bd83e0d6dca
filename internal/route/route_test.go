package route

import (
	"testing"

	"recycle/internal/graph"
	"recycle/internal/topo"
)

func TestBuildPaperExample(t *testing.T) {
	tp := topo.PaperExample()
	tbl := Build(tp.Graph, HopCount)
	g := tp.Graph
	f := g.NodeByName("F")

	// The §4.3 DD narrative: A:4 B:3 C:2 D:2 E:1 toward F.
	want := map[string]float64{"A": 4, "B": 3, "C": 2, "D": 2, "E": 1, "F": 0}
	for name, dd := range want {
		if got := tbl.DD(g.NodeByName(name), f); got != dd {
			t.Errorf("DD(%s→F) = %v; want %v", name, got, dd)
		}
	}
	if next := tbl.NextNode(g.NodeByName("D"), f); next != g.NodeByName("E") {
		t.Errorf("D's next hop to F = %s; want E", g.Name(next))
	}
	if l := tbl.NextLink(f, f); l != graph.NoLink {
		t.Error("destination should have no next link")
	}
}

func TestWeightSumDiscriminator(t *testing.T) {
	tp := topo.PaperExample()
	g := tp.Graph
	tbl := Build(g, WeightSum)
	f := g.NodeByName("F")
	// D→E→F: weights 1 + 1 = 2.
	if dd := tbl.DD(g.NodeByName("D"), f); dd != 2 {
		t.Fatalf("weight DD(D→F) = %v; want 2", dd)
	}
	// A→B→D→E→F = 1+1+1+1 = 4.
	if dd := tbl.DD(g.NodeByName("A"), f); dd != 4 {
		t.Fatalf("weight DD(A→F) = %v; want 4", dd)
	}
	if tbl.DiscriminatorKind() != WeightSum {
		t.Fatal("discriminator kind lost")
	}
}

func TestDDStrictlyDecreasesAlongPath(t *testing.T) {
	// The termination proof (§5.3) needs DD to decrease strictly hop by
	// hop along any shortest path, for both discriminators.
	for _, disc := range []Discriminator{HopCount, WeightSum} {
		g := graph.RandomTwoConnected(20, 40, 3)
		tbl := Build(g, disc)
		for dest := 0; dest < g.NumNodes(); dest++ {
			d := graph.NodeID(dest)
			for src := 0; src < g.NumNodes(); src++ {
				n := graph.NodeID(src)
				for n != d {
					next := tbl.NextNode(n, d)
					if tbl.DD(next, d) >= tbl.DD(n, d) {
						t.Fatalf("%v: DD not strictly decreasing at %d→%d toward %d", disc, n, next, d)
					}
					n = next
				}
			}
		}
	}
}

func TestDDPanicsOnUnreachable(t *testing.T) {
	g := graph.New(2, 0)
	g.AddNode("a")
	g.AddNode("b")
	g.Freeze()
	tbl := Build(g, HopCount)
	if tbl.Reachable(0, 1) {
		t.Fatal("disconnected nodes reported reachable")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("DD for unreachable pair did not panic")
		}
	}()
	tbl.DD(0, 1)
}

func TestMaxDDAndDDBits(t *testing.T) {
	// Ring of 8: hop diameter 4 → maxDD 4 → 3 bits.
	tbl := Build(graph.Ring(8), HopCount)
	if max := tbl.MaxDD(); max != 4 {
		t.Fatalf("maxDD = %v; want 4", max)
	}
	if bits := tbl.DDBits(); bits != 3 {
		t.Fatalf("DDBits = %d; want 3", bits)
	}
	// Paper example: maxDD is 4 (A→F) → 3 bits.
	tp := topo.PaperExample()
	tbl = Build(tp.Graph, HopCount)
	if bits := tbl.DDBits(); bits != 3 {
		t.Fatalf("paper example DDBits = %d; want 3", bits)
	}
	// Single link: maxDD 1 → 1 bit.
	g := graph.New(2, 1)
	a := g.AddNode("a")
	b := g.AddNode("b")
	g.MustAddLink(a, b, 1)
	g.Freeze()
	if bits := Build(g, HopCount).DDBits(); bits != 1 {
		t.Fatalf("K2 DDBits = %d; want 1", bits)
	}
}

func TestPathCost(t *testing.T) {
	g := graph.Ring(5)
	tbl := Build(g, HopCount)
	if c := tbl.PathCost(2, 0); c != 2 {
		t.Fatalf("cost 2→0 on C5 = %v; want 2", c)
	}
}

func TestDiscriminatorString(t *testing.T) {
	if HopCount.String() != "hop-count" || WeightSum.String() != "weight-sum" {
		t.Fatal("discriminator names wrong")
	}
	if Discriminator(99).String() == "" {
		t.Fatal("unknown discriminator should still render")
	}
}

// BenchmarkRouteBuild times what dominates a cold compile: one canonical
// shortest-path tree per destination. Workers is pinned so the number does
// not depend on the host's core count. The builder queues only nodes that
// do not have exactly two links, which is 27 % of rand:1000 and 32 % of
// rand:512, and walks through the rest by the graph's through-arc table
// (thru: one load per pass-through node, no degree test); grid:32x32
// (four such nodes in 1024) is the control that gets nothing from that and
// pays one thru load per improvement for it, ring:256 the all-chain limit.
func BenchmarkRouteBuild(b *testing.B) {
	for _, spec := range []string{"rand:512", "rand:1000", "grid:32x32", "ring:256"} {
		b.Run(spec, func(b *testing.B) {
			tp, err := topo.Generated(spec)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tableSink = BuildWorkers(tp.Graph, HopCount, 1)
			}
		})
	}
}

var tableSink *Table
