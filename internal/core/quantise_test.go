package core

import (
	"testing"

	"recycle/internal/graph"
	"recycle/internal/route"
	"recycle/internal/topo"
)

// TestQuantiserHopCountRanksEqualHops: hop counts toward a destination form
// a contiguous 0..d range (every node at hop k has a predecessor at k−1),
// so rank coding is the identity on the paper's default discriminator —
// the DSCP wire format of small-diameter networks is unchanged.
func TestQuantiserHopCountRanksEqualHops(t *testing.T) {
	for _, name := range []string{"paper", "abilene", "geant", "teleglobe"} {
		tp, err := topo.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g := tp.Graph
		tbl := route.Build(g, route.HopCount)
		q := BuildQuantiser(tbl)
		for node := 0; node < g.NumNodes(); node++ {
			for dst := 0; dst < g.NumNodes(); dst++ {
				nid, did := graph.NodeID(node), graph.NodeID(dst)
				if !tbl.Reachable(nid, did) {
					if q.Rank(nid, did) != RankUnreachable {
						t.Fatalf("%s: unreachable %d→%d got rank %d", name, node, dst, q.Rank(nid, did))
					}
					continue
				}
				if got, want := q.Rank(nid, did), uint32(tbl.DD(nid, did)); got != want {
					t.Fatalf("%s: rank(%d→%d) = %d; hop count is %d", name, node, dst, got, want)
				}
			}
		}
		if q.Bits() != tbl.DDBits() {
			t.Fatalf("%s: quantised bits %d != raw hop-count bits %d", name, q.Bits(), tbl.DDBits())
		}
	}
}

// TestQuantiserWeightSumCompresses: weight-sum discriminators on distance
// weights need far more raw bits than the node count justifies; rank
// coding must bring them down to ⌈log2(nodes)⌉-ish while preserving order.
func TestQuantiserWeightSumCompresses(t *testing.T) {
	tp, err := topo.ByNameWeighted("geant", topo.DistanceWeights)
	if err != nil {
		t.Fatal(err)
	}
	tbl := route.Build(tp.Graph, route.WeightSum)
	q := BuildQuantiser(tbl)
	if raw := tbl.DDBits(); q.Bits() >= raw {
		t.Fatalf("quantised bits %d not below raw weight-sum bits %d", q.Bits(), raw)
	}
	n := uint32(tp.Graph.NumNodes())
	if q.MaxRank() >= n {
		t.Fatalf("max rank %d ≥ node count %d: ranks not dense", q.MaxRank(), n)
	}
	if !q.VerifyOrderPreserved(tbl) {
		t.Fatal("order not preserved on geant/weight-sum")
	}
}

// TestQuantiserOrderPreservedRandom sweeps random weighted graphs: the
// strict-decrease invariant reduces to VerifyOrderPreserved, checked
// exhaustively per destination.
func TestQuantiserOrderPreservedRandom(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		n := 6 + int(seed%12)
		g := graph.RandomTwoConnected(n, n+3+int(seed)%n, seed)
		for _, disc := range []route.Discriminator{route.HopCount, route.WeightSum} {
			tbl := route.Build(g, disc)
			q := BuildQuantiser(tbl)
			if !q.VerifyOrderPreserved(tbl) {
				t.Fatalf("seed %d disc %v: order violated", seed, disc)
			}
			if q.Bits() < 1 || q.MaxRank() >= uint32(n) {
				t.Fatalf("seed %d disc %v: bits %d maxRank %d out of range", seed, disc, q.Bits(), q.MaxRank())
			}
		}
	}
}

// TestQuantiserEqualValuesShareRank: ties in the raw discriminator must
// map to the same rank, or the ≥ branch of the termination test diverges.
func TestQuantiserEqualValuesShareRank(t *testing.T) {
	g := graph.Ring(8) // symmetric: nodes equidistant from dst share hops
	tbl := route.Build(g, route.HopCount)
	q := BuildQuantiser(tbl)
	// Toward node 0, nodes 1 and 7 are both one hop away.
	if q.Rank(1, 0) != q.Rank(7, 0) {
		t.Fatalf("equal hop counts got ranks %d and %d", q.Rank(1, 0), q.Rank(7, 0))
	}
	if q.Rank(4, 0) != 4 {
		t.Fatalf("antipode rank = %d; want 4", q.Rank(4, 0))
	}
}

// TestHopCountRanksAreTreeHops: a hop-count rank column is the routing
// tree's Hops plane itself, -1 for unreachable converting to
// RankUnreachable, after a full build and after a delta rebuild — on a
// graph of two components, so every column holds unreachable nodes.
func TestHopCountRanksAreTreeHops(t *testing.T) {
	g := graph.New(10, 12)
	for i := 0; i < 10; i++ {
		g.AddNode("")
	}
	for i := 0; i < 6; i++ { // ring 0..5 with one chord
		g.MustAddLink(graph.NodeID(i), graph.NodeID((i+1)%6), 1)
	}
	g.MustAddLink(0, 3, 1)
	for i := 6; i < 9; i++ { // path 6-7-8-9
		g.MustAddLink(graph.NodeID(i), graph.NodeID(i+1), 1)
	}
	g.Freeze()
	check := func(ctx string, tbl *route.Table, q *Quantiser) {
		t.Helper()
		for d := 0; d < g.NumNodes(); d++ {
			dst := graph.NodeID(d)
			hops := tbl.Tree(dst).Hops
			if &q.rank[d][0] != &hops[0] {
				t.Fatalf("%s: column %d is a copy of the tree's Hops plane", ctx, d)
			}
			for node, h := range hops {
				want := uint32(h)
				if h < 0 {
					want = RankUnreachable
				}
				if got := q.Rank(graph.NodeID(node), dst); got != want {
					t.Fatalf("%s: Rank(%d, %d) = %d; Hops says %d", ctx, node, d, got, h)
				}
			}
		}
		if !q.VerifyOrderPreserved(tbl) {
			t.Fatalf("%s: order not preserved", ctx)
		}
	}
	tbl := route.Build(g, route.HopCount)
	q := BuildQuantiser(tbl)
	check("build", tbl, q)

	// Raise the 0-1 ring link: toward some destinations the hop counts
	// move, toward the path's they cannot. Re-rank exactly the trees whose
	// Hops plane the repair replaced; the rest share theirs.
	g2, err := graph.ApplyEdit(g, graph.SetWeight(0, 10))
	if err != nil {
		t.Fatal(err)
	}
	var rep graph.SPTRepairer
	trees := make([]*graph.SPTree, g.NumNodes())
	var dirty []graph.NodeID
	for d := range trees {
		old := tbl.Tree(graph.NodeID(d))
		trees[d], _ = rep.WeightChange(g2, old, 0, 1)
		if !graph.SharedHops(old, trees[d]) {
			dirty = append(dirty, graph.NodeID(d))
		}
	}
	if len(dirty) == 0 || len(dirty) == len(trees) {
		t.Fatalf("%d of %d hop planes replaced: want some but not all", len(dirty), len(trees))
	}
	tbl2, err := route.NewFromTrees(g2, route.HopCount, trees)
	if err != nil {
		t.Fatal(err)
	}
	check("rebuild", tbl2, q.Rebuild(tbl2, dirty))
	check("build after edit", tbl2, BuildQuantiser(tbl2))
}

// BenchmarkBuildQuantiser times the rank stage of a cold build on
// rand:1000 with one worker, over a prebuilt table. A hop-count build
// aliases each column from its tree's Hops plane, so its allocs/op is a
// handful and its bytes/op hold no n² plane; a weight-sum build sorts
// each column and fills one n² plane of its own.
func BenchmarkBuildQuantiser(b *testing.B) {
	tp, err := topo.Generated("rand:1000")
	if err != nil {
		b.Fatal(err)
	}
	for _, kind := range []route.Discriminator{route.HopCount, route.WeightSum} {
		b.Run(kind.String(), func(b *testing.B) {
			tbl := route.BuildWorkers(tp.Graph, kind, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				quantSink = BuildQuantiserWorkers(tbl, 1)
			}
		})
	}
}

var quantSink *Quantiser
