package graph

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestApplyEditWeight(t *testing.T) {
	g := Ring(5)
	g2, err := ApplyEdit(g, SetWeight(2, 3.5))
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumLinks() != 5 || g2.Weight(2) != 3.5 || g2.Weight(1) != 1 {
		t.Fatalf("weight edit wrong: %v", g2.Links())
	}
	if g.Weight(2) != 1 {
		t.Fatal("original graph mutated")
	}
}

// TestApplyEditAddRemove pins stable link IDs: an addition appends, a
// removal leaves a tombstone out of the adjacency and moves no other ID,
// and an addition across a tombstone's endpoints revives it in place.
func TestApplyEditAddRemove(t *testing.T) {
	g := Ring(5)
	g2, err := ApplyEdit(g, AddLinkEdit(0, 2, 2.5))
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumLinks() != 6 || g2.FindLink(0, 2) != 5 || g2.Weight(5) != 2.5 {
		t.Fatalf("add edit wrong: %v", g2.Links())
	}
	g3, err := ApplyEdit(g2, RemoveLinkEdit(1))
	if err != nil {
		t.Fatal(err)
	}
	if g3.NumLinks() != 6 || g3.HasLink(1, 2) || !g3.Removed(1) || g3.Removed(2) || g3.Degree(1) != 1 {
		t.Fatalf("remove edit wrong: %v, removed %v", g3.Links(), g3.RemovedLinks())
	}
	for l := 0; l < g2.NumLinks(); l++ {
		if g3.Link(LinkID(l)) != g2.Link(LinkID(l)) {
			t.Fatalf("link %d moved: %v → %v", l, g2.Link(LinkID(l)), g3.Link(LinkID(l)))
		}
	}
	if err := g3.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := ApplyEdit(g3, RemoveLinkEdit(1)); err == nil {
		t.Fatal("removing a tombstone accepted")
	}
	if g3.AddTarget(2, 1) != 1 || g3.AddTarget(0, 3) != 6 {
		t.Fatalf("add targets %d, %d; want the tombstone 1 and a new 6", g3.AddTarget(2, 1), g3.AddTarget(0, 3))
	}
	g4, err := ApplyEdit(g3, AddLinkEdit(2, 1, 4))
	if err != nil {
		t.Fatal(err)
	}
	if g4.NumLinks() != 6 || g4.Removed(1) || g4.FindLink(1, 2) != 1 || g4.Link(1) != (Link{ID: 1, A: 1, B: 2, Weight: 4}) {
		t.Fatalf("revival wrong: %v, removed %v", g4.Links(), g4.RemovedLinks())
	}
	if err := g4.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestApplyEditSequenceKeepsIDs replays a sequence with two removals: every
// edit names its link by the one ID it has throughout.
func TestApplyEditSequenceKeepsIDs(t *testing.T) {
	g := Ring(6)
	for _, e := range []Edit{
		RemoveLinkEdit(2),
		SetWeight(3, 9),
		AddLinkEdit(0, 3, 4), // new id 6
		RemoveLinkEdit(0),
	} {
		var err error
		if g, err = ApplyEdit(g, e); err != nil {
			t.Fatalf("%v: %v", e, err)
		}
	}
	if g.NumLinks() != 7 || !g.Removed(0) || !g.Removed(2) || len(g.RemovedLinks()) != 2 {
		t.Fatalf("want 7 links, 0 and 2 removed: %v, removed %v", g.Links(), g.RemovedLinks())
	}
	if l := g.Link(3); l.A != 3 || l.B != 4 || l.Weight != 9 {
		t.Fatalf("link 3 is %v; want 3–4 at weight 9", l)
	}
	if g.FindLink(0, 3) != 6 {
		t.Fatal("added link missing")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyEditValidation(t *testing.T) {
	g := Ring(4)
	bad := []Edit{
		SetWeight(99, 1),
		SetWeight(0, 0),
		SetWeight(0, -2),
		AddLinkEdit(0, 0, 1),
		AddLinkEdit(0, 99, 1),
		AddLinkEdit(0, 2, -1),
		RemoveLinkEdit(-1),
		{Kind: EditKind(42)},
	}
	for _, e := range bad {
		if _, err := ApplyEdit(g, e); err == nil {
			t.Fatalf("edit %v: want error", e)
		}
	}
}

// randomEditableGraph mixes float and small-integer weights so equal-cost
// ties — where canonical parent selection and hop cascades actually bite
// — are common.
func randomEditableGraph(n, m int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New(n, m)
	for i := 0; i < n; i++ {
		g.AddNode("")
	}
	perm := rng.Perm(n)
	weight := func() float64 {
		if rng.Intn(2) == 0 {
			return float64(1 + rng.Intn(4))
		}
		return 1 + 9*rng.Float64()
	}
	for i := 0; i < n; i++ {
		g.MustAddLink(NodeID(perm[i]), NodeID(perm[(i+1)%n]), weight())
	}
	for g.NumLinks() < m {
		a, b := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		if a == b || g.HasLink(a, b) {
			continue
		}
		g.MustAddLink(a, b, weight())
	}
	return g.Freeze()
}

// treesEqual asserts bit-identical trees (Dist compared bitwise).
func treesEqual(t *testing.T, ctx string, got, want *SPTree) {
	t.Helper()
	for v := range want.Dist {
		if math.Float64bits(got.Dist[v]) != math.Float64bits(want.Dist[v]) {
			t.Fatalf("%s: node %d Dist %v ≠ full %v", ctx, v, got.Dist[v], want.Dist[v])
		}
		if got.Hops[v] != want.Hops[v] {
			t.Fatalf("%s: node %d Hops %d ≠ full %d", ctx, v, got.Hops[v], want.Hops[v])
		}
		if got.NextLink[v] != want.NextLink[v] {
			t.Fatalf("%s: node %d NextLink %d ≠ full %d", ctx, v, got.NextLink[v], want.NextLink[v])
		}
	}
}

// TestSPTRepairDifferential drives the repairer through chained random
// weight edits on random tie-rich graphs and asserts every repaired tree
// is bit-identical to a from-scratch Dijkstra on the edited graph.
func TestSPTRepairDifferential(t *testing.T) {
	var rep SPTRepairer
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed * 7))
		n := 6 + int(seed%12)
		g := randomEditableGraph(n, n+2+int(seed)%n, seed)
		trees := make([]*SPTree, n)
		for d := 0; d < n; d++ {
			trees[d] = ShortestPathTree(g, NodeID(d), nil)
		}
		for step := 0; step < 8; step++ {
			l := LinkID(rng.Intn(g.NumLinks()))
			oldW := g.Weight(l)
			var w float64
			switch rng.Intn(4) {
			case 0:
				w = oldW * (1.1 + rng.Float64())
			case 1:
				w = oldW * (0.2 + 0.7*rng.Float64())
			case 2:
				w = float64(1 + rng.Intn(5)) // integral: provokes ties
			default:
				w = oldW // no-op edit
			}
			if w <= 0 {
				w = 1
			}
			g2, err := ApplyEdit(g, SetWeight(l, w))
			if err != nil {
				t.Fatal(err)
			}
			for d := 0; d < n; d++ {
				got, _ := rep.WeightChange(g2, trees[d], l, oldW)
				want := ShortestPathTree(g2, NodeID(d), nil)
				ctx := fmt.Sprintf("seed %d step %d dst %d link %d %g→%g", seed, step, d, l, oldW, w)
				treesEqual(t, ctx, got, want)
				trees[d] = got
			}
			g = g2
		}
	}
	repaired, unchanged, fullFallback, touched := rep.Counters()
	if repaired == 0 {
		t.Fatal("no incremental repairs exercised")
	}
	if fullFallback > 0 {
		t.Fatalf("%d defensive fallbacks — incremental invariants violated", fullFallback)
	}
	t.Logf("repairs=%d unchanged=%d touched=%d", repaired, unchanged, touched)
}
