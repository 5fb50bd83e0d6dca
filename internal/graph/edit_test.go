package graph

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestApplyEditWeight(t *testing.T) {
	g := Ring(5)
	g2, m, err := ApplyEdit(g, SetWeight(2, 3.5))
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumLinks() != 5 || g2.Weight(2) != 3.5 || g2.Weight(1) != 1 {
		t.Fatalf("weight edit wrong: %v", g2.Links())
	}
	for i, id := range m {
		if id != LinkID(i) {
			t.Fatalf("weight edit must keep IDs, got map %v", m)
		}
	}
	if g.Weight(2) != 1 {
		t.Fatal("original graph mutated")
	}
}

func TestApplyEditAddRemove(t *testing.T) {
	g := Ring(5)
	g2, m, err := ApplyEdit(g, AddLinkEdit(0, 2, 2.5))
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumLinks() != 6 || g2.FindLink(0, 2) != 5 || g2.Weight(5) != 2.5 {
		t.Fatalf("add edit wrong: %v", g2.Links())
	}
	if m[4] != 4 {
		t.Fatalf("add edit must keep IDs, got %v", m)
	}
	g3, m3, err := ApplyEdit(g2, RemoveLinkEdit(1))
	if err != nil {
		t.Fatal(err)
	}
	if g3.NumLinks() != 5 || g3.HasLink(1, 2) {
		t.Fatalf("remove edit wrong: %v", g3.Links())
	}
	if m3[0] != 0 || m3[1] != NoLink || m3[2] != 1 || m3[5] != 4 {
		t.Fatalf("remove mapping wrong: %v", m3)
	}
	if err := g3.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyEditsComposedMapping(t *testing.T) {
	g := Ring(6)
	g2, m, err := ApplyEdits(g, []Edit{
		RemoveLinkEdit(2),    // ids 3.. shift down
		SetWeight(2, 9),      // old link 3
		AddLinkEdit(0, 3, 4), // new id 5
		RemoveLinkEdit(0),    // old link 0; ids shift again
	})
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumLinks() != 5 {
		t.Fatalf("want 5 links, got %d", g2.NumLinks())
	}
	if m[0] != NoLink || m[2] != NoLink {
		t.Fatalf("removed links must map to NoLink: %v", m)
	}
	// Old link 3 (nodes 3-4) survived both removals and carries weight 9.
	l := m[3]
	if l == NoLink || g2.Weight(l) != 9 {
		t.Fatalf("old link 3 mapping wrong: %v (links %v)", m, g2.Links())
	}
	if g2.FindLink(0, 3) == NoLink {
		t.Fatal("added link missing")
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
		if _, _, err := ApplyEdit(g, e); err == nil {
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
			g2, _, err := ApplyEdit(g, SetWeight(l, w))
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

// TestRemapTreeLinks checks the removal remap shares untouched arrays and
// rewrites only link IDs.
func TestRemapTreeLinks(t *testing.T) {
	g := Ring(6)
	tr := ShortestPathTree(g, 0, nil)
	m := make([]LinkID, g.NumLinks())
	for i := range m {
		m[i] = LinkID(i)
	}
	m[3] = NoLink
	for i := 4; i < len(m); i++ {
		m[i] = LinkID(i - 1)
	}
	rt := RemapTreeLinks(tr, m)
	for v := range tr.NextLink {
		want := tr.NextLink[v]
		if want != NoLink {
			want = m[want]
		}
		if rt.NextLink[v] != want {
			t.Fatalf("node %d: remap %d want %d", v, rt.NextLink[v], want)
		}
	}
	if &rt.Dist[0] != &tr.Dist[0] {
		t.Fatal("Dist must be shared")
	}
}
