package graph

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// checkCanonical verifies tree against the definition of the canonical
// shortest-path tree (see SPTRepairer), read from g's adjacency lists and
// link table rather than from any Dijkstra: Dist is the bit-exact minimum
// over the up incident candidates, the parent is the (node,
// link)-smallest candidate achieving it, Hops is the parent's plus one,
// and an unreachable node holds Inf/-1/NoLink/NoNode. With positive
// weights that fixpoint is unique (following parents strictly decreases
// Dist, so every finite chain ends at Dest); AllPairs referees
// reachability exactly and distances up to summation order.
func checkCanonical(t *testing.T, ctx string, g *Graph, failures *FailureSet, tree *SPTree) {
	t.Helper()
	n := g.NumNodes()
	if len(tree.Dist) != n || len(tree.Hops) != n || len(tree.NextLink) != n || len(tree.NextNode) != n {
		t.Fatalf("%s: planes sized %d/%d/%d/%d for %d nodes", ctx,
			len(tree.Dist), len(tree.Hops), len(tree.NextLink), len(tree.NextNode), n)
	}
	ap := AllPairs(g, failures)
	for v := 0; v < n; v++ {
		want := ap[v][tree.Dest]
		if math.IsInf(want, 1) {
			if !math.IsInf(tree.Dist[v], 1) || tree.Hops[v] != -1 || tree.NextLink[v] != NoLink || tree.NextNode[v] != NoNode {
				t.Fatalf("%s: unreachable node %d holds (%v, %d, %d, %d)", ctx, v,
					tree.Dist[v], tree.Hops[v], tree.NextLink[v], tree.NextNode[v])
			}
			continue
		}
		if math.Abs(tree.Dist[v]-want) > 1e-9*(1+want) {
			t.Fatalf("%s: Dist[%d] = %v; all-pairs says %v", ctx, v, tree.Dist[v], want)
		}
		if NodeID(v) == tree.Dest {
			if tree.Dist[v] != 0 || tree.Hops[v] != 0 || tree.NextLink[v] != NoLink || tree.NextNode[v] != NoNode {
				t.Fatalf("%s: destination holds (%v, %d, %d, %d)", ctx,
					tree.Dist[v], tree.Hops[v], tree.NextLink[v], tree.NextNode[v])
			}
			continue
		}
		best, bestP, bestL := math.Inf(1), NoNode, NoLink
		for _, nb := range g.Neighbors(NodeID(v)) {
			if failures.Down(nb.Link) {
				continue
			}
			cand := tree.Dist[nb.Node] + g.Weight(nb.Link)
			if cand < best || cand == best && (nb.Node < bestP || nb.Node == bestP && nb.Link < bestL) {
				best, bestP, bestL = cand, nb.Node, nb.Link
			}
		}
		if tree.Dist[v] != best || tree.NextNode[v] != bestP || tree.NextLink[v] != bestL {
			t.Fatalf("%s: node %d holds (%v via %d over %d); canonical is (%v via %d over %d)", ctx, v,
				tree.Dist[v], tree.NextNode[v], tree.NextLink[v], best, bestP, bestL)
		}
		if tree.Hops[v] != tree.Hops[bestP]+1 {
			t.Fatalf("%s: Hops[%d] = %d; parent %d has %d", ctx, v, tree.Hops[v], bestP, tree.Hops[bestP])
		}
	}
}

// canonicalCase is one (graph, failures) input of the builder tests.
type canonicalCase struct {
	name     string
	g        *Graph
	failures *FailureSet
}

// canonicalCases draws the inputs the builder must get right, in an order
// that makes node counts grow and shrink from one case to the next:
// weighted random graphs, unit-weight rings and grids (ties everywhere),
// parallel links, failure sets that cut the graph apart, graphs never
// frozen, and graphs that went through ApplyEdit's weight-only path.
func canonicalCases(t *testing.T) []canonicalCase {
	t.Helper()
	var cases []canonicalCase
	for seed := int64(1); seed <= 70; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(40)
		var g *Graph
		switch seed % 5 {
		case 0:
			g = Ring(n)
		case 1:
			g = Grid(2+rng.Intn(5), 2+rng.Intn(6))
		default:
			g = RandomTwoConnected(n, n+rng.Intn(2*n), seed)
		}
		cases = append(cases, canonicalCase{fmt.Sprintf("seed %d plain", seed), g, nil})

		// Parallel links (some bit-equal in weight) on a copy left mutable.
		loose := g.Clone()
		for k := 0; k < 3; k++ {
			l := g.Link(LinkID(rng.Intn(g.NumLinks())))
			w := l.Weight
			if k == 2 {
				w = 0.5 + rng.Float64()
			}
			loose.MustAddLink(l.A, l.B, w)
		}
		cases = append(cases, canonicalCase{fmt.Sprintf("seed %d parallel, unfrozen", seed), loose, nil})

		// Random failures, then every link of one node on top.
		fs := NewFailureSet()
		for k := rng.Intn(4); k >= 0; k-- {
			fs.Add(LinkID(rng.Intn(g.NumLinks())))
		}
		cases = append(cases, canonicalCase{fmt.Sprintf("seed %d failures %v", seed, fs), g, fs})
		cut := fs.Clone()
		for _, nb := range g.Neighbors(NodeID(rng.Intn(g.NumNodes()))) {
			cut.Add(nb.Link)
		}
		cases = append(cases, canonicalCase{fmt.Sprintf("seed %d cut %v", seed, cut), g, cut})

		// A chain of weight edits, some landing on bit-equal ties.
		edited := g
		for k := 0; k < 4; k++ {
			var err error
			edited, _, err = ApplyEdit(edited, SetWeight(LinkID(rng.Intn(g.NumLinks())), float64(1+rng.Intn(3))))
			if err != nil {
				t.Fatal(err)
			}
		}
		cases = append(cases, canonicalCase{fmt.Sprintf("seed %d weight-edited", seed), edited, nil})
	}
	return cases
}

// TestBuilderCanonical runs ONE builder through every case — so each run
// inherits the heap index of a graph of another size, often straight
// after a disconnected one — and checks every tree against the canonical
// definition. The pooled and the all-destination entry points must agree.
func TestBuilderCanonical(t *testing.T) {
	var b SPTBuilder
	cases := canonicalCases(t)
	if len(cases) < 200 {
		t.Fatalf("only %d cases", len(cases))
	}
	for _, c := range cases {
		all := AllTrees(c.g, c.failures)
		for d := 0; d < c.g.NumNodes(); d++ {
			ctx := fmt.Sprintf("%s dst %d", c.name, d)
			tree := b.Tree(c.g, NodeID(d), c.failures)
			checkCanonical(t, ctx, c.g, c.failures, tree)
			treesEqual(t, ctx+" (AllTrees)", all[d], tree)
			if d == 0 {
				treesEqual(t, ctx+" (pooled)", ShortestPathTree(c.g, NodeID(d), c.failures), tree)
			}
		}
	}
}

// TestRepairerSharesBuilderScratch interleaves incremental repairs and
// full rebuilds on one repairer: both run on the same heap, so each must
// leave it empty for the other.
func TestRepairerSharesBuilderScratch(t *testing.T) {
	var rep SPTRepairer
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomEditableGraph(8+int(seed), 14+2*int(seed), seed)
		for step := 0; step < 6; step++ {
			l := LinkID(rng.Intn(g.NumLinks()))
			g2, _, err := ApplyEdit(g, SetWeight(l, float64(1+rng.Intn(6))))
			if err != nil {
				t.Fatal(err)
			}
			for d := 0; d < g.NumNodes(); d++ {
				ctx := fmt.Sprintf("seed %d step %d dst %d", seed, step, d)
				old := rep.Tree(g, NodeID(d), nil)
				checkCanonical(t, ctx+" rebuilt", g, nil, old)
				got, _ := rep.WeightChange(g2, old, l, g.Weight(l))
				checkCanonical(t, ctx+" repaired", g2, nil, got)
			}
			g = g2
		}
	}
	if _, _, fallbacks, _ := rep.Counters(); fallbacks != 0 {
		t.Fatalf("%d defensive fallbacks", fallbacks)
	}
}

// TestSlabPlanesNeverShared pins the identity the recompiler relies on:
// planes of distinct trees cut from one slab never report Shared*, down to
// one-node and empty graphs.
func TestSlabPlanesNeverShared(t *testing.T) {
	single := New(1, 0)
	single.AddNode("only")
	single.Freeze()
	for _, g := range []*Graph{Ring(5), single, New(0, 0).Freeze()} {
		var b SPTBuilder
		var trees []*SPTree
		for i := 0; i < 2*slabPlanes+3; i++ {
			dest := NodeID(0)
			if g.NumNodes() > 0 {
				dest = NodeID(i % g.NumNodes())
			}
			trees = append(trees, b.Tree(g, dest, nil))
		}
		for i, a := range trees {
			if g.NumNodes() > 0 && !(SharedDist(a, a) && SharedHops(a, a) && SharedNextLink(a, a)) {
				t.Fatalf("%v: tree %d does not share with itself", g, i)
			}
			for j, c := range trees {
				if i != j && (a == c || SharedDist(a, c) || SharedHops(a, c) || SharedNextLink(a, c)) {
					t.Fatalf("%v: trees %d and %d share a plane", g, i, j)
				}
			}
			if g.NumNodes() > 0 {
				a.Dist = append(a.Dist, 1) // must reallocate, not run into the next plane
			}
		}
		for i, a := range trees {
			if g.NumNodes() > 0 && a.Dist[a.Dest] != 0 {
				t.Fatalf("%v: tree %d overwritten by a neighbour's append", g, i)
			}
		}
	}
}

// TestBuilderAllocs pins the builder's allocation budget: a slab's worth
// of trees costs five allocations — four plane slabs and one header slab
// — and nothing per node or per tree.
func TestBuilderAllocs(t *testing.T) {
	g := RandomTwoConnected(64, 120, 1)
	fs := NewFailureSet(3, 9)
	var b SPTBuilder
	for _, failures := range []*FailureSet{nil, fs} {
		got := testing.AllocsPerRun(10, func() {
			for i := 0; i < slabPlanes; i++ {
				b.Tree(g, NodeID(i), failures)
			}
		})
		if got != 5 {
			t.Fatalf("%v allocations per %d trees; want 5", got, slabPlanes)
		}
	}
}

// TestDistHeap drives the heap through random pushes and decrease-keys and
// checks that it drains in key order with its index left clean.
func TestDistHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h distHeap
	for round := 0; round < 50; round++ {
		n := 1 + rng.Intn(200)
		h.reset(n)
		key := make(map[NodeID]float64)
		for k := 0; k < 3*n; k++ {
			v, d := NodeID(rng.Intn(n)), float64(rng.Intn(50))
			if old, ok := key[v]; ok && d >= old {
				continue
			}
			key[v] = d
			h.update(v, d)
		}
		want := make([]float64, 0, len(key))
		for _, d := range key {
			want = append(want, d)
		}
		sort.Float64s(want)
		for i, w := range want {
			v, d := h.popMin()
			if d != w || key[v] != d {
				t.Fatalf("round %d pop %d: got node %d key %v; want key %v (node's key %v)", round, i, v, d, w, key[v])
			}
		}
		if len(h.items) != 0 {
			t.Fatalf("round %d: %d items left", round, len(h.items))
		}
		for v, p := range h.pos {
			if p != -1 {
				t.Fatalf("round %d: pos[%d] = %d after draining", round, v, p)
			}
		}
	}
}
