package graph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"unsafe"
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
	checkCanonicalAgainst(t, ctx, g, failures, tree, AllPairs(g, failures))
}

// checkCanonicalAgainst is checkCanonical with g's all-pairs matrix under
// failures supplied, for callers that check every destination of one graph.
func checkCanonicalAgainst(t *testing.T, ctx string, g *Graph, failures *FailureSet, tree *SPTree, ap [][]float64) {
	t.Helper()
	n := g.NumNodes()
	if len(tree.Dist) != n || len(tree.Hops) != n || len(tree.NextLink) != n {
		t.Fatalf("%s: planes sized %d/%d/%d for %d nodes", ctx,
			len(tree.Dist), len(tree.Hops), len(tree.NextLink), n)
	}
	for v := 0; v < n; v++ {
		want := ap[v][tree.Dest]
		if math.IsInf(want, 1) {
			if !math.IsInf(tree.Dist[v], 1) || tree.Hops[v] != -1 || tree.NextLink[v] != NoLink || tree.NextNode(g, NodeID(v)) != NoNode {
				t.Fatalf("%s: unreachable node %d holds (%v, %d, %d, %d)", ctx, v,
					tree.Dist[v], tree.Hops[v], tree.NextLink[v], tree.NextNode(g, NodeID(v)))
			}
			continue
		}
		if math.Abs(tree.Dist[v]-want) > 1e-9*(1+want) {
			t.Fatalf("%s: Dist[%d] = %v; all-pairs says %v", ctx, v, tree.Dist[v], want)
		}
		if NodeID(v) == tree.Dest {
			if tree.Dist[v] != 0 || tree.Hops[v] != 0 || tree.NextLink[v] != NoLink || tree.NextNode(g, NodeID(v)) != NoNode {
				t.Fatalf("%s: destination holds (%v, %d, %d, %d)", ctx,
					tree.Dist[v], tree.Hops[v], tree.NextLink[v], tree.NextNode(g, NodeID(v)))
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
		if tree.Dist[v] != best || tree.NextNode(g, NodeID(v)) != bestP || tree.NextLink[v] != bestL {
			t.Fatalf("%s: node %d holds (%v via %d over %d); canonical is (%v via %d over %d)", ctx, v,
				tree.Dist[v], tree.NextNode(g, NodeID(v)), tree.NextLink[v], best, bestP, bestL)
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
			edited, err = ApplyEdit(edited, SetWeight(LinkID(rng.Intn(g.NumLinks())), float64(1+rng.Intn(3))))
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

// referenceTree is the textbook Dijkstra that SPTBuilder.Tree replaced:
// every reachable node is queued, and popped once with its planes final.
// It is kept as the bit-for-bit reference for the chain-following loop.
func referenceTree(g *Graph, dest NodeID, failures *FailureSet) *SPTree {
	n := g.NumNodes()
	t := &SPTree{Dest: dest, Dist: make([]float64, n), Hops: make([]int32, n), NextLink: make([]LinkID, n)}
	for i := 0; i < n; i++ {
		t.Dist[i], t.Hops[i], t.NextLink[i] = Infinity, -1, NoLink
	}
	if n == 0 {
		return t
	}
	start, arcs, _ := g.flat()
	var h distHeap
	h.reset(n)
	t.Dist[dest], t.Hops[dest] = 0, 0
	h.update(dest, 0)
	for len(h.items) > 0 {
		u, du := h.popMin()
		for _, a := range arcs[start[u]:start[u+1]] {
			v, link := NodeID(a.node), LinkID(a.link)
			if failures.Down(link) {
				continue
			}
			cand := du + a.w
			switch dv := t.Dist[v]; {
			case cand < dv:
				t.Dist[v] = cand
				h.update(v, cand)
			case cand == dv && betterTie(g, t, v, u, link):
				// equal cost, deterministically preferred parent
			default:
				continue
			}
			t.Hops[v], t.NextLink[v] = t.Hops[u]+1, link
		}
	}
	return t
}

// chained builds a frozen graph of n nodes from (a, b, weight) triples.
func chained(n int, links ...[3]float64) *Graph {
	g := New(n, len(links))
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("c%d", i))
	}
	for _, l := range links {
		g.MustAddLink(NodeID(l[0]), NodeID(l[1]), l[2])
	}
	return g.Freeze()
}

// chainCases are the shapes the chain-following relaxation has to get right
// and canonicalCases' mix is thin on: graphs that are all chain, chains that
// end in a leaf, chains that tie, parallel links at a pass-through node, and
// failures that cut a chain or take a third link away from a junction.
func chainCases() []canonicalCase {
	type l = [3]float64
	var ring []l
	for i := 0; i < 9; i++ {
		ring = append(ring, l{float64(i), float64((i + 1) % 9), []float64{0.1, 0.2, 0.3, 1.5}[i%4]})
	}
	weighted := chained(9, ring...)
	// 0 -1- 1 -1- 2 -1- 3 (leaf), with 0 a junction: leaves 4 and 5.
	leaf := chained(6, l{0, 1, 1}, l{1, 2, 1}, l{2, 3, 1}, l{0, 4, 1}, l{0, 5, 2})
	// Junctions 0 and 1 (leaves 7, 8) joined by 0-2-1 at 2+2 and
	// 0-3-4-5-1 at 1+1+1+1: from 0 the far junction ties, from 2 node 4 does.
	twin := chained(9, l{0, 2, 2}, l{2, 1, 2}, l{0, 3, 1}, l{3, 4, 1}, l{4, 5, 1}, l{5, 1, 1},
		l{0, 7, 1}, l{1, 8, 1})
	// Node 3 hangs off junction 0 by two parallel links, equal then unequal.
	para := chained(4, l{0, 1, 1}, l{0, 2, 1}, l{1, 2, 1}, l{0, 3, 2}, l{3, 0, 2})
	para2 := chained(4, l{0, 1, 1}, l{0, 2, 1}, l{1, 2, 1}, l{0, 3, 2}, l{3, 0, 0.5})
	// Junction 0 (degree 3), chain 0-1-2-3-4 to junction 4, and a way round.
	cut := chained(7, l{0, 1, 1}, l{1, 2, 1}, l{2, 3, 1}, l{3, 4, 1},
		l{0, 5, 3}, l{5, 4, 3}, l{0, 6, 1}, l{4, 6, 9})
	return []canonicalCase{
		{"ring 3", Ring(3), nil},
		{"ring 8", Ring(8), nil},
		{"ring 9", Ring(9), nil},
		{"weighted ring", weighted, nil},
		{"weighted ring, cut once", weighted, NewFailureSet(4)},
		{"weighted ring, cut twice", weighted, NewFailureSet(1, 6)},
		{"chain to a leaf", leaf, nil},
		{"chain to a leaf, cut", leaf, NewFailureSet(1)},
		{"twin chains", twin, nil},
		{"twin chains, one cut", twin, NewFailureSet(4)},
		{"parallel pass-through, equal", para, nil},
		{"parallel pass-through, unequal", para2, nil},
		{"parallel pass-through, one down", para, NewFailureSet(3)},
		{"chain cut mid-way", cut, NewFailureSet(1)},
		{"chain cut at both ends", cut, NewFailureSet(0, 3)},
		{"junction with one link down", cut, NewFailureSet(4)},
	}
}

// TestTreeMatchesReference compares every tree of every case, plane by
// plane and bit by bit, with the textbook loop, on one builder.
func TestTreeMatchesReference(t *testing.T) {
	var b SPTBuilder
	for _, c := range append(canonicalCases(t), chainCases()...) {
		for d := 0; d < c.g.NumNodes(); d++ {
			ctx := fmt.Sprintf("%s dst %d", c.name, d)
			tree := b.Tree(c.g, NodeID(d), c.failures)
			treesEqual(t, ctx, tree, referenceTree(c.g, NodeID(d), c.failures))
			checkCanonical(t, ctx, c.g, c.failures, tree)
		}
	}
	if b.Followed == 0 || b.Queued == 0 {
		t.Fatalf("%d nodes queued, %d followed: the cases exercise one path only", b.Queued, b.Followed)
	}
}

// chainyGraph draws a graph that is mostly chains: a few junctions joined
// (parallel links allowed) by paths of 0–4 pass-through nodes, some paths
// left dangling, weights from a palette that makes both exact ties and sums
// that round differently by order, and up to three failed links.
func chainyGraph(seed int64) (*Graph, *FailureSet) {
	rng := rand.New(rand.NewSource(seed))
	palette := []float64{1, 1, 2, 3, 0.1, 0.2, 0.3, 0.5 + rng.Float64()}
	g := New(0, 0)
	hubs := 1 + rng.Intn(6)
	for i := 0; i < hubs; i++ {
		g.AddNode("")
	}
	for k := hubs + rng.Intn(2*hubs+1); k > 0; k-- {
		at := NodeID(rng.Intn(hubs))
		for i := rng.Intn(5); i > 0; i-- {
			next := g.AddNode("")
			g.MustAddLink(at, next, palette[rng.Intn(len(palette))])
			at = next
		}
		if end := NodeID(rng.Intn(hubs)); end != at && rng.Intn(5) > 0 {
			g.MustAddLink(at, end, palette[rng.Intn(len(palette))])
		}
	}
	fs := NewFailureSet()
	for k := rng.Intn(4); k > 0 && g.NumLinks() > 0; k-- {
		fs.Add(LinkID(rng.Intn(g.NumLinks())))
	}
	if rng.Intn(4) > 0 {
		g.Freeze()
	}
	return g, fs
}

// FuzzTreeMatchesReference is TestTreeMatchesReference on graphs and
// failure sets drawn from the fuzzed seed.
func FuzzTreeMatchesReference(f *testing.F) {
	for seed := int64(0); seed < 40; seed++ {
		f.Add(seed)
	}
	var b SPTBuilder
	f.Fuzz(func(t *testing.T, seed int64) {
		g, fs := chainyGraph(seed)
		for d := 0; d < g.NumNodes(); d++ {
			treesEqual(t, fmt.Sprintf("seed %d %v down %v dst %d", seed, g, fs, d),
				b.Tree(g, NodeID(d), fs), referenceTree(g, NodeID(d), fs))
		}
	})
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
			g2, err := ApplyEdit(g, SetWeight(l, float64(1+rng.Intn(6))))
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

// TestRepairerStructuralChains drives LinkRemoved and LinkAdded with ONE
// repairer over every canonical case, judged by checkCanonical alone: the
// case's failed links are removed one by one (random sets, and cuts that
// isolate a node, so reachability changes), or two random links where it
// has none; a random link is added, parallel to an existing one one time in
// three and at an integral weight that ties on the unit rings and grids;
// then the removed links come back. After every call the children cache
// must describe the returned tree — the next edit walks it without a
// rebuild — unless the repairer reported a full rebuild.
func TestRepairerStructuralChains(t *testing.T) {
	var rep SPTRepairer
	calls, rebuilds := 0, 0
	for _, c := range canonicalCases(t) {
		g := c.g
		if !g.Frozen() {
			g = g.Clone().Freeze()
		}
		rng := rand.New(rand.NewSource(int64(g.NumLinks())))
		trees := make([]*SPTree, g.NumNodes())
		for d := range trees {
			trees[d] = rep.Tree(g, NodeID(d), nil)
			rep.children(g, trees[d]) // as an earlier weight edit would have left it
		}
		apply := func(e Edit) {
			g2, err := ApplyEdit(g, e)
			if err != nil {
				t.Fatal(err)
			}
			ap := AllPairs(g2, nil)
			for d, old := range trees {
				ctx := fmt.Sprintf("%s: %v dst %d", c.name, e, d)
				var rebuilt bool
				if e.Kind == EditRemoveLink {
					trees[d], _, rebuilt = rep.LinkRemoved(g2, old, e.Link)
				} else {
					trees[d], _, rebuilt = rep.LinkAdded(g2, old, g.AddTarget(e.A, e.B))
				}
				checkCanonicalAgainst(t, ctx, g2, nil, trees[d], ap)
				calls++
				if rebuilt {
					rebuilds++
					rep.children(g2, trees[d])
					continue
				}
				cc := rep.kids[NodeID(d)]
				if cc.tree != trees[d] {
					t.Fatalf("%s: children cache left behind on another tree", ctx)
				}
				kids := make([]int, g2.NumNodes())
				for p := range kids {
					for ch := cc.head[p]; ch >= 0; ch = cc.next[ch] {
						if trees[d].NextNode(g2, NodeID(ch)) != NodeID(p) {
							t.Fatalf("%s: cache lists %d under %d; its parent is %d", ctx, ch, p, trees[d].NextNode(g2, NodeID(ch)))
						}
						kids[p]++
					}
				}
				for v := range kids {
					if p := trees[d].NextNode(g2, NodeID(v)); p != NoNode {
						kids[p]--
					}
					if kids[v] < 0 {
						t.Fatalf("%s: cache misses a child of %d", ctx, v)
					}
				}
			}
			g = g2
		}
		targets := c.failures.Links()
		if len(targets) == 0 {
			targets = []LinkID{LinkID(rng.Intn(g.NumLinks() - 1)), LinkID(g.NumLinks() - 1)}
		}
		var gone []Link
		for i := len(targets) - 1; i >= 0; i-- {
			if i > 0 && targets[i] == targets[i-1] {
				continue
			}
			gone = append(gone, g.Link(targets[i]))
			apply(RemoveLinkEdit(targets[i]))
		}
		a, b := NodeID(rng.Intn(g.NumNodes())), NodeID(rng.Intn(g.NumNodes()))
		if l := g.Link(LinkID(rng.Intn(g.NumLinks()))); a == b || rng.Intn(3) == 0 {
			a, b = l.A, l.B
		}
		apply(AddLinkEdit(a, b, float64(1+rng.Intn(3))))
		for _, l := range gone {
			apply(AddLinkEdit(l.A, l.B, l.Weight))
		}
	}
	if _, _, fallbacks, _ := rep.Counters(); fallbacks != 0 {
		t.Fatalf("%d defensive fallbacks", fallbacks)
	}
	if rebuilds == 0 || rebuilds*5 > calls {
		t.Fatalf("%d full rebuilds in %d calls: want some (the cuts) and few", rebuilds, calls)
	}
	t.Logf("%d calls, %d full rebuilds", calls, rebuilds)
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
// of trees costs four allocations — three plane slabs and one header slab
// — and nothing per node or per tree, and a tree is 16 bytes a node (an
// 8-byte Dist, a 4-byte Hops, a 4-byte NextLink) plus its header.
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
		if got != 4 {
			t.Fatalf("%v allocations per %d trees; want 4", got, slabPlanes)
		}
		// Four allocations are the header slab and one slab per plane, so
		// the planes' element sizes are all a node costs a tree.
		tree := b.Tree(g, 0, failures)
		if perNode := unsafe.Sizeof(tree.Dist[0]) + unsafe.Sizeof(tree.Hops[0]) + unsafe.Sizeof(tree.NextLink[0]); perNode != 16 {
			t.Fatalf("%d bytes per node per tree; want 16", perNode)
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

// checkThru verifies g's through-arc table against its definition: arc
// i's entry is the other arc at its head when the head has two arcs, -1
// otherwise.
func checkThru(t *testing.T, ctx string, g *Graph) {
	t.Helper()
	if len(g.thru) != len(g.arcs) {
		t.Fatalf("%s: %d through-arc entries for %d arcs", ctx, len(g.thru), len(g.arcs))
	}
	for i, a := range g.arcs {
		lo, hi := g.arcStart[a.node], g.arcStart[a.node+1]
		want := int32(-1)
		if hi-lo == 2 {
			want = lo
			if g.arcs[lo].link == a.link {
				want++
			}
		}
		if g.thru[i] != want {
			t.Fatalf("%s: thru[%d] = %d; want %d", ctx, i, g.thru[i], want)
		}
	}
}

// TestThroughArcsSurviveEdits: the through-arc table is a function of the
// link set. A weight edit's clone shares its parent's table; a structural
// edit's equals the one a fresh Freeze of the same links builds; and on
// every graph along the way the builder's trees equal the textbook loop's.
func TestThroughArcsSurviveEdits(t *testing.T) {
	var b SPTBuilder
	for seed := int64(0); seed < 40; seed++ {
		g, fs := chainyGraph(seed)
		g.Freeze()
		if g.NumLinks() < 2 {
			continue
		}
		rng := rand.New(rand.NewSource(seed))
		ctx := fmt.Sprintf("seed %d %v", seed, g)
		checkThru(t, ctx, g)
		wg, err := ApplyEdit(g, SetWeight(LinkID(rng.Intn(g.NumLinks())), palette(rng)))
		if err != nil {
			t.Fatal(err)
		}
		if &wg.thru[0] != &g.thru[0] {
			t.Fatalf("%s: the weight edit copied the through-arc table", ctx)
		}
		graphs := []*Graph{g, wg}
		u, v := NodeID(rng.Intn(g.NumNodes())), NodeID(rng.Intn(g.NumNodes()-1))
		if v >= u {
			v++
		}
		for _, e := range []Edit{RemoveLinkEdit(LinkID(rng.Intn(g.NumLinks()))), AddLinkEdit(u, v, palette(rng))} {
			sg, err := ApplyEdit(wg, e)
			if err != nil {
				t.Fatal(err)
			}
			fresh := sg.Clone().Freeze()
			if !slices.Equal(sg.thru, fresh.thru) {
				t.Fatalf("%s after %v: through-arc table %v; a fresh Freeze builds %v", ctx, e, sg.thru, fresh.thru)
			}
			checkThru(t, fmt.Sprintf("%s after %v", ctx, e), sg)
			graphs = append(graphs, sg)
		}
		for i, h := range graphs {
			for d := 0; d < h.NumNodes(); d++ {
				treesEqual(t, fmt.Sprintf("%s graph %d dst %d", ctx, i, d),
					b.Tree(h, NodeID(d), nil), referenceTree(h, NodeID(d), nil))
			}
		}
		for d := 0; d < wg.NumNodes(); d++ {
			treesEqual(t, fmt.Sprintf("%s weight-edited, down %v, dst %d", ctx, fs, d),
				b.Tree(wg, NodeID(d), fs), referenceTree(wg, NodeID(d), fs))
		}
	}
}

// palette draws a link weight that makes ties likely.
func palette(rng *rand.Rand) float64 { return []float64{1, 2, 0.5, 0.1}[rng.Intn(4)] }
