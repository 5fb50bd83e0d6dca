package dataplane

// The delta-recompilation differential harness: over 100 random
// 2-edge-connected topologies × chained random edit sequences (weight
// changes, link additions, link removals) it proves the two claims the
// churn machinery rests on:
//
//  1. Bit-identity: the Recompiler's patched FIB equals a from-scratch
//     CompileWith over the same edited graph, rotation system and freshly
//     built routing tables — every array, bit for bit.
//  2. §4.3 survival: after every delta, the quantiser still
//     order-preserves the raw discriminators and recycled walks stamp
//     strictly decreasing DD codes.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"recycle/internal/core"
	"recycle/internal/embedding"
	"recycle/internal/graph"
	"recycle/internal/rotation"
	"recycle/internal/route"
	"recycle/internal/telemetry"
)

// fibsEqual compares every compiled table bit for bit. Entries are read
// through the ndAt/ddqAt accessors, so the comparison is
// representation-independent: dense and shared-column FIBs compare equal
// exactly when every (node, dst) entry matches.
func fibsEqual(t *testing.T, ctx string, got, want *FIB) {
	t.Helper()
	if got.numNodes != want.numNodes || got.numLinks != want.numLinks {
		t.Fatalf("%s: size %d/%d ≠ %d/%d", ctx, got.numNodes, got.numLinks, want.numNodes, want.numLinks)
	}
	if !slices.Equal(got.removed, want.removed) {
		t.Fatalf("%s: removed links %v ≠ %v", ctx, got.removed, want.removed)
	}
	if got.variant != want.variant || got.ddBits != want.ddBits || got.codec != want.codec {
		t.Fatalf("%s: meta (%v,%d,%v) ≠ (%v,%d,%v)", ctx,
			got.variant, got.ddBits, got.codec, want.variant, want.ddBits, want.codec)
	}
	n := want.numNodes
	for node := 0; node < n; node++ {
		for dst := 0; dst < n; dst++ {
			if got.ndAt(node, dst) != want.ndAt(node, dst) {
				t.Fatalf("%s: nextDart[%d,%d] %d ≠ %d", ctx, node, dst, got.ndAt(node, dst), want.ndAt(node, dst))
			}
			if got.ddqAt(node, dst) != want.ddqAt(node, dst) {
				t.Fatalf("%s: ddQ[%d,%d] %d ≠ %d", ctx, node, dst, got.ddqAt(node, dst), want.ddqAt(node, dst))
			}
		}
	}
	for d := range want.faceNext {
		if got.faceNext[d] != want.faceNext[d] || got.sigma[d] != want.sigma[d] || got.head[d] != want.head[d] {
			t.Fatalf("%s: dart %d (φ,σ,head) (%d,%d,%d) ≠ (%d,%d,%d)", ctx, d,
				got.faceNext[d], got.sigma[d], got.head[d],
				want.faceNext[d], want.sigma[d], want.head[d])
		}
	}
}

// randomEdit draws a random valid edit for g, preferring weight changes
// but exercising additions and removals too: every kind goes through the
// same repairer. Every edit targets a live link. Additions land parallel
// to an existing link one time in four and carry an integral weight half
// the time, so new links tie with the paths they shortcut. Removals only
// target non-bridge links so the §4.3 walk checks keep a connected graph
// to recycle on; TestStructuralReachabilityEdits covers the edits that
// change reachability.
func randomEdit(g *graph.Graph, rng *rand.Rand) (graph.Edit, bool) {
	live := func() graph.LinkID {
		for {
			if l := graph.LinkID(rng.Intn(g.NumLinks())); !g.Removed(l) {
				return l
			}
		}
	}
	switch rng.Intn(5) {
	case 0: // add
		for try := 0; try < 10; try++ {
			a := graph.NodeID(rng.Intn(g.NumNodes()))
			b := graph.NodeID(rng.Intn(g.NumNodes()))
			if rng.Intn(4) == 0 {
				l := g.Link(live())
				a, b = l.A, l.B
			} else if a == b || g.HasLink(a, b) {
				continue
			}
			w := 1 + 9*rng.Float64()
			if rng.Intn(2) == 0 {
				w = float64(1 + rng.Intn(5))
			}
			return graph.AddLinkEdit(a, b, w), true
		}
		return graph.Edit{}, false
	case 1: // remove a non-bridge link, keeping some headroom
		if g.NumLinks()-len(g.RemovedLinks()) <= g.NumNodes() {
			return graph.Edit{}, false
		}
		bridges := map[graph.LinkID]bool{}
		for _, b := range graph.Bridges(g) {
			bridges[b] = true
		}
		for try := 0; try < 10; try++ {
			if l := live(); !bridges[l] {
				return graph.RemoveLinkEdit(l), true
			}
		}
		return graph.Edit{}, false
	default: // weight change; integral weights provoke equal-cost ties
		l := live()
		var w float64
		if rng.Intn(2) == 0 {
			w = float64(1 + rng.Intn(5))
		} else {
			w = g.Weight(l) * (0.3 + 1.5*rng.Float64())
		}
		if w <= 0 {
			w = 1
		}
		return graph.SetWeight(l, w), true
	}
}

// fullRecompile is the oracle: fresh routing tables over the delta's
// graph, a fresh Config.Quantise protocol (the one a FIB is held to) over
// the delta's rotation system, its fresh quantiser, a from-scratch
// CompileWith.
func fullRecompile(t *testing.T, d *Delta, disc route.Discriminator, variant core.Variant) (*FIB, *route.Table) {
	t.Helper()
	tbl := route.Build(d.Graph, disc)
	p, err := core.New(d.Graph, d.System, tbl, core.Config{Variant: variant, Quantise: true})
	if err != nil {
		t.Fatal(err)
	}
	fib, err := CompileWith(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	return fib, tbl
}

// assertDeltaEqualsScratch holds a delta against the oracle: the FIB and
// every routing tree bit for bit, and the quantiser's order invariant.
func assertDeltaEqualsScratch(t *testing.T, ctx string, d *Delta, disc route.Discriminator) {
	t.Helper()
	wantFIB, wantTbl := fullRecompile(t, d, disc, core.Full)
	fibsEqual(t, ctx, d.FIB, wantFIB)
	for dst := 0; dst < d.Graph.NumNodes(); dst++ {
		got, want := d.Table.Tree(graph.NodeID(dst)), wantTbl.Tree(graph.NodeID(dst))
		for v := range want.Dist {
			if math.Float64bits(got.Dist[v]) != math.Float64bits(want.Dist[v]) ||
				got.Hops[v] != want.Hops[v] ||
				got.NextLink[v] != want.NextLink[v] {
				t.Fatalf("%s: tree %d node %d diverged", ctx, dst, v)
			}
		}
	}
	if !d.Quantiser.VerifyOrderPreserved(d.Table) {
		t.Fatalf("%s: delta quantiser order violated", ctx)
	}
	if d.Protocol.Quantiser() != d.Quantiser {
		t.Fatalf("%s: delta protocol does not stamp the delta quantiser's ranks", ctx)
	}
}

// TestRecompilerDifferential is the harness entry point: 100 graphs,
// chained random edit sequences, byte-identical FIBs after every Apply.
func TestRecompilerDifferential(t *testing.T) {
	const graphs = 100
	applies, editsTotal, structurals := 0, 0, 0
	for seed := int64(1); seed <= graphs; seed++ {
		rng := rand.New(rand.NewSource(seed * 101))
		var g *graph.Graph
		if seed%4 == 0 {
			g = graph.RandomPlanarLike(7+int(seed%8), seed)
		} else {
			n := 6 + int(seed%10)
			g = graph.RandomTwoConnected(n, n+2+int(seed)%n, seed)
		}
		sys := rotation.Random(g, seed*13)
		disc := route.HopCount
		if seed%2 == 0 {
			disc = route.WeightSum
		}
		tbl := route.Build(g, disc)
		p, err := core.New(g, sys, tbl, core.Config{Variant: core.Full})
		if err != nil {
			t.Fatal(err)
		}
		rec, err := NewRecompiler(p, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Force fan-out: these graphs sit below the automatic parallel
		// floor, and the differential must cover the concurrent paths.
		rec.SetWorkers(4)
		for step := 0; step < 6; step++ {
			// Batches of 1–3 edits exercise sequential in-batch composition.
			var edits []graph.Edit
			cur := rec.Graph()
			for len(edits) < 1+rng.Intn(3) {
				e, ok := randomEdit(cur, rng)
				if !ok {
					break
				}
				edits = append(edits, e)
				// Later edits in the batch reference the intermediate
				// graph; materialise it so randomEdit sees valid IDs.
				next, err := graph.ApplyEdit(cur, e)
				if err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				cur = next
			}
			if len(edits) == 0 {
				continue
			}
			d, err := rec.Apply(edits...)
			if err != nil {
				t.Fatalf("seed %d step %d edits %v: %v", seed, step, edits, err)
			}
			if d == nil {
				// The batch coalesced to a net no-op (e.g. a weight set
				// back). Verify the claim: replaying the batch must land
				// exactly back on the current graph.
				after := rec.Graph()
				for _, e := range edits {
					var aerr error
					if after, aerr = graph.ApplyEdit(after, e); aerr != nil {
						t.Fatalf("%s: no-op delta but replay errors: %v", testCtx(seed, step, edits), aerr)
					}
				}
				if after.NumLinks() != rec.Graph().NumLinks() {
					t.Fatalf("%s: no-op delta but link count changed", testCtx(seed, step, edits))
				}
				for l := 0; l < after.NumLinks(); l++ {
					if after.Link(graph.LinkID(l)) != rec.Graph().Link(graph.LinkID(l)) {
						t.Fatalf("%s: no-op delta but link %d differs", testCtx(seed, step, edits), l)
					}
				}
				applies++
				editsTotal += len(edits)
				continue
			}
			applies++
			editsTotal += len(edits)
			if d.Structural {
				structurals++
			}
			ctx := testCtx(seed, step, edits)
			assertDeltaEqualsScratch(t, ctx, d, disc)
			assertStrictDecrease(t, ctx, d, rng)
		}
	}
	if applies < graphs {
		t.Fatalf("only %d applies across %d graphs", applies, graphs)
	}
	if structurals == 0 {
		t.Fatal("no structural edits exercised")
	}
	t.Logf("%d graphs, %d applies, %d edits (%d structural applies)", graphs, applies, editsTotal, structurals)
}

func testCtx(seed int64, step int, edits []graph.Edit) string {
	s := fmt.Sprintf("seed %d step %d:", seed, step)
	for _, e := range edits {
		s += " " + e.String()
	}
	return s
}

// assertStrictDecrease replays the §4.3 termination argument on the
// delta's protocol: along every recycled walk under a sampled failure
// set, successive EventDetect stampings strictly decrease.
func assertStrictDecrease(t *testing.T, ctx string, d *Delta, rng *rand.Rand) {
	t.Helper()
	g := d.Graph
	fails := graph.NewFailureSet()
	if singles := graph.SingleFailureScenarios(g); len(singles) > 0 {
		fails = singles[rng.Intn(len(singles))]
	}
	for src := 0; src < g.NumNodes(); src++ {
		for dst := 0; dst < g.NumNodes(); dst++ {
			if src == dst {
				continue
			}
			res := d.Protocol.Walk(graph.NodeID(src), graph.NodeID(dst), fails)
			last := math.Inf(1)
			for _, step := range res.Steps {
				if step.Event != core.EventDetect {
					continue
				}
				if step.Header.DD >= last {
					t.Fatalf("%s: %d→%d DD %v did not decrease below %v under %v",
						ctx, src, dst, step.Header.DD, last, fails)
				}
				last = step.Header.DD
			}
		}
	}
}

// TestTombstoneDeliversAsSplice: on genus-0 graphs a removed link kept as
// a tombstone — its darts in the rotation system, its link down for good —
// delivers exactly the (src, dst) pairs a scratch compile of the spliced
// graph delivers (the link taken out of the graph and of every rotation,
// the IDs above it renumbered), under the removal plus up to two further
// failures, and no walk crosses the tombstone. The hop totals may differ:
// a recycling packet that meets the tombstone may resume where the
// spliced face keeps it cycling.
func TestTombstoneDeliversAsSplice(t *testing.T) {
	const graphs = 40
	walk := func(fib *FIB, st *LinkState, src, dst graph.NodeID) core.Result {
		decide := func(node, dst graph.NodeID, ingress rotation.DartID, hdr core.Header) core.Decision {
			return fib.Decide(node, dst, ingress, hdr, st)
		}
		return core.Walk(src, dst, fib.NumNodes(), fib.NumLinks(), decide, fib.Head)
	}
	walks, delivered, hopsTomb, hopsSplice := 0, 0, 0, 0
	for seed := int64(1); seed <= graphs; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomPlanarLike(10+int(seed%23), seed)
		n, m := g.NumNodes(), g.NumLinks()
		sys, err := (embedding.Planar{}).Embed(g)
		if err != nil || sys.Genus() != 0 {
			t.Fatalf("seed %d: planar embedding %v, %v", seed, sys, err)
		}
		p, err := core.New(g, sys, route.Build(g, route.HopCount), core.Config{Variant: core.Full})
		if err != nil {
			t.Fatal(err)
		}
		rec, err := NewRecompiler(p, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		bridge := map[graph.LinkID]bool{}
		for _, b := range graph.Bridges(g) {
			bridge[b] = true
		}
		gone := graph.LinkID(rng.Intn(m))
		for bridge[gone] {
			gone = graph.LinkID(rng.Intn(m))
		}
		d, err := rec.Apply(graph.RemoveLinkEdit(gone))
		if err != nil {
			t.Fatal(err)
		}

		id := func(l graph.LinkID) graph.LinkID { // l's ID in the spliced graph
			if l > gone {
				return l - 1
			}
			return l
		}
		sg := graph.New(n, m-1)
		for v := 0; v < n; v++ {
			sg.AddNode(g.Name(graph.NodeID(v)))
		}
		for _, l := range g.Links() {
			if l.ID != gone {
				sg.MustAddLink(l.A, l.B, l.Weight)
			}
		}
		sg.Freeze()
		orders := make([][]graph.LinkID, n)
		for v := range orders {
			for _, l := range sys.LinkOrder(graph.NodeID(v)) {
				if l != gone {
					orders[v] = append(orders[v], id(l))
				}
			}
		}
		ssys, err := rotation.FromLinkOrders(sg, orders)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := core.New(sg, ssys, route.Build(sg, route.HopCount), core.Config{Variant: core.Full})
		if err != nil {
			t.Fatal(err)
		}
		spliced, err := CompileWith(sp, nil)
		if err != nil {
			t.Fatal(err)
		}

		st, sst := d.FIB.LinkState(nil), NewLinkState(m-1)
		for k := rng.Intn(3); k > 0; k-- {
			if l := graph.LinkID(rng.Intn(m)); l != gone {
				st.Set(l, true)
				sst.Set(id(l), true)
			}
		}
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if src == dst {
					continue
				}
				rt := walk(d.FIB, st, graph.NodeID(src), graph.NodeID(dst))
				rs := walk(spliced, sst, graph.NodeID(src), graph.NodeID(dst))
				for _, step := range rt.Steps {
					if step.Egress != rotation.NoDart && rotation.LinkOf(step.Egress) == gone {
						t.Fatalf("seed %d: %d→%d left node %d over the removed link %d", seed, src, dst, step.Node, gone)
					}
				}
				if rt.Delivered() != rs.Delivered() {
					t.Fatalf("seed %d, link %d removed, %d links down: %d→%d %v as a tombstone, %v spliced",
						seed, gone, st.CountDown(), src, dst, rt.Outcome, rs.Outcome)
				}
				walks++
				if rt.Delivered() {
					delivered++
					hopsTomb += rt.Hops()
					hopsSplice += rs.Hops()
				}
			}
		}
	}
	t.Logf("%d walks, %d delivered both ways; hops %d as a tombstone, %d spliced (%+.2f %%)",
		walks, delivered, hopsTomb, hopsSplice, 100*float64(hopsTomb-hopsSplice)/float64(hopsSplice))
}

// buildGraph is a frozen graph of n nodes and the given unit-weight links.
func buildGraph(n int, links ...[2]int) *graph.Graph {
	g := graph.New(n, len(links))
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("n%d", i))
	}
	for _, l := range links {
		g.MustAddLink(graph.NodeID(l[0]), graph.NodeID(l[1]), 1)
	}
	return g.Freeze()
}

// TestStructuralReachabilityEdits pins the structural edits the random
// harness cannot draw — every topo family is bridge-free — on hand-built
// graphs: removing and re-adding a barbell's bridge and a path's inner
// link, joining two components, and the additions that only tie (a
// unit-weight shortcut, a parallel twin). Every delta must equal a
// from-scratch compile; recompile.full_dests must count exactly the
// destinations whose reachable set changed — none unless a bridge is
// involved — and the repairer must never fall back.
func TestStructuralReachabilityEdits(t *testing.T) {
	barbell := buildGraph(8, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3}, [2]int{3, 0},
		[2]int{3, 4}, // the bridge, link 4
		[2]int{4, 5}, [2]int{5, 6}, [2]int{6, 7}, [2]int{7, 4})
	path := buildGraph(6, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3}, [2]int{3, 4}, [2]int{4, 5})
	islands := buildGraph(7, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 0}, [2]int{3, 4}, [2]int{4, 5}, [2]int{5, 6}, [2]int{6, 3})
	cases := []struct {
		name  string
		g     *graph.Graph
		edits []graph.Edit // applied one Apply each; a re-addition revives its tombstone's ID
	}{
		{"barbell bridge out and back", barbell, []graph.Edit{
			graph.RemoveLinkEdit(4), graph.AddLinkEdit(3, 4, 1), graph.RemoveLinkEdit(4), graph.AddLinkEdit(4, 3, 2.5)}},
		{"barbell ring link out and back", barbell, []graph.Edit{
			graph.RemoveLinkEdit(1), graph.AddLinkEdit(1, 2, 1), graph.RemoveLinkEdit(7)}},
		{"path inner link out and back", path, []graph.Edit{
			graph.RemoveLinkEdit(2), graph.AddLinkEdit(2, 3, 1), graph.RemoveLinkEdit(0), graph.AddLinkEdit(5, 0, 3)}},
		{"islands joined, twice, and parted", islands, []graph.Edit{
			graph.AddLinkEdit(2, 3, 1), graph.AddLinkEdit(0, 5, 2), graph.RemoveLinkEdit(7), graph.RemoveLinkEdit(8)}},
		{"tying shortcut and parallel twins", barbell, []graph.Edit{
			graph.AddLinkEdit(0, 2, 2), graph.AddLinkEdit(4, 6, 2), graph.AddLinkEdit(3, 4, 1), graph.AddLinkEdit(1, 0, 0.5),
			graph.RemoveLinkEdit(4), graph.RemoveLinkEdit(0)}},
	}
	// reach[d] is the set of nodes that reach d, as a bitmask.
	reach := func(g *graph.Graph) []uint64 {
		sets := make([]uint64, g.NumNodes())
		for d := range sets {
			for v, h := range graph.HopDistances(g, graph.NodeID(d), nil) {
				if h >= 0 {
					sets[d] |= 1 << v
				}
			}
		}
		return sets
	}
	for ci, c := range cases {
		for _, workers := range []int{1, 3} {
			disc := []route.Discriminator{route.HopCount, route.WeightSum}[ci%2]
			p, err := core.New(c.g, rotation.AdjacencyOrder(c.g), route.Build(c.g, disc), core.Config{Variant: core.Full})
			if err != nil {
				t.Fatal(err)
			}
			rec, err := NewRecompiler(p, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			rec.SetWorkers(workers)
			reg := telemetry.NewRegistry()
			rec.Register(reg)
			var wantFull uint64
			for step, e := range c.edits {
				ctx := fmt.Sprintf("%s, %d workers, step %d %v", c.name, workers, step, e)
				before := reach(rec.Graph())
				d, err := rec.Apply(e)
				if err != nil || d == nil {
					t.Fatalf("%s: delta %v, error %v", ctx, d, err)
				}
				moved := 0
				for dst, set := range reach(d.Graph) {
					if set != before[dst] {
						wantFull++
						moved++
					}
				}
				assertDeltaEqualsScratch(t, ctx, d, disc)
				snap := reg.Snapshot()
				if got := snap.Counter(MetricRecompileFullDests); got != wantFull {
					t.Fatalf("%s: %s = %d after %d destinations' reachable sets changed (%d in this step)",
						ctx, MetricRecompileFullDests, got, wantFull, moved)
				}
				if got := snap.Counter(MetricRepairFullFallback); got != 0 {
					t.Fatalf("%s: %d defensive fallbacks", ctx, got)
				}
			}
			if bridged := ci != 1 && ci != 4; (wantFull > 0) != bridged {
				t.Fatalf("%s: %d destinations changed reachability; bridge case: %v", c.name, wantFull, bridged)
			}
		}
	}
}

// TestGuardEntrySurvivesDeltas: the dart table the wire path indexes keeps
// its guard entry through every kind of delta — shared with the old FIB
// unless a link is appended, freshly allocated at the new size then — so
// a PR-set frame with no ingress is still refused on the patched FIB.
func TestGuardEntrySurvivesDeltas(t *testing.T) {
	g := graph.New(4, 5)
	for i := 0; i < 4; i++ {
		g.AddNode(fmt.Sprintf("n%d", i))
	}
	for _, l := range [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}} {
		g.MustAddLink(l[0], l[1], 1)
	}
	g.Freeze()
	p, err := core.New(g, rotation.AdjacencyOrder(g), route.Build(g, route.HopCount), core.Config{Variant: core.Full})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := NewRecompiler(p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	forged := []byte{0x45, 0x8C, 0, 20, 0, 0, 0, 0, 64, 17, 0, 0, 10, 1, 0, 0, 10, 1, 0, 2} // PR set, node 0 → node 2
	for _, e := range []graph.Edit{graph.SetWeight(1, 3), graph.RemoveLinkEdit(4), graph.AddLinkEdit(1, 3, 2), graph.SetWeight(0, 2)} {
		old := rec.FIB()
		if _, err := rec.Apply(e); err != nil {
			t.Fatal(err)
		}
		f := rec.FIB()
		if f == old {
			t.Fatalf("%v: no new FIB", e)
		}
		if len(f.faceGuard) != 2*f.numLinks+1 || f.faceGuard[0] != -1 || &f.faceGuard[1] != &f.faceNext[0] {
			t.Fatalf("%v: dart table of %d entries for %d links, guard %d", e, len(f.faceGuard), f.numLinks, f.faceGuard[0])
		}
		st := NewLinkState(f.numLinks)
		if eg, v := f.ForwardWire(0, rotation.NoDart, st, append([]byte(nil), forged...)); v != WireDropBadMark {
			t.Errorf("%v: forged PR frame with no ingress: dart %d, %v", e, eg, v)
		}
	}
}
