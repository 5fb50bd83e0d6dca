package dataplane

// Scale differentials: the parallel compiler, the shared-column FIB
// layout and the batch coalescer all promise bit-identity with the
// sequential dense baseline. These harnesses hold them to it — every
// (workers, layout) combination against the one-worker dense oracle,
// coalesced Applies against per-edit replay, shared-column recompilation
// against dense across chained structural churn — plus the rand:2000
// memory-ratio and GOMAXPROCS-gated speedup acceptance checks.

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"recycle/internal/core"
	"recycle/internal/embedding"
	"recycle/internal/graph"
	"recycle/internal/rotation"
	"recycle/internal/route"
	"recycle/internal/telemetry"
	"recycle/internal/topo"
)

// scaleProtocol builds the compile input for one differential case.
func scaleProtocol(t *testing.T, g *graph.Graph, sys *rotation.System, disc route.Discriminator) *core.Protocol {
	t.Helper()
	tbl := route.Build(g, disc)
	p, err := core.New(g, sys, tbl, core.Config{Variant: core.Full})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestParallelCompileDifferential: every compile configuration — worker
// counts 1/3/4, dense and shared columns, tiny pages to force page
// boundaries inside columns — produces a FIB entry-identical to the
// sequential dense oracle, over the same 100-graph mix the recompiler
// harness uses plus fixed large-diameter topologies that select the
// flow-label codec.
func TestParallelCompileDifferential(t *testing.T) {
	type tcase struct {
		name string
		g    *graph.Graph
		sys  *rotation.System
		disc route.Discriminator
	}
	var cases []tcase
	for seed := int64(1); seed <= 100; seed++ {
		var g *graph.Graph
		if seed%4 == 0 {
			g = graph.RandomPlanarLike(7+int(seed%8), seed)
		} else {
			n := 6 + int(seed%10)
			g = graph.RandomTwoConnected(n, n+2+int(seed)%n, seed)
		}
		disc := route.HopCount
		if seed%2 == 0 {
			disc = route.WeightSum
		}
		cases = append(cases, tcase{
			name: testCtx(seed, 0, nil), g: g, sys: rotation.Random(g, seed*13), disc: disc,
		})
	}
	// Large-diameter families push the quantiser past 3 bits, so the
	// flow-label codec's ranks are covered too.
	for _, spec := range []string{"chain:8", "wring:24@3"} {
		tp, err := topo.Generated(spec)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tcase{name: spec, g: tp.Graph, sys: tp.Embedding, disc: route.WeightSum})
	}
	variants := []CompileOptions{
		{Workers: 4, Columns: ColumnsDense},
		{Workers: 1, Columns: ColumnsShared, PageSize: 8},
		{Workers: 4, Columns: ColumnsShared, PageSize: 8},
		{Workers: 3, Columns: ColumnsShared},
	}
	for _, tc := range cases {
		p := scaleProtocol(t, tc.g, tc.sys, tc.disc)
		oracle, err := CompileWithOptions(p, nil, CompileOptions{Workers: 1, Columns: ColumnsDense})
		if err != nil {
			t.Fatal(err)
		}
		for _, opt := range variants {
			got, err := CompileWithOptions(p, nil, opt)
			if err != nil {
				t.Fatal(err)
			}
			ctx := tc.name
			if opt.Columns == ColumnsShared {
				ctx += " shared"
				if !got.SharedColumns() {
					t.Fatalf("%s: ColumnsShared compiled dense", ctx)
				}
			}
			fibsEqual(t, ctx, got, oracle)
		}
	}
}

// TestApplyEmptyNoOp pins the documented contract: an empty edit set is
// a no-op returning a nil delta and nil error, leaving the recompiler
// untouched.
func TestApplyEmptyNoOp(t *testing.T) {
	g := graph.RandomTwoConnected(8, 12, 5)
	p := scaleProtocol(t, g, rotation.Random(g, 7), route.HopCount)
	rec, err := NewRecompiler(p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	g0, f0 := rec.Graph(), rec.FIB()
	d, err := rec.Apply()
	if err != nil {
		t.Fatalf("empty Apply: %v", err)
	}
	if d != nil {
		t.Fatal("empty Apply returned a delta")
	}
	if rec.Graph() != g0 || rec.FIB() != f0 {
		t.Fatal("empty Apply mutated the recompiler")
	}
}

// TestCoalescePinned pins the coalescer's behaviour case by case: weight
// last-write-wins, a weight edit that reverts to the current value, a
// tie-break-flipping intermediate state, and the batches with a
// structural edit, which replay edit by edit: an addition removed again
// leaves a tombstone, a removal re-added revives its ID.
func TestCoalescePinned(t *testing.T) {
	build := func(t *testing.T, disc route.Discriminator) *Recompiler {
		g := graph.RandomTwoConnected(8, 13, 11)
		p := scaleProtocol(t, g, rotation.Random(g, 3), disc)
		rec, err := NewRecompiler(p, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	findAddable := func(g *graph.Graph) (graph.NodeID, graph.NodeID) {
		for a := 0; a < g.NumNodes(); a++ {
			for b := a + 1; b < g.NumNodes(); b++ {
				if !g.HasLink(graph.NodeID(a), graph.NodeID(b)) {
					return graph.NodeID(a), graph.NodeID(b)
				}
			}
		}
		panic("complete graph")
	}

	t.Run("add-remove-leaves-tombstone", func(t *testing.T) {
		rec, recB := build(t, route.HopCount), build(t, route.HopCount)
		g0 := rec.Graph()
		a, b := findAddable(g0)
		added := g0.AddTarget(a, b)
		edits := []graph.Edit{graph.AddLinkEdit(a, b, 2), graph.RemoveLinkEdit(added)}
		d, err := rec.Apply(edits...)
		if err != nil {
			t.Fatal(err)
		}
		if d == nil || !d.Structural || d.Graph.NumLinks() != g0.NumLinks()+1 || !d.Graph.Removed(added) {
			t.Fatalf("add+remove left %v; want link %d appended and removed", d, added)
		}
		if got := rec.stats.coalescedEdits; got != 0 {
			t.Fatalf("CoalescedEdits = %d, want 0 (replayed)", got)
		}
		for _, e := range edits {
			if _, err := recB.Apply(e); err != nil {
				t.Fatal(err)
			}
		}
		fibsEqual(t, "add+remove vs one Apply each", d.FIB, recB.FIB())
		want, _ := fullRecompile(t, d, route.HopCount, core.Full)
		fibsEqual(t, "add+remove vs scratch", d.FIB, want)

		// A weight edit on the tombstone is accepted and moves no tree;
		// removing it again is an error.
		d, err = rec.Apply(graph.SetWeight(added, 9))
		if err != nil || d == nil || len(d.Dirty) != 0 || d.Structural {
			t.Fatalf("weight edit on a tombstone: %v, dirty %v", err, d)
		}
		fibsEqual(t, "tombstone weight vs before", d.FIB, recB.FIB())
		if _, err := rec.Apply(graph.RemoveLinkEdit(added)); err == nil {
			t.Fatal("removing a tombstone accepted")
		}
	})

	t.Run("weight-revert-cancels", func(t *testing.T) {
		rec := build(t, route.WeightSum)
		l := graph.LinkID(4)
		w0 := rec.Graph().Weight(l)
		d, err := rec.Apply(graph.SetWeight(l, w0*3), graph.SetWeight(l, w0))
		if err != nil {
			t.Fatal(err)
		}
		if d != nil {
			t.Fatal("reverting batch returned a delta")
		}
		if got := rec.stats.coalescedEdits; got != 2 {
			t.Fatalf("CoalescedEdits = %d, want 2", got)
		}
	})

	t.Run("weight-last-write-wins", func(t *testing.T) {
		recA, recB := build(t, route.WeightSum), build(t, route.WeightSum)
		l := graph.LinkID(2)
		d, err := recA.Apply(graph.SetWeight(l, 9), graph.SetWeight(l, 2.5))
		if err != nil {
			t.Fatal(err)
		}
		if d == nil {
			t.Fatal("net weight change coalesced to nothing")
		}
		if got := recA.stats.coalescedEdits; got != 1 {
			t.Fatalf("CoalescedEdits = %d, want 1", got)
		}
		// Same state as applying only the final write…
		dB, err := recB.Apply(graph.SetWeight(l, 2.5))
		if err != nil {
			t.Fatal(err)
		}
		fibsEqual(t, "lww vs single", d.FIB, dB.FIB)
		// …and as compiling the final graph from scratch.
		want, _ := fullRecompile(t, d, route.WeightSum, core.Full)
		fibsEqual(t, "lww vs scratch", d.FIB, want)
	})

	t.Run("tie-break-flip-intermediate", func(t *testing.T) {
		// A ring's two arcs can tie exactly. The intermediate edit sets a
		// weight that creates the tie (flipping shortest-path tie-breaks
		// during replay); the final write resolves it. Coalesced Apply
		// never sees the tie, yet must land on the identical FIB.
		tp, err := topo.Generated("ring:6")
		if err != nil {
			t.Fatal(err)
		}
		mk := func(t *testing.T) *Recompiler {
			p := scaleProtocol(t, tp.Graph, tp.Embedding, route.WeightSum)
			rec, err := NewRecompiler(p, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			return rec
		}
		recA, recB := mk(t), mk(t)
		l := tp.Graph.FindLink(0, 1)
		// 0→2 via 0-1-2 costs 1+w(l); the long arc costs 4. w(l)=3 ties.
		edits := []graph.Edit{graph.SetWeight(l, 3), graph.SetWeight(l, 2)}
		dA, err := recA.Apply(edits...)
		if err != nil {
			t.Fatal(err)
		}
		var dB *Delta
		for _, e := range edits {
			dB, err = recB.Apply(e)
			if err != nil {
				t.Fatal(err)
			}
		}
		if dA == nil || dB == nil {
			t.Fatal("expected deltas")
		}
		fibsEqual(t, "tie-break flip", dA.FIB, dB.FIB)
		want, _ := fullRecompile(t, dA, route.WeightSum, core.Full)
		fibsEqual(t, "tie-break flip vs scratch", dA.FIB, want)
	})

	t.Run("remove-readd-replays", func(t *testing.T) {
		rec := build(t, route.HopCount)
		g0 := rec.Graph()
		// Remove a non-bridge link and re-add its endpoints: a structural
		// batch, so Apply replays, and the re-addition revives the ID.
		var l graph.LinkID = graph.NoLink
		bridges := map[graph.LinkID]bool{}
		for _, b := range graph.Bridges(g0) {
			bridges[b] = true
		}
		for i := 0; i < g0.NumLinks(); i++ {
			if !bridges[graph.LinkID(i)] {
				l = graph.LinkID(i)
				break
			}
		}
		lk := g0.Link(l)
		d, err := rec.Apply(graph.RemoveLinkEdit(l), graph.AddLinkEdit(lk.A, lk.B, 5))
		if err != nil {
			t.Fatal(err)
		}
		if d == nil {
			t.Fatal("remove+re-add is not a no-op (the weight changed)")
		}
		if d.Graph.NumLinks() != g0.NumLinks() || d.Graph.Removed(l) || d.Graph.Weight(l) != 5 {
			t.Fatalf("re-add did not revive link %d: %v", l, d.Graph.Link(l))
		}
		if got := rec.stats.coalescedEdits; got != 0 {
			t.Fatalf("CoalescedEdits = %d, want 0 (replayed)", got)
		}
		want, _ := fullRecompile(t, d, route.HopCount, core.Full)
		fibsEqual(t, "remove+re-add", d.FIB, want)
	})

	t.Run("mixed-batch-replays", func(t *testing.T) {
		recA, recB := build(t, route.WeightSum), build(t, route.WeightSum)
		g0 := recA.Graph()
		a, b := findAddable(g0)
		l := graph.LinkID(1)
		edits := []graph.Edit{
			graph.SetWeight(l, 7),
			graph.AddLinkEdit(a, b, 2),
			graph.SetWeight(l, 3),
			graph.RemoveLinkEdit(g0.AddTarget(a, b)),
		}
		d, err := recA.Apply(edits...)
		if err != nil {
			t.Fatal(err)
		}
		if d == nil {
			t.Fatal("mixed batch coalesced to nothing")
		}
		if got := recA.stats.coalescedEdits; got != 0 {
			t.Fatalf("CoalescedEdits = %d, want 0 (replayed)", got)
		}
		for _, e := range edits {
			if _, err := recB.Apply(e); err != nil {
				t.Fatal(err)
			}
		}
		fibsEqual(t, "mixed batch", d.FIB, recB.FIB())
	})
}

// TestCoalescedDifferential: random batches biased toward duplicate
// targets (the shapes the coalescer rewrites) applied in one coalesced
// Apply versus edit-by-edit on a second recompiler. Both must land on
// entry-identical FIBs — and on the from-scratch compile of the final
// graph.
func TestCoalescedDifferential(t *testing.T) {
	coalesced := int64(0)
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed * 977))
		n := 7 + int(seed%9)
		g := graph.RandomTwoConnected(n, n+3+int(seed)%n, seed)
		sys := rotation.Random(g, seed*19)
		disc := route.HopCount
		if seed%2 == 0 {
			disc = route.WeightSum
		}
		mk := func() *Recompiler {
			p := scaleProtocol(t, g, sys, disc)
			rec, err := NewRecompiler(p, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			rec.SetWorkers(2 + int(seed%3))
			return rec
		}
		recA, recB := mk(), mk()
		for step := 0; step < 4; step++ {
			// Duplicate-target bias: half the weight edits hit the same
			// link twice; every third batch adds a link and removes it (or
			// an original) later in the batch.
			var edits []graph.Edit
			cur := recA.Graph()
			hot := graph.LinkID(rng.Intn(cur.NumLinks()))
			edits = append(edits,
				graph.SetWeight(hot, 1+float64(rng.Intn(9))),
				graph.SetWeight(hot, 1+float64(rng.Intn(9))))
			if step%3 == 0 {
				a := graph.NodeID(rng.Intn(cur.NumNodes()))
				b := graph.NodeID(rng.Intn(cur.NumNodes()))
				if a != b && !cur.HasLink(a, b) {
					added := cur.AddTarget(a, b)
					edits = append(edits, graph.AddLinkEdit(a, b, 1+9*rng.Float64()))
					if rng.Intn(2) == 0 {
						edits = append(edits, graph.RemoveLinkEdit(added))
					}
				}
			}
			dA, err := recA.Apply(edits...)
			if err != nil {
				t.Fatalf("%s: %v", testCtx(seed, step, edits), err)
			}
			var dB *Delta
			for _, e := range edits {
				dB, err = recB.Apply(e)
				if err != nil {
					t.Fatalf("%s: replay: %v", testCtx(seed, step, edits), err)
				}
			}
			ctx := testCtx(seed, step, edits)
			if dA == nil {
				// Batch netted out; the per-edit replay must have walked
				// back to the same state.
				fibsEqual(t, ctx+" (net no-op)", recB.FIB(), recA.FIB())
				continue
			}
			fibsEqual(t, ctx, dA.FIB, dB.FIB)
			want, _ := fullRecompile(t, dA, disc, core.Full)
			fibsEqual(t, ctx+" vs scratch", dA.FIB, want)
		}
		coalesced += recA.stats.coalescedEdits
	}
	if coalesced == 0 {
		t.Fatal("differential never exercised the coalescer")
	}
	t.Logf("%d edits coalesced away", coalesced)
}

// TestSharedColumnsChainedDifferential drives satellite (d): a
// shared-column FIB recompiled across chained random edits — including
// structural adds/removes — stays entry-identical to the dense-column
// recompiler, and Engine.ApplyDelta hot-swaps the shared FIBs while
// worker goroutines decide on them (run with -race).
func TestSharedColumnsChainedDifferential(t *testing.T) {
	tp, err := topo.Generated("rand:48@5")
	if err != nil {
		t.Fatal(err)
	}
	g := tp.Graph
	sys, err := (embedding.Auto{Seed: 1}).Embed(g)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(cols ColumnMode) *Recompiler {
		p := scaleProtocol(t, g, sys, route.WeightSum)
		fib, err := CompileWithOptions(p, nil, CompileOptions{Columns: cols, PageSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		rec, err := NewRecompiler(p, nil, fib)
		if err != nil {
			t.Fatal(err)
		}
		rec.SetWorkers(3)
		return rec
	}
	recShared, recDense := mk(ColumnsShared), mk(ColumnsDense)
	if !recShared.FIB().SharedColumns() || recDense.FIB().SharedColumns() {
		t.Fatal("fixture layouts wrong")
	}

	reg := telemetry.NewRegistry()
	eng := NewEngine(recShared.FIB(), EngineConfig{Shards: 2, Metrics: reg,
		OnDone: func(*Batch) {}})
	defer eng.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for {
			select {
			case <-stop:
				return
			default:
			}
			pkts := make([]Packet, 32)
			nn := eng.FIB().NumNodes()
			for j := range pkts {
				pkts[j] = Packet{Node: graph.NodeID(rng.Intn(nn)),
					Dst: graph.NodeID(rng.Intn(nn)), Ingress: rotation.NoDart}
			}
			for !eng.Submit(&Batch{Pkts: pkts}) {
			}
		}
	}()

	rng := rand.New(rand.NewSource(4242))
	for step := 0; step < 12; step++ {
		var edits []graph.Edit
		cur := recShared.Graph()
		for len(edits) < 1+rng.Intn(3) {
			e, ok := randomEdit(cur, rng)
			if !ok {
				break
			}
			edits = append(edits, e)
			next, err := graph.ApplyEdit(cur, e)
			if err != nil {
				t.Fatal(err)
			}
			cur = next
		}
		if len(edits) == 0 {
			continue
		}
		dS, err := recShared.Apply(edits...)
		if err != nil {
			t.Fatalf("shared step %d: %v", step, err)
		}
		dD, err := recDense.Apply(edits...)
		if err != nil {
			t.Fatalf("dense step %d: %v", step, err)
		}
		if (dS == nil) != (dD == nil) {
			t.Fatalf("step %d: coalescing diverged between layouts", step)
		}
		if dS == nil {
			continue
		}
		if !dS.FIB.SharedColumns() {
			t.Fatalf("step %d: recompiled FIB lost the shared layout", step)
		}
		fibsEqual(t, testCtx(int64(step), step, edits), dS.FIB, dD.FIB)
		if err := eng.ApplyDelta(dS); err != nil {
			t.Fatalf("step %d: swap: %v", step, err)
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if got := reg.Snapshot().Gauge(MetricFIBMemBytes); got != eng.FIB().MemBytes() {
		t.Fatalf("fib.mem.bytes gauge %d, want %d", got, eng.FIB().MemBytes())
	}
}

// TestSharedColumnsMemBytes is the memory acceptance gate: on rand:2000
// the shared-column layout must cut resident FIB bytes at least 3× under
// the dense planes.
func TestSharedColumnsMemBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("rand:2000 compile in -short mode")
	}
	tp, err := topo.Generated("rand:2000@1")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := (embedding.Auto{Seed: 1}).Embed(tp.Graph)
	if err != nil {
		t.Fatal(err)
	}
	p := scaleProtocol(t, tp.Graph, sys, route.HopCount)
	dense, err := CompileWithOptions(p, nil, CompileOptions{Columns: ColumnsDense})
	if err != nil {
		t.Fatal(err)
	}
	shared, err := CompileWithOptions(p, nil, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !shared.SharedColumns() {
		t.Fatal("auto mode compiled rand:2000 dense")
	}
	db, sb := dense.MemBytes(), shared.MemBytes()
	if db <= 0 || sb <= 0 {
		t.Fatalf("MemBytes dense %d shared %d", db, sb)
	}
	ratio := float64(db) / float64(sb)
	t.Logf("rand:2000 FIB bytes: dense %d, shared %d (%.1f×)", db, sb, ratio)
	if ratio < 3 {
		t.Fatalf("shared columns save only %.2f×, want ≥ 3×", ratio)
	}
	// Spot-check identity on a sample of entries (the full differential
	// runs on smaller graphs above).
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		node, dst := rng.Intn(2000), rng.Intn(2000)
		if dense.ndAt(node, dst) != shared.ndAt(node, dst) ||
			dense.ddqAt(node, dst) != shared.ddqAt(node, dst) {
			t.Fatalf("entry (%d,%d) diverges between layouts", node, dst)
		}
	}
}

// TestParallelCompileSpeedup is the wall-clock acceptance gate: with ≥ 8
// cores, the parallel pipeline (trees, quantiser ranking, FIB fill) over
// rand:2000 beats the sequential one ≥ 4×. Skipped on smaller machines —
// the bit-identity differentials above still cover the parallel paths
// there.
func TestParallelCompileSpeedup(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	if procs < 8 {
		t.Skipf("GOMAXPROCS %d < 8; speedup gate needs real cores", procs)
	}
	if testing.Short() {
		t.Skip("rand:2000 compile in -short mode")
	}
	tp, err := topo.Generated("rand:2000@1")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := (embedding.Auto{Seed: 1}).Embed(tp.Graph)
	if err != nil {
		t.Fatal(err)
	}
	pipeline := func(workers int) *FIB {
		tbl := route.BuildWorkers(tp.Graph, route.HopCount, workers)
		p, err := core.New(tp.Graph, sys, tbl, core.Config{Variant: core.Full, Quantise: true})
		if err != nil {
			t.Fatal(err)
		}
		quant := core.BuildQuantiserWorkers(tbl, workers)
		fib, err := CompileWithOptions(p, quant, CompileOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return fib
	}
	pipeline(procs) // warm up (page cache, allocator)
	t0 := time.Now()
	seqFIB := pipeline(1)
	seq := time.Since(t0)
	t0 = time.Now()
	parFIB := pipeline(procs)
	par := time.Since(t0)
	speedup := seq.Seconds() / par.Seconds()
	t.Logf("rand:2000 compile: sequential %v, %d workers %v (%.1f×)", seq, procs, par, speedup)
	fibsEqual(t, "speedup identity", parFIB, seqFIB)
	if speedup < 4 {
		t.Fatalf("parallel compile speedup %.2f×, want ≥ 4× at GOMAXPROCS %d", speedup, procs)
	}
}
