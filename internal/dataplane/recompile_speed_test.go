package dataplane_test

import (
	"math"
	"runtime"
	"sort"
	"testing"
	"time"

	"recycle/internal/core"
	"recycle/internal/dataplane"
	"recycle/internal/graph"
	"recycle/internal/rotation"
	"recycle/internal/route"
)

// TestDeltaRecompileSpeedup pins the headline churn claim where it is
// structural: a delta recompile of a single-link weight change on
// grid:8x8 is at least 10× faster than the full rebuild (routing tables +
// quantiser + protocol + FIB from scratch), because a metric tweak there
// moves a few nodes of a few trees. ring:64 is measured and reported but
// not gated: a 1↔2 tweak on a ring moves half of every tree, the delta's
// structural worst case, so its ratio is the price of the full build —
// ≥5× while Dijkstra allocated per node, about 3× once it stopped, about
// 2× now that it does not queue two-link nodes, which is all a ring has.
// BenchmarkRecompileDelta's absolute ns/op guards the delta path itself
// in the CI bench gate.
//
// Both paths are timed over identical alternating 1↔2 metric tweaks in
// interleaved batches, on one processor and each batch from a collected
// heap, and the gate reads the median of the per-round ratios (the design
// of TestTracerOverhead). One processor because with a second core the
// collector's share is hidden or not by what else that core is doing,
// while par fans 64 destinations out to two workers, which halves the
// rebuild and only adds hand-offs to a delta that repairs a few trees.
// On one processor every cycle a path causes, collector included, lands
// on its clock.
func TestDeltaRecompileSpeedup(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation distorts the timing ratio")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, c := range []struct {
		spec string
		want float64 // 0 reports without gating
	}{{"grid:8x8", 10}, {"ring:64", 0}} {
		speedup, full, delta := deltaSpeedup(t, c.spec)
		if speedup < c.want {
			t.Errorf("%s: delta recompile only %.2f× faster than full (full %v, delta %v at best); want ≥%g×",
				c.spec, speedup, full, delta, c.want)
		}
	}
}

// deltaSpeedup measures the median full/delta latency ratio of a 1↔2
// tweak of link 7 on the named topology, and each path's best batch.
func deltaSpeedup(t *testing.T, spec string) (speedup float64, full, delta time.Duration) {
	rec, g := churnBench(t, spec)
	const (
		link   = graph.LinkID(7)
		rounds = 9
		edits  = 16 // per batch per path
	)
	weights := [2]float64{2, 1}

	deltaBatch := func() time.Duration {
		start := time.Now()
		for i := 0; i < edits; i++ {
			if _, err := rec.Apply(graph.SetWeight(link, weights[i%2])); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start) / edits
	}
	fullBatch := func() time.Duration {
		sys := rec.System()
		start := time.Now()
		for i := 0; i < edits; i++ {
			g2, err := graph.ApplyEdit(g, graph.SetWeight(link, weights[i%2]))
			if err != nil {
				t.Fatal(err)
			}
			orders := make([][]graph.LinkID, g2.NumNodes())
			for v := 0; v < g2.NumNodes(); v++ {
				orders[v] = sys.LinkOrder(graph.NodeID(v))
			}
			sys2, err := rotation.FromLinkOrders(g2, orders)
			if err != nil {
				t.Fatal(err)
			}
			tbl := route.Build(g2, route.HopCount)
			quant := core.BuildQuantiser(tbl)
			p, err := core.New(g2, sys2, tbl, core.Config{Variant: core.Full})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := dataplane.CompileWith(p, quant); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start) / edits
	}

	timed := func(batch func() time.Duration) float64 {
		runtime.GC()
		return float64(batch())
	}

	// Warm both paths (scratch growth, children cache, allocator).
	deltaBatch()
	fullBatch()

	ratios := make([]float64, 0, rounds)
	bestDelta, bestFull := math.Inf(1), math.Inf(1)
	for r := 0; r < rounds; r++ {
		var d, f float64
		if r&1 == 0 {
			d, f = timed(deltaBatch), timed(fullBatch)
		} else {
			f, d = timed(fullBatch), timed(deltaBatch)
		}
		ratios = append(ratios, f/d)
		bestDelta, bestFull = math.Min(bestDelta, d), math.Min(bestFull, f)
	}
	sort.Float64s(ratios)
	speedup = ratios[rounds/2]
	t.Logf("%s: full %v, delta %v per edit at best — median speedup %.1f× (rounds %.1f× to %.1f×)",
		spec, time.Duration(bestFull), time.Duration(bestDelta), speedup, ratios[0], ratios[rounds-1])
	return speedup, time.Duration(bestFull), time.Duration(bestDelta)
}
