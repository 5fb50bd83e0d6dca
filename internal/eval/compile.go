package eval

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"recycle/internal/core"
	"recycle/internal/dataplane"
	"recycle/internal/graph"
	"recycle/internal/route"
	"recycle/internal/telemetry"
)

// WriteCompileReport is the scaling report behind the "scale past 1000
// nodes" work, on the panel's first topology: per-phase compile time
// (destination trees, quantiser ranking, FIB fill) sequential versus at
// GOMAXPROCS workers, resident FIB bytes dense versus shared-column, and
// delta-apply latency single-edit versus a coalesced duplicate-target
// batch (edits drawn from the panel's Seed). The panel's Tracer receives
// every compile's and Apply's span tree.
func WriteCompileReport(w io.Writer, p Panel) error {
	p = p.withDefaults("")
	tp, err := p.first()
	if err != nil {
		return err
	}
	g := tp.Graph
	// Why this topology's tree build costs what it does: nodes with exactly
	// two links never enter the builder's heap, a relaxation runs through
	// them. One sequential pass over every destination counts both kinds.
	passThrough := 0
	for v := 0; v < g.NumNodes(); v++ {
		if g.Degree(graph.NodeID(v)) == 2 {
			passThrough++
		}
	}
	var b graph.SPTBuilder
	for d := 0; d < g.NumNodes(); d++ {
		b.Tree(g, graph.NodeID(d), nil)
	}
	fmt.Fprintf(w, "# compile scaling on %s: %d nodes (%d pass-through), %d links\n", tp.Name, g.NumNodes(), passThrough, g.NumLinks())
	trees := float64(max(g.NumNodes(), 1))
	fmt.Fprintf(w, "per tree         %.1f nodes queued, %.1f followed\n", float64(b.Queued)/trees, float64(b.Followed)/trees)
	start := time.Now()
	sys, err := embed(tp)
	if err != nil {
		return err
	}
	if tp.Embedding == nil {
		fmt.Fprintf(w, "embed            %12v (genus %d)\n", time.Since(start).Round(time.Microsecond), sys.Genus())
	}

	procs := runtime.GOMAXPROCS(0)
	type phases struct {
		trees, quant, dense, shared time.Duration
		denseB, sharedB             int64
	}
	// build times one FIB layout over a prebuilt protocol and quantiser.
	build := func(prot *core.Protocol, quant *core.Quantiser, workers int, cols dataplane.ColumnMode) (time.Duration, int64, error) {
		start := time.Now()
		fib, err := dataplane.CompileWithOptions(prot, quant,
			dataplane.CompileOptions{Workers: workers, Columns: cols, Tracer: p.Tracer})
		if err != nil {
			return 0, 0, err
		}
		return time.Since(start), fib.MemBytes(), nil
	}
	// run times every phase at one worker count; prot is the quantised
	// protocol it compiled, identical at any count.
	var prot *core.Protocol
	run := func(workers int) (ph phases, err error) {
		start := time.Now()
		tbl := route.BuildWorkers(g, route.HopCount, workers)
		ph.trees = time.Since(start)
		start = time.Now()
		quant := core.BuildQuantiserWorkers(tbl, workers)
		ph.quant = time.Since(start)
		// The protocol stamps from the timed quantiser, so the FIB compiles
		// the table the quantiser row measured.
		if prot, err = core.NewWithQuantiser(g, sys, tbl, core.Config{Variant: core.Full, Quantise: true}, quant); err != nil {
			return ph, err
		}
		if ph.dense, ph.denseB, err = build(prot, quant, workers, dataplane.ColumnsDense); err != nil {
			return ph, err
		}
		ph.shared, ph.sharedB, err = build(prot, quant, workers, dataplane.ColumnsShared)
		return ph, err
	}
	seq, err := run(1)
	if err != nil {
		return err
	}
	par := seq
	if procs > 1 {
		if par, err = run(procs); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "%-16s %12s", "phase", "workers=1")
	if procs > 1 {
		fmt.Fprintf(w, " %11s=%d %9s", "workers", procs, "speedup")
	}
	fmt.Fprintln(w)
	row := func(name string, one, many time.Duration) {
		fmt.Fprintf(w, "%-16s %12v", name, one.Round(time.Microsecond))
		if procs > 1 {
			fmt.Fprintf(w, " %13v %8.1f×", many.Round(time.Microsecond), one.Seconds()/many.Seconds())
		}
		fmt.Fprintln(w)
	}
	row("trees", seq.trees, par.trees)
	row("quantiser", seq.quant, par.quant)
	row("fib dense", seq.dense, par.dense)
	row("fib shared", seq.shared, par.shared)
	row("total", seq.trees+seq.quant+seq.shared, par.trees+par.quant+par.shared)
	fmt.Fprintf(w, "fib bytes        dense %d, shared %d (%.1f× smaller)\n",
		seq.denseB, seq.sharedB, float64(seq.denseB)/float64(seq.sharedB))

	// Delta curve: single weight edits versus a duplicate-target batch
	// the coalescer reduces before recompiling.
	rec, err := dataplane.NewRecompiler(prot, nil, nil)
	if err != nil {
		return err
	}
	recReg := telemetry.NewRegistry()
	rec.Register(recReg)
	rec.SetTracer(p.Tracer)
	rng := rand.New(rand.NewSource(p.Seed))
	const rounds = 8
	// apply times rounds Applies of the edit set mk draws for a random link.
	apply := func(mk func(l graph.LinkID, w float64) []graph.Edit) (time.Duration, error) {
		var total time.Duration
		for i := 0; i < rounds; i++ {
			l := graph.LinkID(rng.Intn(rec.Graph().NumLinks()))
			edits := mk(l, rec.Graph().Weight(l)*(0.4+1.2*rng.Float64()))
			start := time.Now()
			if _, err := rec.Apply(edits...); err != nil {
				return 0, err
			}
			total += time.Since(start)
		}
		return total / rounds, nil
	}
	single, err := apply(func(l graph.LinkID, w float64) []graph.Edit {
		return []graph.Edit{graph.SetWeight(l, w)}
	})
	if err != nil {
		return err
	}
	batch, err := apply(func(l graph.LinkID, w float64) []graph.Edit {
		return []graph.Edit{graph.SetWeight(l, 2), graph.SetWeight(l, 5), graph.SetWeight(l, w)}
	})
	if err != nil {
		return err
	}
	snap := recReg.Snapshot()
	fmt.Fprintf(w, "delta apply      %12v mean (single weight edit)\n", single.Round(time.Microsecond))
	fmt.Fprintf(w, "coalesced apply  %12v mean (3-edit duplicate-target batch)\n", batch.Round(time.Microsecond))
	fmt.Fprintf(w, "recompiler       %d applies, %d edits (%d coalesced away), %d trees repaired, %d untouched\n",
		snap.Counter(dataplane.MetricRecompileApplies), snap.Counter(dataplane.MetricRecompileEdits),
		snap.Counter(dataplane.MetricRecompileCoalesced), snap.Counter(dataplane.MetricRepairRepaired),
		snap.Counter(dataplane.MetricRepairUnchanged))
	return nil
}
