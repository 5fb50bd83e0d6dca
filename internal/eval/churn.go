package eval

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"recycle/internal/core"
	"recycle/internal/dataplane"
	"recycle/internal/graph"
	"recycle/internal/rotation"
	"recycle/internal/route"
	"recycle/internal/telemetry"
	"recycle/internal/topo"
)

// Churn quantifies the topology-churn comparison for one topology: what
// a planned single-link weight change, and a planned link removal or
// addition, cost through a full recompile (routing tables + quantiser +
// protocol + FIB from scratch — today's control-plane stall) versus a
// delta recompile (only the affected destination columns repaired).
type Churn struct {
	Topology string
	Nodes    int
	Links    int
	// Edits is how many random single-link weight edits were timed.
	Edits int
	// FullMedian and DeltaMedian are per-edit recompile latencies.
	FullMedian  time.Duration
	DeltaMedian time.Duration
	// Speedup is FullMedian / DeltaMedian.
	Speedup float64
	// DirtyMean is the mean affected-destination count per edit, out of
	// Nodes destination trees.
	DirtyMean float64
	// StructEdits is how many structural edits were timed: a random
	// non-bridge link removed, then added back, Edits/2 times over (0 when
	// every link is a bridge). StructFullMedian, StructDeltaMedian and
	// StructSpeedup are FullMedian, DeltaMedian and Speedup over those.
	StructEdits       int
	StructFullMedian  time.Duration
	StructDeltaMedian time.Duration
	StructSpeedup     float64
}

// ChurnConfig parameterises the churn comparison. The embedded Panel's
// Topologies, Seed, Metrics and Tracer are consumed; its
// failure-process fields are ignored (churn has no failure dimension).
// A shared Metrics registry accumulates the full path's compile-phase
// latency histogram, and a Tracer receives every compile's and every
// delta Apply's span tree.
type ChurnConfig struct {
	Panel
	// Edits is how many random single-link weight edits to time per
	// topology (default 24), and then as many structural edits, rounded
	// down to whole remove-and-re-add pairs.
	Edits int
}

func (c *ChurnConfig) withDefaults() ChurnConfig {
	out := *c
	out.Panel = out.Panel.withDefaults("")
	if out.Edits == 0 {
		out.Edits = 24
	}
	return out
}

// MeasureChurn times full-vs-delta recompilation over a sequence of
// random single-link weight edits, then over removals of random
// non-bridge links, each followed by the link's re-addition
// (deterministic per cfg.Seed). Every delta result is the bit-identical
// FIB the differential harness pins, so the columns are directly
// comparable.
func MeasureChurn(tp topo.Topology, cfg ChurnConfig) (Churn, error) {
	eff := cfg.withDefaults()
	edits, seed := eff.Edits, eff.Seed
	g := tp.Graph
	c := Churn{Topology: tp.Name, Nodes: g.NumNodes(), Links: g.NumLinks(), Edits: edits}
	st, err := buildStack(tp, dataplane.CompileOptions{})
	if err != nil {
		return c, err
	}
	rec, err := st.recompiler(eff.Tracer, eff.Metrics)
	if err != nil {
		return c, err
	}

	// timed runs one edit down both paths and returns (full, delta)
	// latencies and the delta.
	timed := func(e graph.Edit) (time.Duration, time.Duration, *dataplane.Delta, error) {
		prev := rec.Graph()
		// Delta path: the recompiler's Apply.
		start := time.Now()
		d, err := rec.Apply(e)
		if err != nil {
			return 0, 0, nil, err
		}
		delta := time.Since(start)
		// Full path, producing the identical FIB: what a topology change
		// costs without the recompiler — edit the graph, rebuild the
		// rotation system (same link orders), every routing tree, the
		// whole quantiser and the whole FIB.
		start = time.Now()
		fullG, err := graph.ApplyEdit(prev, e)
		if err != nil {
			return 0, 0, nil, err
		}
		orders := make([][]graph.LinkID, fullG.NumNodes())
		for v := range orders {
			orders[v] = d.System.LinkOrder(graph.NodeID(v))
		}
		fullSys, err := rotation.FromLinkOrders(fullG, orders)
		if err != nil {
			return 0, 0, nil, err
		}
		fullTbl := route.Build(fullG, route.HopCount)
		fullQuant := core.BuildQuantiser(fullTbl)
		fullP, err := core.New(fullG, fullSys, fullTbl, core.Config{Variant: core.Full})
		if err == nil {
			_, err = dataplane.CompileWithOptions(fullP, fullQuant,
				dataplane.CompileOptions{Tracer: eff.Tracer, Metrics: eff.Metrics})
		}
		return time.Since(start), delta, d, err
	}

	rng := rand.New(rand.NewSource(seed))
	var fullTimes, deltaTimes []time.Duration
	dirty := 0
	for i := 0; i < edits; i++ {
		l := graph.LinkID(rng.Intn(g.NumLinks()))
		full, delta, d, err := timed(graph.SetWeight(l, g.Weight(l)*(0.4+1.2*rng.Float64())))
		if err != nil {
			return c, err
		}
		fullTimes, deltaTimes = append(fullTimes, full), append(deltaTimes, delta)
		dirty += len(d.Dirty)
	}
	c.FullMedian, c.DeltaMedian, c.Speedup = medians(fullTimes, deltaTimes)
	c.DirtyMean = float64(dirty) / float64(edits)

	fullTimes, deltaTimes = nil, nil
	for i := 0; i < edits/2; i++ {
		cur := rec.Graph()
		bridge := make(map[graph.LinkID]bool)
		for _, b := range graph.Bridges(cur) {
			bridge[b] = true
		}
		if len(bridge) == cur.NumLinks() {
			break
		}
		l := graph.LinkID(rng.Intn(cur.NumLinks()))
		for bridge[l] {
			l = graph.LinkID(rng.Intn(cur.NumLinks()))
		}
		link := cur.Link(l)
		for _, e := range []graph.Edit{graph.RemoveLinkEdit(l), graph.AddLinkEdit(link.A, link.B, link.Weight)} {
			full, delta, _, err := timed(e)
			if err != nil {
				return c, err
			}
			fullTimes, deltaTimes = append(fullTimes, full), append(deltaTimes, delta)
		}
	}
	if c.StructEdits = len(fullTimes); c.StructEdits > 0 {
		c.StructFullMedian, c.StructDeltaMedian, c.StructSpeedup = medians(fullTimes, deltaTimes)
	}
	return c, nil
}

// medians returns the two paths' median latencies and their ratio.
func medians(full, delta []time.Duration) (f, d time.Duration, speedup float64) {
	f, d = median(full), median(delta)
	if d > 0 {
		speedup = float64(f) / float64(d)
	}
	return f, d, speedup
}

func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// WriteChurnReport renders the planned-maintenance numbers — the
// "Topology churn" table in README.md and the panel behind prsim churn:
// the full-vs-delta recompile comparison, for weight edits and then for
// structural ones, over the config's topology panel; the per-stage
// compile latency distribution (p50/p99) the runs accumulated; and a
// live hot-swap check on the panel's first topology. The report needs
// an explicit edit count.
func WriteChurnReport(w io.Writer, cfg ChurnConfig) error {
	if cfg.Edits < 1 {
		return fmt.Errorf("churn needs -edits ≥ 1 (got %d)", cfg.Edits)
	}
	panel, err := cfg.Panel.topologies()
	if err != nil {
		return err
	}
	if cfg.Metrics == nil {
		cfg.Metrics = telemetry.NewRegistry()
	}
	eff := cfg.withDefaults()
	fmt.Fprintf(w, "# topology churn: full vs delta recompile, %d random single-link weight edits, then %d removals and re-additions of a non-bridge link (s. columns), per topology (seed %d)\n",
		eff.Edits, eff.Edits/2*2, eff.Seed)
	fmt.Fprintf(w, "%-10s %-5s %-5s | %-10s %-10s %-8s | %-9s | %-10s %-10s %-8s\n",
		"topology", "nodes", "links", "full", "delta", "speedup", "dirty/dst", "s.full", "s.delta", "speedup")
	base := eff.Metrics.Snapshot()
	for _, tp := range panel {
		c, err := MeasureChurn(tp, eff)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-10s %-5d %-5d | %-10v %-10v %-8.1f | %5.1f/%-3d | %-10v %-10v %-8.1f\n",
			c.Topology, c.Nodes, c.Links,
			c.FullMedian.Round(time.Microsecond), c.DeltaMedian.Round(time.Microsecond),
			c.Speedup, c.DirtyMean, c.Nodes,
			c.StructFullMedian.Round(time.Microsecond), c.StructDeltaMedian.Round(time.Microsecond), c.StructSpeedup)
	}
	writeStageLatencies(w, eff.Metrics.Snapshot().Sub(base))
	if len(panel) == 0 {
		return nil
	}
	return writeLiveSwaps(w, panel[0], eff)
}

// writeLiveSwaps is the zero-loss check behind the churn table: a
// sharded engine decides a continuous stream of batches while cfg.Edits
// delta-recompiled FIBs are swapped in (Engine.ApplyDelta); every
// submitted packet must come out decided.
func writeLiveSwaps(w io.Writer, tp topo.Topology, cfg ChurnConfig) error {
	st, err := buildStack(tp, dataplane.CompileOptions{})
	if err != nil {
		return err
	}
	rec, err := st.recompiler(cfg.Tracer, cfg.Metrics)
	if err != nil {
		return err
	}
	var submitted atomic.Uint64
	// 16 batches circulate; the buffer holds them all with room to spare.
	free := make(chan *dataplane.Batch, 64)
	eng := dataplane.NewEngine(rec.FIB(), dataplane.EngineConfig{
		OnDone:  func(b *dataplane.Batch) { free <- b },
		Metrics: cfg.Metrics,
		Tracer:  cfg.Tracer,
	})
	n := st.g.NumNodes()
	for i := 0; i < 16; i++ {
		pkts := make([]dataplane.Packet, 256)
		for j := range pkts {
			pkts[j] = dataplane.Packet{
				Node:    graph.NodeID((i + j) % n),
				Dst:     graph.NodeID((i + j + 1 + j%(n-1)) % n),
				Ingress: rotation.NoDart,
			}
		}
		free <- &dataplane.Batch{Pkts: pkts}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case b := <-free:
				for !eng.Submit(b) {
				}
				submitted.Add(uint64(len(b.Pkts)))
			}
		}
	}()

	rng := rand.New(rand.NewSource(cfg.Seed))
	var recompile, swap time.Duration
	edit := func() error {
		l := graph.LinkID(rng.Intn(rec.Graph().NumLinks()))
		start := time.Now()
		d, err := rec.Apply(graph.SetWeight(l, rec.Graph().Weight(l)*(0.4+1.2*rng.Float64())))
		if err != nil {
			return err
		}
		recompile += time.Since(start)
		start = time.Now()
		err = eng.ApplyDelta(d)
		swap += time.Since(start)
		return err
	}
	for i := 0; i < cfg.Edits && err == nil; i++ {
		err = edit()
		time.Sleep(time.Millisecond) // let traffic flow between swaps
	}
	close(stop)
	wg.Wait()
	decided := eng.Close()
	if err != nil {
		return err
	}
	lost := submitted.Load() - decided
	fmt.Fprintf(w, "\n# live hot-swap on %s: %d delta swaps under continuous engine traffic\n", tp.Name, cfg.Edits)
	fmt.Fprintf(w, "packets submitted  %d\n", submitted.Load())
	fmt.Fprintf(w, "packets decided    %d\n", decided)
	fmt.Fprintf(w, "packets lost       %d (expected: 0)\n", lost)
	fmt.Fprintf(w, "delta recompile    %v mean\n", (recompile / time.Duration(cfg.Edits)).Round(time.Microsecond))
	fmt.Fprintf(w, "FIB swap           %v mean\n", (swap / time.Duration(cfg.Edits)).Round(time.Microsecond))
	if lost != 0 {
		return fmt.Errorf("engine dropped %d packets across hot-swaps", lost)
	}
	return nil
}
