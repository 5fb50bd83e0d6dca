package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"recycle"
	"recycle/internal/core"
	"recycle/internal/dataplane"
	"recycle/internal/embedding"
	"recycle/internal/graph"
	"recycle/internal/rotation"
	"recycle/internal/route"
	"recycle/internal/topo"
)

// ctl_compile: cold builds of a large topology through the facade. Every
// build must produce the same FIB, and sampled failure-free walks on it
// must follow shortest paths.
//
// rand:1000 and not rand:2000: the same stages in the same proportions (the
// trees are nine tenths of either) in a fifth of the time, so a run holds
// eighty builds and not sixteen, and a build fits between the neighbours'
// bursts more often.

const compileTopo = "rand:1000@1"

// built is one finished build with the fingerprint of its FIB.
type built struct {
	net   *recycle.Network
	fib   *recycle.FIB
	ms    float64 // FromTopology and Compile, nothing else
	print uint64
}

func coldBuild(topology string, samples int) (*built, error) {
	t0 := time.Now()
	net, err := recycle.FromTopology(topology)
	if err != nil {
		return nil, err
	}
	fib, err := net.Compile()
	if err != nil {
		return nil, err
	}
	ms := time.Since(t0).Seconds() * 1e3
	return &built{net: net, fib: fib, ms: ms, print: fingerprint(fib, samples)}, nil
}

// fingerprint hashes the FIB's answers on a fixed sample of inputs, half
// of them mid-recovery, with every eighth link down so that discriminator
// comparisons decide outcomes too.
func fingerprint(fib *recycle.FIB, samples int) uint64 {
	rng := rand.New(rand.NewSource(1))
	st := dataplane.NewLinkState(fib.NumLinks())
	for l := 0; l < fib.NumLinks(); l += 8 {
		st.Set(graph.LinkID(l), true)
	}
	h := newHasher()
	put := h.put
	put(uint64(fib.DDBits()))
	for i := 0; i < samples; i++ {
		node := graph.NodeID(rng.Intn(fib.NumNodes()))
		dst := graph.NodeID(rng.Intn(fib.NumNodes()))
		ingress := rotation.DartID(rng.Intn(2 * fib.NumLinks()))
		hdr := core.Header{PR: i%2 == 1, DD: float64(rng.Intn(16))}
		d := fib.Decide(node, dst, ingress, hdr, st)
		put(uint64(uint32(d.Egress))<<8 | uint64(d.Event))
		put(math.Float64bits(d.Header.DD))
	}
	return h.Sum64()
}

// checkShortest walks sampled pairs with no failures and requires each
// walk's weight to equal an independently computed shortest distance.
func checkShortest(b *built, pairs int, seed int64) error {
	g := b.net.Graph()
	rng := rand.New(rand.NewSource(seed))
	st := dataplane.NewLinkState(g.NumLinks())
	for i := 0; i < pairs; i++ {
		dst := graph.NodeID(rng.Intn(g.NumNodes()))
		tree := graph.ShortestPathTree(g, dst, nil)
		for j := 0; j < 8; j++ {
			src := graph.NodeID(rng.Intn(g.NumNodes()))
			var cost float64
			node, ingress, hdr := src, rotation.NoDart, core.Header{}
			for hops := 0; node != dst; hops++ {
				d := b.fib.Decide(node, dst, ingress, hdr, st)
				if !d.OK || d.Event != core.EventRoute || hops > g.NumNodes() {
					return fmt.Errorf("failure-free walk %d→%d went wrong at node %d: %+v", src, dst, node, d)
				}
				cost += g.Weight(rotation.LinkOf(d.Egress))
				node, ingress, hdr = b.fib.Head(d.Egress), d.Egress, d.Header
			}
			if math.Abs(cost-tree.Dist[src]) > 1e-9*(1+tree.Dist[src]) {
				return fmt.Errorf("failure-free walk %d→%d costs %g; the shortest path costs %g", src, dst, cost, tree.Dist[src])
			}
		}
	}
	return nil
}

func runCompile(c *runCtx) error {
	defer oneProcessor()()
	samples := c.scaled(200_000, 2000)
	// Set-up is a warm-up build: it grows the heap to working size and is
	// the reference every timed build must reproduce.
	ref, err := timeSetup(c, func() (*built, error) { return coldBuild(compileTopo, samples) })
	if err != nil {
		return err
	}
	if err := checkShortest(ref, c.scaled(64, 4), c.seed); err != nil {
		return err
	}
	c.set("fib.mem_mbytes", float64(ref.fib.MemBytes())/1e6)
	refPrint, refBytes := ref.print, ref.fib.MemBytes()
	ref = nil

	var (
		facadeMs, stagedMs []float64
		rows               stageRows
		deadline           = time.Now().Add(time.Duration(c.seconds * float64(time.Second)))
		minBuilds          = c.scaled(5, 2)
	)
	if c.trace {
		minBuilds *= 2 // of each kind
	}
	c.beginWindow()
	for rep := 0; rep < minBuilds || time.Now().Before(deadline); rep++ {
		runtime.GC() // every build starts from the same heap
		var (
			print uint64
			fib   *recycle.FIB
		)
		if c.trace && rep%2 == 1 {
			// Traced runs alternate facade builds with the same build taken
			// apart stage by stage.
			row, staged, err := stagedBuild(c, compileTopo)
			if err != nil {
				return err
			}
			rows.add(row)
			stagedMs = append(stagedMs, row.total())
			print, fib = fingerprint(staged, samples), staged
		} else {
			t0 := time.Now()
			b, err := coldBuild(compileTopo, samples)
			if err != nil {
				return err
			}
			// The set-up is this same build from this same heap: each
			// timed build is one more repetition of it.
			c.setupTook(time.Since(t0))
			facadeMs = append(facadeMs, b.ms)
			print, fib = b.print, b.fib
		}
		c.attempted++
		if print != refPrint || fib.MemBytes() != refBytes {
			c.failed++
		}
	}
	c.endWindow(float64(c.attempted))
	if c.failed > 0 {
		return fmt.Errorf("%d of %d builds differ from the reference build", c.failed, c.attempted)
	}
	if c.trace {
		rows.report(c)
		// A stage the rows leave out would put the staged builds below the
		// facade's; neighbours on the box put single builds anywhere. So the
		// quiet build of each kind decides, once there are enough of each.
		staged, facade := quietTime(stagedMs), quietTime(facadeMs)
		fmt.Printf("# build stages sum to %.1f ms, the facade build takes %.1f ms\n", staged, facade)
		if math.Abs(staged-facade) > 0.10*facade && len(stagedMs) >= 5 {
			return fmt.Errorf("build stages sum to %.1f ms; the facade build takes %.1f ms", staged, facade)
		}
		c.set("trace_overhead_frac", 1-facade/staged)
		return nil
	}
	// A segment here is one build.
	rates := make([]float64, len(facadeMs))
	for i, ms := range facadeMs {
		rates[i] = 1e3 / ms
	}
	c.reportRate(rates)
	return nil
}

// stageRow is one build's time by stage, in milliseconds, with what it
// allocated.
type stageRow struct {
	topo, embed, route, core, fib float64
	allocMB, mallocs              float64
}

func (r stageRow) total() float64 { return r.topo + r.embed + r.route + r.core + r.fib }

type stageRows []stageRow

func (rs *stageRows) add(r stageRow) { *rs = append(*rs, r) }

// report sets each stage's median over the builds taken apart.
func (rs stageRows) report(c *runCtx) {
	col := func(f func(stageRow) float64) float64 {
		v := make([]float64, len(rs))
		for i, r := range rs {
			v[i] = f(r)
		}
		return median(v)
	}
	c.set("topo.build_ms", col(func(r stageRow) float64 { return r.topo }))
	c.set("embedding.embed_ms", col(func(r stageRow) float64 { return r.embed }))
	c.set("route.build_ms", col(func(r stageRow) float64 { return r.route }))
	c.set("core.new_ms", col(func(r stageRow) float64 { return r.core }))
	c.set("fib.compile_ms", col(func(r stageRow) float64 { return r.fib }))
	c.set("compile.alloc_mb", col(func(r stageRow) float64 { return r.allocMB }))
	c.set("compile.mallocs", col(func(r stageRow) float64 { return r.mallocs }))
}

// stagedBuild is the facade's build (FromTopology, then Compile) taken
// apart: the same constructors in the same order, each under a span.
func stagedBuild(c *runCtx, topology string) (stageRow, *recycle.FIB, error) {
	var (
		row    stageRow
		before runtime.MemStats
	)
	runtime.ReadMemStats(&before)
	root := c.tracer.Start("build", 0)
	defer root.End()
	stage := func(name string, ms *float64, f func() error) error {
		span := c.tracer.Start(name, root.ID())
		t0 := time.Now()
		err := f()
		*ms = time.Since(t0).Seconds() * 1e3
		span.End()
		return err
	}
	var (
		tp    topo.Topology
		sys   *rotation.System
		tbl   *route.Table
		prot  *core.Protocol
		quant *core.Quantiser
		fib   *recycle.FIB
	)
	err := stage("topo.build", &row.topo, func() (err error) {
		tp, err = topo.ByName(topology)
		return err
	})
	if err != nil {
		return row, nil, err
	}
	g := tp.Graph
	err = stage("embedding.embed", &row.embed, func() (err error) {
		if sys = tp.Embedding; sys == nil {
			if sys, err = (embedding.Auto{Seed: 1}).Embed(g); err != nil {
				return err
			}
		}
		return sys.Validate()
	})
	if err != nil {
		return row, nil, err
	}
	_ = stage("route.build", &row.route, func() error {
		tbl = route.Build(g, route.HopCount)
		return nil
	})
	err = stage("core.new", &row.core, func() (err error) {
		if prot, err = core.New(g, sys, tbl, core.Config{Variant: core.Full}); err != nil {
			return err
		}
		if _, err = core.New(g, sys, tbl, core.Config{Variant: core.Basic}); err != nil {
			return err
		}
		quant = core.BuildQuantiser(tbl)
		return nil
	})
	if err != nil {
		return row, nil, err
	}
	err = stage("fib.compile", &row.fib, func() (err error) {
		fib, err = dataplane.CompileWith(prot, quant)
		return err
	})
	if err != nil {
		return row, nil, err
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	row.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	row.mallocs = float64(after.Mallocs - before.Mallocs)
	return row, fib, nil
}
