// Benchmark harness: one benchmark per evaluation artefact of the paper.
//
//	go test -bench=Figure -benchtime=1x     # regenerate all Figure 2 panels
//	go test -bench=. -benchmem              # everything, with allocations
//
// Figure benchmarks report the reproduced curves as custom metrics:
// mean stretch, tail probability P(stretch > 5) and delivery rate per
// scheme, so the benchmark log doubles as the experiment record (see
// EXPERIMENTS.md for the paper-vs-measured comparison). Microbenchmarks
// back the §6 overhead claims: PR's per-hop decision is a table lookup,
// FCP pays a Dijkstra per failure encounter, and the embedding runs
// offline.
package recycle_test

import (
	"testing"
	"time"

	"recycle"
	"recycle/internal/core"
	"recycle/internal/dataplane"
	"recycle/internal/embedding"
	"recycle/internal/eval"
	"recycle/internal/fcp"
	"recycle/internal/graph"
	"recycle/internal/rotation"
	"recycle/internal/route"
	"recycle/internal/sim"
	"recycle/internal/topo"
)

// benchFigure runs one Figure 2 panel per iteration and reports the curve
// summary for every scheme.
func benchFigure(b *testing.B, id string, scenarios int) {
	b.Helper()
	f, err := eval.FigureByID(id)
	if err != nil {
		b.Fatal(err)
	}
	if scenarios > 0 {
		f.Scenarios = scenarios
	}
	var exp *eval.Experiment
	for i := 0; i < b.N; i++ {
		exp, err = eval.RunFigure(f)
		if err != nil {
			b.Fatal(err)
		}
	}
	xs := []float64{5}
	for _, scheme := range []eval.SchemeID{eval.Reconvergence, eval.FCP, eval.PR} {
		sr := exp.SeriesFor(scheme)
		tag := map[eval.SchemeID]string{
			eval.Reconvergence: "reconv", eval.FCP: "fcp", eval.PR: "pr",
		}[scheme]
		b.ReportMetric(sr.MeanStretch(), tag+"-mean-stretch")
		b.ReportMetric(sr.CCDF(xs)[0], tag+"-P(s>5)")
		b.ReportMetric(sr.DeliveryRate(), tag+"-delivery")
	}
}

// BenchmarkFigure2aAbileneSingle regenerates Figure 2(a): Abilene, all
// single link failures.
func BenchmarkFigure2aAbileneSingle(b *testing.B) { benchFigure(b, "2a", 0) }

// BenchmarkFigure2bTeleglobeSingle regenerates Figure 2(b): Teleglobe,
// all single link failures.
func BenchmarkFigure2bTeleglobeSingle(b *testing.B) { benchFigure(b, "2b", 0) }

// BenchmarkFigure2cGeantSingle regenerates Figure 2(c): Géant, all single
// link failures.
func BenchmarkFigure2cGeantSingle(b *testing.B) { benchFigure(b, "2c", 0) }

// BenchmarkFigure2dAbilene4 regenerates Figure 2(d): Abilene, 4
// simultaneous failures.
func BenchmarkFigure2dAbilene4(b *testing.B) { benchFigure(b, "2d", 60) }

// BenchmarkFigure2eTeleglobe10 regenerates Figure 2(e): Teleglobe, 10
// simultaneous failures.
func BenchmarkFigure2eTeleglobe10(b *testing.B) { benchFigure(b, "2e", 60) }

// BenchmarkFigure2fGeant16 regenerates Figure 2(f): Géant, 16 simultaneous
// failures.
func BenchmarkFigure2fGeant16(b *testing.B) { benchFigure(b, "2f", 60) }

// BenchmarkTable1CycleTables measures constructing every router's
// cycle-following table on the paper example (Table 1 is node D's).
func BenchmarkTable1CycleTables(b *testing.B) {
	net, err := recycle.FromTopology("paper")
	if err != nil {
		b.Fatal(err)
	}
	g := net.Graph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for n := 0; n < g.NumNodes(); n++ {
			_ = net.Protocol().CycleTable(recycle.NodeID(n))
		}
	}
}

// BenchmarkLossWindowMotivation runs the §1 experiment and reports packets
// lost per scheme (scaled to a 20%-loaded OC-192).
func BenchmarkLossWindowMotivation(b *testing.B) {
	net, err := recycle.FromTopology("abilene")
	if err != nil {
		b.Fatal(err)
	}
	g := net.Graph()
	src, _ := net.Node("Seattle")
	dst, _ := net.Node("LosAngeles")
	fib, err := net.Compile()
	if err != nil {
		b.Fatal(err)
	}
	const scale = 100.0
	var prLost, rcLost float64
	for i := 0; i < b.N; i++ {
		pr, err := sim.RunLossWindow(sim.Config{
			Graph: g, Scheme: &sim.PRScheme{FIB: fib},
			Horizon: 3 * time.Second, DetectionDelay: 50 * time.Millisecond,
		}, src, dst, 2430, time.Second)
		if err != nil {
			b.Fatal(err)
		}
		rc, err := sim.RunLossWindow(sim.Config{
			Graph: g, Scheme: &sim.ReconvScheme{},
			Horizon: 3 * time.Second, DetectionDelay: 50 * time.Millisecond,
		}, src, dst, 2430, time.Second)
		if err != nil {
			b.Fatal(err)
		}
		prLost = float64(pr.Generated-pr.Delivered) * scale
		rcLost = float64(rc.Generated-rc.Delivered) * scale
	}
	b.ReportMetric(prLost, "pr-lost-oc192")
	b.ReportMetric(rcLost, "reconv-lost-oc192")
}

// BenchmarkForwardDecision measures PR's per-hop work during cycle
// following — the §6 claim that packet processing overhead is
// insignificant (it is two array lookups).
func BenchmarkForwardDecision(b *testing.B) {
	tp := topo.Geant(topo.DistanceWeights)
	g := tp.Graph
	sys, err := (embedding.Auto{Seed: 1}).Embed(g)
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.New(g, sys, route.Build(g, route.HopCount), core.Config{Variant: core.Full})
	if err != nil {
		b.Fatal(err)
	}
	fails := graph.NewFailureSet(0)
	hdr := core.Header{PR: true, DD: 3}
	ingress := rotation.DartID(4)
	dst := graph.NodeID(g.NumNodes() - 1)
	node := g.Link(rotation.LinkOf(ingress)).B
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Decide(node, dst, ingress, hdr, fails)
	}
}

// BenchmarkCompiledForwardDecision is BenchmarkForwardDecision on the
// compiled dataplane FIB: the same decision, same topology, same failure,
// reduced to a handful of array indexings. Compare the two to see the
// speedup the FIB compiler buys; the dataplane's own benchmarks
// (internal/dataplane) add wire-path and sharded-engine numbers.
func BenchmarkCompiledForwardDecision(b *testing.B) {
	tp := topo.Geant(topo.DistanceWeights)
	g := tp.Graph
	sys, err := (embedding.Auto{Seed: 1}).Embed(g)
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.New(g, sys, route.Build(g, route.HopCount), core.Config{Variant: core.Full})
	if err != nil {
		b.Fatal(err)
	}
	fib, err := dataplane.Compile(p)
	if err != nil {
		b.Fatal(err)
	}
	st := dataplane.FromFailureSet(g.NumLinks(), graph.NewFailureSet(0))
	hdr := core.Header{PR: true, DD: 3}
	ingress := rotation.DartID(4)
	dst := graph.NodeID(g.NumNodes() - 1)
	node := g.Link(rotation.LinkOf(ingress)).B
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = fib.Decide(node, dst, ingress, hdr, st)
	}
}

// BenchmarkFCPFailureRecompute measures FCP's per-failure cost: a full
// Dijkstra at the encountering router — the computation PR avoids.
func BenchmarkFCPFailureRecompute(b *testing.B) {
	tp := topo.Geant(topo.DistanceWeights)
	g := tp.Graph
	fails := graph.NewFailureSet(1, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = graph.ShortestPathTree(g, 0, fails)
	}
}

// BenchmarkFCPWalk measures a full FCP packet traversal under failures.
func BenchmarkFCPWalk(b *testing.B) {
	tp := topo.Geant(topo.DistanceWeights)
	g := tp.Graph
	r := fcp.New(g)
	fails := graph.NewFailureSet(1, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Walk(2, 20, fails)
	}
}

// BenchmarkPRWalk measures a full PR packet traversal under the same
// failures as BenchmarkFCPWalk.
func BenchmarkPRWalk(b *testing.B) {
	tp := topo.Geant(topo.DistanceWeights)
	g := tp.Graph
	sys, err := (embedding.Auto{Seed: 1}).Embed(g)
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.New(g, sys, route.Build(g, route.HopCount), core.Config{Variant: core.Full})
	if err != nil {
		b.Fatal(err)
	}
	fails := graph.NewFailureSet(1, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Walk(2, 20, fails)
	}
}

// BenchmarkEmbedOffline measures the offline embedding step per topology —
// expensive relative to forwarding, but paid once on the designated server
// (§4.3).
func BenchmarkEmbedOffline(b *testing.B) {
	for _, name := range []string{"abilene", "geant", "teleglobe"} {
		tp, err := topo.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := (embedding.Planar{}).Embed(tp.Graph); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRoutingTableBuild measures conventional table construction (the
// substrate both PR and the baselines share).
func BenchmarkRoutingTableBuild(b *testing.B) {
	tp := topo.Geant(topo.DistanceWeights)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = route.Build(tp.Graph, route.HopCount)
	}
}

// BenchmarkEmbedderAblation compares mean PR stretch on Géant single
// failures across embedding algorithms — the design choice DESIGN.md
// calls out (genus quality drives both correctness and stretch).
func BenchmarkEmbedderAblation(b *testing.B) {
	tp := topo.Geant(topo.DistanceWeights)
	cases := []struct {
		name string
		e    embedding.Embedder
	}{
		{"planar", embedding.Planar{}},
		{"greedy", embedding.Greedy{}},
		{"adjacency", embedding.Adjacency{}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var exp *eval.Experiment
			for i := 0; i < b.N; i++ {
				var err error
				exp, err = eval.Run(eval.Spec{
					Topology: tp,
					Schemes:  []eval.SchemeID{eval.PR},
					Failures: graph.SingleFailureScenarios(tp.Graph),
					Embedder: tc.e,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			sr := exp.SeriesFor(eval.PR)
			b.ReportMetric(sr.MeanStretch(), "mean-stretch")
			b.ReportMetric(sr.DeliveryRate(), "delivery")
		})
	}
}

// BenchmarkDiscriminatorAblation compares hop-count vs weight-sum DD on
// Géant multi-failures (§4.3 offers both).
func BenchmarkDiscriminatorAblation(b *testing.B) {
	tp := topo.Geant(topo.DistanceWeights)
	failures, err := graph.SampleFailureScenarios(tp.Graph, 5, 40, 11)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		d    route.Discriminator
	}{{"hops", route.HopCount}, {"weights", route.WeightSum}} {
		b.Run(tc.name, func(b *testing.B) {
			var exp *eval.Experiment
			for i := 0; i < b.N; i++ {
				exp, err = eval.Run(eval.Spec{
					Topology:      tp,
					Schemes:       []eval.SchemeID{eval.PR},
					Failures:      failures,
					Discriminator: tc.d,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			sr := exp.SeriesFor(eval.PR)
			b.ReportMetric(sr.MeanStretch(), "mean-stretch")
			b.ReportMetric(sr.DeliveryRate(), "delivery")
		})
	}
}
