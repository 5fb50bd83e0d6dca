package eval

import (
	"fmt"
	"io"

	"recycle/internal/core"
	"recycle/internal/embedding"
	"recycle/internal/graph"
	"recycle/internal/route"
	"recycle/internal/topo"
)

// DeliveryProbe measures PR's delivery rate under one embedding algorithm —
// the ablation behind this reproduction's main finding: the §5 guarantee
// holds on genus-0 embeddings and degrades with embedding quality.
type DeliveryProbe struct {
	// EmbedderName identifies the embedding algorithm.
	EmbedderName string
	// Genus of the embedding it produced.
	Genus int
	// Walks attempted (affected pairs × scenarios).
	Walks int
	// Delivered, Looped and Isolated partition the walks.
	Delivered int
	Looped    int
	Isolated  int
}

// Rate returns the delivered fraction.
func (p DeliveryProbe) Rate() float64 {
	if p.Walks == 0 {
		return 1
	}
	return float64(p.Delivered) / float64(p.Walks)
}

// MeasureEmbeddingDelivery runs PR (Full variant) over the same failure
// scenarios under each embedder and reports per-embedder delivery.
func MeasureEmbeddingDelivery(tp topo.Topology, embedders []embedding.Embedder, failures []*graph.FailureSet) ([]DeliveryProbe, error) {
	g := tp.Graph
	tbl := route.Build(g, route.HopCount)
	var probes []DeliveryProbe
	for _, e := range embedders {
		sys, err := e.Embed(g)
		if err != nil {
			return nil, fmt.Errorf("eval: %s: %w", e.Name(), err)
		}
		p, err := core.New(g, sys, tbl, core.Config{Variant: core.Full})
		if err != nil {
			return nil, err
		}
		probe := DeliveryProbe{EmbedderName: e.Name(), Genus: sys.Genus()}
		for _, fs := range failures {
			if !graph.ConnectedUnder(g, fs) {
				continue
			}
			for src := 0; src < g.NumNodes(); src++ {
				for dst := 0; dst < g.NumNodes(); dst++ {
					if src == dst {
						continue
					}
					s, d := graph.NodeID(src), graph.NodeID(dst)
					if !affected(g, tbl.Tree(d), s, fs) {
						continue
					}
					probe.Walks++
					switch p.Walk(s, d, fs).Outcome {
					case core.Delivered:
						probe.Delivered++
					case core.Looped:
						probe.Looped++
					case core.Isolated:
						probe.Isolated++
					}
				}
			}
		}
		probes = append(probes, probe)
	}
	return probes, nil
}

// WriteEmbeddingDeliveryReport renders the embedding-quality ablation for a
// topology over its single-failure scenarios plus sampled multi-failures.
func WriteEmbeddingDeliveryReport(w io.Writer, name string, seed int64) error {
	tp, err := topo.ByName(name)
	if err != nil {
		return err
	}
	failures := graph.SingleFailureScenarios(tp.Graph)
	if multi, err := graph.SampleFailureScenarios(tp.Graph, 3, 50, seed); err == nil {
		failures = append(failures, multi...)
	}
	embedders := []embedding.Embedder{
		embedding.Planar{},
		embedding.Greedy{},
		embedding.Adjacency{},
		embedding.RandomOrder{Seed: seed},
	}
	probes, err := MeasureEmbeddingDelivery(tp, embedders, failures)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# embedding-quality ablation on %s (single + 3-link failures)\n", name)
	fmt.Fprintf(w, "%-12s %-6s %-8s %-10s %-8s %-9s %-9s\n",
		"embedder", "genus", "walks", "delivered", "looped", "isolated", "rate")
	for _, p := range probes {
		fmt.Fprintf(w, "%-12s %-6d %-8d %-10d %-8d %-9d %-9.4f\n",
			p.EmbedderName, p.Genus, p.Walks, p.Delivered, p.Looped, p.Isolated, p.Rate())
	}
	return nil
}
