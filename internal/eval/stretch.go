// Package eval is the experiment harness that regenerates the paper's
// evaluation artefacts: the six stretch-CCDF panels of Figure 2, the §6
// overhead comparison, and the §1 loss-window numbers. It wires the PR
// protocol and both baselines (FCP, reconvergence) through identical
// failure scenarios and reports the same conditional distribution the paper
// plots: P(stretch > x | path affected by the failure).
package eval

import (
	"fmt"
	"math"
	"sort"

	"recycle/internal/core"
	"recycle/internal/embedding"
	"recycle/internal/fcp"
	"recycle/internal/graph"
	"recycle/internal/reconv"
	"recycle/internal/route"
	"recycle/internal/topo"
)

// SchemeID identifies a recovery mechanism under comparison — the
// experiment-panel enum, distinct from the sim.Scheme execution
// interface.
type SchemeID int

const (
	// Reconvergence: optimal post-convergence shortest paths.
	Reconvergence SchemeID = iota
	// FCP: failure-carrying packets.
	FCP
	// PR: packet re-cycling, Full variant (§4.3).
	PR
	// PRBasic: packet re-cycling, Basic variant (§4.2) — an ablation the
	// paper discusses but does not plot.
	PRBasic
)

// String names the scheme as in the paper's legend.
func (s SchemeID) String() string {
	switch s {
	case Reconvergence:
		return "Re-convergence"
	case FCP:
		return "Failure-Carrying Packets"
	case PR:
		return "Packet Re-cycling"
	case PRBasic:
		return "Packet Re-cycling (basic)"
	}
	return fmt.Sprintf("SchemeID(%d)", int(s))
}

// Spec describes one stretch experiment (one Figure 2 panel).
type Spec struct {
	// Topology under test.
	Topology topo.Topology
	// Schemes to compare; nil means the paper's three.
	Schemes []SchemeID
	// Failures is the scenario list (one failure set per scenario).
	Failures []*graph.FailureSet
	// Discriminator for PR routing tables (default HopCount).
	Discriminator route.Discriminator
	// Embedder computes PR's embedding when the topology does not carry
	// one (default embedding.Auto{}).
	Embedder embedding.Embedder
}

// Series is one scheme's outcome over every scenario and affected pair.
type Series struct {
	Scheme SchemeID
	// Stretches holds one stretch value per delivered affected walk.
	Stretches []float64
	// Affected counts (scenario, src, dst) walks attempted.
	Affected int
	// Dropped counts walks that did not deliver.
	Dropped int
}

// DeliveryRate returns delivered / affected (1 when nothing was affected).
func (s *Series) DeliveryRate() float64 {
	if s.Affected == 0 {
		return 1
	}
	return float64(len(s.Stretches)) / float64(s.Affected)
}

// CCDF returns P(stretch > x) for each x in xs.
func (s *Series) CCDF(xs []float64) []float64 {
	sorted := append([]float64(nil), s.Stretches...)
	sort.Float64s(sorted)
	out := make([]float64, len(xs))
	for i, x := range xs {
		// count of samples > x  =  len - upper_bound(x)
		idx := sort.SearchFloat64s(sorted, x+1e-12)
		out[i] = 0
		if len(sorted) > 0 {
			out[i] = float64(len(sorted)-idx) / float64(len(sorted))
		}
	}
	return out
}

// MaxStretch returns the largest observed stretch (0 when empty).
func (s *Series) MaxStretch() float64 {
	max := 0.0
	for _, v := range s.Stretches {
		if v > max {
			max = v
		}
	}
	return max
}

// MeanStretch returns the average stretch (0 when empty).
func (s *Series) MeanStretch() float64 {
	if len(s.Stretches) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.Stretches {
		sum += v
	}
	return sum / float64(len(s.Stretches))
}

// Experiment is the result of running a Spec.
type Experiment struct {
	Spec   Spec
	Series []*Series
	// Scenarios actually evaluated (those keeping the graph connected).
	Scenarios int
}

// SeriesFor returns the series of a scheme, or nil.
func (e *Experiment) SeriesFor(s SchemeID) *Series {
	for _, sr := range e.Series {
		if sr.Scheme == s {
			return sr
		}
	}
	return nil
}

// Run executes the experiment: for every scenario, for every ordered pair
// whose failure-free shortest path traverses a failed link (the paper's
// "| path" conditioning), walk each scheme and record stretch.
func Run(spec Spec) (*Experiment, error) {
	g := spec.Topology.Graph
	if len(spec.Schemes) == 0 {
		spec.Schemes = []SchemeID{Reconvergence, FCP, PR}
	}
	if spec.Embedder == nil {
		spec.Embedder = embedding.Auto{Seed: 1}
	}

	sys := spec.Topology.Embedding
	if sys == nil {
		var err error
		sys, err = spec.Embedder.Embed(g)
		if err != nil {
			return nil, fmt.Errorf("eval: embedding %s: %w", spec.Topology.Name, err)
		}
	}
	tbl := route.Build(g, spec.Discriminator)

	prFull, err := core.New(g, sys, tbl, core.Config{Variant: core.Full})
	if err != nil {
		return nil, err
	}
	prBasic, err := core.New(g, sys, tbl, core.Config{Variant: core.Basic})
	if err != nil {
		return nil, err
	}
	fcpRouter := fcp.New(g)
	reconvRouter := reconv.New(g)

	exp := &Experiment{Spec: spec}
	series := make(map[SchemeID]*Series)
	for _, s := range spec.Schemes {
		sr := &Series{Scheme: s}
		series[s] = sr
		exp.Series = append(exp.Series, sr)
	}

	// Failure-free trees for affectedness: pair (s,t) is affected when its
	// SP path to t crosses a failed link.
	baseline := make([]*graph.SPTree, g.NumNodes())
	for d := 0; d < g.NumNodes(); d++ {
		baseline[d] = tbl.Tree(graph.NodeID(d))
	}

	for _, fs := range spec.Failures {
		if !graph.ConnectedUnder(g, fs) {
			continue // the paper conditions on surviving connectivity
		}
		exp.Scenarios++
		for src := 0; src < g.NumNodes(); src++ {
			for dst := 0; dst < g.NumNodes(); dst++ {
				if src == dst {
					continue
				}
				s, d := graph.NodeID(src), graph.NodeID(dst)
				if !affected(g, baseline[dst], s, fs) {
					continue
				}
				for _, scheme := range spec.Schemes {
					sr := series[scheme]
					sr.Affected++
					stretch, delivered := walkScheme(scheme, prFull, prBasic, fcpRouter, reconvRouter, s, d, fs)
					if !delivered {
						sr.Dropped++
						continue
					}
					sr.Stretches = append(sr.Stretches, stretch)
				}
			}
		}
	}
	return exp, nil
}

// affected reports whether src's failure-free path toward the tree's
// destination crosses any failed link.
func affected(g *graph.Graph, tree *graph.SPTree, src graph.NodeID, fs *graph.FailureSet) bool {
	if !tree.Reachable(src) {
		return false
	}
	for n := src; n != tree.Dest; n = tree.NextNode(g, n) {
		if fs.Down(tree.NextLink[n]) {
			return true
		}
	}
	return false
}

func walkScheme(s SchemeID, prFull, prBasic *core.Protocol, f *fcp.Router, rc *reconv.Router, src, dst graph.NodeID, fs *graph.FailureSet) (stretch float64, delivered bool) {
	switch s {
	case PR:
		r := prFull.Walk(src, dst, fs)
		return clampStretch(r.Stretch), r.Delivered()
	case PRBasic:
		r := prBasic.Walk(src, dst, fs)
		return clampStretch(r.Stretch), r.Delivered()
	case FCP:
		r := f.Walk(src, dst, fs)
		return clampStretch(r.Stretch), r.Delivered
	case Reconvergence:
		r := rc.Walk(src, dst, fs)
		return clampStretch(r.Stretch), r.Delivered
	}
	return 0, false
}

// clampStretch absorbs float accumulation noise just below 1.
func clampStretch(v float64) float64 { return math.Max(v, 1) }
