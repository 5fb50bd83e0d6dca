// Package reconv models the "full routing protocol reconvergence" baseline
// of the paper's evaluation (§6): after failures, link state floods, every
// router recomputes its tables, and traffic follows the new optimal paths.
//
// Two aspects matter for the reproduction:
//
//   - Path quality (Figure 2): post-convergence paths are shortest paths on
//     the surviving topology, so reconvergence is the stretch-optimal
//     baseline every FRR scheme trades against.
//   - Packet loss (§1 motivation): during the convergence window — failure
//     detection, LSA flooding, SPF runs, FIB updates — packets routed
//     toward the failure are dropped. ConvergenceModel quantifies that
//     window; package sim exercises it with live traffic.
package reconv

import (
	"time"

	"recycle/internal/graph"
)

// Result describes post-convergence routing for one source-destination pair.
type Result struct {
	// Delivered is false when the surviving topology has no path.
	Delivered bool
	// Path is the post-convergence node sequence.
	Path []graph.NodeID
	// Cost is the new shortest-path cost.
	Cost float64
	// Stretch is Cost / failure-free shortest-path cost. Reconvergence
	// achieves the minimum possible stretch of any recovery scheme.
	Stretch float64
}

// Router computes post-convergence routes over a fixed base topology.
type Router struct {
	g        *graph.Graph
	baseline []*graph.SPTree
}

// New builds the reconvergence baseline for g.
func New(g *graph.Graph) *Router {
	return &Router{g: g, baseline: graph.AllTrees(g, nil)}
}

// Graph returns the base topology.
func (r *Router) Graph() *graph.Graph { return r.g }

// Walk returns the post-convergence route from src to dst under failures.
func (r *Router) Walk(src, dst graph.NodeID, failures *graph.FailureSet) Result {
	res := Result{}
	if src == dst {
		res.Delivered = true
		res.Path = []graph.NodeID{src}
		return res
	}
	tree := graph.ShortestPathTree(r.g, dst, failures)
	if !tree.Reachable(src) {
		return res
	}
	res.Delivered = true
	res.Path = tree.Path(r.g, src)
	res.Cost = tree.Dist[src]
	if base := r.baseline[dst].Dist[src]; base > 0 {
		res.Stretch = res.Cost / base
	}
	return res
}

// ConvergenceModel parameterises the loss window of a link-state IGP, with
// defaults representative of tuned IS-IS deployments (the paper's "minutes"
// headline refers to untuned BGP-era behaviour; even the tuned model drops
// hundreds of thousands of packets on a loaded OC-192, reproducing §1).
type ConvergenceModel struct {
	// Detection is the local failure-detection delay (e.g. BFD interval).
	Detection time.Duration
	// FloodPerHop is the per-hop LSA propagation+processing delay.
	FloodPerHop time.Duration
	// SPF is the route recomputation time per router.
	SPF time.Duration
	// FIBUpdate is the forwarding-table install time.
	FIBUpdate time.Duration
}

// DefaultConvergence returns a tuned-IGP model: 50 ms detection, 10 ms
// flooding per hop, 100 ms SPF, 200 ms FIB install.
func DefaultConvergence() ConvergenceModel {
	return ConvergenceModel{
		Detection:   50 * time.Millisecond,
		FloodPerHop: 10 * time.Millisecond,
		SPF:         100 * time.Millisecond,
		FIBUpdate:   200 * time.Millisecond,
	}
}

// Window returns the total convergence time for a network whose LSA flood
// must cross floodRadius hops (typically the hop diameter).
func (m ConvergenceModel) Window(floodRadius int) time.Duration {
	return m.Detection + time.Duration(floodRadius)*m.FloodPerHop + m.SPF + m.FIBUpdate
}

// LostPackets returns how many packets a flow of pps packets/second crossing
// the failed element loses during the convergence window.
func (m ConvergenceModel) LostPackets(floodRadius int, pps float64) float64 {
	return pps * m.Window(floodRadius).Seconds()
}
