// Package fcp implements the Failure-Carrying Packets baseline
// (Lakshminarayanan et al., SIGCOMM 2007 — the paper's reference [8]) that
// Figure 2 compares PR against.
//
// Under FCP each packet carries the set of failed links its path has
// encountered. A router forwards along the shortest path to the destination
// computed over the topology minus the carried failures; when its chosen
// egress turns out to be down, it adds that link to the carried set,
// recomputes, and tries again. FCP reaches any destination that remains
// connected, at the price of unbounded header state (the failure list) and
// an on-demand shortest-path computation at every failure encounter — the
// trade-off PR is designed to avoid (§6).
package fcp

import (
	"recycle/internal/graph"
)

// Result describes one FCP packet walk.
type Result struct {
	// Delivered reports whether the packet reached the destination.
	Delivered bool
	// Path is the node sequence visited.
	Path []graph.NodeID
	// Cost is the weight sum of traversed links.
	Cost float64
	// Stretch is Cost / failure-free shortest-path cost (0 if undefined).
	Stretch float64
	// Recomputations counts shortest-path recomputations triggered at
	// failure encounters — the per-packet processing overhead FCP pays.
	Recomputations int
	// CarriedFailures is the number of failed links in the header when the
	// walk ended — the header overhead FCP pays.
	CarriedFailures int
}

// Router simulates FCP forwarding over a fixed topology. It is stateless
// across packets (the paper's per-flow state optimisation is deliberately
// not modelled; it only trades memory for computation).
type Router struct {
	g *graph.Graph
	// spCost[d][n] is the failure-free shortest-path cost n→d, used for
	// stretch accounting.
	baseline []*graph.SPTree
}

// New builds an FCP router for g.
func New(g *graph.Graph) *Router {
	return &Router{g: g, baseline: graph.AllTrees(g, nil)}
}

// Graph returns the router's topology.
func (r *Router) Graph() *graph.Graph { return r.g }

// Walk simulates one FCP packet from src to dst under the global failure
// set. The packet starts with an empty carried-failure list and learns
// failures only by encountering them, exactly as in the FCP design.
func (r *Router) Walk(src, dst graph.NodeID, failures *graph.FailureSet) Result {
	res := Result{Path: []graph.NodeID{src}}
	if src == dst {
		res.Delivered = true
		return res
	}

	carried := graph.NewFailureSet()
	node := src
	// Tree cache: recomputing only when the carried set changes keeps the
	// simulation honest (routers recompute per failure encounter, not per
	// hop; FCP's own optimisation).
	tree := graph.ShortestPathTree(r.g, dst, carried)
	res.Recomputations++

	// 2·E·V bounds any loop-free progression of carried-set states; FCP
	// cannot revisit a (node, carried-set) state because the set only
	// grows and routing between growths is loop-free.
	maxSteps := 2*r.g.NumNodes()*r.g.NumLinks() + 16
	for steps := 0; steps < maxSteps; steps++ {
		if node == dst {
			res.Delivered = true
			res.CarriedFailures = carried.Len()
			base := r.baseline[dst].Dist[src]
			if base > 0 {
				res.Stretch = res.Cost / base
			}
			return res
		}
		next := tree.NextLink[node]
		if next == graph.NoLink {
			// Destination unreachable given carried failures: FCP drops
			// (or would flood-notify; either way the packet dies).
			res.CarriedFailures = carried.Len()
			return res
		}
		if failures.Down(next) {
			// Failure encountered: record it in the header and recompute.
			carried.Add(next)
			tree = graph.ShortestPathTree(r.g, dst, carried)
			res.Recomputations++
			continue
		}
		res.Cost += r.g.Weight(next)
		node = r.g.Link(next).Other(node)
		res.Path = append(res.Path, node)
	}
	res.CarriedFailures = carried.Len()
	return res
}

// HeaderBits estimates the FCP header overhead in bits for a packet whose
// carried set holds n failures: each failure names a link, costing
// ⌈log2(links)⌉ bits, plus a 8-bit count prefix. The SIGCOMM paper's
// measured averages are hundreds of bits; this model reproduces the paper's
// qualitative point that FCP "employs more bits than are currently
// available" in IP headers (§6).
func HeaderBits(g *graph.Graph, carried int) int {
	if carried == 0 {
		return 8
	}
	linkBits := 1
	for 1<<linkBits < g.NumLinks() {
		linkBits++
	}
	return 8 + carried*linkBits
}
