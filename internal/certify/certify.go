// Package certify turns the Monte-Carlo resilience harness into a
// verification tool: an adversary that hunts the failure set maximising
// packet-recycling violations for (src, dst) pairs and emits a
// per-topology resilience certificate — either "provably zero violations
// for all ≤k simultaneous link/node failures" or a subset-minimal
// counterexample failure set with the refereed violating walk attached.
//
// The paper's headline claim (§5) is a worst-case statement: no packet is
// lost under *any* static failure combination that leaves its pair
// connected on a genus-0 embedding. Sampling (eval.RunResilience) gives
// statistical evidence; this package probes the claim at its boundary the
// way the related work does (Chiesa et al., *Exploring the Limits of
// Static Failover Routing*): k approaching the edge connectivity.
//
// Two complete search strategies share one vocabulary (failure.Element
// universes, failure.Subsets enumeration), and Certify picks between them
// by universe size:
//
//   - Exhaustive sweeps every failure set of size ≤ k, pruned by the
//     affected-pair test (a pair whose failure-free walk consults no
//     failed link walks identically and delivers — skip it) and by
//     domination (a set containing an already-found violating subset for
//     the pair cannot be minimal). Sets that disconnect the pair are
//     excused by definition — the Oracle's rule.
//   - Guided is walk-guided DFS ("greedy cut-targeting": attack only the
//     links the current walk actually consults, which is *complete* for
//     subset-minimal counterexamples — see guided.go).
//
// Both fan out across destinations via internal/par and are
// deterministic: the same Config yields the same certificate at any
// Workers setting. Every emitted counterexample is
// re-refereed through the connectivity Oracle (the same code that judges
// simulated losses) and carries the full violating walk as a
// telemetry.Flight transcript.
//
// A Walker is a per-hop decision function with the failure set bound
// in — the compiled FIB's Decide, or the stale-table lookup of the
// reconvergence baseline — run on core.Walk, the one static walk loop.
// A walk is a core.Result: its steps are the transcript, and the nodes
// that decided are the footprint the searches prune and branch on.
package certify

import (
	"fmt"
	"sort"

	"recycle/internal/core"
	"recycle/internal/dataplane"
	"recycle/internal/failure"
	"recycle/internal/graph"
	"recycle/internal/rotation"
	"recycle/internal/route"
)

// Walker is a forwarding scheme under certification: a pure function
// from (pair, static failure set) to a walk of core's static walk loop.
// Implementations are stateless and safe for concurrent use — the
// searches walk from many goroutines.
type Walker interface {
	Name() string
	Walk(src, dst graph.NodeID, fs *graph.FailureSet) core.Result
}

// PRWalker walks packets through a compiled FIB — the same tables the
// engine forwards with, so a certificate speaks for the dataplane, not
// for a re-derivation of it. Decisions are bit-identical to
// core.Protocol (the dataplane's differential sweeps prove it).
type PRWalker struct {
	fib *dataplane.FIB
}

// NewPRWalker wraps a compiled FIB for certification walks.
func NewPRWalker(fib *dataplane.FIB) *PRWalker { return &PRWalker{fib: fib} }

// Name implements Walker.
func (w *PRWalker) Name() string {
	if w.fib.Variant() == core.Basic {
		return "packet-recycling-basic"
	}
	return "packet-recycling"
}

// Walk implements Walker.
func (w *PRWalker) Walk(src, dst graph.NodeID, fs *graph.FailureSet) core.Result {
	st := w.fib.LinkState(fs)
	decide := func(node, dst graph.NodeID, ingress rotation.DartID, hdr core.Header) core.Decision {
		return w.fib.Decide(node, dst, ingress, hdr, st)
	}
	return core.Walk(src, dst, w.fib.NumNodes(), w.fib.NumLinks(), decide, w.fib.Head)
}

// ReconvWalker is the reconvergence baseline *inside its detection
// window* (§1): packets forward on the failure-free shortest-path trees
// — the stale tables routers hold until flooding, SPF and FIB install
// complete — and die on the first failed link of the path. This is the
// loss PR exists to eliminate; post-convergence reconvergence always
// delivers connected pairs and certifies trivially, so it is the window
// that the adversary attacks.
type ReconvWalker struct {
	g   *graph.Graph
	tbl *route.Table
}

// NewReconvWalker builds the stale-table baseline walker for g.
func NewReconvWalker(g *graph.Graph) *ReconvWalker {
	return &ReconvWalker{g: g, tbl: route.Build(g, route.HopCount)}
}

// Name implements Walker.
func (w *ReconvWalker) Name() string { return "reconvergence" }

// Walk implements Walker. A stale table pointing into the failure drops
// the packet at that router until reconvergence: the refused decision is
// a detection with no egress — the drop itself.
func (w *ReconvWalker) Walk(src, dst graph.NodeID, fs *graph.FailureSet) core.Result {
	if !w.tbl.Reachable(src, dst) {
		return core.Result{Outcome: core.NoRoute}
	}
	decide := func(node, dst graph.NodeID, _ rotation.DartID, _ core.Header) core.Decision {
		l := w.tbl.NextLink(node, dst)
		if fs.Down(l) {
			return core.Decision{Event: core.EventDetect}
		}
		return core.Decision{Egress: rotation.OutgoingDart(w.g, node, l), Event: core.EventRoute, OK: true}
	}
	head := func(d rotation.DartID) graph.NodeID { return rotation.Head(w.g, d) }
	return core.Walk(src, dst, w.g.NumNodes(), w.g.NumLinks(), decide, head)
}

// space binds a graph to an element universe: index translation and the
// consulted-element sets the guided search branches on.
type space struct {
	g     *graph.Graph
	mode  failure.ElementMode
	elems []failure.Element
	// linkIdx/nodeIdx map a LinkID/NodeID to its universe index (-1 when
	// the mode excludes that element kind).
	linkIdx []int
	nodeIdx []int
}

func newSpace(g *graph.Graph, mode failure.ElementMode) *space {
	s := &space{g: g, mode: mode, elems: failure.Universe(g, mode)}
	s.linkIdx = make([]int, g.NumLinks())
	s.nodeIdx = make([]int, g.NumNodes())
	for i := range s.linkIdx {
		s.linkIdx[i] = -1
	}
	for i := range s.nodeIdx {
		s.nodeIdx[i] = -1
	}
	for i, e := range s.elems {
		if e.IsNode() {
			s.nodeIdx[e.Node] = i
		} else {
			s.linkIdx[e.Link] = i
		}
	}
	return s
}

// size returns the universe cardinality.
func (s *space) size() int { return len(s.elems) }

// elemsOf maps universe indices to elements.
func (s *space) elemsOf(idx []int) []failure.Element {
	out := make([]failure.Element, len(idx))
	for i, j := range idx {
		out[i] = s.elems[j]
	}
	return out
}

// fsOf expands universe indices into the concrete link failure set.
func (s *space) fsOf(idx []int) *graph.FailureSet {
	return failure.FailureSetOf(s.g, s.elemsOf(idx))
}

// consulted returns the sorted universe indices of every element whose
// failure state the walk may have read: links incident to a deciding
// node (every step but a delivery), plus (in node modes) the deciding
// nodes and their neighbours. A forwarding decision only inspects links
// incident to its router, so this is a sound superset — the completeness
// anchor of the guided DFS.
func (s *space) consulted(walk core.Result) []int {
	mark := make(map[int]bool)
	add := func(i int) {
		if i >= 0 {
			mark[i] = true
		}
	}
	for _, st := range walk.Steps {
		if st.Event == core.EventDeliver {
			continue
		}
		n := st.Node
		for _, nb := range s.g.Neighbors(n) {
			add(s.linkIdx[nb.Link])
			add(s.nodeIdx[nb.Node])
		}
		add(s.nodeIdx[n])
	}
	out := make([]int, 0, len(mark))
	for i := range mark {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// setKey canonicalises a sorted index set for dedup and memoisation.
func setKey(idx []int) string { return fmt.Sprint(idx) }
