package failure

import (
	"fmt"

	"recycle/internal/graph"
)

// This file is the combinatorial substrate of k-failure certification
// (internal/certify): the element universe an adversary draws failure
// sets from and exact k-subset enumeration for the exhaustive sweeps. It
// lives here, beside the Oracle, so the set a
// search examines and the scenario the referee judges are built from the
// same vocabulary (StaticScenario bridges the two).

// Element is one failable unit of the certification universe: exactly one
// of Link/Node is set (the other holds its No* sentinel), mirroring
// Outage. A node element means "every link incident to the node", the
// paper's §4 model of a dead router.
type Element struct {
	Link graph.LinkID
	Node graph.NodeID
}

// LinkElement returns the element failing link l.
func LinkElement(l graph.LinkID) Element {
	return Element{Link: l, Node: graph.NoNode}
}

// NodeElement returns the element failing node n.
func NodeElement(n graph.NodeID) Element {
	return Element{Link: graph.NoLink, Node: n}
}

// IsNode reports whether the element is a node failure.
func (e Element) IsNode() bool { return e.Node != graph.NoNode }

// String renders the element for certificates and error messages.
func (e Element) String() string {
	if e.IsNode() {
		return fmt.Sprintf("node %d", e.Node)
	}
	return fmt.Sprintf("link %d", e.Link)
}

// ElementMode selects which units of the graph a certification sweep may
// fail simultaneously.
type ElementMode int

const (
	// LinkFailures draws from links only — the paper's primary regime.
	LinkFailures ElementMode = iota
	// NodeFailures draws from nodes only.
	NodeFailures
	// LinkAndNodeFailures draws from the union.
	LinkAndNodeFailures
)

// String names the mode for reports.
func (m ElementMode) String() string {
	switch m {
	case LinkFailures:
		return "links"
	case NodeFailures:
		return "nodes"
	case LinkAndNodeFailures:
		return "links+nodes"
	}
	return fmt.Sprintf("ElementMode(%d)", int(m))
}

// Universe returns the ordered element universe of g for a mode: links in
// LinkID order, then nodes in NodeID order. Enumeration and the guided
// search index into this slice, so a (graph, mode) pair fixes the search
// space deterministically.
func Universe(g *graph.Graph, mode ElementMode) []Element {
	var out []Element
	if mode == LinkFailures || mode == LinkAndNodeFailures {
		for l := 0; l < g.NumLinks(); l++ {
			out = append(out, LinkElement(graph.LinkID(l)))
		}
	}
	if mode == NodeFailures || mode == LinkAndNodeFailures {
		for n := 0; n < g.NumNodes(); n++ {
			out = append(out, NodeElement(graph.NodeID(n)))
		}
	}
	return out
}

// FailureSetOf expands elements into the concrete link failure set a
// walker consults: node elements contribute every incident link.
func FailureSetOf(g *graph.Graph, elems []Element) *graph.FailureSet {
	fs := graph.NewFailureSet()
	for _, e := range elems {
		if e.IsNode() {
			for _, nb := range g.Neighbors(e.Node) {
				fs.Add(nb.Link)
			}
			continue
		}
		fs.Add(e.Link)
	}
	return fs
}

// StaticScenario wraps a static element set as a Scenario holding every
// element down for the whole run — the bridge from a certification
// counterexample to the Oracle that referees it, and to the resilience
// sweep that replays it as a regression pin.
func StaticScenario(name string, elems []Element) *Scenario {
	sc := &Scenario{Name: name}
	for _, e := range elems {
		if e.IsNode() {
			sc.Outages = append(sc.Outages, NodeOutageAt(e.Node, 0, Forever))
			continue
		}
		sc.Outages = append(sc.Outages, LinkOutage(e.Link, 0, Forever))
	}
	return sc
}

// Subsets enumerates every k-subset of [0, n) in lexicographic order,
// invoking yield with a strictly increasing index slice. The slice is
// reused between calls — copy it to retain. yield returning false stops
// the enumeration; Subsets reports whether it ran to completion. k == 0
// yields the empty set once; k > n yields nothing.
func Subsets(n, k int, yield func(idx []int) bool) bool {
	if k < 0 || k > n {
		return true
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		if !yield(idx) {
			return false
		}
		// Advance: find the rightmost index that can still move right.
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			return true
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// CountSubsets returns C(n, k) — the number of sets Subsets yields —
// saturating at MaxInt64 so sweep planners can budget without overflow.
func CountSubsets(n, k int) int64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	const maxInt64 = int64(^uint64(0) >> 1)
	c := int64(1)
	for i := 1; i <= k; i++ {
		// c = c * (n-k+i) / i, exact at every step.
		hi := int64(n - k + i)
		if c > maxInt64/hi {
			return maxInt64
		}
		c = c * hi / int64(i)
	}
	return c
}
