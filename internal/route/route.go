// Package route builds the conventional shortest-path routing state PR
// extends: per-destination next hops plus the "distance discriminator"
// column the paper adds to the routing table (§4.3) — a strictly decreasing
// function of progress along the shortest path, used by PR's termination
// condition. Hop count (the paper's running example) and weight sum (its
// other candidate) are both supported.
package route

import (
	"fmt"
	"math"

	"recycle/internal/graph"
	"recycle/internal/par"
)

// Discriminator selects the distance-discriminator function stored beside
// each routing entry.
type Discriminator int

const (
	// HopCount discriminates by hops along the shortest path — the
	// paper's default, needing only ⌈log2 d⌉ DD bits for diameter d.
	HopCount Discriminator = iota
	// WeightSum discriminates by the sum of link weights along the
	// shortest path.
	WeightSum
)

// String names the discriminator for reports.
func (d Discriminator) String() string {
	switch d {
	case HopCount:
		return "hop-count"
	case WeightSum:
		return "weight-sum"
	}
	return fmt.Sprintf("Discriminator(%d)", int(d))
}

// Table is the full routing state of a network: one shortest-path tree per
// destination, computed on the failure-free topology. PR never recomputes
// it at failure time — that is the point of the scheme.
type Table struct {
	g     *graph.Graph
	disc  Discriminator
	trees []*graph.SPTree // indexed by destination
}

// Build computes routing tables for every destination of g using Dijkstra
// with deterministic tie-breaking. Destinations are independent, so the
// builds fan out across GOMAXPROCS workers; each tree is a canonical
// function of (g, destination) alone, so the result is bit-identical to
// a sequential build at any worker count.
func Build(g *graph.Graph, disc Discriminator) *Table {
	return BuildWorkers(g, disc, 0)
}

// BuildWorkers is Build with an explicit worker count: 0 picks the
// automatic fan-out, 1 forces the sequential build (the differential
// harnesses compare the two).
func BuildWorkers(g *graph.Graph, disc Discriminator, workers int) *Table {
	t := &Table{g: g, disc: disc, trees: make([]*graph.SPTree, g.NumNodes())}
	par.For(g.NumNodes(), workers, func(_, lo, hi int) {
		var b graph.SPTBuilder // per range: scratch is not shareable
		for d := lo; d < hi; d++ {
			t.trees[d] = b.Tree(g, graph.NodeID(d), nil)
		}
	})
	return t
}

// NewFromTrees assembles a Table over g from externally computed
// per-destination trees — the delta-recompilation hook: an incremental
// recompiler repairs only the destination trees a topology edit touched
// and shares every clean tree with the previous table. trees[d] must be
// the canonical ShortestPathTree toward destination d on g (the
// differential harness in internal/dataplane enforces this bit-for-bit).
func NewFromTrees(g *graph.Graph, disc Discriminator, trees []*graph.SPTree) (*Table, error) {
	if len(trees) != g.NumNodes() {
		return nil, fmt.Errorf("route: %d trees for %d nodes", len(trees), g.NumNodes())
	}
	for d, tree := range trees {
		if tree == nil || tree.Dest != graph.NodeID(d) {
			return nil, fmt.Errorf("route: tree %d missing or rooted elsewhere", d)
		}
	}
	return &Table{g: g, disc: disc, trees: trees}, nil
}

// Graph returns the topology the table was built for.
func (t *Table) Graph() *graph.Graph { return t.g }

// DiscriminatorKind returns which discriminator the table stores.
func (t *Table) DiscriminatorKind() Discriminator { return t.disc }

// Tree returns the shortest-path tree toward dest.
func (t *Table) Tree(dest graph.NodeID) *graph.SPTree { return t.trees[dest] }

// NextLink returns the link node n uses toward dest (NoLink at dest or if
// unreachable).
func (t *Table) NextLink(n, dest graph.NodeID) graph.LinkID {
	return t.trees[dest].NextLink[n]
}

// NextNode returns the node after n on the path toward dest.
func (t *Table) NextNode(n, dest graph.NodeID) graph.NodeID {
	return t.trees[dest].NextNode(t.g, n)
}

// Reachable reports whether n can reach dest in the failure-free topology.
func (t *Table) Reachable(n, dest graph.NodeID) bool {
	return t.trees[dest].Reachable(n)
}

// DD returns node n's distance discriminator toward dest. Larger means
// farther; the destination's own value is 0. It panics for unreachable
// pairs, which routing code must filter first.
func (t *Table) DD(n, dest graph.NodeID) float64 {
	tree := t.trees[dest]
	if !tree.Reachable(n) {
		panic(fmt.Sprintf("route: DD(%d,%d) for unreachable pair", n, dest))
	}
	if t.disc == HopCount {
		return float64(tree.Hops[n])
	}
	return tree.Dist[n]
}

// PathCost returns the failure-free shortest-path cost (weight sum) from n
// to dest, +Inf if unreachable.
func (t *Table) PathCost(n, dest graph.NodeID) float64 { return t.trees[dest].Dist[n] }

// MaxDD returns the largest finite discriminator value stored in the table.
// The paper sizes the DD header field from this: ⌈log2(maxDD+1)⌉ bits when
// using hop counts (in the order of log2 of the diameter).
func (t *Table) MaxDD() float64 {
	max := 0.0
	for dest := 0; dest < t.g.NumNodes(); dest++ {
		tree := t.trees[dest]
		for n := 0; n < t.g.NumNodes(); n++ {
			if !tree.Reachable(graph.NodeID(n)) {
				continue
			}
			if dd := t.DD(graph.NodeID(n), graph.NodeID(dest)); dd > max {
				max = dd
			}
		}
	}
	return max
}

// DDBits returns the number of bits needed to carry any DD value of this
// table: the smallest b with 2^b > maxDD (minimum 1). With hop-count
// discriminators this is the paper's "in the order of log2(d) bits" for
// network diameter d; weight sums are first rounded up.
func (t *Table) DDBits() int {
	max := int64(math.Ceil(t.MaxDD()))
	bits := 1
	for int64(1)<<bits <= max {
		bits++
	}
	return bits
}
