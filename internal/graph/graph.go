// Package graph provides the weighted undirected graph substrate used by the
// Packet Re-cycling reproduction: adjacency storage, shortest paths,
// connectivity analysis, and failure-scenario sampling.
//
// Nodes are dense integer indices [0, NumNodes). Every undirected link is
// identified by a LinkID (its insertion index) and induces two directed
// "darts" (see package rotation). An ID never moves: a link that an edit
// removes stays in the link table as a tombstone (see Removed). Graphs are
// immutable once Freeze is called, which lets downstream packages (routing
// tables, embeddings, simulators) share them safely across goroutines.
//
// Identifiers are 32 bits wide — every table and packet downstream stores
// them, and half the width is half the cache — so a graph holds at most
// MaxNodes nodes and MaxLinks links; AddNode, AddLink and CheckSize refuse
// to go past that rather than let an index wrap.
package graph

import (
	"fmt"
	"math"
	"sort"
)

// NodeID identifies a node; dense indices starting at zero.
type NodeID int32

// LinkID identifies an undirected link by insertion order.
type LinkID int32

// MaxNodes and MaxLinks are the most a graph can hold: the node count must
// fit an int32, and so must the dart count, two to a link.
const (
	MaxNodes = math.MaxInt32
	MaxLinks = math.MaxInt32 / 2
)

// CheckSize reports whether a graph of the given node and link counts can
// be indexed, so that loaders can refuse an input before allocating for it.
func CheckSize(nodes, links int) error {
	if nodes > MaxNodes || links > MaxLinks {
		return fmt.Errorf("graph: %d nodes, %d links exceed the 32-bit identifier space (%d nodes, %d links)", nodes, links, MaxNodes, MaxLinks)
	}
	return nil
}

// Invalid sentinel values returned by lookups that find nothing.
const (
	NoNode NodeID = -1
	NoLink LinkID = -1
)

// Link is an undirected weighted edge between two nodes.
type Link struct {
	ID     LinkID
	A, B   NodeID
	Weight float64
}

// Other returns the endpoint of l that is not n. It panics if n is not an
// endpoint of l, which always indicates a programming error upstream.
func (l Link) Other(n NodeID) NodeID {
	switch n {
	case l.A:
		return l.B
	case l.B:
		return l.A
	}
	panic(fmt.Sprintf("graph: node %d is not an endpoint of link %d (%d-%d)", n, l.ID, l.A, l.B))
}

// Incident reports whether n is one of l's endpoints.
func (l Link) Incident(n NodeID) bool { return l.A == n || l.B == n }

// Neighbor is one entry in a node's adjacency list.
type Neighbor struct {
	Node NodeID // the node on the far side of the link
	Link LinkID // the connecting link
}

// Graph is a weighted undirected graph. The zero value is an empty graph
// ready for use; add nodes and links, then call Freeze before handing it to
// consumers that require immutability.
type Graph struct {
	names []string
	links []Link
	// removed[l] marks link l a tombstone: EditRemoveLink took it out of
	// the adjacency but kept its ID, endpoints and weight. Nil while no
	// link was ever removed.
	removed []bool
	adj     [][]Neighbor
	frozen  bool
	// Flat (CSR) copy of the frozen adjacency for the shortest-path inner
	// loops: node u's arcs are arcs[arcStart[u]:arcStart[u+1]], in adj[u]'s
	// order, and thru is their through-arc table (see flat). Built by
	// Freeze; nil on a mutable graph.
	arcStart []int32
	arcs     []arc
	thru     []int32
}

// arc is one directed adjacency entry with the link's weight inline, so a
// relaxation reads one 16-byte record instead of chasing adj[u] and then
// links[id].
type arc struct {
	node, link int32
	w          float64
}

// out returns frozen g's arcs leaving u.
func (g *Graph) out(u NodeID) []arc { return g.arcs[g.arcStart[u]:g.arcStart[u+1]] }

// flat returns the CSR adjacency: the frozen graph's own, or a throwaway
// one for a graph still under construction. With it comes the through-arc
// table: thru[i] is the index of the other arc at arc i's head when that
// head has exactly two arcs, -1 otherwise — the next step of a walk
// through a pass-through node. It depends on the link set alone, and
// shares start's allocation.
func (g *Graph) flat() (start []int32, arcs []arc, thru []int32) {
	if g.frozen {
		return g.arcStart, g.arcs, g.thru
	}
	n, m := len(g.adj), 0
	for _, nbrs := range g.adj {
		m += len(nbrs)
	}
	buf := make([]int32, n+1+m)
	start, thru = buf[:1:n+1], buf[n+1:]
	arcs = make([]arc, 0, m)
	for _, nbrs := range g.adj {
		for _, nb := range nbrs {
			arcs = append(arcs, arc{int32(nb.Node), int32(nb.Link), g.links[nb.Link].Weight})
		}
		start = append(start, int32(len(arcs)))
	}
	for i, a := range arcs {
		thru[i] = -1
		if lo := start[a.node]; start[a.node+1]-lo == 2 {
			if arcs[lo].link == a.link {
				lo++
			}
			thru[i] = lo
		}
	}
	return start, arcs, thru
}

// New returns an empty mutable graph with capacity hints for n nodes and m
// links. Hints may be zero.
func New(n, m int) *Graph {
	return &Graph{
		names: make([]string, 0, n),
		links: make([]Link, 0, m),
		adj:   make([][]Neighbor, 0, n),
	}
}

// AddNode appends a node with the given human-readable name and returns its
// identifier. Names need not be unique, but topology loaders enforce
// uniqueness for lookup friendliness. Like mutation after Freeze, growing
// past MaxNodes panics.
func (g *Graph) AddNode(name string) NodeID {
	g.mustBeMutable()
	if err := CheckSize(len(g.names)+1, 0); err != nil {
		panic(err)
	}
	id := NodeID(len(g.names))
	g.names = append(g.names, name)
	g.adj = append(g.adj, nil)
	return id
}

// AddLink connects a and b with the given positive weight and returns the new
// link's identifier. Self-loops are rejected: they are meaningless for
// routing and break the cellular-embedding machinery's assumption that every
// dart has a distinct reverse.
func (g *Graph) AddLink(a, b NodeID, weight float64) (LinkID, error) {
	g.mustBeMutable()
	if a == b {
		return NoLink, fmt.Errorf("graph: self-loop on node %d rejected", a)
	}
	if !g.validNode(a) || !g.validNode(b) {
		return NoLink, fmt.Errorf("graph: link %d-%d references unknown node", a, b)
	}
	if weight <= 0 {
		return NoLink, fmt.Errorf("graph: link %d-%d has non-positive weight %v", a, b, weight)
	}
	if err := CheckSize(0, len(g.links)+1); err != nil {
		return NoLink, err
	}
	id := LinkID(len(g.links))
	g.links = append(g.links, Link{ID: id, A: a, B: b, Weight: weight})
	if g.removed != nil {
		g.removed = append(g.removed, false)
	}
	g.adj[a] = append(g.adj[a], Neighbor{Node: b, Link: id})
	g.adj[b] = append(g.adj[b], Neighbor{Node: a, Link: id})
	return id, nil
}

// MustAddLink is AddLink for statically known-good inputs (topology tables,
// tests); it panics on error.
func (g *Graph) MustAddLink(a, b NodeID, weight float64) LinkID {
	id, err := g.AddLink(a, b, weight)
	if err != nil {
		panic(err)
	}
	return id
}

// Freeze marks the graph immutable. Further AddNode/AddLink calls panic.
// Freeze also canonicalises adjacency order (by neighbor node, then link ID)
// so that algorithms iterate deterministically regardless of insertion order,
// and flattens it for the shortest-path loops. It returns g for chaining.
func (g *Graph) Freeze() *Graph {
	if g.frozen {
		return g
	}
	for _, nbrs := range g.adj {
		sort.Slice(nbrs, func(i, j int) bool {
			if nbrs[i].Node != nbrs[j].Node {
				return nbrs[i].Node < nbrs[j].Node
			}
			return nbrs[i].Link < nbrs[j].Link
		})
	}
	g.arcStart, g.arcs, g.thru = g.flat()
	g.frozen = true
	return g
}

// Frozen reports whether Freeze has been called.
func (g *Graph) Frozen() bool { return g.frozen }

func (g *Graph) mustBeMutable() {
	if g.frozen {
		panic("graph: mutation after Freeze")
	}
}

func (g *Graph) validNode(n NodeID) bool { return n >= 0 && int(n) < len(g.names) }

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.names) }

// NumLinks returns the undirected link count, removed links included:
// every LinkID lies in [0, NumLinks).
func (g *Graph) NumLinks() int { return len(g.links) }

// Removed reports whether link id was removed by an edit: a tombstone that
// keeps its ID, endpoints, weight and place in a rotation system, but lies
// in no adjacency list, so no path, tree or connectivity test sees it.
func (g *Graph) Removed(id LinkID) bool { return g.removed != nil && g.removed[id] }

// RemovedLinks lists the removed links in ID order (nil when there are none).
func (g *Graph) RemovedLinks() []LinkID {
	var out []LinkID
	for l, r := range g.removed {
		if r {
			out = append(out, LinkID(l))
		}
	}
	return out
}

// AddTarget returns the ID an a–b addition takes (see ApplyEdit): the
// lowest-ID removed link joining a and b, revived in place, or NumLinks(),
// appended.
func (g *Graph) AddTarget(a, b NodeID) LinkID {
	for l, r := range g.removed {
		if k := g.links[l]; r && (k.A == a && k.B == b || k.A == b && k.B == a) {
			return LinkID(l)
		}
	}
	return LinkID(len(g.links))
}

// Name returns the node's human-readable name.
func (g *Graph) Name(n NodeID) string { return g.names[n] }

// NodeByName returns the first node with the given name, or NoNode.
func (g *Graph) NodeByName(name string) NodeID {
	for i, s := range g.names {
		if s == name {
			return NodeID(i)
		}
	}
	return NoNode
}

// Link returns the link with the given ID.
func (g *Graph) Link(id LinkID) Link { return g.links[id] }

// Links returns the underlying link slice. Callers must not modify it.
func (g *Graph) Links() []Link { return g.links }

// Neighbors returns n's adjacency list. Callers must not modify it. After
// Freeze the list is sorted by (neighbor, link).
func (g *Graph) Neighbors(n NodeID) []Neighbor { return g.adj[n] }

// Degree returns the number of live links incident to n.
func (g *Graph) Degree(n NodeID) int { return len(g.adj[n]) }

// FindLink returns the lowest-ID link joining a and b, or NoLink.
func (g *Graph) FindLink(a, b NodeID) LinkID {
	if !g.validNode(a) || !g.validNode(b) {
		return NoLink
	}
	best := NoLink
	for _, nb := range g.adj[a] {
		if nb.Node == b && (best == NoLink || nb.Link < best) {
			best = nb.Link
		}
	}
	return best
}

// HasLink reports whether at least one link joins a and b.
func (g *Graph) HasLink(a, b NodeID) bool { return g.FindLink(a, b) != NoLink }

// Weight returns the weight of link id.
func (g *Graph) Weight(id LinkID) float64 { return g.links[id].Weight }

// MinDegree returns the smallest node degree, or 0 for an empty graph.
func (g *Graph) MinDegree() int {
	if len(g.adj) == 0 {
		return 0
	}
	min := g.Degree(0)
	for n := 1; n < len(g.adj); n++ {
		if d := g.Degree(NodeID(n)); d < min {
			min = d
		}
	}
	return min
}

// MaxDegree returns the largest node degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for n := range g.adj {
		if d := g.Degree(NodeID(n)); d > max {
			max = d
		}
	}
	return max
}

// Clone returns a deep, mutable copy of g.
func (g *Graph) Clone() *Graph {
	c := New(g.NumNodes(), g.NumLinks())
	c.names = append(c.names, g.names...)
	c.links = append(c.links, g.links...)
	c.removed = append([]bool(nil), g.removed...)
	c.adj = make([][]Neighbor, len(g.adj))
	for i, nbrs := range g.adj {
		c.adj[i] = append([]Neighbor(nil), nbrs...)
	}
	return c
}

// String summarises the graph for debugging.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{nodes: %d, links: %d}", g.NumNodes(), g.NumLinks())
}

// Validate performs structural sanity checks: adjacency symmetry, link
// endpoint validity, ID density, and removed links out of the adjacency. It is used by tests and topology
// loaders; a healthy Graph built through AddNode/AddLink always passes.
func (g *Graph) Validate() error {
	for i, l := range g.links {
		if LinkID(i) != l.ID {
			return fmt.Errorf("graph: link %d stored at index %d", l.ID, i)
		}
		if !g.validNode(l.A) || !g.validNode(l.B) {
			return fmt.Errorf("graph: link %d has invalid endpoints %d-%d", l.ID, l.A, l.B)
		}
		if l.A == l.B {
			return fmt.Errorf("graph: link %d is a self-loop", l.ID)
		}
		if l.Weight <= 0 {
			return fmt.Errorf("graph: link %d has non-positive weight %v", l.ID, l.Weight)
		}
	}
	seen := make(map[[2]int]int)
	for n, nbrs := range g.adj {
		for _, nb := range nbrs {
			l := g.links[nb.Link]
			if !l.Incident(NodeID(n)) || l.Other(NodeID(n)) != nb.Node {
				return fmt.Errorf("graph: adjacency of node %d disagrees with link %d", n, nb.Link)
			}
			seen[[2]int{n, int(nb.Link)}]++
		}
	}
	for _, l := range g.links {
		want := 1
		if g.Removed(l.ID) {
			want = 0
		}
		if seen[[2]int{int(l.A), int(l.ID)}] != want || seen[[2]int{int(l.B), int(l.ID)}] != want {
			return fmt.Errorf("graph: link %d not represented %d times per endpoint", l.ID, want)
		}
	}
	return nil
}
