package graph

import (
	"math"
	"sync"
)

// Infinity is the distance reported for unreachable nodes.
var Infinity = math.Inf(1)

// SPTree is a shortest-path tree rooted at a destination node. Because links
// are undirected, the tree simultaneously answers "how does every node reach
// Dest" — which is the orientation routing tables need (paper §4.1 builds the
// shortest path tree *to* each destination).
//
// Ties between equal-cost paths are broken deterministically: prefer the
// next hop with the smaller NodeID, then the smaller LinkID. The paper
// assumes a single next hop per destination; deterministic tie-breaking makes
// every experiment reproducible, and makes the tree a function of the graph
// alone: SPTBuilder.Tree and SPTRepairer produce the same planes, bit for bit.
//
// A tree is three planes, 16 bytes a node: an 8-byte Dist, a 4-byte Hops
// and a 4-byte NextLink. The next node is not stored; it is the far end of
// NextLink, see NextNode.
//
// Lifetime: the planes (and the header) of trees built in succession by one
// builder are cut from shared slabs of slabPlanes trees, so a tree kept
// alive pins up to slabPlanes-1 neighbours' planes — a bounded cost, never a
// whole table. Planes of distinct trees never overlap, so the Shared*
// identity checks stay exact.
type SPTree struct {
	Dest NodeID
	// Dist[n] is the weight-sum from n to Dest along the tree (Infinity if
	// unreachable).
	Dist []float64
	// Hops[n] is the hop count from n to Dest along the tree (-1 if
	// unreachable). This is the paper's default distance discriminator.
	Hops []int32
	// NextLink[n] is the first link on n's path to Dest (NoLink at Dest or
	// when unreachable).
	NextLink []LinkID
}

// NextNode returns the node after n on the path to Dest (NoNode at Dest or
// when unreachable), read off g's link table; g is the graph t was built
// on, or any edit of it with the same link numbering.
func (t *SPTree) NextNode(g *Graph, n NodeID) NodeID {
	l := t.NextLink[n]
	if l == NoLink {
		return NoNode
	}
	k := &g.links[l]
	return k.A ^ k.B ^ n
}

// heapItem is one entry of distHeap.
type heapItem struct {
	dist float64
	node int32
}

// distHeap is an indexed binary min-heap of value items keyed on dist alone:
// pos[v] is v's slot in items, -1 while v is not queued, which makes update
// a decrease-key. SPTBuilder.Tree queues only the destination and nodes
// that do not have exactly two arcs; the repairer's region runs queue any
// node. Every run pops until empty, so between runs all of pos is -1
// whatever the previous graph's size or connectivity.
type distHeap struct {
	items []heapItem
	pos   []int32
}

// reset readies the (empty) heap for node indices below n.
func (h *distHeap) reset(n int) {
	for len(h.pos) < n {
		h.pos = append(h.pos, -1)
	}
}

// up places it into the hole at slot i and sifts it toward the root.
func (h *distHeap) up(i int, it heapItem) {
	for i > 0 {
		p := (i - 1) / 2
		if h.items[p].dist <= it.dist {
			break
		}
		h.items[i] = h.items[p]
		h.pos[h.items[i].node] = int32(i)
		i = p
	}
	h.items[i] = it
	h.pos[it.node] = int32(i)
}

// update queues v at key d, or lowers its key to d if it is queued.
func (h *distHeap) update(v NodeID, d float64) {
	i := int(h.pos[v])
	if i < 0 {
		i = len(h.items)
		h.items = append(h.items, heapItem{})
	}
	h.up(i, heapItem{d, int32(v)})
}

// popMin removes and returns a node of least key. The hole left at the
// root walks down along the smaller child to a leaf, and the heap's last
// item is sifted up from there: it came from the bottom, so it rarely
// rises, and the walk down has no data-dependent exit to mispredict.
func (h *distHeap) popMin() (NodeID, float64) {
	items := h.items
	top := items[0]
	h.pos[top.node] = -1
	n := len(items) - 1
	last := items[n]
	h.items = items[:n]
	if n > 0 {
		items[n].dist = Infinity // sentinel sibling for an only child
		i := 0
		for c := 1; c < n; c = 2*i + 1 {
			var right int
			if items[c+1].dist < items[c].dist {
				right = 1
			}
			c += right
			items[i] = items[c]
			h.pos[items[i].node] = int32(i)
			i = c
		}
		h.up(i, last)
	}
	return NodeID(top.node), top.dist
}

// slabPlanes is how many trees share one backing allocation per plane.
const slabPlanes = 16

// cut slices an n-element plane off *slab, refilling it slabPlanes planes
// at a time. Planes have full capacity n, so appends never cross into a
// sibling, and distinct planes never share an element.
func cut[T any](slab *[]T, n int) []T {
	if len(*slab) < n {
		*slab = make([]T, slabPlanes*n)
	}
	out := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return out
}

// SPTBuilder builds shortest-path trees on reusable scratch: the heap is
// kept between trees and the trees' planes (and headers) are cut from
// slabs, so a tree costs 4/slabPlanes allocations instead of one per node.
// The zero value is ready; a builder serves graphs of any size in any
// order but is NOT safe for concurrent use — give each worker its own.
type SPTBuilder struct {
	heap     distHeap
	treeSlab []SPTree
	distSlab []float64
	hopSlab  []int32
	linkSlab []LinkID
	// Queued and Followed count, over all trees built, heap pops and the
	// pass-through nodes a walk lowered instead (one lowered from both
	// ends counts twice).
	Queued, Followed int
}

// Tree runs Dijkstra's algorithm from dest over the links that are up
// under failures (nil means none) and returns the tree oriented toward
// dest. Chains are contracted: only dest and nodes without exactly two
// arcs are queued. A strict improvement landing on a pass-through node
// (two arcs, up or down) is carried down the node's other arc, read from
// the graph's through-arc table, planes written as it goes, until it
// reaches a node to queue, a down link, or a node it does not strictly
// improve. A tie is settled by betterTie and goes no further: the tied
// node got its distance from the far side, which is therefore nearer
// than anything the tie could offer.
//
// The result is the canonical tree spelled out at SPTRepairer, bit for bit
// the textbook loop's (referenceTree in the tests). Weights are positive,
// so every candidate Dist[u] + w exceeds Dist[u], and:
//   - a walk started at u's pop offers only values above u's key, so queued
//     nodes pop in key order with all three planes final, in whatever order
//     equal keys pop;
//   - a walk enters a chain only at the pop of one of its two ends, so each
//     arc is relaxed at most once and a chain interior is lowered at most
//     twice, once from each end, and is final once both have popped;
//   - if a walk writes v's final Dist, all it wrote before v is final too:
//     the only other way in there is back through v, at more than Dist[v].
//     So every Dist[v] is a final Dist[parent] + w, summed outward from
//     dest in the textbook order, and Hops[v] was read off a final parent;
//   - an arc u→v relaxed from a Dist[u] that was later lowered, or never
//     relaxed, has u's parent on v's side: its candidate exceeds Dist[v].
//     So every candidate that can tie at v does arrive, from a final u,
//     and betterTie keeps the (node, link)-smallest whatever the order.
func (b *SPTBuilder) Tree(g *Graph, dest NodeID, failures *FailureSet) *SPTree {
	n := g.NumNodes()
	t := &cut(&b.treeSlab, 1)[0]
	*t = SPTree{Dest: dest, Dist: cut(&b.distSlab, n), Hops: cut(&b.hopSlab, n),
		NextLink: cut(&b.linkSlab, n)}
	fill(t.Dist, Infinity)
	fill(t.Hops, -1)
	fill(t.NextLink, NoLink)
	if n == 0 {
		return t
	}
	start, arcs, thru := g.flat()
	failing := failures.Len() > 0
	h := &b.heap
	h.reset(n)
	t.Dist[dest], t.Hops[dest] = 0, 0
	h.update(dest, 0)
	for len(h.items) > 0 {
		u, du := h.popMin()
		b.Queued++
		for i := start[u]; i < start[u+1]; i++ {
			a, at := arcs[i], i // at: the arc the walk last crossed
			p, v, link, cand, hops := u, NodeID(a.node), LinkID(a.link), du+a.w, t.Hops[u]+1
			for !(failing && failures.down[link]) {
				dv := t.Dist[v]
				if cand > dv || cand == dv && !betterTie(g, t, v, p, link) {
					break
				}
				t.Hops[v], t.NextLink[v] = hops, link
				if cand == dv {
					break // equal cost, deterministically preferred parent
				}
				t.Dist[v] = cand
				if at = thru[at]; at < 0 {
					h.update(v, cand)
					break
				}
				b.Followed++
				o := arcs[at]
				p, v, link, cand, hops = v, NodeID(o.node), LinkID(o.link), cand+o.w, hops+1
			}
		}
	}
	return t
}

// fill sets every element of s to v, doubling the copied prefix each step.
func fill[T any](s []T, v T) {
	if len(s) == 0 {
		return
	}
	s[0] = v
	for k := 1; k < len(s); k *= 2 {
		copy(s[k:], s[:k])
	}
}

// builders recycles scratch behind ShortestPathTree.
var builders = sync.Pool{New: func() any { return new(SPTBuilder) }}

// ShortestPathTree is SPTBuilder.Tree on a pooled builder, for callers
// that want one tree; loops over destinations use AllTrees or a builder of
// their own.
func ShortestPathTree(g *Graph, dest NodeID, failures *FailureSet) *SPTree {
	b := builders.Get().(*SPTBuilder)
	t := b.Tree(g, dest, failures)
	builders.Put(b)
	return t
}

// AllTrees returns the tree toward every destination of g under failures,
// indexed by destination, built one after the other on one builder.
func AllTrees(g *Graph, failures *FailureSet) []*SPTree {
	var b SPTBuilder
	trees := make([]*SPTree, g.NumNodes())
	for d := range trees {
		trees[d] = b.Tree(g, NodeID(d), failures)
	}
	return trees
}

// betterTie reports whether (parent, link) is preferred over v's current
// equal-cost assignment: smaller next-hop node wins, then smaller link ID.
func betterTie(g *Graph, t *SPTree, v, parent NodeID, link LinkID) bool {
	cur := t.NextNode(g, v)
	if cur == NoNode {
		return true
	}
	if parent != cur {
		return parent < cur
	}
	return link < t.NextLink[v]
}

// Reachable reports whether n can reach the tree's destination.
func (t *SPTree) Reachable(n NodeID) bool { return !math.IsInf(t.Dist[n], 1) }

// Path returns the node sequence from src to the tree's destination
// (inclusive of both) over g's links, or nil if unreachable.
func (t *SPTree) Path(g *Graph, src NodeID) []NodeID {
	if !t.Reachable(src) {
		return nil
	}
	path := []NodeID{src}
	for n := src; n != t.Dest; {
		n = t.NextNode(g, n)
		path = append(path, n)
	}
	return path
}

// PathLinks returns the link sequence from src to the destination, or nil if
// unreachable (empty if src == Dest).
func (t *SPTree) PathLinks(g *Graph, src NodeID) []LinkID {
	if !t.Reachable(src) {
		return nil
	}
	var links []LinkID
	for n := src; n != t.Dest; n = t.NextNode(g, n) {
		links = append(links, t.NextLink[n])
	}
	return links
}

// UsesLink reports whether src's path to the destination traverses link id.
// Used to select the source-destination pairs affected by a failure scenario.
func (t *SPTree) UsesLink(g *Graph, src NodeID, id LinkID) bool {
	if !t.Reachable(src) {
		return false
	}
	for n := src; n != t.Dest; n = t.NextNode(g, n) {
		if t.NextLink[n] == id {
			return true
		}
	}
	return false
}

// AllPairs computes the shortest-path distance matrix with Floyd–Warshall.
// It exists primarily as an independent cross-check of Dijkstra in tests and
// to compute graph diameters for DD-bit sizing.
func AllPairs(g *Graph, failures *FailureSet) [][]float64 {
	n := g.NumNodes()
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			if i != j {
				d[i][j] = Infinity
			}
		}
	}
	for _, l := range g.Links() {
		if failures.Down(l.ID) || g.Removed(l.ID) {
			continue
		}
		if l.Weight < d[l.A][l.B] {
			d[l.A][l.B] = l.Weight
			d[l.B][l.A] = l.Weight
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			dik := d[i][k]
			if math.IsInf(dik, 1) {
				continue
			}
			for j := 0; j < n; j++ {
				if cand := dik + d[k][j]; cand < d[i][j] {
					d[i][j] = cand
				}
			}
		}
	}
	return d
}

// HopDiameter returns the maximum finite hop distance between any node pair
// (ignoring weights). The paper sizes the DD field as ⌈log2 d⌉ bits with d
// the network diameter, so this uses hop counts. Returns 0 for graphs with
// fewer than two nodes and -1 if the graph is disconnected.
func HopDiameter(g *Graph) int {
	n := g.NumNodes()
	if n < 2 {
		return 0
	}
	start, arcs, _ := g.flat()
	scratch := make([]int32, 2*n)
	dist, queue := scratch[:n], scratch[n:]
	diam := int32(0)
	for s := 0; s < n; s++ {
		reached := bfsHops(start, arcs, NodeID(s), nil, dist, queue)
		if len(reached) < n {
			return -1
		}
		if far := dist[reached[n-1]]; far > diam {
			diam = far
		}
	}
	return int(diam)
}

// bfsHops writes into dist the hop distances from src over the arcs up
// under failures (-1: unreachable) and returns the nodes reached, nearest
// first, in queue's backing array; dist and queue hold an entry per node.
func bfsHops(start []int32, arcs []arc, src NodeID, failures *FailureSet, dist, queue []int32) []int32 {
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue = append(queue[:0], int32(src))
	failing := failures.Len() > 0
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, a := range arcs[start[u]:start[u+1]] {
			if dist[a.node] >= 0 || failing && failures.down[LinkID(a.link)] {
				continue
			}
			dist[a.node] = dist[u] + 1
			queue = append(queue, a.node)
		}
	}
	return queue
}

// HopDistances returns hop distances from src under failures (-1 if
// unreachable). Exposed for baselines and tests.
func HopDistances(g *Graph, src NodeID, failures *FailureSet) []int {
	start, arcs, _ := g.flat()
	out := make([]int, g.NumNodes())
	scratch := make([]int32, 2*len(out))
	bfsHops(start, arcs, src, failures, scratch[:len(out)], scratch[len(out):])
	for v := range out {
		out[v] = int(scratch[v])
	}
	return out
}
