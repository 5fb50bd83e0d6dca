package graph

import (
	"math"
)

// SPTRepairer incrementally repairs shortest-path trees after a
// single-link edit — a weight change, a removal (a raise to +Inf) or an
// addition (a drop from +Inf) — the per-destination primitive of delta FIB
// recompilation. The repaired tree is bit-identical to running
// ShortestPathTree from scratch on the edited graph: the final state of
// Dijkstra with this package's deterministic tie-breaking is a canonical
// function of the graph alone —
//
//	Dist[v] = min over incident (u, link) of Dist[u] + weight(link)
//	parent  = the (u, link)-lexicographically smallest candidate
//	          achieving that minimum (bit-equal float comparison)
//	Hops[v] = Hops[parent] + 1
//
// — so any algorithm that recomputes exactly the affected part of that
// fixpoint reproduces the full run. For a weight increase the affected
// region is the old tree's subtree behind the link; for a decrease it is
// the set of nodes the cheaper link strictly improves. Both are usually a
// small fraction of the graph, which is where the delta speedup comes
// from. Only an edit that changes which nodes reach the destination (a
// removed bridge, an addition joining two components) rebuilds the tree.
//
// A repairer owns reusable scratch sized to the largest graph it has seen
// and is NOT safe for concurrent use. If an internal consistency check
// ever fails (a repaired distance that no neighbour candidate achieves),
// the repairer falls back to a full Dijkstra for that destination and
// counts it in Stats — correctness never depends on the fast path.
type SPTRepairer struct {
	// SPTBuilder lends its heap to the region Dijkstras and its slabs to
	// the repaired planes, and serves the full rebuilds (the defensive
	// fallback and reachability changes) on the same scratch.
	SPTBuilder
	// epoch-stamped scratch: a mark array entry is valid only when it
	// equals the current epoch, so resets are O(1).
	epoch    uint32
	overlay  []float64 // repaired distances, valid when distMark matches
	distMark []uint32
	inSub    []uint32 // subtree membership (weight increase)
	rkMark   []uint32 // recheck-set dedup
	region   []NodeID // affected nodes (increase: subtree; decrease: improved)
	order    []NodeID // settle order of the region Dijkstra (increase)
	recheck  []NodeID
	chain    []NodeID   // cascade stack scratch
	changes  []reparent // re-parented nodes scratch
	seeds    []NodeID   // cascade seeds scratch
	// kids caches each destination's tree children lists across calls:
	// the subtree walk of a weight increase then costs O(|subtree|)
	// instead of O(n). Entries are validated by tree pointer and updated
	// incrementally from the re-parent set, so a chained recompiler hits
	// the cache on every edit.
	kids map[NodeID]*childCache

	stats repairCounters
}

// repairCounters accumulates repairer outcomes; Counters exposes them
// for telemetry collectors (dataplane.Recompiler.Register publishes
// them as the repair.* snapshot names).
type repairCounters struct {
	repaired     int64
	unchanged    int64
	fullFallback int64
	nodesTouched int64
}

// reparent records one canonical-parent change found by the recheck
// scan.
type reparent struct {
	v    NodeID
	node NodeID
	link LinkID
}

// childCache is one destination's children-list snapshot: head[v] is v's
// first tree child, next[c] the next sibling (-1 terminated), valid only
// while tree matches the caller's tree pointer.
type childCache struct {
	tree *SPTree
	head []int32
	next []int32
}

// Counters returns the repairer's cumulative outcome counts: trees
// rebuilt through the incremental path, calls that proved the tree
// unaffected, defensive full-Dijkstra rebuilds, and the summed
// affected-region sizes across repairs.
func (r *SPTRepairer) Counters() (repaired, unchanged, fullFallback, nodesTouched int64) {
	return r.stats.repaired, r.stats.unchanged, r.stats.fullFallback, r.stats.nodesTouched
}

// grow sizes the scratch for an n-node graph and starts a fresh epoch.
func (r *SPTRepairer) grow(n int) {
	if len(r.overlay) < n {
		r.overlay = make([]float64, n)
		r.distMark = make([]uint32, n)
		r.inSub = make([]uint32, n)
		r.rkMark = make([]uint32, n)
	}
	r.epoch++
	if r.epoch == 0 { // wrapped: scrub stale marks once
		for i := range r.distMark {
			r.distMark[i], r.inSub[i], r.rkMark[i] = 0, 0, 0
		}
		r.epoch = 1
	}
	r.heap.reset(n)
	r.region = r.region[:0]
	r.order = r.order[:0]
	r.recheck = r.recheck[:0]
}

// dist reads the repaired distance of v: the overlay when set this epoch,
// the old tree's value otherwise.
func (r *SPTRepairer) dist(old *SPTree, v NodeID) float64 {
	if r.distMark[v] == r.epoch {
		return r.overlay[v]
	}
	return old.Dist[v]
}

func (r *SPTRepairer) setDist(v NodeID, d float64) {
	if r.distMark[v] != r.epoch {
		r.distMark[v] = r.epoch
		r.region = append(r.region, v)
	}
	r.overlay[v] = d
}

// WeightChange repairs old — a canonical shortest-path tree toward
// old.Dest on the pre-edit graph — into the canonical tree on g, a frozen
// graph (as ApplyEdit returns) that differs from the pre-edit one only by
// link l's weight (previously oldW, now g.Weight(l)). When the tree is unaffected the original tree
// is returned with changed == false; a removed link carries no path,
// whatever its weight.
func (r *SPTRepairer) WeightChange(g *Graph, old *SPTree, l LinkID, oldW float64) (t *SPTree, changed bool) {
	wNew := g.Weight(l)
	link := g.Link(l)
	if wNew == oldW || g.Removed(l) || !old.Reachable(link.A) && !old.Reachable(link.B) {
		// With both endpoints in an unreachable component every candidate
		// through l stays infinite.
		r.stats.unchanged++
		return old, false
	}
	r.grow(g.NumNodes())
	if wNew < oldW {
		r.lowerDists(g, old, l)
		return r.reselect(g, old, false)
	}
	// The child endpoint c routes over l; if neither endpoint does, no
	// shortest path uses l and a worse l changes nothing (alternatives
	// only lost ground).
	c := old.routesOver(link.A, link.B, l)
	if c == NoNode {
		r.stats.unchanged++
		return old, false
	}
	r.raiseDists(g, old, c)
	return r.reselect(g, old, true)
}

// LinkAdded is WeightChange for a link l that g has and the pre-edit graph
// had not: a drop from +Inf. A link that joins old.Dest's component to
// another changes which nodes reach the destination; that tree is rebuilt
// from scratch and reported.
func (r *SPTRepairer) LinkAdded(g *Graph, old *SPTree, l LinkID) (t *SPTree, changed, rebuilt bool) {
	if link := g.Link(l); old.Reachable(link.A) != old.Reachable(link.B) {
		return r.Tree(g, old.Dest, nil), true, true
	}
	t, changed = r.WeightChange(g, old, l, Infinity)
	return t, changed, false
}

// LinkRemoved is WeightChange for link l, live in old's graph and removed
// in g: a raise to +Inf. A removal that cuts nodes off old.Dest rebuilds
// the tree from scratch and reports it.
func (r *SPTRepairer) LinkRemoved(g *Graph, old *SPTree, l LinkID) (t *SPTree, changed, rebuilt bool) {
	link := g.Link(l)
	c := old.routesOver(link.A, link.B, l)
	if c == NoNode {
		r.stats.unchanged++
		return old, false, false
	}
	r.grow(g.NumNodes())
	r.raiseDists(g, old, c)
	if len(r.order) < len(r.region) { // a bridge: part of the subtree is cut off
		return r.Tree(g, old.Dest, nil), true, true
	}
	t, _ = r.reselect(g, old, true)
	return t, true, false
}

// routesOver returns the endpoint of link l = a–b whose next hop l is (only
// an endpoint can, and every path over l goes through it), or NoNode.
func (t *SPTree) routesOver(a, b NodeID, l LinkID) NodeID {
	switch l {
	case t.NextLink[a]:
		return a
	case t.NextLink[b]:
		return b
	}
	return NoNode
}

// reselect is the tail every repair shares: with the moved distances in
// the overlay (raiseDists or lowerDists), it re-selects canonical parents
// over the recheck set — for an increase exactly the region: a node
// outside keeps its distance and every outside candidate value, and any
// inside candidate that tied for its parent slot would have put the node
// inside the region in the first place, while inside candidates only got
// worse, so no outside parent can move; for a decrease the set lowerDists
// collected — repairs the hop counts below them and materialises the
// tree.
func (r *SPTRepairer) reselect(g *Graph, old *SPTree, raised bool) (*SPTree, bool) {
	recheck := r.recheck
	if raised {
		recheck = r.region
	}

	// Materialise the repaired distance plane before the parent scan:
	// copy-on-write only when some distance actually moved, after which
	// every read below is a plain array load.
	distChanged := false
	for _, v := range r.region {
		if r.overlay[v] != old.Dist[v] {
			distChanged = true
			break
		}
	}
	dist := old.Dist
	if distChanged {
		// From the builder's slab: most destinations are repaired on
		// every edit, so planes are worth allocating in bulk.
		dist = cut(&r.distSlab, len(old.Dist))
		copy(dist, old.Dist)
		for _, v := range r.region {
			dist[v] = r.overlay[v]
		}
	}

	// Canonical parent re-selection over the recheck set. Neighbors are
	// (node, link)-sorted after Freeze, so a strict `<` scan yields the
	// lexicographically smallest candidate achieving the minimum — the
	// same parent the full Dijkstra's betterTie rule converges to.
	changes := r.changes[:0]
	for _, v := range recheck {
		if v == old.Dest || !old.Reachable(v) {
			continue
		}
		bestD := math.Inf(1)
		bestP, bestL := NoNode, NoLink
		for _, a := range g.out(v) {
			du := dist[a.node]
			if math.IsInf(du, 1) {
				continue
			}
			if cand := du + a.w; cand < bestD {
				bestD, bestP, bestL = cand, NodeID(a.node), LinkID(a.link)
			}
		}
		if bestD != dist[v] {
			// A repaired distance no candidate achieves (or vice versa):
			// the incremental invariants were violated. Never deliver a
			// wrong tree — recompute this destination from scratch.
			r.stats.fullFallback++
			return r.Tree(g, old.Dest, nil), true
		}
		if bestL != old.NextLink[v] { // a link names its far end
			changes = append(changes, reparent{v: v, node: bestP, link: bestL})
		}
	}
	if !distChanged && len(changes) == 0 {
		r.stats.unchanged++
		return old, false
	}

	// Materialise the rest of the repaired tree with per-array
	// copy-on-write: only the planes that actually moved are cloned, the
	// rest are shared with the old tree. Downstream consumers exploit
	// the sharing — a shared Hops (or Dist) plane proves the
	// discriminator column unchanged without a scan. Hops can only move
	// when some parent moved (Hops[v] is Hops[parent]+1 along an
	// unchanged chain), so the hop plane is cloned exactly when the
	// parent planes are.
	nt := &SPTree{Dest: old.Dest, Dist: dist, Hops: old.Hops, NextLink: old.NextLink}
	cc := r.children(g, old)
	if len(changes) > 0 {
		nt.NextLink = append([]LinkID(nil), old.NextLink...)
		for _, c := range changes {
			cc.reparent(c.v, old.NextNode(g, c.v), c.node, nt)
			nt.NextLink[c.v] = c.link
		}
		// The hop plane clones lazily, on the first hop count that
		// actually moves: a tie flip between equal-length paths (the
		// common planned-maintenance case) re-parents without touching a
		// single hop, and the shared plane then proves the hop-count
		// discriminator column unchanged for free.
		if raised {
			// Every hop change of an increase is confined to the region
			// (a tie-flipped parent and all its tree descendants route
			// over l), and the region Dijkstra's settle order lists it
			// parent-before-child — one linear pass repairs the plane.
			hops := old.Hops
			for _, v := range r.order {
				h := hops[nt.NextNode(g, v)] + 1
				if h == hops[v] {
					continue
				}
				if &hops[0] == &old.Hops[0] {
					hops = append([]int32(nil), old.Hops...)
				}
				hops[v] = h
			}
			nt.Hops = hops
		} else {
			seeds := r.seeds[:0]
			for _, c := range changes {
				seeds = append(seeds, c.v)
			}
			nt.Hops = r.cascadeHops(g, cc, nt, old.Hops, seeds)
			r.seeds = seeds[:0]
		}
	}
	cc.tree = nt
	r.changes = changes[:0]
	r.stats.repaired++
	r.stats.nodesTouched += int64(len(r.region))
	return nt, true
}

// SharedHops reports whether two trees share the same backing array for
// the hop-count plane — the O(1) "this column did not move" proof the
// repairer's copy-on-write leaves behind.
func SharedHops(a, b *SPTree) bool {
	return len(a.Hops) > 0 && len(b.Hops) > 0 && &a.Hops[0] == &b.Hops[0]
}

// SharedDist reports whether two trees share the distance plane.
func SharedDist(a, b *SPTree) bool {
	return len(a.Dist) > 0 && len(b.Dist) > 0 && &a.Dist[0] == &b.Dist[0]
}

// SharedNextLink reports whether two trees share the next-hop plane.
func SharedNextLink(a, b *SPTree) bool {
	return len(a.NextLink) > 0 && len(b.NextLink) > 0 && &a.NextLink[0] == &b.NextLink[0]
}

// raiseDists handles a weight increase on the link c routes over: only
// nodes whose old shortest path crosses it — the old tree's subtree behind
// c — can move. It recomputes their distances with a Dijkstra over that
// region seeded from the (unchanged) boundary; r.order lists the region
// nodes that still reach the destination.
func (r *SPTRepairer) raiseDists(g *Graph, old *SPTree, c NodeID) {
	r.markSubtree(g, old, c)
	// Seed every region node with its best boundary candidate.
	for _, v := range r.region {
		best := math.Inf(1)
		for _, a := range g.out(v) {
			if r.inSub[a.node] == r.epoch {
				continue
			}
			du := old.Dist[a.node]
			if math.IsInf(du, 1) {
				continue
			}
			if cand := du + a.w; cand < best {
				best = cand
			}
		}
		r.overlay[v] = best
		if !math.IsInf(best, 1) {
			r.heap.update(v, best)
		}
	}
	// Region Dijkstra: settle in distance order, relaxing only
	// region-internal links (l itself is a boundary link by construction).
	for len(r.heap.items) > 0 {
		v, dv := r.heap.popMin()
		r.order = append(r.order, v)
		for _, a := range g.out(v) {
			u := NodeID(a.node)
			if r.inSub[u] != r.epoch {
				continue
			}
			if cand := dv + a.w; cand < r.overlay[u] {
				r.overlay[u] = cand
				r.heap.update(u, cand)
			}
		}
	}
}

// children returns the destination's children-list cache for old, a tree
// in g's link IDs, rebuilding it only when the cached snapshot is for a
// different tree.
func (r *SPTRepairer) children(g *Graph, old *SPTree) *childCache {
	if r.kids == nil {
		r.kids = make(map[NodeID]*childCache)
	}
	cc := r.kids[old.Dest]
	if cc != nil && cc.tree == old {
		return cc
	}
	n := len(old.Dist)
	if cc == nil || len(cc.head) < n {
		cc = &childCache{head: make([]int32, n), next: make([]int32, n)}
		r.kids[old.Dest] = cc
	}
	for v := 0; v < n; v++ {
		cc.head[v] = -1
	}
	for v := 0; v < n; v++ {
		p := old.NextNode(g, NodeID(v))
		if p == NoNode {
			continue
		}
		cc.next[v] = cc.head[p]
		cc.head[p] = int32(v)
	}
	cc.tree = old
	return cc
}

// reparentCached moves v from oldParent's child list to newParent's and
// stamps the cache as describing nt. Sibling lists are degree-bounded,
// so the unlink scan is cheap.
func (cc *childCache) reparent(v, oldParent, newParent NodeID, nt *SPTree) {
	if oldParent != NoNode {
		if cc.head[oldParent] == int32(v) {
			cc.head[oldParent] = cc.next[v]
		} else {
			for c := cc.head[oldParent]; c >= 0; c = cc.next[c] {
				if cc.next[c] == int32(v) {
					cc.next[c] = cc.next[v]
					break
				}
			}
		}
	}
	if newParent != NoNode {
		cc.next[v] = cc.head[newParent]
		cc.head[newParent] = int32(v)
	}
	cc.tree = nt
}

// markSubtree collects the old tree's subtree rooted at c (inclusive)
// into r.region, marking membership in r.inSub — a BFS over the cached
// children lists, O(|subtree|).
func (r *SPTRepairer) markSubtree(g *Graph, old *SPTree, c NodeID) *childCache {
	cc := r.children(g, old)
	r.inSub[c] = r.epoch
	r.distMark[c] = r.epoch
	r.region = append(r.region, c)
	for i := 0; i < len(r.region); i++ {
		for ch := cc.head[r.region[i]]; ch >= 0; ch = cc.next[ch] {
			v := NodeID(ch)
			r.inSub[v] = r.epoch
			r.distMark[v] = r.epoch
			r.region = append(r.region, v)
		}
	}
	return cc
}

// lowerDists handles a weight decrease: strict improvements seeded at l's
// endpoints propagate outward Dijkstra-style; distances can only drop. It
// leaves in r.recheck the nodes whose parent may have moved: tied
// candidates can appear anywhere next to an improved node, so neighbours
// join the improved region.
func (r *SPTRepairer) lowerDists(g *Graph, old *SPTree, l LinkID) {
	link := g.Link(l)
	w := g.Weight(l)
	seed := func(e, via NodeID) {
		dvia := old.Dist[via]
		if math.IsInf(dvia, 1) {
			return
		}
		if cand := dvia + w; cand < old.Dist[e] {
			r.setDist(e, cand)
			r.heap.update(e, cand)
		}
	}
	seed(link.A, link.B)
	seed(link.B, link.A)
	for len(r.heap.items) > 0 {
		v, dv := r.heap.popMin()
		for _, a := range g.out(v) {
			u := NodeID(a.node)
			if cand := dv + a.w; cand < r.dist(old, u) {
				r.setDist(u, cand)
				r.heap.update(u, cand)
			}
		}
	}
	addRecheck := func(v NodeID) {
		if r.rkMark[v] != r.epoch {
			r.rkMark[v] = r.epoch
			r.recheck = append(r.recheck, v)
		}
	}
	for _, v := range r.region {
		addRecheck(v)
		// An unimproved neighbour's parent can only move when an
		// improved candidate lands bit-equal on its distance — a
		// strictly better one would have improved it into the
		// region, a worse one never enters the achiever set.
		dv := r.overlay[v]
		for _, a := range g.out(v) {
			if dv+a.w == r.dist(old, NodeID(a.node)) {
				addRecheck(NodeID(a.node))
			}
		}
	}
	// l's own candidate changed even where no distance did: a new
	// bit-equal tie at an endpoint can flip its parent onto l.
	if r.dist(old, link.B)+w == r.dist(old, link.A) {
		addRecheck(link.A)
	}
	if r.dist(old, link.A)+w == r.dist(old, link.B) {
		addRecheck(link.B)
	}
}

// cascadeHops repairs hop counts below every re-parented node: a node's
// hop count is its parent's plus one, so a parent change can shift whole
// subtrees even when no distance moved (equal-cost paths of different
// lengths). The cascade follows the repaired tree's children lists (cc
// must already describe nt's parents) and prunes branches whose hop
// count is confirmed unchanged. It returns the repaired plane — oldHops
// itself when nothing moved, a lazy clone otherwise.
func (r *SPTRepairer) cascadeHops(g *Graph, cc *childCache, nt *SPTree, oldHops []int32, seeds []NodeID) []int32 {
	hops := oldHops
	stack := r.chain[:0]
	for _, s := range seeds {
		stack = append(stack, s)
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		h := hops[nt.NextNode(g, v)] + 1
		if h == hops[v] {
			continue
		}
		if &hops[0] == &oldHops[0] {
			hops = append([]int32(nil), oldHops...)
		}
		hops[v] = h
		for c := cc.head[v]; c >= 0; c = cc.next[c] {
			stack = append(stack, NodeID(c))
		}
	}
	r.chain = stack[:0]
	return hops
}
