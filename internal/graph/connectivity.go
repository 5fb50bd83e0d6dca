package graph

// Bridges returns the bridge links of g: links whose removal disconnects the
// component containing them. A graph with no bridges and minimum degree ≥ 1
// is 2-edge-connected, the precondition for the paper's single-failure
// guarantee (§4.2: "full failure recovery from any single link failure in
// 2-connected networks").
//
// The implementation is the classic Tarjan low-link DFS, iterative to stay
// safe on deep topologies, and multigraph-aware: parallel links between the
// same pair are never bridges. Like every traversal here it reads the
// adjacency, so a removed link (Graph.Removed) is never one either.
func Bridges(g *Graph) []LinkID {
	n := g.NumNodes()
	disc := make([]int, n) // discovery time, 0 = unvisited
	low := make([]int, n)  // lowest discovery time reachable
	var bridges []LinkID
	timer := 1

	type frame struct {
		node    NodeID
		inLink  LinkID // link used to enter node (NoLink at root)
		nextNbr int    // next adjacency index to examine
	}

	for start := 0; start < n; start++ {
		if disc[start] != 0 {
			continue
		}
		stack := []frame{{node: NodeID(start), inLink: NoLink}}
		disc[start] = timer
		low[start] = timer
		timer++
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			u := f.node
			if f.nextNbr < len(g.Neighbors(u)) {
				nb := g.Neighbors(u)[f.nextNbr]
				f.nextNbr++
				if nb.Link == f.inLink {
					continue // don't traverse the entry link backwards
				}
				v := nb.Node
				if disc[v] == 0 {
					disc[v] = timer
					low[v] = timer
					timer++
					stack = append(stack, frame{node: v, inLink: nb.Link})
				} else if disc[v] < low[u] {
					low[u] = disc[v]
				}
				continue
			}
			// Post-order: propagate low-link to parent and test bridge.
			stack = stack[:len(stack)-1]
			if len(stack) == 0 {
				continue
			}
			p := &stack[len(stack)-1]
			if low[u] < low[p.node] {
				low[p.node] = low[u]
			}
			if low[u] > disc[p.node] {
				bridges = append(bridges, f.inLink)
			}
		}
	}
	return bridges
}

// TwoEdgeConnected reports whether g is connected, has at least two nodes,
// and contains no bridges.
func TwoEdgeConnected(g *Graph) bool {
	if g.NumNodes() < 2 || !Connected(g) {
		return false
	}
	return len(Bridges(g)) == 0
}

// ArticulationPoints returns the cut vertices of g: nodes whose removal
// disconnects the component containing them. Used to validate topologies for
// node-failure experiments.
func ArticulationPoints(g *Graph) []NodeID {
	n := g.NumNodes()
	disc := make([]int, n)
	low := make([]int, n)
	isCut := make([]bool, n)
	timer := 1

	type frame struct {
		node     NodeID
		parent   NodeID
		nextNbr  int
		children int
	}

	for start := 0; start < n; start++ {
		if disc[start] != 0 {
			continue
		}
		stack := []frame{{node: NodeID(start), parent: NoNode}}
		disc[start] = timer
		low[start] = timer
		timer++
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			u := f.node
			if f.nextNbr < len(g.Neighbors(u)) {
				nb := g.Neighbors(u)[f.nextNbr]
				f.nextNbr++
				v := nb.Node
				if v == f.parent {
					// Skip one traversal back to the parent; parallel links
					// to the parent still count as back-edges, handled by
					// clearing parent after first skip.
					f.parent = NoNode
					continue
				}
				if disc[v] == 0 {
					f.children++
					disc[v] = timer
					low[v] = timer
					timer++
					stack = append(stack, frame{node: v, parent: u})
				} else if disc[v] < low[u] {
					low[u] = disc[v]
				}
				continue
			}
			stack = stack[:len(stack)-1]
			if len(stack) == 0 {
				// u is a DFS root: cut vertex iff ≥ 2 DFS children.
				if f.children >= 2 {
					isCut[u] = true
				}
				continue
			}
			p := &stack[len(stack)-1]
			if low[u] < low[p.node] {
				low[p.node] = low[u]
			}
			// Non-root parent is a cut vertex if child cannot reach above it.
			if len(stack) > 1 && low[u] >= disc[p.node] {
				isCut[p.node] = true
			}
			_ = f
		}
	}
	var cuts []NodeID
	for i, c := range isCut {
		if c {
			cuts = append(cuts, NodeID(i))
		}
	}
	return cuts
}

// BiConnected reports whether g is 2-connected (connected, ≥ 3 nodes, no
// articulation points).
func BiConnected(g *Graph) bool {
	if g.NumNodes() < 3 || !Connected(g) {
		return false
	}
	return len(ArticulationPoints(g)) == 0
}

// Components returns the connected components of g as slices of node IDs,
// each sorted ascending, ordered by their smallest member.
func Components(g *Graph) [][]NodeID {
	n := g.NumNodes()
	seen := make([]bool, n)
	var comps [][]NodeID
	for s := 0; s < n; s++ {
		if seen[s] {
			continue
		}
		var comp []NodeID
		stack := []NodeID{NodeID(s)}
		seen[s] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			for _, nb := range g.Neighbors(u) {
				if !seen[nb.Node] {
					seen[nb.Node] = true
					stack = append(stack, nb.Node)
				}
			}
		}
		sortNodeIDs(comp)
		comps = append(comps, comp)
	}
	return comps
}

func sortNodeIDs(s []NodeID) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
