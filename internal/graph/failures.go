package graph

import (
	"fmt"
	"sort"
	"strings"
)

// FailureSet is the set of links considered down. Failures are bidirectional,
// matching the paper's §4 assumption. The zero value is an empty set ready
// for use; methods on a nil set treat it as empty for reads.
type FailureSet struct {
	down map[LinkID]bool
}

// NewFailureSet returns a failure set containing the given links.
func NewFailureSet(links ...LinkID) *FailureSet {
	f := &FailureSet{down: make(map[LinkID]bool, len(links))}
	for _, l := range links {
		f.down[l] = true
	}
	return f
}

// Add marks a link as failed.
func (f *FailureSet) Add(l LinkID) {
	if f.down == nil {
		f.down = make(map[LinkID]bool)
	}
	f.down[l] = true
}

// Remove marks a link as repaired.
func (f *FailureSet) Remove(l LinkID) {
	delete(f.down, l)
}

// Down reports whether link l is failed. A nil set has no failures.
func (f *FailureSet) Down(l LinkID) bool {
	if f == nil {
		return false
	}
	return f.down[l]
}

// Len returns the number of failed links.
func (f *FailureSet) Len() int {
	if f == nil {
		return 0
	}
	return len(f.down)
}

// Links returns the failed links in ascending order.
func (f *FailureSet) Links() []LinkID {
	if f == nil {
		return nil
	}
	out := make([]LinkID, 0, len(f.down))
	for l := range f.down {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Clone returns an independent copy.
func (f *FailureSet) Clone() *FailureSet {
	c := NewFailureSet()
	if f == nil {
		return c
	}
	for l := range f.down {
		c.down[l] = true
	}
	return c
}

// String renders the set as e.g. "{3, 7}".
func (f *FailureSet) String() string {
	parts := make([]string, 0, f.Len())
	for _, l := range f.Links() {
		parts = append(parts, fmt.Sprintf("%d", l))
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// FailNode returns a failure set in which every link incident to n is down.
// The paper models node failures this way (§4: failures are bidirectional;
// a dead router is indistinguishable from all its links failing).
func FailNode(g *Graph, n NodeID) *FailureSet {
	f := NewFailureSet()
	for _, nb := range g.Neighbors(n) {
		f.Add(nb.Link)
	}
	return f
}

// Surviving returns a copy of g with all failed and removed links left out. Node IDs and
// names are preserved; link IDs are reassigned, so the result is only
// suitable for path computations (the reconvergence baseline), not for
// cross-referencing LinkIDs with the original graph.
func Surviving(g *Graph, failures *FailureSet) *Graph {
	s := New(g.NumNodes(), g.NumLinks()-failures.Len())
	for n := 0; n < g.NumNodes(); n++ {
		s.AddNode(g.Name(NodeID(n)))
	}
	for _, l := range g.Links() {
		if !failures.Down(l.ID) && !g.Removed(l.ID) {
			s.MustAddLink(l.A, l.B, l.Weight)
		}
	}
	return s.Freeze()
}

// ConnectedUnder reports whether the graph remains connected when the failed
// links are removed. An empty graph is trivially connected.
func ConnectedUnder(g *Graph, failures *FailureSet) bool {
	n := g.NumNodes()
	if n == 0 {
		return true
	}
	visited := make([]bool, n)
	stack := []NodeID{0}
	visited[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nb := range g.Neighbors(u) {
			if failures.Down(nb.Link) || visited[nb.Node] {
				continue
			}
			visited[nb.Node] = true
			count++
			stack = append(stack, nb.Node)
		}
	}
	return count == n
}

// ReachableUnder returns the set of nodes reachable from src when the failed
// links are removed, as a boolean slice indexed by NodeID.
func ReachableUnder(g *Graph, src NodeID, failures *FailureSet) []bool {
	visited := make([]bool, g.NumNodes())
	if !g.validNode(src) {
		return visited
	}
	stack := []NodeID{src}
	visited[src] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nb := range g.Neighbors(u) {
			if failures.Down(nb.Link) || visited[nb.Node] {
				continue
			}
			visited[nb.Node] = true
			stack = append(stack, nb.Node)
		}
	}
	return visited
}

// Connected reports whether g is connected.
func Connected(g *Graph) bool { return ConnectedUnder(g, nil) }
