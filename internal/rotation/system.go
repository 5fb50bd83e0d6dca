package rotation

import (
	"fmt"
	"math/rand"

	"recycle/internal/graph"
)

// System is a rotation system over a graph: for every node, a cyclic order
// of its outgoing darts. By the Heffter–Edmonds correspondence this is
// exactly a cellular embedding of the graph on an orientable surface whose
// genus is computable from Euler's formula.
//
// Two permutations on darts fully describe the embedding:
//
//	σ (NextAround): the next outgoing dart around the same tail node, and
//	φ (FaceNext):   φ(d) = σ(reverse(d)), which traces oriented faces.
//
// The PR cycle-following table at a node (paper Table 1) is a direct
// reading of σ:
//
//	cycle-following egress for ingress dart i = σ(reverse(i)) = φ(i)
//	complementary egress for failed egress d  = φ(reverse(d)) = σ(d)
//
// A System is immutable after construction and safe for concurrent use.
type System struct {
	g *graph.Graph
	// order[n] is node n's outgoing darts in cyclic order.
	order [][]DartID
	// next[d] is σ(d); prev[d] its inverse. Indexed by DartID.
	next []DartID
	prev []DartID
}

// FromLinkOrders constructs a rotation system from, per node, the cyclic
// order of incident links. Every orders[n] must be a permutation of the
// links of g's link table incident to n — parallel links appear once
// each, and so does a removed link (graph.Graph.Removed), which keeps its
// darts and its place in the embedding.
func FromLinkOrders(g *graph.Graph, orders [][]graph.LinkID) (*System, error) {
	if len(orders) != g.NumNodes() {
		return nil, fmt.Errorf("rotation: %d orders for %d nodes", len(orders), g.NumNodes())
	}
	s := &System{
		g:     g,
		order: make([][]DartID, g.NumNodes()),
		next:  make([]DartID, 2*g.NumLinks()),
		prev:  make([]DartID, 2*g.NumLinks()),
	}
	degree := make([]int, g.NumNodes())
	for _, l := range g.Links() {
		degree[l.A]++
		degree[l.B]++
	}
	seen := make([]bool, 2*g.NumLinks())
	for n := 0; n < g.NumNodes(); n++ {
		node := graph.NodeID(n)
		if len(orders[n]) != degree[n] {
			return nil, fmt.Errorf("rotation: node %d order has %d links; degree is %d", n, len(orders[n]), degree[n])
		}
		darts := make([]DartID, 0, len(orders[n]))
		for _, l := range orders[n] {
			if l < 0 || int(l) >= g.NumLinks() || !g.Link(l).Incident(node) || seen[OutgoingDart(g, node, l)] {
				return nil, fmt.Errorf("rotation: node %d order repeats or misses link %d", n, l)
			}
			darts = append(darts, OutgoingDart(g, node, l))
			seen[darts[len(darts)-1]] = true
		}
		s.order[n] = darts
	}
	s.buildPermutations()
	return s, nil
}

// MustFromLinkOrders is FromLinkOrders for orders known correct by
// construction — canonical embeddings shipped with generated topologies
// (package topo) and test fixtures. It panics on invalid orders.
func MustFromLinkOrders(g *graph.Graph, orders [][]graph.LinkID) *System {
	s, err := FromLinkOrders(g, orders)
	if err != nil {
		panic(err)
	}
	return s
}

func (s *System) buildPermutations() {
	for _, darts := range s.order {
		for i, d := range darts {
			n := darts[(i+1)%len(darts)]
			s.next[d] = n
			s.prev[n] = d
		}
	}
}

// AdjacencyOrder returns the rotation system whose cyclic orders follow the
// graph's (frozen, hence deterministic) adjacency lists. This is the
// "arbitrary embedding" every other embedding algorithm is measured
// against: correct, but with no genus optimisation.
func AdjacencyOrder(g *graph.Graph) *System {
	orders := make([][]graph.LinkID, g.NumNodes())
	for n := 0; n < g.NumNodes(); n++ {
		for _, nb := range g.Neighbors(graph.NodeID(n)) {
			orders[n] = append(orders[n], nb.Link)
		}
	}
	s, err := FromLinkOrders(g, orders)
	if err != nil {
		// Adjacency lists are by construction valid orders.
		panic(err)
	}
	return s
}

// Random returns a uniformly random rotation system, seeded. Used by the
// annealing embedder and by property tests (PR must be correct under *any*
// rotation system).
func Random(g *graph.Graph, seed int64) *System {
	rng := rand.New(rand.NewSource(seed))
	orders := make([][]graph.LinkID, g.NumNodes())
	for n := 0; n < g.NumNodes(); n++ {
		nbrs := g.Neighbors(graph.NodeID(n))
		perm := rng.Perm(len(nbrs))
		orders[n] = make([]graph.LinkID, len(nbrs))
		for i, p := range perm {
			orders[n][i] = nbrs[p].Link
		}
	}
	s, err := FromLinkOrders(g, orders)
	if err != nil {
		panic(err)
	}
	return s
}

// Graph returns the underlying graph.
func (s *System) Graph() *graph.Graph { return s.g }

// Rebind returns a system identical to s over g2, sharing every
// permutation array — the delta-recompilation hook for weight-only
// topology edits, where the embedding is untouched but downstream
// constructors insist the system and graph instances match. g2 must have
// exactly the same structure as s's graph: the same node count and the
// same links joining the same endpoints (weights are free to differ).
func (s *System) Rebind(g2 *graph.Graph) (*System, error) {
	g := s.g
	if g2.NumNodes() != g.NumNodes() || g2.NumLinks() != g.NumLinks() {
		return nil, fmt.Errorf("rotation: rebind target is %d nodes / %d links; system has %d / %d",
			g2.NumNodes(), g2.NumLinks(), g.NumNodes(), g.NumLinks())
	}
	for i, l := range g.Links() {
		l2 := g2.Link(graph.LinkID(i))
		if l.A != l2.A || l.B != l2.B {
			return nil, fmt.Errorf("rotation: rebind target link %d joins %d-%d; system has %d-%d",
				i, l2.A, l2.B, l.A, l.B)
		}
	}
	return &System{g: g2, order: s.order, next: s.next, prev: s.prev}, nil
}

// NumDarts returns the dart count (2 × links).
func (s *System) NumDarts() int { return 2 * s.g.NumLinks() }

// Dart materialises a DartID into its Dart value.
func (s *System) Dart(id DartID) Dart {
	return Dart{Link: LinkOf(id), Tail: Head(s.g, ReverseID(id)), Head: Head(s.g, id)}
}

// OutgoingDart returns the dart of link l oriented away from n.
func (s *System) OutgoingDart(n graph.NodeID, l graph.LinkID) DartID {
	return OutgoingDart(s.g, n, l)
}

// Rotation returns node n's outgoing darts in cyclic order. Callers must
// not modify the returned slice.
func (s *System) Rotation(n graph.NodeID) []DartID { return s.order[n] }

// LinkOrder returns node n's rotation as link IDs, the inverse of
// FromLinkOrders' input.
func (s *System) LinkOrder(n graph.NodeID) []graph.LinkID {
	out := make([]graph.LinkID, len(s.order[n]))
	for i, d := range s.order[n] {
		out[i] = LinkOf(d)
	}
	return out
}

// NextAround returns σ(d): the next outgoing dart around d's tail node.
func (s *System) NextAround(d DartID) DartID { return s.next[d] }

// PrevAround returns σ⁻¹(d).
func (s *System) PrevAround(d DartID) DartID { return s.prev[d] }

// FaceNext returns φ(d) = σ(reverse(d)): the dart following d along its
// oriented face. Orbits of φ are the cellular cycles of the embedding.
func (s *System) FaceNext(d DartID) DartID { return s.next[ReverseID(d)] }

// FacePrev returns φ⁻¹(d) = reverse(σ⁻¹(d)).
func (s *System) FacePrev(d DartID) DartID { return ReverseID(s.prev[d]) }

// Complementary returns the egress dart a PR router uses when egress dart d
// has failed: the first dart of the complementary cycle after the failed
// link, φ(reverse(d)), which conveniently equals σ(d) — the next outgoing
// dart in the local rotation. This is the third column of the paper's
// cycle-following table.
func (s *System) Complementary(d DartID) DartID { return s.next[d] }

// Validate checks internal consistency: σ and its inverse agree, every dart
// appears exactly once across rotations, and φ's orbits partition the darts.
func (s *System) Validate() error {
	seen := make([]bool, s.NumDarts())
	for n, darts := range s.order {
		for _, d := range darts {
			if d < 0 || int(d) >= s.NumDarts() {
				return fmt.Errorf("rotation: node %d lists invalid dart %d", n, d)
			}
			if seen[d] {
				return fmt.Errorf("rotation: dart %d listed twice", d)
			}
			seen[d] = true
			if s.Dart(d).Tail != graph.NodeID(n) {
				return fmt.Errorf("rotation: node %d lists dart %v not rooted at it", n, s.Dart(d))
			}
		}
	}
	for d := range seen {
		if !seen[d] {
			return fmt.Errorf("rotation: dart %d missing from all rotations", d)
		}
	}
	for d := 0; d < s.NumDarts(); d++ {
		if s.prev[s.next[d]] != DartID(d) {
			return fmt.Errorf("rotation: σ inverse broken at dart %d", d)
		}
	}
	return nil
}
