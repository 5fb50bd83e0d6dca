// Package rotation implements rotation systems — combinatorial descriptions
// of cellular embeddings of graphs on orientable surfaces — together with
// face tracing, genus computation, and the complementary-cycle mapping that
// Packet Re-cycling's cycle-following tables are built from (paper §3).
//
// A classical theorem (Heffter–Edmonds–Ringel; see Mohar & Thomassen, "Graphs
// on Surfaces") states that the rotation systems of a connected graph G are
// in one-to-one correspondence with the cellular embeddings of G on
// orientable surfaces. PR therefore never needs geometry: a cyclic order of
// neighbours at every node fully determines the cycle system, and *any*
// rotation system yields a correct (if possibly high-stretch) PR
// configuration.
//
// Darts are indexed by 32-bit DartIDs. graph.MaxLinks (2³⁰−1) caps a graph
// so that the dart count 2·links, and with it every dart index, fits.
package rotation

import (
	"fmt"

	"recycle/internal/graph"
)

// Dart is a directed half of an undirected link: link l traversed from Tail
// to Head. Every link induces exactly two darts, mutual reverses. Darts are
// the unit the face-tracing permutation acts on, and — in PR terms — a dart
// is "the packet crossing link l in this direction".
type Dart struct {
	Link graph.LinkID
	Tail graph.NodeID
	Head graph.NodeID
}

// Reverse returns the dart traversing the same link in the opposite
// direction.
func (d Dart) Reverse() Dart { return Dart{Link: d.Link, Tail: d.Head, Head: d.Tail} }

// String renders the dart as "tail→head(link)".
func (d Dart) String() string {
	return fmt.Sprintf("%d→%d(l%d)", d.Tail, d.Head, d.Link)
}

// DartID densely indexes darts: dart 2l is link l oriented A→B, dart 2l+1 is
// B→A. Dense IDs let face tracing use slices instead of maps.
type DartID int32

// NoDart is the invalid dart index.
const NoDart DartID = -1

// DartsOf returns the two dart IDs of link l.
func DartsOf(l graph.LinkID) (ab, ba DartID) { return DartID(2 * l), DartID(2*l + 1) }

// ReverseID returns the dart ID of the reverse dart.
func ReverseID(d DartID) DartID { return d ^ 1 }

// LinkOf returns the link a dart belongs to.
func LinkOf(d DartID) graph.LinkID { return graph.LinkID(d / 2) }

// OutgoingDart returns the dart of link l of g that leaves node n.
func OutgoingDart(g *graph.Graph, n graph.NodeID, l graph.LinkID) DartID {
	ab, ba := DartsOf(l)
	if g.Link(l).A == n {
		return ab
	}
	return ba
}

// Head returns the node dart d of g points at.
func Head(g *graph.Graph, d DartID) graph.NodeID {
	l := g.Link(LinkOf(d))
	if d%2 == 0 {
		return l.B
	}
	return l.A
}
