package graph

import (
	"math"
	"strings"
	"testing"
	"unsafe"
)

func mustLink(t *testing.T, g *Graph, a, b NodeID, w float64) LinkID {
	t.Helper()
	id, err := g.AddLink(a, b, w)
	if err != nil {
		t.Fatalf("AddLink(%d,%d,%v): %v", a, b, w, err)
	}
	return id
}

// triangle returns the frozen triangle graph with unit weights.
func triangle(t *testing.T) *Graph {
	t.Helper()
	g := New(3, 3)
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	mustLink(t, g, a, b, 1)
	mustLink(t, g, b, c, 1)
	mustLink(t, g, a, c, 1)
	return g.Freeze()
}

func TestAddNodeAndLink(t *testing.T) {
	g := New(0, 0)
	a := g.AddNode("a")
	b := g.AddNode("b")
	if a != 0 || b != 1 {
		t.Fatalf("node ids = %d, %d; want 0, 1", a, b)
	}
	id := mustLink(t, g, a, b, 2.5)
	if id != 0 {
		t.Fatalf("link id = %d; want 0", id)
	}
	if g.NumNodes() != 2 || g.NumLinks() != 1 {
		t.Fatalf("counts = %d nodes %d links; want 2, 1", g.NumNodes(), g.NumLinks())
	}
	if w := g.Weight(id); w != 2.5 {
		t.Fatalf("weight = %v; want 2.5", w)
	}
	if got := g.Link(id).Other(a); got != b {
		t.Fatalf("Other(a) = %d; want %d", got, b)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestAddLinkErrors(t *testing.T) {
	g := New(0, 0)
	a := g.AddNode("a")
	b := g.AddNode("b")
	cases := []struct {
		name string
		a, b NodeID
		w    float64
	}{
		{"self-loop", a, a, 1},
		{"unknown node", a, 99, 1},
		{"negative node", -1, b, 1},
		{"zero weight", a, b, 0},
		{"negative weight", a, b, -3},
	}
	for _, tc := range cases {
		if _, err := g.AddLink(tc.a, tc.b, tc.w); err == nil {
			t.Errorf("%s: AddLink succeeded, want error", tc.name)
		}
	}
}

func TestFreezeImmutability(t *testing.T) {
	g := triangle(t)
	if !g.Frozen() {
		t.Fatal("graph not frozen")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AddNode after Freeze did not panic")
		}
	}()
	g.AddNode("x")
}

func TestFreezeSortsAdjacency(t *testing.T) {
	g := New(0, 0)
	a := g.AddNode("a")
	c := g.AddNode("c")
	b := g.AddNode("b")
	// Insert in scrambled order.
	mustLink(t, g, a, c, 1)
	mustLink(t, g, a, b, 1)
	g.Freeze()
	// Node IDs: a=0, c=1, b=2 — sorted adjacency is [c b].
	nbrs := g.Neighbors(a)
	if len(nbrs) != 2 || nbrs[0].Node != c || nbrs[1].Node != b {
		t.Fatalf("adjacency of a = %+v; want sorted by NodeID [c b]", nbrs)
	}
}

func TestOtherPanicsOnForeignNode(t *testing.T) {
	g := triangle(t)
	defer func() {
		if recover() == nil {
			t.Fatal("Other on non-endpoint did not panic")
		}
	}()
	l := g.Link(0) // a-b
	l.Other(2)     // c is not an endpoint
}

func TestNodeByName(t *testing.T) {
	g := triangle(t)
	if got := g.NodeByName("b"); got != 1 {
		t.Fatalf("NodeByName(b) = %d; want 1", got)
	}
	if got := g.NodeByName("zzz"); got != NoNode {
		t.Fatalf("NodeByName(zzz) = %d; want NoNode", got)
	}
}

func TestFindLinkAndHasLink(t *testing.T) {
	g := triangle(t)
	if id := g.FindLink(0, 1); id != 0 {
		t.Fatalf("FindLink(0,1) = %d; want 0", id)
	}
	if id := g.FindLink(1, 0); id != 0 {
		t.Fatalf("FindLink(1,0) = %d; want 0 (undirected)", id)
	}
	if g.FindLink(0, 0) != NoLink {
		t.Fatal("FindLink(0,0) found a self-link")
	}
	if !g.HasLink(1, 2) || g.HasLink(0, 99) {
		t.Fatal("HasLink gave wrong answers")
	}
}

func TestParallelLinks(t *testing.T) {
	g := New(2, 2)
	a := g.AddNode("a")
	b := g.AddNode("b")
	l0 := mustLink(t, g, a, b, 5)
	l1 := mustLink(t, g, a, b, 1)
	g.Freeze()
	if g.Degree(a) != 2 {
		t.Fatalf("degree(a) = %d; want 2 (multigraph)", g.Degree(a))
	}
	// FindLink returns the lowest ID even though l1 is cheaper.
	if got := g.FindLink(a, b); got != l0 {
		t.Fatalf("FindLink = %d; want %d", got, l0)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	_ = l1
}

func TestCloneIndependence(t *testing.T) {
	g := triangle(t)
	c := g.Clone()
	if c.Frozen() {
		t.Fatal("clone should be mutable")
	}
	c.AddNode("d")
	if g.NumNodes() != 3 || c.NumNodes() != 4 {
		t.Fatalf("clone not independent: g=%d c=%d nodes", g.NumNodes(), c.NumNodes())
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("clone Validate: %v", err)
	}
}

func TestDegreeExtremes(t *testing.T) {
	g := New(0, 0)
	if g.MinDegree() != 0 || g.MaxDegree() != 0 {
		t.Fatal("empty graph degree extremes should be 0")
	}
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	mustLink(t, g, a, b, 1)
	mustLink(t, g, a, c, 1)
	g.Freeze()
	if g.MinDegree() != 1 {
		t.Fatalf("MinDegree = %d; want 1", g.MinDegree())
	}
	if g.MaxDegree() != 2 {
		t.Fatalf("MaxDegree = %d; want 2", g.MaxDegree())
	}
}

func TestStringer(t *testing.T) {
	g := triangle(t)
	if s := g.String(); !strings.Contains(s, "3") {
		t.Fatalf("String() = %q; want node/link counts", s)
	}
}

// fakeLen gives a slice a length and capacity it has no memory for, so the
// size guards can be reached without allocating 2³¹ nodes. Nothing may
// index or append to the slice afterwards — which is what the guards are
// for.
func fakeLen[T any](s *[]T, n int) {
	h := (*[3]int)(unsafe.Pointer(s)) // data, len, cap
	h[1], h[2] = n, n
}

// TestIdentifierSpaceGuards pins the 32-bit limits: CheckSize at both
// boundaries, AddNode panicking and AddLink erroring one past them, and
// the dart count 2·MaxLinks still fitting an int32.
func TestIdentifierSpaceGuards(t *testing.T) {
	if 2*MaxLinks > math.MaxInt32 || 2*(MaxLinks+1) <= math.MaxInt32 {
		t.Fatalf("MaxLinks = %d is not the largest link count whose dart count fits an int32", MaxLinks)
	}
	for _, c := range []struct {
		nodes, links int
		ok           bool
	}{
		{MaxNodes, MaxLinks, true}, {MaxNodes + 1, 0, false}, {0, MaxLinks + 1, false}, {0, 0, true},
	} {
		if err := CheckSize(c.nodes, c.links); (err == nil) != c.ok {
			t.Fatalf("CheckSize(%d, %d) = %v; want ok=%v", c.nodes, c.links, err, c.ok)
		}
	}

	g := New(2, 1)
	a, b := g.AddNode("a"), g.AddNode("b")
	names, adj, links := g.names, g.adj, g.links
	fakeLen(&g.links, MaxLinks)
	if id, err := g.AddLink(a, b, 1); err == nil || id != NoLink {
		t.Fatalf("AddLink on a full link table returned (%d, %v)", id, err)
	}
	g.links = links
	if _, err := g.AddLink(a, b, 1); err != nil {
		t.Fatalf("AddLink below the limit: %v", err)
	}
	fakeLen(&g.names, MaxNodes)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("AddNode on a full node table did not panic")
			}
		}()
		g.AddNode("c")
	}()
	g.names, g.adj = names, adj
	if id := g.AddNode("c"); id != 2 {
		t.Fatalf("AddNode below the limit returned %d", id)
	}
}
