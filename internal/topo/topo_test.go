package topo

import (
	"testing"

	"recycle/internal/graph"
	"recycle/internal/rotation"
)

func TestPaperExampleStructure(t *testing.T) {
	tp := PaperExample()
	g := tp.Graph
	if g.NumNodes() != 6 || g.NumLinks() != 9 {
		t.Fatalf("paper example: %d nodes %d links; want 6, 9", g.NumNodes(), g.NumLinks())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	wantEdges := [][2]string{
		{"A", "B"}, {"A", "C"}, {"A", "F"}, {"B", "C"}, {"B", "D"},
		{"C", "E"}, {"D", "E"}, {"D", "F"}, {"E", "F"},
	}
	for _, e := range wantEdges {
		if !g.HasLink(g.NodeByName(e[0]), g.NodeByName(e[1])) {
			t.Errorf("missing edge %s-%s", e[0], e[1])
		}
	}
	if !graph.TwoEdgeConnected(g) {
		t.Fatal("paper example should be 2-edge-connected")
	}
}

// TestPaperEmbeddingFaces pins the published Figure 1 cycle system:
// exactly the five faces c1..c5 from the paper (c5 being the outer cell of
// the stereographic projection).
func TestPaperEmbeddingFaces(t *testing.T) {
	tp := PaperExample()
	g, sys := tp.Graph, tp.Embedding
	if sys == nil {
		t.Fatal("paper example must ship its embedding")
	}
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	if gen := sys.Genus(); gen != 0 {
		t.Fatalf("paper embedding genus = %d; want 0 (sphere)", gen)
	}

	node := func(name string) graph.NodeID { return g.NodeByName(name) }
	dart := func(from, to string) rotation.DartID {
		l := g.FindLink(node(from), node(to))
		if l == graph.NoLink {
			t.Fatalf("no link %s-%s", from, to)
		}
		return sys.OutgoingDart(node(from), l)
	}
	wantFaces := map[string][]string{
		"c1": {"D", "E", "F"},
		"c2": {"D", "B", "C", "E"},
		"c3": {"B", "A", "C"},
		"c4": {"A", "B", "D", "F"},
		"c5": {"A", "F", "E", "C"},
	}
	fs := sys.Faces()
	if len(fs.Faces) != 5 {
		t.Fatalf("faces = %d; want 5", len(fs.Faces))
	}
	// Walk each expected face: φ must step through its node sequence.
	for name, seq := range wantFaces {
		for i := range seq {
			from, to := seq[i], seq[(i+1)%len(seq)]
			next := sys.FaceNext(dart(from, to))
			wantNext := dart(to, seq[(i+2)%len(seq)])
			if next != wantNext {
				t.Errorf("%s: φ(%s→%s) = %v; want %s→%s", name, from, to, sys.Dart(next), to, seq[(i+2)%len(seq)])
			}
		}
	}
}

// TestPaperShortestPathNarrative pins the §4 routing narrative: the SP tree
// toward F gives hop discriminators A:4, B:3, C:2, D:2, E:1, with A routing
// via B and D routing via E.
func TestPaperShortestPathNarrative(t *testing.T) {
	tp := PaperExample()
	g := tp.Graph
	f := g.NodeByName("F")
	tree := graph.ShortestPathTree(g, f, nil)

	wantHops := map[string]int32{"A": 4, "B": 3, "C": 2, "D": 2, "E": 1, "F": 0}
	for name, hops := range wantHops {
		if got := tree.Hops[g.NodeByName(name)]; got != hops {
			t.Errorf("hops(%s→F) = %d; want %d", name, got, hops)
		}
	}
	wantNext := map[string]string{"A": "B", "B": "D", "D": "E", "E": "F", "C": "E"}
	for from, to := range wantNext {
		if got := tree.NextNode(g, g.NodeByName(from)); got != g.NodeByName(to) {
			t.Errorf("next(%s→F) = %s; want %s", from, g.Name(got), to)
		}
	}
}

func TestAbilene(t *testing.T) {
	for _, w := range []Weighting{UnitWeights, DistanceWeights} {
		tp := Abilene(w)
		g := tp.Graph
		if g.NumNodes() != 11 || g.NumLinks() != 14 {
			t.Fatalf("abilene(%v): %d nodes %d links; want 11, 14", w, g.NumNodes(), g.NumLinks())
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		if !graph.TwoEdgeConnected(g) {
			t.Fatal("abilene should be 2-edge-connected")
		}
	}
	// Distance weights: Seattle-Sunnyvale is ~1100 km.
	g := Abilene(DistanceWeights).Graph
	l := g.FindLink(g.NodeByName("Seattle"), g.NodeByName("Sunnyvale"))
	if w := g.Weight(l); w < 900 || w > 1300 {
		t.Fatalf("Seattle-Sunnyvale distance = %.0f km; want ≈1100", w)
	}
}

func TestGeant(t *testing.T) {
	tp := Geant(DistanceWeights)
	g := tp.Graph
	if g.NumNodes() != 23 {
		t.Fatalf("geant nodes = %d; want 23", g.NumNodes())
	}
	if g.NumLinks() < 35 || g.NumLinks() > 40 {
		t.Fatalf("geant links = %d; want ≈37", g.NumLinks())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !graph.Connected(g) {
		t.Fatal("geant must be connected")
	}
	if !graph.TwoEdgeConnected(g) {
		t.Fatalf("geant should be 2-edge-connected; bridges: %v", graph.Bridges(g))
	}
}

func TestTeleglobe(t *testing.T) {
	tp := Teleglobe(DistanceWeights)
	g := tp.Graph
	if g.NumNodes() != 25 {
		t.Fatalf("teleglobe nodes = %d; want 25", g.NumNodes())
	}
	if g.NumLinks() < 35 || g.NumLinks() > 40 {
		t.Fatalf("teleglobe links = %d; want ≈37", g.NumLinks())
	}
	if !graph.TwoEdgeConnected(g) {
		t.Fatalf("teleglobe should be 2-edge-connected; bridges: %v", graph.Bridges(g))
	}
	// The reconstruction must support the paper's 10-failure experiment.
	if _, err := graph.SampleFailureScenarios(g, 10, 5, 1); err != nil {
		t.Fatalf("cannot sample 10-failure scenarios: %v", err)
	}
}

func TestByName(t *testing.T) {
	for _, name := range Names() {
		tp, err := ByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tp.Graph == nil || tp.Name == "" {
			t.Fatalf("%s: incomplete topology", name)
		}
	}
	if _, err := ByName("nonsense"); err == nil {
		t.Fatal("unknown name accepted")
	}
	if _, err := ByName("fig1"); err != nil {
		t.Fatal("fig1 alias should resolve")
	}
}

func TestGreatCircleSanity(t *testing.T) {
	ny := city{"NY", 40.71, -74.01}
	london := city{"London", 51.51, -0.13}
	d := greatCircleKM(ny, london)
	if d < 5400 || d > 5800 {
		t.Fatalf("NY-London = %.0f km; want ≈5570", d)
	}
	if z := greatCircleKM(ny, ny); z != 0 {
		t.Fatalf("self distance = %v; want 0", z)
	}
}

func TestWeightingString(t *testing.T) {
	if UnitWeights.String() != "unit" || DistanceWeights.String() != "distance" {
		t.Fatal("weighting names wrong")
	}
}
