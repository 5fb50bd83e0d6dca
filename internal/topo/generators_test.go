package topo

import (
	"testing"

	"recycle/internal/embedding"
	"recycle/internal/graph"
)

// TestGeneratedTopologiesLargeDiameter: the regression families must cover
// hop diameters 8..32 — beyond the DSCP pool-2 budget of 7 — while staying
// 2-edge-connected (no bridges: PR's recovery precondition) and shipping
// genus-0 embeddings (the §5 delivery guarantee's precondition).
func TestGeneratedTopologiesLargeDiameter(t *testing.T) {
	cases := []struct {
		tp       Topology
		diameter int
	}{
		{Ring(16), 8},
		{Ring(24), 12},
		{Ring(64), 32},
		{WeightedRing(20, 7), 10},
		{Grid(2, 9), 9},
		{Grid(5, 5), 8},
		{Grid(9, 9), 16},
		{Chain(4), 8},
		{Chain(16), 32},
	}
	for _, tc := range cases {
		t.Run(tc.tp.Name, func(t *testing.T) {
			g := tc.tp.Graph
			if !g.Frozen() {
				t.Fatal("generated graph not frozen")
			}
			if d := graph.HopDiameter(g); d != tc.diameter {
				t.Fatalf("hop diameter = %d; want %d", d, tc.diameter)
			}
			for _, fs := range graph.SingleFailureScenarios(g) {
				if !graph.ConnectedUnder(g, fs) {
					t.Fatalf("bridge found: %v disconnects", fs)
				}
			}
			if tc.tp.Embedding == nil {
				t.Fatal("no embedding shipped")
			}
			if err := tc.tp.Embedding.Validate(); err != nil {
				t.Fatalf("embedding invalid: %v", err)
			}
			if genus := tc.tp.Embedding.Genus(); genus != 0 {
				t.Fatalf("embedding genus = %d; want 0", genus)
			}
		})
	}
}

// TestWeightedRingWeightsVary: the weighted ring must actually decouple
// weight sums from hop counts.
func TestWeightedRingWeightsVary(t *testing.T) {
	tp := WeightedRing(16, 3)
	g := tp.Graph
	first := g.Link(0).Weight
	varied := false
	for l := 1; l < g.NumLinks(); l++ {
		if g.Link(graph.LinkID(l)).Weight != first {
			varied = true
		}
		if g.Link(graph.LinkID(l)).Weight < 1 {
			t.Fatalf("link %d weight %v < 1", l, g.Link(graph.LinkID(l)).Weight)
		}
	}
	if !varied {
		t.Fatal("all weights equal: not a weighted ring")
	}
	if w1, w2 := WeightedRing(16, 3), WeightedRing(16, 3); w1.Graph.Link(5).Weight != w2.Graph.Link(5).Weight {
		t.Fatal("weighted ring not deterministic per seed")
	}
}

// TestGeneratedSpecParsing: ByName accepts generator specs and rejects
// malformed ones.
func TestGeneratedSpecParsing(t *testing.T) {
	good := map[string]int{ // spec → expected node count
		"ring:24":    24,
		"wring:16@7": 16,
		"wring:16":   16,
		"grid:4x8":   32,
		"chain:12":   37,
	}
	for spec, nodes := range good {
		tp, err := ByName(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if tp.Graph.NumNodes() != nodes {
			t.Fatalf("%s: %d nodes; want %d", spec, tp.Graph.NumNodes(), nodes)
		}
		if tp.Name != spec && spec != "wring:16" {
			t.Fatalf("%s: name %q", spec, tp.Name)
		}
	}
	for _, spec := range []string{
		"ring:2", "ring:x", "grid:4", "grid:1x5", "grid:axb",
		"chain:0", "chain:z", "wring:16@x", "torus:3x3", "ring",
		// Beyond the 32-bit identifier space, by nodes, by links (a ring's
		// darts, rand's 2n hint) or only as a product; refused unbuilt.
		"ring:2147483648", "ring:1073741824", "wring:4294967296@3", "grid:65536x65536",
		"grid:3000000000x2", "chain:715827883", "rand:1073741824", "rand:9223372036854775807",
	} {
		if _, err := ByName(spec); err == nil {
			t.Fatalf("%s: accepted", spec)
		}
	}
}

// TestRandGenerator: the random planar family must stay inside the §5
// guarantee's preconditions — 2-edge-connected (chords never cross by
// construction, so the cycle+chords graph is planar and the Auto
// embedder must find genus 0) — while being deterministic per seed and
// actually irregular (some chords drawn).
func TestRandGenerator(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		tp := Rand(24, seed)
		g := tp.Graph
		if !g.Frozen() {
			t.Fatal("rand graph not frozen")
		}
		if g.NumNodes() != 24 {
			t.Fatalf("rand:24@%d has %d nodes", seed, g.NumNodes())
		}
		if g.NumLinks() <= 24 {
			t.Fatalf("rand:24@%d drew no chords (%d links); the family must be denser than the bare cycle",
				seed, g.NumLinks())
		}
		if !graph.TwoEdgeConnected(g) {
			t.Fatalf("rand:24@%d is not 2-edge-connected", seed)
		}
		sys, err := (embedding.Auto{Seed: 1}).Embed(g)
		if err != nil {
			t.Fatalf("rand:24@%d: %v", seed, err)
		}
		if genus := sys.Genus(); genus != 0 {
			t.Fatalf("rand:24@%d embedding genus = %d; want 0 (chords are non-crossing by construction)", seed, genus)
		}
	}
	a, b := Rand(20, 5), Rand(20, 5)
	if a.Graph.NumLinks() != b.Graph.NumLinks() {
		t.Fatal("rand not deterministic per seed")
	}
	for l := 0; l < a.Graph.NumLinks(); l++ {
		la, lb := a.Graph.Link(graph.LinkID(l)), b.Graph.Link(graph.LinkID(l))
		if la.A != lb.A || la.B != lb.B || la.Weight != lb.Weight {
			t.Fatalf("rand link %d differs across same-seed draws: %+v vs %+v", l, la, lb)
		}
	}
}

// TestRandSpecParsing: ByName accepts rand:N and rand:N@S.
func TestRandSpecParsing(t *testing.T) {
	tp, err := ByName("rand:24@7")
	if err != nil {
		t.Fatal(err)
	}
	if tp.Graph.NumNodes() != 24 || tp.Name != "rand:24@7" {
		t.Fatalf("rand:24@7 parsed to %q with %d nodes", tp.Name, tp.Graph.NumNodes())
	}
	if tp2, err := ByName("rand:16"); err != nil || tp2.Name != "rand:16@1" {
		t.Fatalf("rand:16 default seed: %v, %q", err, tp2.Name)
	}
	for _, spec := range []string{"rand:3", "rand:x", "rand:24@x"} {
		if _, err := ByName(spec); err == nil {
			t.Fatalf("%s: accepted", spec)
		}
	}
}
