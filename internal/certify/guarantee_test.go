package certify

import (
	"fmt"
	"strings"
	"testing"

	"recycle/internal/core"
	"recycle/internal/topo"
)

// differentialMix is the 25-graph panel the guided search is gated on:
// random planar 2-edge-connected topologies spanning 8–16 nodes across
// decorrelated generator seeds. Under -short it is the panel's first five
// graphs (8–12 nodes, a fifteenth of the panel's k=3 sweep time); the
// default run and CI's race job keep all 25.
func differentialMix(t *testing.T) []topo.Topology {
	t.Helper()
	graphs := 25
	if testing.Short() {
		graphs = 5
	}
	out := make([]topo.Topology, 0, graphs)
	for i := 0; i < graphs; i++ {
		n := 8 + i%9
		seed := 100 + 7*i
		out = append(out, mustTopo(t, fmt.Sprintf("rand:%d@%d", n, seed)))
	}
	return out
}

// TestGuidedRediscoversExhaustive is the differential gate of the guided
// search: on every graph of the mix, for both imperfect walkers (the
// stale-table baseline and the PR Basic ablation), the guided search must
// emit exactly the counterexample set the exhaustive k≤2 sweep proves —
// nothing missing (completeness) and nothing extra (soundness +
// minimality).
func TestGuidedRediscoversExhaustive(t *testing.T) {
	for _, tp := range differentialMix(t) {
		walkers := []Walker{
			NewReconvWalker(tp.Graph),
			prWalker(t, tp, core.Basic),
		}
		for _, w := range walkers {
			cfg := Config{K: 2, Label: tp.Name}
			ex, err := Exhaustive(tp.Graph, w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			gd, err := Guided(tp.Graph, w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			exKeys, gdKeys := keysOf(ex), keysOf(gd)
			for k := range exKeys {
				if !gdKeys[k] {
					t.Errorf("%s/%s: guided search missed exhaustive counterexample %s", tp.Name, w.Name(), k)
				}
			}
			for k := range gdKeys {
				if !exKeys[k] {
					t.Errorf("%s/%s: guided search emitted %s, which the exhaustive sweep never found", tp.Name, w.Name(), k)
				}
			}
		}
	}
}

// TestCertifyGuarantee is the acceptance gate of the certification
// subsystem, probing the paper's §5 claim at its boundary:
//
//  1. the exhaustive sweep certifies zero PR violations for ALL ≤2
//     simultaneous link failures on ring:24, grid:4x8 and rand:24@7;
//  2. the identical sweep against the reconvergence (stale-table)
//     baseline emits a concrete minimal counterexample with its refereed
//     violating walk attached;
//  3. the guided search (walk-guided DFS) reproduces every exhaustive
//     k=3 counterexample on the 25-graph differential mix.
func TestCertifyGuarantee(t *testing.T) {
	for _, name := range []string{"ring:24", "grid:4x8", "rand:24@7"} {
		tp := mustTopo(t, name)

		pr, err := Exhaustive(tp.Graph, prWalker(t, tp, core.Full), Config{K: 2, Label: name, Genus: 0})
		if err != nil {
			t.Fatal(err)
		}
		if !pr.Certified {
			t.Fatalf("%s: PR failed certification: %s", name, pr.Headline())
		}
		if !strings.Contains(pr.Headline(), "certificate: CERTIFIED k=2") {
			t.Fatalf("%s: malformed headline %q", name, pr.Headline())
		}

		base, err := Exhaustive(tp.Graph, NewReconvWalker(tp.Graph), Config{K: 2, Label: name, Genus: GenusUnknown})
		if err != nil {
			t.Fatal(err)
		}
		if base.Certified || len(base.Counterexamples) == 0 {
			t.Fatalf("%s: the reconvergence baseline must produce a counterexample", name)
		}
		v := base.Counterexamples[0]
		if !v.Refereed {
			t.Fatalf("%s: counterexample %s lacks the oracle referee", name, v.Key())
		}
		if v.Walk.Delivered() || len(v.Walk.Steps) == 0 {
			t.Fatalf("%s: counterexample %s lacks its violating walk", name, v.Key())
		}
		if got := v.Flight().Explain(); !strings.Contains(got, "verdict: blackhole") {
			t.Fatalf("%s: violating walk transcript malformed:\n%s", name, got)
		}
	}

	// Part 3: k=3 differential on the 25-graph mix. PR Basic
	// supplies genuine multi-link minimal counterexamples (the reason §4.3
	// exists); the baseline supplies the single-link ones.
	for _, tp := range differentialMix(t) {
		for _, w := range []Walker{NewReconvWalker(tp.Graph), prWalker(t, tp, core.Basic)} {
			cfg := Config{K: 3, Label: tp.Name}
			ex, err := Exhaustive(tp.Graph, w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			gd, err := Guided(tp.Graph, w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			exKeys, gdKeys := keysOf(ex), keysOf(gd)
			missing := 0
			for k := range exKeys {
				if !gdKeys[k] {
					missing++
					t.Errorf("%s/%s: guided search missed k=3 counterexample %s", tp.Name, w.Name(), k)
				}
			}
			if missing == 0 && len(exKeys) != len(gdKeys) {
				t.Errorf("%s/%s: guided found %d sets vs exhaustive %d", tp.Name, w.Name(), len(gdKeys), len(exKeys))
			}
		}
	}
}
