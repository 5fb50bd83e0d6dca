package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// prsim runs the command in-process and returns what it wrote and its
// exit status.
func prsim(args ...string) (stdout, stderr string, code int) {
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return out.String(), errw.String(), code
}

// TestGolden pins every verb whose output is a pure function of the
// seed. The goldens are the bytes the flat-flag binary printed before
// the flat flags were deleted (its loss-window PR row on the compiled
// engine); regenerate one with `go run ./cmd/prsim <args> > testdata/<file>`
// only for an intended output change.
func TestGolden(t *testing.T) {
	for _, tc := range []struct {
		file string
		args []string
	}{
		{"figures_2a", []string{"figures", "-fig", "2a"}},
		{"figures_2e_s50_seed7", []string{"figures", "-fig", "2e", "-scenarios", "50", "-seed", "7"}},
		{"overheads", []string{"overheads"}},
		{"losswindow", []string{"losswindow"}},
		{"losswindow_poisson", []string{"losswindow", "-traffic", "poisson:rate=2430"}},
		{"losswindow_mix_abilene", []string{"losswindow", "-mix", "-topo", "abilene"}},
		{"ablation_geant", []string{"ablation", "-topo", "geant"}},
		{"certify_ring8_k1", []string{"certify", "-topo", "ring:8", "-k", "1"}},
		{"certify_ring8_baseline_k1", []string{"certify", "-baseline", "-topo", "ring:8", "-k", "1"}},
		{"resilience_ring24_d3", []string{"resilience", "-topo", "ring:24", "-draws", "3", "-seed", "1"}},
		{"tables_paper", []string{"tables"}},
		{"tables_abilene_denver", []string{"tables", "-topo", "abilene", "-node", "Denver"}},
		{"tables_geant_faces", []string{"tables", "-topo", "geant", "-faces"}},
		{"tables_paper_dot", []string{"tables", "-topo", "paper", "-dot"}},
		{"tables_abilene_weight_denver", []string{"tables", "-topo", "abilene", "-dd", "weight", "-node", "Denver"}},
		{"topo_abilene", []string{"topo", "-topo", "abilene"}},
		{"topo_geant_unit", []string{"topo", "-topo", "geant", "-unit-weights"}},
	} {
		t.Run(tc.file, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.file+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			stdout, stderr, code := prsim(tc.args...)
			if code != 0 || stderr != "" {
				t.Fatalf("prsim %v: exit %d, stderr %q", tc.args, code, stderr)
			}
			if stdout != string(want) {
				t.Errorf("prsim %v differs from testdata/%s.golden:\n--- got\n%s--- want\n%s", tc.args, tc.file, stdout, want)
			}
		})
	}
}

// TestTimedVerbs runs the verbs whose numbers are wall-clock at toy
// size: the report's labels must be there, nothing may be lost, and the
// exit status must be 0.
func TestTimedVerbs(t *testing.T) {
	if testing.Short() {
		t.Skip("timed verbs run real engines")
	}
	trace := filepath.Join(t.TempDir(), "trace.json")
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"throughput", "-topo", "ring:8", "-packets", "20000"},
			[]string{"codec      dscp", "decide-only   20224 decisions", "end-to-end    20224 decisions", "queue-full drops 0"}},
		{[]string{"throughput", "-topo", "ring:8", "-packets", "20000", "-wire", "-traffic", "poisson:rate=100"},
			[]string{"decide-only   20224 frames", "end-to-end    20224 frames"}},
		{[]string{"churn", "-topo", "ring:16", "-edits", "2"},
			[]string{"# topology churn: full vs delta recompile, 2 random", "ring:16 ", "grid:8x8 ", "compile phase",
				"# live hot-swap on ring:16: 2 delta swaps", "packets lost       0 (expected: 0)"}},
		{[]string{"compile", "-topo", "grid:4x4", "-trace-out", trace},
			[]string{"# compile scaling on grid:4x4: 16 nodes (4 pass-through), 24 links", "fib shared", "coalesced apply",
				"recompiler       16 applies, 32 edits (16 coalesced away)", "# trace: wrote "}},
		{[]string{"resilience", "-trace", "-draws", "3"},
			[]string{"# flight-recorded resilience trace: ring:24", "## recycled packet (cycle walk)", "## per-epoch counter timeline"}},
		{[]string{"soak", "-topo", "ring:8", "-flows", "500", "-duration", "300ms", "-swap-every", "100ms"},
			[]string{"# soak: ring:8 (genus 0), 500 flows", "violations             0", "verdict: PASS"}},
	} {
		t.Run(tc.args[0], func(t *testing.T) {
			stdout, stderr, code := prsim(tc.args...)
			if code != 0 {
				t.Fatalf("prsim %v: exit %d, stderr %q\n%s", tc.args, code, stderr, stdout)
			}
			for _, want := range tc.want {
				if !strings.Contains(stdout, want) {
					t.Errorf("prsim %v: report lacks %q:\n%s", tc.args, want, stdout)
				}
			}
		})
	}
	if fi, err := os.Stat(trace); err != nil || fi.Size() == 0 {
		t.Errorf("-trace-out wrote no trace: %v", err)
	}
}

// TestExitStatus: a usage error exits 2 and a failed run 1, each with
// one line on stderr and nothing on stdout.
func TestExitStatus(t *testing.T) {
	verbList := "ablation, certify, churn, compile, figures, losswindow, overheads, resilience, soak, tables, throughput, topo"
	trace := filepath.Join(t.TempDir(), "trace.txt")
	if err := os.WriteFile(trace, []byte("0.000 1000\n0.001 1000\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"no args", nil, 2, "usage: prsim <ablation|certify|"},
		{"unknown verb", []string{"frobnicate"}, 2, `prsim: unknown command "frobnicate" (have: ` + verbList + ")"},
		{"former flat flag", []string{"-fig", "2a"}, 2, "usage: prsim <"},
		{"bad -mode", []string{"certify", "-mode", "bogus"}, 1, `prsim: unknown -mode "bogus"`},
		{"negative -k", []string{"certify", "-k", "-1"}, 1, "prsim: eval: certify ring:24: certify: K must be ≥ 0 (got -1)"},
		{"missing script", []string{"resilience", "-scenario", "@testdata/nosuch.txt"}, 1, "prsim: scenario script: open testdata/nosuch.txt"},
		{"unknown topology", []string{"certify", "-topo", "nosuch"}, 1, `prsim: topo: unknown topology "nosuch"`},
		{"unknown figure", []string{"figures", "-fig", "9z"}, 1, `prsim: eval: unknown figure "9z"`},
		{"bad traffic spec", []string{"losswindow", "-traffic", "quake:mag=9"}, 1, "prsim: "},
		{"zero edits", []string{"churn", "-edits", "0"}, 1, "prsim: churn needs -edits ≥ 1 (got 0)"},
		{"pins without -topo", []string{"resilience", "-certify-pins", "2"}, 1, "prsim: certify pins need one explicit topology"},
		{"trace with pins", []string{"resilience", "-trace", "-topo", "ring:24", "-certify-pins", "2"}, 1, "prsim: eval: resilience trace replays Monte-Carlo draws only; it takes no Pins or CertifyPins"},
		{"bad -dd", []string{"tables", "-dd", "bogus"}, 1, `prsim: unknown -dd "bogus" (want hops or weight)`},
		{"unknown -node", []string{"tables", "-node", "Nowhere"}, 1, `prsim: unknown -node "Nowhere" in paper`},
		{"negative -flows", []string{"soak", "-flows", "-5"}, 1, "prsim: eval: soak Flows must be ≥ 0 (got -5)"},
		{"negative -batch", []string{"soak", "-batch", "-3"}, 1, "prsim: eval: soak BatchSize must be ≥ 0 (got -3)"},
		{"negative -duration", []string{"soak", "-duration", "-1s"}, 1, "prsim: eval: soak Duration must be ≥ 0 (got -1s)"},
		{"negative -swap-every", []string{"soak", "-swap-every", "-1s"}, 1, "prsim: eval: soak SwapEvery must be ≥ 0 (got -1s)"},
		{"soak replay traffic", []string{"soak", "-traffic", "replay:" + trace}, 1, "prsim: eval: soak traffic must be fixed, poisson or mmpp (got replay)"},
		// A draw past time.Duration's range once wrapped to a negative gap.
		{"soak tiny rate", []string{"soak", "-topo", "grid:3x3", "-flows", "10", "-duration", "1s", "-traffic", "poisson:rate=1e-12"}, 1, "prsim: traffic: poisson rate 1e-12 pps is too low"},
		{"negative -draws", []string{"resilience", "-draws", "-2"}, 1, "prsim: eval: resilience Draws must be ≥ 0 (got -2)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, code := prsim(tc.args...)
			if code != tc.code || stdout != "" {
				t.Errorf("exit %d, stdout %q; want exit %d and no output", code, stdout, tc.code)
			}
			if !strings.HasPrefix(stderr, tc.stderr) || strings.Count(stderr, "\n") != 1 {
				t.Errorf("stderr %q; want one line starting %q", stderr, tc.stderr)
			}
		})
	}
	// A flag the verb does not define is the flag package's error plus the
	// verb's usage, and -h is that usage with a clean exit.
	if _, stderr, code := prsim("certify", "-dataplane", "compiled"); code != 2 || !strings.Contains(stderr, "flag provided but not defined: -dataplane") {
		t.Errorf("undefined flag: exit %d, stderr %q", code, stderr)
	}
	if _, stderr, code := prsim("losswindow", "-h"); code != 0 || !strings.Contains(stderr, "-mix") {
		t.Errorf("-h: exit %d, stderr %q", code, stderr)
	}
}
