package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"recycle"
	"recycle/internal/graph"
)

// smoke is the -scale the tests run at: counts, repetitions and durations
// shrink, topologies never do.
const smoke = 0.005

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestSpecMatchesBenchmarkJSON fails on any drift between the names the
// code emits and the names BENCHMARK.json promises.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the code %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	compareDefs := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json says %+v, the code %+v", kind, i, got[i], want[i])
			}
			d := want[i]
			if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
				t.Errorf("%s: malformed metric %+v", kind, d)
			}
			if seen[d.Name] {
				t.Errorf("%s: %s is used twice", kind, d.Name)
			}
			seen[d.Name] = true
		}
	}
	compareDefs("end_to_end", b.EndToEnd, endToEnd)
	compareDefs("per_layer", b.PerLayer, perLayer)
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
	}
	if !seen["setup_s"] {
		t.Error("setup_s is missing")
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}
}

// TestWorkloadsEmitTheirMetrics runs every workload bare and traced and
// requires exactly the promised names, all correct.
func TestWorkloadsEmitTheirMetrics(t *testing.T) {
	for _, w := range allWorkloads() {
		for _, trace := range []bool{false, true} {
			w, trace := w, trace
			mode := "bare"
			if trace {
				mode = "traced"
			}
			t.Run(w.Name+"/"+mode, func(t *testing.T) {
				c := newRunCtx(11, 0.05, smoke, trace, t.TempDir())
				if err := w.run(c); err != nil {
					t.Fatal(err)
				}
				if err := finish(&w, c); err != nil {
					t.Fatal(err)
				}
				if c.failed != 0 || c.attempted < 1 {
					t.Fatalf("attempted %d, failed %d", c.attempted, c.failed)
				}
				want := map[string]bool{}
				for _, d := range reported(trace) {
					want[d.Name] = true
				}
				for name, v := range c.metrics {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("%s = %v", name, v)
					}
				}
				if !trace {
					for name := range want {
						if _, ok := c.metrics[name]; !ok {
							t.Errorf("%s was not measured", name)
						}
					}
					return
				}
				if _, err := os.Stat(filepath.Join(c.out, w.Name+".trace.json")); err != nil {
					t.Error(err)
				}
				if _, ok := c.metrics["trace_overhead_frac"]; !ok {
					t.Error("trace_overhead_frac was not measured")
				}
			})
		}
	}
}

// TestTracedLayersPerWorkload pins which layers a traced run must and
// must not enter.
func TestTracedLayersPerWorkload(t *testing.T) {
	c := newRunCtx(5, 0.05, smoke, true, t.TempDir())
	if err := runFwdEgress(c); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"egress.transmit_ns", "egress.send_ns", "fib.decide_fast_ns", "driver.done_ns", "engine.submit_ns", "route.build_ms"} {
		if c.metrics[name] <= 0 {
			t.Errorf("fwd_egress: %s = %v", name, c.metrics[name])
		}
	}
	if c.metrics["fib.fastpath_frac"] != 1 || c.metrics["wire.forward_ns"] != 0 {
		t.Errorf("fwd_egress left the fast path: %v", c.metrics)
	}
	c = newRunCtx(5, 0.05, smoke, true, t.TempDir())
	if err := runFwdWire(c); err != nil {
		t.Fatal(err)
	}
	if c.metrics["wire.forward_ns"] <= 0 || c.metrics["egress.transmit_ns"] != 0 || c.metrics["fib.event.continue"] <= 0 {
		t.Errorf("fwd_wire layers: %v", c.metrics)
	}
}

// TestSeedDeterminesPool: one seed, one pool and one set of exact metrics;
// another seed, another pool.
func TestSeedDeterminesPool(t *testing.T) {
	for _, spec := range []fwdSpec{fwdClean, fwdRecycle, fwdWire} {
		a, err := buildPool(spec, 7, 8, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		b, err := buildPool(spec, 7, 8, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		other, err := buildPool(spec, 8, 8, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		if a.hash != b.hash || a.stretch != b.stretch || a.classes != b.classes || a.fib.MemBytes() != b.fib.MemBytes() {
			t.Errorf("%s: seed 7 twice gave pools %x and %x", spec.topo, a.hash, b.hash)
		}
		if a.hash == other.hash {
			t.Errorf("%s: seeds 7 and 8 gave the same pool %x", spec.topo, a.hash)
		}
		if spec.failures > 0 && (len(a.failed) != spec.failures || a.stretch <= 1) {
			t.Errorf("%s: failed links %v, stretch %v", spec.topo, a.failed, a.stretch)
		}
	}
}

// TestCheckerChecks: a wrong expectation fails the replay, and a failure
// set that cuts a node off fails the walk.
func TestCheckerChecks(t *testing.T) {
	for _, spec := range []fwdSpec{fwdRecycle, fwdWire} {
		p, err := buildPool(spec, 3, 8, nil, true)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := runReplay(p, spec, 1, 0.01, 16, nil, nil); err == nil || !strings.Contains(err.Error(), "differ") {
			t.Errorf("corrupted expectation went unnoticed: %v", err)
		}
	}
	net, err := recycle.FromTopology(fwdRecycle.topo)
	if err != nil {
		t.Fatal(err)
	}
	g := net.Graph()
	victim := graph.NodeID(0)
	for n := 1; n < g.NumNodes(); n++ {
		if g.Degree(graph.NodeID(n)) < g.Degree(victim) {
			victim = graph.NodeID(n)
		}
	}
	var cut []graph.LinkID
	for _, nb := range g.Neighbors(victim) {
		cut = append(cut, nb.Link)
	}
	if _, err := buildPool(fwdRecycle, 3, 8, cut, false); err == nil {
		t.Error("a partitioned pair went unnoticed")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(v)
	if q1 != 2.75 || q3 != 8.25 || median(v) != 5.5 {
		t.Errorf("quartiles %v %v median %v", q1, q3, median(v))
	}
	if got := spread(v); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread %v", got)
	}
}

func TestCompareJudges(t *testing.T) {
	write := func(scaleOps float64, jitter float64) string {
		path := filepath.Join(t.TempDir(), "results.jsonl")
		var buf bytes.Buffer
		for _, w := range workloads {
			for run := 0; run < 3; run++ {
				rec := record{Workload: w.Name, Correct: true, Attempted: 1, Metrics: map[string]metricValue{}}
				for _, d := range endToEnd {
					v := 100 + float64(run)
					if d.Name == "ops_per_s" && w.Name == "fwd_egress" {
						v = scaleOps * (100 + jitter*float64(run))
					}
					rec.Metrics[d.Name] = metricValue{v, d.Unit}
				}
				if err := json.NewEncoder(&buf).Encode(rec); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write(1, 1)
	for _, tc := range []struct {
		name      string
		b         string
		regressed bool
		row       string
	}{
		{"same", write(1, 1), false, "ok"},
		{"slower", write(0.5, 1), true, "REGRESSED"},
		{"faster", write(2, 1), false, "ok"},
		{"noisy", write(1, 40), false, "unresolved"},
	} {
		var out bytes.Buffer
		regressed, err := compareFiles(&out, base, tc.b)
		if err != nil {
			t.Fatal(err)
		}
		if regressed != tc.regressed {
			t.Errorf("%s: regressed = %v\n%s", tc.name, regressed, out.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, "fwd_egress") && strings.Contains(line, "ops_per_s") && !strings.HasSuffix(strings.TrimSpace(line), tc.row) {
				t.Errorf("%s: %s", tc.name, line)
			}
		}
	}
}
