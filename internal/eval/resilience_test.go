package eval

import (
	"strings"
	"testing"
	"time"

	"recycle/internal/failure"
	"recycle/internal/sim"
	"recycle/internal/telemetry"
	"recycle/internal/topo"
)

// TestResilienceGuarantee is the PR's acceptance gate and the repo's
// headline number: across ≥ 50 seeded Monte-Carlo scenario draws per
// topology — ring, grid and a random planar family — the PR scheme shows
// ZERO violation windows (no packet lost while its pair stayed
// physically connected and the link state held still), while the
// reconvergence baseline loses a non-zero fraction on the very same
// draws. This is the paper's §1 claim, quantified.
func TestResilienceGuarantee(t *testing.T) {
	draws := 50
	if testing.Short() {
		draws = 12
	}
	cfg := ResilienceConfig{Draws: draws}
	for _, name := range []string{"ring:24", "grid:4x8", "rand:24@7"} {
		tp := mustTopo(t, name)
		rows, err := RunResilience(tp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 2 {
			t.Fatalf("%s: %d rows; want PR and reconvergence", name, len(rows))
		}
		pr, reconv := rows[0], rows[1]
		if !strings.Contains(pr.Scheme, "recycling") || reconv.Scheme != "reconvergence" {
			t.Fatalf("%s: unexpected scheme rows %q, %q", name, pr.Scheme, reconv.Scheme)
		}
		if pr.Draws != draws || reconv.Draws != draws {
			t.Fatalf("%s: draws %d/%d; want %d", name, pr.Draws, reconv.Draws, draws)
		}
		if pr.Genus != 0 {
			t.Fatalf("%s: PR ran on a genus-%d embedding; the guarantee is conditioned on genus 0", name, pr.Genus)
		}
		if pr.Generated == 0 {
			t.Fatalf("%s: no probe traffic generated", name)
		}
		if pr.Generated != reconv.Generated {
			t.Fatalf("%s: schemes saw different offered loads: %d vs %d — the comparison is unfair",
				name, pr.Generated, reconv.Generated)
		}
		if pr.Violations != 0 {
			t.Fatalf("%s: PR shows %d violations across %d draws (%d draws affected); the §1 guarantee demands 0",
				name, pr.Violations, draws, pr.ViolationDraws)
		}
		if pr.ViolationFrac() != 0 || pr.ViolationDraws != 0 {
			t.Fatalf("%s: PR violation accounting inconsistent: %+v", name, pr)
		}
		if reconv.Violations == 0 {
			t.Fatalf("%s: the reconvergence baseline shows zero violations over %d draws — the harness is not stressing the convergence window",
				name, draws)
		}
		if pr.Availability() <= reconv.Availability() {
			t.Fatalf("%s: PR availability %.6f not above reconvergence %.6f",
				name, pr.Availability(), reconv.Availability())
		}
		// Accounting must close: every generated packet is delivered,
		// classified lost, or was still in flight at the horizon.
		for _, r := range rows {
			undelivered := r.Generated - r.Delivered
			classified := r.Violations + r.Transient + r.Excused
			if classified > undelivered {
				t.Fatalf("%s %s: classified losses %d exceed undelivered %d", name, r.Scheme, classified, undelivered)
			}
		}
	}
}

// TestResilienceDeterministic: the sweep replays bit-identically for a
// given master seed — the property that makes a reported violation
// reproducible by anyone with the seed.
func TestResilienceDeterministic(t *testing.T) {
	tp := mustTopo(t, "ring:16")
	cfg := ResilienceConfig{Panel: Panel{Seed: 3}, Draws: 5}
	a, err := RunResilience(tp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunResilience(tp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different rows:\n%+v\n%+v", a[i], b[i])
		}
	}
	c, err := RunResilience(tp, ResilienceConfig{Panel: Panel{Seed: 4}, Draws: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a[1] == c[1] {
		t.Fatal("different master seeds replayed the identical reconvergence row")
	}
}

// TestResilienceSharedRegistry: a sweep handed a registry (the
// `prsim resilience -metrics` path) meters every run into it, and its
// rows are the same per-run deltas a private sweep reports. The sweep
// once ignored the registry and served an empty one.
func TestResilienceSharedRegistry(t *testing.T) {
	tp := mustTopo(t, "ring:16")
	private, err := RunResilience(tp, ResilienceConfig{Panel: Panel{Seed: 3}, Draws: 5})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	rows, err := RunResilience(tp, ResilienceConfig{Panel: Panel{Seed: 3, Metrics: reg}, Draws: 5})
	if err != nil {
		t.Fatal(err)
	}
	var generated, violations uint64
	for i, r := range rows {
		if r != private[i] {
			t.Fatalf("row %d differs with a shared registry:\n%+v\n%+v", i, r, private[i])
		}
		generated += uint64(r.Generated)
		violations += uint64(r.Violations)
	}
	if violations == 0 {
		t.Fatal("no violation in the sweep; the registry check needs one")
	}
	snap := reg.Snapshot()
	if got := snap.Counter(sim.MetricGenerated); got != generated {
		t.Errorf("registry %s = %d; the rows sum to %d", sim.MetricGenerated, got, generated)
	}
	if got := snap.Counter(sim.MetricLossViolation); got != violations {
		t.Errorf("registry %s = %d; the rows sum to %d", sim.MetricLossViolation, got, violations)
	}
}

// TestResilienceCorrelatedSpec: the harness accepts composed specs — an
// SRLG storm layered over background noise — and still upholds the PR
// guarantee under correlated failures.
func TestResilienceCorrelatedSpec(t *testing.T) {
	tp := mustTopo(t, "grid:4x6")
	rows, err := RunResilience(tp, ResilienceConfig{
		Panel: Panel{Spec: "mtbf:up=3s,down=200ms+srlg:links=0;1;2,at=1s,down=500ms"},
		Draws: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Violations != 0 {
		t.Fatalf("PR violations under correlated SRLG draws: %d; want 0", rows[0].Violations)
	}
}

func TestResilienceBadSpec(t *testing.T) {
	tp := mustTopo(t, "ring:8")
	if _, err := RunResilience(tp, ResilienceConfig{Panel: Panel{Spec: "quake:mag=9"}, Draws: 1}); err == nil {
		t.Fatal("unknown spec accepted")
	}
	// A negative draw count is refused by every entry point before any
	// output: it once sized the draw list below zero and panicked.
	bad := ResilienceConfig{Panel: Panel{Topologies: []string{"ring:8"}}, Draws: -2}
	if _, err := RunResilience(tp, bad); err == nil {
		t.Fatal("RunResilience accepted Draws -2")
	}
	if _, err := TraceResilience(tp, bad); err == nil {
		t.Fatal("TraceResilience accepted Draws -2")
	}
	var b strings.Builder
	if err := WriteResilienceReport(&b, bad); err == nil || b.Len() != 0 {
		t.Fatalf("WriteResilienceReport with Draws -2: err %v, wrote %q", err, b.String())
	}
}

func TestWriteResilienceReport(t *testing.T) {
	var b strings.Builder
	err := WriteResilienceReport(&b, ResilienceConfig{Panel: Panel{Topologies: []string{"ring:12"}}, Draws: 3, Horizon: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Monte-Carlo resilience", "ring:12", "reconvergence",
		"violations", "transient", "excused", "avail"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report lacks %q:\n%s", want, out)
		}
	}
	if err := WriteResilienceReport(&strings.Builder{}, ResilienceConfig{Panel: Panel{Topologies: []string{"no-such-topo"}}, Draws: 1}); err == nil {
		t.Fatal("unknown topology accepted")
	}
}

func mustTopo(t *testing.T, name string) topo.Topology {
	t.Helper()
	tp, err := topo.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// TestResilienceProcessField: a pre-built process (e.g. a scripted
// scenario file) drives the sweep verbatim, with Spec as the label —
// and draws identically to the equivalent parsed spec, so CLI script
// runs replay through the library API.
func TestResilienceProcessField(t *testing.T) {
	tp := mustTopo(t, "ring:12")
	spec := "mtbf:up=2s,down=300ms"
	proc, err := failure.ParseScenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	bySpec, err := RunResilience(tp, ResilienceConfig{Panel: Panel{Spec: spec}, Draws: 3, Horizon: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	byProc, err := RunResilience(tp, ResilienceConfig{Panel: Panel{Process: proc}, Draws: 3, Horizon: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for i := range bySpec {
		if bySpec[i] != byProc[i] {
			t.Fatalf("Process field draws differently from the equivalent Spec:\n%+v\n%+v", bySpec[i], byProc[i])
		}
	}
	if _, err := RunResilience(tp, ResilienceConfig{Panel: Panel{Process: failure.Multi{}}, Draws: 1}); err == nil {
		t.Fatal("invalid pre-built process accepted")
	}
}
