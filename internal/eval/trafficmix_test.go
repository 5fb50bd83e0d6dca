package eval

import (
	"strings"
	"testing"
	"time"

	"recycle/internal/topo"
	"recycle/internal/traffic"
)

// TestRunTrafficLoss: on Abilene, every traffic mix reproduces the §1
// ordering — PR loses at most the detection window (no no-route or TTL
// drops) while the reconverging IGP loses strictly more.
func TestRunTrafficLoss(t *testing.T) {
	tp := topo.Abilene(topo.UnitWeights)
	// A lighter panel than the default keeps the test fast.
	sources := []traffic.Source{
		traffic.Poisson{Rate: 500, Seed: 1},
		traffic.MMPP{RateOn: 2500, MeanOn: 20 * time.Millisecond,
			MeanOff: 80 * time.Millisecond, Seed: 1},
	}
	report, err := RunTrafficLoss(tp, sources)
	if err != nil {
		t.Fatal(err)
	}
	rows := report.Rows
	if len(rows) != len(sources)*3 {
		t.Fatalf("got %d rows; want %d (sources × schemes)", len(rows), len(sources)*3)
	}
	if report.Src == report.Dst {
		t.Fatalf("degenerate probe pair %d→%d", report.Src, report.Dst)
	}
	// Per traffic source: identical offered load across schemes, PR clean.
	for i := 0; i < len(rows); i += 3 {
		pr, fcp, reconv := rows[i], rows[i+1], rows[i+2]
		if pr.Generated != fcp.Generated || pr.Generated != reconv.Generated {
			t.Fatalf("%s: offered load differs across schemes: %d/%d/%d",
				pr.Traffic, pr.Generated, fcp.Generated, reconv.Generated)
		}
		if pr.Generated == 0 {
			t.Fatalf("%s: nothing generated", pr.Traffic)
		}
		if pr.DropNoRoute != 0 || pr.DropTTL != 0 {
			t.Fatalf("%s: PR dropped outside the detection window: %+v", pr.Traffic, pr)
		}
		prLost := pr.Generated - pr.Delivered
		rcLost := reconv.Generated - reconv.Delivered
		if rcLost <= prLost {
			t.Fatalf("%s: reconvergence lost %d ≤ PR lost %d", pr.Traffic, rcLost, prLost)
		}
	}
}

func TestWriteTrafficLossReport(t *testing.T) {
	var sb strings.Builder
	sources := []traffic.Source{
		traffic.Poisson{Rate: 200, Sizes: traffic.BoundedPareto{Alpha: 1.3, MinBits: 512, MaxBits: 96_000}, Seed: 1},
	}
	cfg := TrafficLossConfig{Panel: Panel{Topologies: []string{"abilene"}}, Sources: sources}
	if err := WriteTrafficLossReport(&sb, cfg); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"loss window over traffic mixes", "poisson+bounded-pareto",
		"packet-recycling-compiled-full", "failure-carrying-packets", "reconvergence"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}
