package eval

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"recycle/internal/route"
	"recycle/internal/topo"
)

// TestVerbReports runs each report entry point behind a prsim verb at toy
// size: the labels a reader greps for must be there. cmd/prsim's goldens
// pin the seed-pure ones byte for byte through the same calls.
func TestVerbReports(t *testing.T) {
	script := filepath.Join(t.TempDir(), "storms.txt")
	if err := os.WriteFile(script, []byte("# one process a line\nmtbf:up=2s,down=300ms\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	scripted := func(topo string) ResilienceConfig {
		return ResilienceConfig{Panel: Panel{Topologies: []string{topo}, Spec: "@" + script}, Draws: 2, Horizon: time.Second}
	}
	for _, tc := range []struct {
		name string
		run  func(w io.Writer) error
		want []string
	}{
		{"figures", func(w io.Writer) error {
			return WriteFiguresReport(w, FiguresConfig{ID: "2d", Scenarios: 20, UnitWeights: true})
		}, []string{"# Figure 2d: Abilene with 4 failures", "# scenarios="}},
		{"losswindow", func(w io.Writer) error { return WriteLossWindowReport(w, TrafficLossConfig{}) },
			[]string{"(fixed 1:100 probe traffic)", "lost(OC192)", "packet-recycling-compiled-full", "97200"}},
		{"resilience script and pins", func(w io.Writer) error {
			cfg := scripted("ring:8")
			cfg.CertifyPins = 1
			return WriteResilienceReport(w, cfg)
		}, []string{"# certify-pins: baseline reconvergence yields", "(script " + script + ")", "certified counterexample pin(s)"}},
		{"trace", func(w io.Writer) error { return WriteTraceReport(w, scripted("ring:24")) },
			[]string{"# flight-recorded resilience trace: ring:24", "## per-epoch counter timeline"}},
		{"compile", func(w io.Writer) error { return WriteCompileReport(w, Panel{Topologies: []string{"rand:24@7"}}) },
			[]string{"# compile scaling on rand:24@7: 24 nodes", "embed ", "fib shared", "recompiler       16 applies"}},
		{"throughput", func(w io.Writer) error {
			return WriteThroughputReport(w, ThroughputConfig{Panel: Panel{Topologies: []string{"ring:8"}},
				Packets: 5000, BandwidthBps: 100e9, Traffic: "poisson:rate=100"})
		}, []string{"sizes      poisson", "decide-only   5120 decisions", "end-to-end    5120 decisions"}},
		{"throughput wire", func(w io.Writer) error {
			return WriteThroughputReport(w, ThroughputConfig{Panel: Panel{Topologies: []string{"teleglobe"}},
				Packets: 5000, BatchSize: 100, Wire: true, BandwidthBps: 100e9})
		}, []string{"codec      flow-label", "decide-only   5000 frames", "end-to-end    5000 frames"}},
		{"soak", func(w io.Writer) error {
			cfg := SoakConfig{Flows: 500, Duration: 300 * time.Millisecond, SwapEvery: 100 * time.Millisecond}
			cfg.Panel = scripted("ring:8").Panel
			_, err := RunSoakReport(w, cfg)
			return err
		}, []string{"# soak: ring:8 (genus 0), 500 flows", "verdict:"}},
		{"tables", func(w io.Writer) error {
			return WriteTablesReport(w, TablesConfig{Panel: Panel{Topologies: []string{"wring:16@7"}},
				Node: "r0", Discriminator: route.WeightSum})
		}, []string{"PR header 5 bits (1 PR + 4 DD, raw 6), flow-label codec", "Routing table at node r0 (with DD column, weight-sum)"}},
		{"topo", func(w io.Writer) error { return WriteTopoReport(w, "teleglobe", topo.UnitWeights) },
			[]string{"node Montreal\n", "link Montreal Toronto 1\n"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "soak" && testing.Short() {
				t.Skip("300 ms of wall clock")
			}
			var sb strings.Builder
			if err := tc.run(&sb); err != nil {
				t.Fatal(err)
			}
			for _, want := range tc.want {
				if !strings.Contains(sb.String(), want) {
					t.Errorf("report lacks %q:\n%s", want, sb.String())
				}
			}
		})
	}

	// What a verb can get wrong reaches the caller as an error, before
	// anything is written.
	var sb strings.Builder
	for name, err := range map[string]error{
		"no topology":    WriteCompileReport(&sb, Panel{}),
		"missing script": WriteTraceReport(&sb, ResilienceConfig{Panel: Panel{Topologies: []string{"ring:8"}, Spec: "@" + script + ".nosuch"}}),
		"pins on a panel": WriteResilienceReport(&sb, ResilienceConfig{
			Panel: Panel{Topologies: []string{"ring:8", "ring:10"}}, CertifyPins: 1}),
		"zero edits":    WriteChurnReport(&sb, ChurnConfig{Panel: Panel{Topologies: []string{"ring:8"}}}),
		"unknown panel": WriteFiguresReport(&sb, FiguresConfig{ID: "9z"}),
		"bad traffic":   WriteThroughputReport(&sb, ThroughputConfig{Panel: Panel{Topologies: []string{"ring:8"}}, Traffic: "quake:mag=9"}),
		"unknown node":  WriteTablesReport(&sb, TablesConfig{Panel: Panel{Topologies: []string{"ring:8"}}, Node: "Denver"}),
		"unknown topo":  WriteTopoReport(&sb, "nosuch", topo.DistanceWeights),
	} {
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if sb.Len() != 0 {
		t.Errorf("failed reports wrote %q", sb.String())
	}
}
