// Command prsim regenerates the paper's evaluation artefacts and drives
// the compiled dataplane from the command line. Every mode is a verb; all
// verbs share the global flags -topo, -seed, -metrics and -trace-out:
//
//	prsim figures -fig 2a               # one Figure 2 panel (CCDF data table)
//	prsim figures -all                  # all six panels
//	prsim overheads                     # the §6 overhead comparison table
//	prsim losswindow                    # the §1 loss-window experiment
//	prsim losswindow -traffic poisson:rate=2430
//	prsim losswindow -mix -topo abilene # loss window over a panel of traffic mixes
//	prsim ablation -topo geant          # delivery versus embedding quality
//	prsim certify                       # k-failure certificates, default panel
//	prsim certify -topo ring:24 -k 3    # one topology, deeper adversary
//	prsim certify -baseline             # the reconvergence control arm
//	prsim resilience -draws 100         # Monte-Carlo sweep, losses refereed
//	prsim resilience -topo ring:24 -certify-pins 2
//	prsim resilience -trace -topo ring:24
//	prsim soak -flows 200000 -duration 2m
//	prsim compile -topo rand:2000       # compile-scaling report
//	prsim churn -edits 10               # full-vs-delta recompile + live hot-swap
//	prsim throughput -topo geant -shards 4
//	prsim throughput -topo ring:24 -wire
//	prsim tables                        # every router's tables, paper example
//	prsim tables -topo abilene -node Denver -dd weight
//	prsim tables -topo geant -faces     # the embedding's cycle system (-dot: Graphviz)
//	prsim topo -topo geant -unit-weights  # a topology in the edge-list format
//
// `prsim certify` runs the adversarial failure search of internal/certify
// over the topology panel and prints one resilience certificate per
// topology: either "provably zero violations for every failure set of ≤k
// elements" or the minimal counterexamples with their refereed violating
// walks. A non-baseline run exits non-zero unless every topology
// certifies, so CI can gate directly on the command. `prsim resilience
// -certify-pins k` closes the loop: it first certifies the reconvergence
// baseline on -topo, then replays every counterexample as a pinned extra
// draw of the Monte-Carlo sweep — PR must survive the sets that break
// reconvergence. `prsim soak` exits non-zero on a FAIL verdict.
//
// `prsim tables` prints the PR state a router holds — its cycle
// following table (paper Table 1) and its routing table with the §4.3
// DD column — and `prsim topo` writes a topology in the edge-list format
// graph.Parse loads; both default to the paper's example network. They
// replace the former prtables and topogen commands, and take topology
// names from internal/topo alone.
//
// One global -seed makes every verb reproducible; -metrics serves live
// registry snapshots over HTTP while any metered verb runs. -topo accepts
// built-in names and generator specs (ring:24, wring:16@7, grid:4x8,
// chain:12, rand:24@7); a verb that sweeps a panel runs its default
// panel without it. A -scenario starting with '@' loads a scripted
// scenario file (one spec per line, '#' comments).
//
// Each verb binds its flags, fills an internal/eval config and makes one
// report call; the reports themselves live in internal/eval. Output is
// plain text suitable for gnuplot or column(1). Exit status: 0 success,
// 1 a failed run or verdict, 2 a usage error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"recycle/internal/eval"
	"recycle/internal/failure"
	"recycle/internal/route"
	"recycle/internal/telemetry"
	"recycle/internal/topo"
	"recycle/internal/traffic"
)

// verb is one prsim subcommand: the topology panel it runs when -topo
// does not narrow it, and the runner that binds the verb's own flags.
type verb struct {
	topos []string
	run   func(g *globals, args []string) error
}

// genus0 is the three-family panel certify and resilience sweep: ring,
// grid and random — three structurally different genus-0 regimes.
var genus0 = []string{"ring:24", "grid:4x8", "rand:24@7"}

var verbs = map[string]verb{
	"figures":    {nil, cmdFigures},
	"overheads":  {[]string{"abilene", "geant", "teleglobe"}, cmdOverheads},
	"losswindow": {[]string{"abilene"}, cmdLossWindow},
	"ablation":   {[]string{"geant"}, cmdAblation},
	"certify":    {genus0, cmdCertify},
	"resilience": {genus0, cmdResilience},
	"soak":       {[]string{"geant"}, cmdSoak},
	"compile":    {[]string{"geant"}, cmdCompile},
	"churn":      {[]string{"geant"}, cmdChurn},
	"throughput": {[]string{"geant"}, cmdThroughput},
	"tables":     {[]string{"paper"}, cmdTables},
	"topo":       {[]string{"paper"}, cmdTopo},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// errUsage marks a flag-parse failure the flag package has already
// reported on stderr.
var errUsage = errors.New("usage")

// run dispatches args to a verb and maps its error to the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	names := make([]string, 0, len(verbs))
	for name := range verbs {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		fmt.Fprintf(stderr, "usage: prsim <%s> [flags] (prsim <verb> -h lists a verb's flags)\n", strings.Join(names, "|"))
		return 2
	}
	v, ok := verbs[args[0]]
	if !ok {
		fmt.Fprintf(stderr, "prsim: unknown command %q (have: %s)\n", args[0], strings.Join(names, ", "))
		return 2
	}
	err := v.run(newGlobals(args[0], v.topos, stdout, stderr), args[1:])
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errUsage):
		return 2
	}
	fmt.Fprintln(stderr, "prsim:", err)
	return 1
}

// globals binds the flags every verb shares — the topology, the master
// seed, the optional live metrics address and trace file — to one
// FlagSet, and carries the verb's output stream.
type globals struct {
	fs       *flag.FlagSet
	out      io.Writer
	topos    []string
	topo     *string
	seed     *int64
	metrics  *string
	traceOut *string
	// reg is non-nil after parse when -metrics named an address.
	reg *telemetry.Registry
	// tracer is non-nil after parse when -trace-out named a file.
	tracer *telemetry.Tracer
}

func newGlobals(verb string, topos []string, stdout, stderr io.Writer) *globals {
	fs := flag.NewFlagSet("prsim "+verb, flag.ContinueOnError)
	fs.SetOutput(stderr)
	g := &globals{fs: fs, out: stdout, topos: topos}
	g.topo = fs.String("topo", "", "topology: built-in name or generator spec (ring:24, grid:4x8, rand:24@7); default "+strings.Join(topos, ", "))
	g.seed = fs.Int64("seed", 0, "master seed (0 = the verb's documented default); every derived stream sub-seeds from it")
	g.metrics = fs.String("metrics", "", "serve telemetry snapshots on this address while the run executes (e.g. localhost:6060; /metrics negotiates Prometheus text vs JSON, /debug/pprof is mounted)")
	g.traceOut = fs.String("trace-out", "", "write the run's control-plane span tree as Chrome trace-event JSON to this file (open in chrome://tracing or Perfetto)")
	return g
}

func (g *globals) parse(args []string) error {
	if err := g.fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}
	if *g.metrics != "" {
		g.reg = telemetry.NewRegistry()
		srv, err := telemetry.Serve(*g.metrics, g.reg)
		if err != nil {
			return fmt.Errorf("-metrics %s: %w", *g.metrics, err)
		}
		fmt.Fprintf(g.out, "# telemetry: serving snapshots on http://%s/metrics (Prometheus text or JSON), pprof on /debug/pprof/\n", srv.Addr)
	}
	if *g.traceOut != "" {
		// A large ring: a CLI trace capture should hold the whole run, not
		// just its tail.
		g.tracer = telemetry.NewTracer(1 << 16)
		if g.reg != nil {
			g.reg.RegisterCollector(g.tracer)
		}
	}
	return nil
}

// panel is the eval.Panel the parsed global flags describe: -topo alone
// when given, the verb's default panel otherwise. A zero Seed is each
// harness's documented default.
func (g *globals) panel() eval.Panel {
	names := g.topos
	if *g.topo != "" {
		names = []string{*g.topo}
	}
	return eval.Panel{Topologies: names, Seed: *g.seed, Metrics: g.reg, Tracer: g.tracer}
}

func (g *globals) seedOr(def int64) int64 {
	if *g.seed != 0 {
		return *g.seed
	}
	return def
}

// writeTrace dumps the tracer's span ring — plus any per-epoch timeline
// — as Chrome trace-event JSON to the -trace-out file. A nil tracer
// (no -trace-out) is a no-op.
func (g *globals) writeTrace(epochs []telemetry.Epoch) error {
	if g.tracer == nil {
		return nil
	}
	f, err := os.Create(*g.traceOut)
	if err != nil {
		return fmt.Errorf("-trace-out: %w", err)
	}
	snap := g.tracer.SpanSnapshot()
	if err := telemetry.WriteChromeTrace(f, snap, epochs); err != nil {
		f.Close()
		return fmt.Errorf("-trace-out %s: %w", *g.traceOut, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("-trace-out: %w", err)
	}
	fmt.Fprintf(g.out, "# trace: wrote %d spans (%d evicted) to %s — open in chrome://tracing or Perfetto\n",
		len(snap.Spans), snap.Dropped, *g.traceOut)
	return nil
}

func cmdFigures(g *globals, args []string) error {
	fig := g.fs.String("fig", "", "the one panel to regenerate (2a..2f)")
	g.fs.Bool("all", false, "regenerate all six panels (what no -fig does too)")
	scenarios := g.fs.Int("scenarios", 0, "override the multi-failure scenario count")
	unit := g.fs.Bool("unit-weights", false, "use hop-count link weights instead of distances")
	if err := g.parse(args); err != nil {
		return err
	}
	return eval.WriteFiguresReport(g.out, eval.FiguresConfig{
		Panel: g.panel(), ID: *fig, Scenarios: *scenarios, UnitWeights: *unit,
	})
}

func cmdOverheads(g *globals, args []string) error {
	if err := g.parse(args); err != nil {
		return err
	}
	return eval.WriteOverheadReport(g.out, g.panel().Topologies)
}

// cmdLossWindow is the §1 panel on Abilene, or with -mix the same
// experiment over a panel of traffic mixes across -topo's diameter pair.
// A -traffic spec replaces the probe, or narrows the mix to that source.
func cmdLossWindow(g *globals, args []string) error {
	trafficArg := g.fs.String("traffic", "", "traffic source spec (poisson:rate=2430, mmpp:on=…,dwell=…, replay:path, fixed:rate=…)")
	mix := g.fs.Bool("mix", false, "run -topo's diameter pair under the default fixed/poisson/mmpp/pareto mix")
	if err := g.parse(args); err != nil {
		return err
	}
	cfg := eval.TrafficLossConfig{Panel: g.panel()}
	if *trafficArg != "" {
		src, err := traffic.ParseSpecSeeded(*trafficArg, g.seedOr(1))
		if err != nil {
			return err
		}
		cfg.Sources = []traffic.Source{src}
	}
	if *mix {
		return eval.WriteTrafficLossReport(g.out, cfg)
	}
	return eval.WriteLossWindowReport(g.out, cfg)
}

func cmdAblation(g *globals, args []string) error {
	if err := g.parse(args); err != nil {
		return err
	}
	return eval.WriteEmbeddingDeliveryReport(g.out, g.panel().Topologies[0], g.seedOr(7))
}

func parseElementMode(s string) (failure.ElementMode, error) {
	switch s {
	case "links":
		return failure.LinkFailures, nil
	case "nodes":
		return failure.NodeFailures, nil
	case "both", "links+nodes":
		return failure.LinkAndNodeFailures, nil
	}
	return 0, fmt.Errorf("unknown -mode %q (want links, nodes or both)", s)
}

// cmdCertify is the adversarial search: one resilience certificate per
// panel topology. Without -baseline the command exits non-zero unless
// every topology certifies clean, so CI gates on the command itself as
// well as the greppable headline.
func cmdCertify(g *globals, args []string) error {
	k := g.fs.Int("k", 2, "maximum simultaneous element failures to certify against")
	mode := g.fs.String("mode", "links", "element universe: links, nodes or both")
	baseline := g.fs.Bool("baseline", false, "certify the reconvergence baseline instead of compiled PR — the control arm that is expected to yield counterexamples")
	workers := g.fs.Int("workers", 0, "per-destination search fan-out (0 = auto)")
	if err := g.parse(args); err != nil {
		return err
	}
	m, err := parseElementMode(*mode)
	if err != nil {
		return err
	}
	certs, err := eval.WriteCertifyReport(g.out, eval.CertifyConfig{
		Panel: g.panel(), K: *k, Mode: m, Baseline: *baseline, Workers: *workers,
	})
	if err != nil {
		return err
	}
	if err := g.writeTrace(nil); err != nil {
		return err
	}
	if !*baseline {
		for _, c := range certs {
			if !c.Certified {
				return fmt.Errorf("certification failed: %s", c.Headline())
			}
		}
	}
	return nil
}

// cmdResilience is the Monte-Carlo sweep — PR on the compiled dataplane
// against the reconvergence baseline, every loss refereed — or with
// -trace one flight-recorded draw on the panel's first topology.
func cmdResilience(g *globals, args []string) error {
	draws := g.fs.Int("draws", 0, "scenario draws per topology (default 50)")
	scenario := g.fs.String("scenario", "", "failure process spec (failure.ParseScenario grammar; @path loads a scripted scenario file)")
	trace := g.fs.Bool("trace", false, "replay one draw with the flight recorder armed and print a recycled packet's explained cycle walk plus the per-epoch counter timeline")
	pins := g.fs.Int("certify-pins", 0, "certify the reconvergence baseline at this k on -topo first and replay its counterexamples as pinned extra draws (requires -topo)")
	if err := g.parse(args); err != nil {
		return err
	}
	cfg := eval.ResilienceConfig{Panel: g.panel(), Draws: *draws, CertifyPins: *pins}
	cfg.Spec = *scenario
	if *trace {
		return eval.WriteTraceReport(g.out, cfg)
	}
	return eval.WriteResilienceReport(g.out, cfg)
}

// cmdSoak is the whole-stack endurance run. A failing verdict is a
// non-zero exit as well as a report line, so CI can gate on either.
func cmdSoak(g *globals, args []string) error {
	flows := g.fs.Int("flows", 0, "concurrent flow count (default 100000)")
	duration := g.fs.Duration("duration", 0, "emission window (default 30s)")
	swapEvery := g.fs.Duration("swap-every", 0, "hot-swap interval (default duration/12)")
	trafficArg := g.fs.String("traffic", "", "traffic source spec for the flows (poisson:…, mmpp:…, replay:path, fixed:…)")
	scenario := g.fs.String("scenario", "", "failure process spec (@path loads a scripted scenario file)")
	shards := g.fs.Int("shards", 0, "engine shard count (0 = auto)")
	batch := g.fs.Int("batch", 0, "packets per batch (0 = default)")
	egressBw := g.fs.Float64("egress-bw", 0, "per-link egress bandwidth in bps (0 = default)")
	if err := g.parse(args); err != nil {
		return err
	}
	cfg := eval.SoakConfig{
		Panel: g.panel(), Flows: *flows, Duration: *duration, Traffic: *trafficArg,
		SwapEvery: *swapEvery, Shards: *shards, BatchSize: *batch, BandwidthBps: *egressBw,
	}
	cfg.Spec = *scenario
	res, err := eval.RunSoakReport(g.out, cfg)
	if err != nil {
		return err
	}
	// The trace is written even on a FAIL verdict — a failing soak is
	// exactly when the span timeline is worth staring at.
	if err := g.writeTrace(res.Epochs); err != nil {
		return err
	}
	if !res.Pass {
		return fmt.Errorf("soak verdict FAIL: %s", strings.Join(res.FailReasons, "; "))
	}
	return nil
}

func cmdCompile(g *globals, args []string) error {
	if err := g.parse(args); err != nil {
		return err
	}
	if err := eval.WriteCompileReport(g.out, g.panel()); err != nil {
		return err
	}
	return g.writeTrace(nil)
}

// cmdChurn times -topo first, then the rest of the paper's topologies
// and two generated ones; the live hot-swap check runs on -topo.
func cmdChurn(g *globals, args []string) error {
	edits := g.fs.Int("edits", 10, "random weight edits per topology")
	if err := g.parse(args); err != nil {
		return err
	}
	cfg := eval.ChurnConfig{Panel: g.panel(), Edits: *edits}
	live := cfg.Topologies[0]
	cfg.Topologies = []string{live}
	for _, n := range []string{"abilene", "geant", "teleglobe", "ring:64", "grid:8x8"} {
		if n != live {
			cfg.Topologies = append(cfg.Topologies, n)
		}
	}
	if err := eval.WriteChurnReport(g.out, cfg); err != nil {
		return err
	}
	return g.writeTrace(nil)
}

func cmdThroughput(g *globals, args []string) error {
	shards := g.fs.Int("shards", 0, "engine shard count (0 = auto)")
	packets := g.fs.Int("packets", 2_000_000, "decision count")
	batch := g.fs.Int("batch", 256, "packets per batch")
	wire := g.fs.Bool("wire", false, "run raw packet bytes through ForwardWire (codec per topology)")
	egressBw := g.fs.Float64("egress-bw", 100e9, "per-link egress bandwidth in bps for the end-to-end phase")
	trafficArg := g.fs.String("traffic", "", "traffic source spec; its size distribution shapes abstract packets")
	if err := g.parse(args); err != nil {
		return err
	}
	return eval.WriteThroughputReport(g.out, eval.ThroughputConfig{
		Panel: g.panel(), Shards: *shards, Packets: *packets, BatchSize: *batch,
		Wire: *wire, BandwidthBps: *egressBw, Traffic: *trafficArg,
	})
}

// cmdTables prints the PR state a router holds: its cycle following
// table and its routing table with the DD column, or with -faces the
// embedding's cycle system, or with -dot the embedding as Graphviz DOT.
func cmdTables(g *globals, args []string) error {
	node := g.fs.String("node", "", "print only this node's tables")
	faces := g.fs.Bool("faces", false, "print the embedding's cycle system")
	dot := g.fs.Bool("dot", false, "emit the embedding as Graphviz DOT (faces on edge labels)")
	dd := g.fs.String("dd", "hops", "distance discriminator: hops or weight")
	if err := g.parse(args); err != nil {
		return err
	}
	disc, ok := map[string]route.Discriminator{"hops": route.HopCount, "weight": route.WeightSum}[*dd]
	if !ok {
		return fmt.Errorf("unknown -dd %q (want hops or weight)", *dd)
	}
	return eval.WriteTablesReport(g.out, eval.TablesConfig{
		Panel: g.panel(), Node: *node, Faces: *faces, DOT: *dot, Discriminator: disc,
	})
}

// cmdTopo writes -topo in the edge-list format graph.Parse loads.
func cmdTopo(g *globals, args []string) error {
	unit := g.fs.Bool("unit-weights", false, "weight the ISP topologies' links 1 instead of by distance")
	if err := g.parse(args); err != nil {
		return err
	}
	w := topo.DistanceWeights
	if *unit {
		w = topo.UnitWeights
	}
	return eval.WriteTopoReport(g.out, g.panel().Topologies[0], w)
}
