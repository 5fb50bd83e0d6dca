// Command prsim regenerates the paper's evaluation artefacts and drives
// the compiled dataplane from the command line. The primary interface is
// subcommands sharing the global flags -topo, -seed and -metrics:
//
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
// reconvergence.
//
// One global -seed makes every mode reproducible; -metrics serves live
// JSON registry snapshots over HTTP while any metered mode runs. -topo
// accepts built-in names and generator specs (ring:24, wring:16@7,
// grid:4x8, chain:12, rand:24@7).
//
// The paper's figure panels keep their flag form:
//
//	prsim -fig 2a              # one Figure 2 panel (CCDF data table)
//	prsim -all                 # all six panels
//	prsim -overheads           # the §6 overhead comparison table
//	prsim -losswindow          # the §1 loss-window experiment
//	prsim -losswindow -traffic poisson:rate=2430
//	prsim -trafficloss -topo abilene
//	prsim -embedding-ablation geant
//
// The previous release's flat mode flags (-resilience, -soak, -churn,
// -compile, -throughput, -trafficloss) still work for one more release;
// each prints the equivalent subcommand invocation on stderr before
// running.
//
// Output is plain text suitable for gnuplot or column(1).
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"recycle/internal/core"
	"recycle/internal/dataplane"
	"recycle/internal/embedding"
	"recycle/internal/eval"
	"recycle/internal/failure"
	"recycle/internal/graph"
	"recycle/internal/header"
	"recycle/internal/rotation"
	"recycle/internal/route"
	"recycle/internal/sim"
	"recycle/internal/telemetry"
	"recycle/internal/topo"
	"recycle/internal/traffic"
)

// defaultPanel is the three-family genus-0 panel certify and resilience
// sweep when -topo does not narrow them: ring, grid and random — three
// structurally different regimes.
var defaultPanel = []string{"ring:24", "grid:4x8", "rand:24@7"}

// subcommands maps each verb to its runner. The flat legacy flags map
// onto the same runners via legacyMain.
var subcommands = map[string]func(args []string) error{
	"certify":    cmdCertify,
	"resilience": cmdResilience,
	"soak":       cmdSoak,
	"compile":    cmdCompile,
	"churn":      cmdChurn,
	"throughput": cmdThroughput,
}

func main() {
	if len(os.Args) > 1 && !strings.HasPrefix(os.Args[1], "-") {
		run, ok := subcommands[os.Args[1]]
		if !ok {
			fmt.Fprintf(os.Stderr, "prsim: unknown command %q (have: certify, resilience, soak, compile, churn, throughput)\n", os.Args[1])
			os.Exit(2)
		}
		if err := run(os.Args[2:]); err != nil {
			fatal(err)
		}
		return
	}
	legacyMain()
}

// globals binds the flags every subcommand shares — the topology, the
// master seed and the optional live metrics address — to one FlagSet.
type globals struct {
	fs       *flag.FlagSet
	topo     *string
	seed     *int64
	metrics  *string
	traceOut *string
	// reg is non-nil after parse when -metrics named an address.
	reg *telemetry.Registry
	// tracer is non-nil after parse when -trace-out named a file.
	tracer *telemetry.Tracer
}

func newGlobals(verb, defTopo string) *globals {
	fs := flag.NewFlagSet("prsim "+verb, flag.ExitOnError)
	g := &globals{fs: fs}
	g.topo = fs.String("topo", defTopo, "topology: built-in name or generator spec (ring:24, grid:4x8, rand:24@7)")
	g.seed = fs.Int64("seed", 0, "master seed (0 = the mode's documented default); every derived stream sub-seeds from it")
	g.metrics = fs.String("metrics", "", "serve telemetry snapshots on this address while the run executes (e.g. localhost:6060; /metrics negotiates Prometheus text vs JSON, /debug/pprof is mounted)")
	g.traceOut = fs.String("trace-out", "", "write the run's control-plane span tree as Chrome trace-event JSON to this file (open in chrome://tracing or Perfetto)")
	return g
}

func (g *globals) parse(args []string) error {
	if err := g.fs.Parse(args); err != nil {
		return err
	}
	if *g.metrics != "" {
		g.reg = telemetry.NewRegistry()
		srv, err := telemetry.Serve(*g.metrics, g.reg)
		if err != nil {
			return fmt.Errorf("-metrics %s: %w", *g.metrics, err)
		}
		fmt.Printf("# telemetry: serving snapshots on http://%s/metrics (Prometheus text or JSON), pprof on /debug/pprof/\n", srv.Addr)
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
	defer f.Close()
	snap := g.tracer.SpanSnapshot()
	if err := telemetry.WriteChromeTrace(f, snap, epochs); err != nil {
		return fmt.Errorf("-trace-out %s: %w", *g.traceOut, err)
	}
	fmt.Printf("# trace: wrote %d spans (%d evicted) to %s — open in chrome://tracing or Perfetto\n",
		len(snap.Spans), snap.Dropped, *g.traceOut)
	return nil
}

// topoSet reports whether -topo was given explicitly (its default is a
// fallback, not a panel narrowing).
func (g *globals) topoSet() bool {
	set := false
	g.fs.Visit(func(f *flag.Flag) { set = set || f.Name == "topo" })
	return set
}

func (g *globals) seedOr(def int64) int64 {
	if *g.seed != 0 {
		return *g.seed
	}
	return def
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
func cmdCertify(args []string) error {
	g := newGlobals("certify", "")
	k := g.fs.Int("k", 2, "maximum simultaneous element failures to certify against")
	mode := g.fs.String("mode", "links", "element universe: links, nodes or both")
	baseline := g.fs.Bool("baseline", false, "certify the reconvergence baseline instead of compiled PR — the control arm that is expected to yield counterexamples")
	workers := g.fs.Int("workers", 0, "per-destination search fan-out (0 = auto)")
	restarts := g.fs.Int("restarts", 0, "annealing restarts for the guided search (0 = default)")
	iters := g.fs.Int("iters", 0, "annealing iterations per restart (0 = default)")
	if err := g.parse(args); err != nil {
		return err
	}
	names := defaultPanel
	if g.topoSet() {
		names = []string{*g.topo}
	}
	m, err := parseElementMode(*mode)
	if err != nil {
		return err
	}
	cfg := eval.CertifyConfig{
		Panel:    eval.Panel{Topologies: names, Seed: g.seedOr(1), Metrics: g.reg, Tracer: g.tracer},
		K:        *k,
		Mode:     m,
		Baseline: *baseline,
		Workers:  *workers,
		Restarts: *restarts,
		Iters:    *iters,
	}
	certs, err := eval.WriteCertifyReport(os.Stdout, cfg)
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

func cmdResilience(args []string) error {
	g := newGlobals("resilience", "ring:24")
	draws := g.fs.Int("draws", 0, "scenario draws per topology (default 50)")
	scenario := g.fs.String("scenario", "", "failure process spec (failure.ParseScenario grammar; @path loads a scripted scenario file)")
	trace := g.fs.Bool("trace", false, "replay one draw with the flight recorder armed and print a recycled packet's explained cycle walk plus the per-epoch counter timeline")
	pins := g.fs.Int("certify-pins", 0, "certify the reconvergence baseline at this k on -topo first and replay its counterexamples as pinned extra draws (requires -topo)")
	if err := g.parse(args); err != nil {
		return err
	}
	if *trace {
		return runTrace(*g.topo, g.topoSet(), *scenario, *draws, g.seedOr(1), g.reg)
	}
	return runResilience(*g.topo, g.topoSet(), *scenario, *draws, g.seedOr(1), *pins)
}

func cmdSoak(args []string) error {
	g := newGlobals("soak", "geant")
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
	return runSoak(*g.topo, *scenario, eval.SoakConfig{
		Panel:        eval.Panel{Seed: g.seedOr(1), Metrics: g.reg, Tracer: g.tracer},
		Flows:        *flows,
		Duration:     *duration,
		Traffic:      *trafficArg,
		SwapEvery:    *swapEvery,
		Shards:       *shards,
		BatchSize:    *batch,
		BandwidthBps: *egressBw,
	}, g)
}

func cmdCompile(args []string) error {
	g := newGlobals("compile", "geant")
	if err := g.parse(args); err != nil {
		return err
	}
	if err := runCompile(*g.topo, g.seedOr(1), g.tracer); err != nil {
		return err
	}
	return g.writeTrace(nil)
}

func cmdChurn(args []string) error {
	g := newGlobals("churn", "geant")
	edits := g.fs.Int("edits", 10, "random weight edits per topology")
	if err := g.parse(args); err != nil {
		return err
	}
	if err := runChurn(*g.topo, *edits, g.seedOr(1), g.reg, g.tracer); err != nil {
		return err
	}
	return g.writeTrace(nil)
}

func cmdThroughput(args []string) error {
	g := newGlobals("throughput", "geant")
	shards := g.fs.Int("shards", 0, "engine shard count (0 = auto)")
	packets := g.fs.Int("packets", 2_000_000, "decision count")
	batch := g.fs.Int("batch", 256, "packets per batch")
	wire := g.fs.Bool("wire", false, "run raw packet bytes through ForwardWire (codec per topology)")
	egressBw := g.fs.Float64("egress-bw", 100e9, "per-link egress bandwidth in bps for the end-to-end phase")
	trafficArg := g.fs.String("traffic", "", "traffic source spec; its size distribution shapes abstract packets")
	if err := g.parse(args); err != nil {
		return err
	}
	var src traffic.Source
	if *trafficArg != "" {
		var err error
		if src, err = traffic.ParseSpecSeeded(*trafficArg, g.seedOr(1)); err != nil {
			return err
		}
	}
	return runThroughput(*g.topo, *shards, *packets, *batch, *wire, *egressBw, src, g.seedOr(1), g.reg)
}

// legacyShim prints the subcommand invocation equivalent to the flat
// mode flags just parsed — the one-release migration breadcrumb.
func legacyShim(verb string, drop ...string) {
	skip := map[string]bool{verb: true}
	for _, f := range drop {
		skip[f] = true
	}
	parts := []string{"prsim", verb}
	flag.Visit(func(f *flag.Flag) {
		if skip[f.Name] {
			return
		}
		if f.Value.String() == "true" {
			if b, ok := f.Value.(interface{ IsBoolFlag() bool }); ok && b.IsBoolFlag() {
				parts = append(parts, "-"+f.Name)
				return
			}
		}
		parts = append(parts, "-"+f.Name, f.Value.String())
	})
	fmt.Fprintf(os.Stderr, "prsim: flat mode flags are deprecated and will be removed next release; use: %s\n", strings.Join(parts, " "))
}

// legacyMain is the previous release's flat-flag interface, kept for one
// release. Modes with a subcommand equivalent print it via legacyShim
// before running; the figure/overhead/loss-window panels remain
// flag-only.
func legacyMain() {
	var (
		figID      = flag.String("fig", "", "figure panel to regenerate (2a..2f)")
		all        = flag.Bool("all", false, "regenerate every Figure 2 panel")
		overheads  = flag.Bool("overheads", false, "print the §6 overhead comparison")
		lossWindow = flag.Bool("losswindow", false, "run the §1 loss-window experiment")
		ablation   = flag.String("embedding-ablation", "", "delivery-vs-embedding report for a topology")
		scenarios  = flag.Int("scenarios", 0, "override multi-failure scenario count")
		seed       = flag.Int64("seed", 0, "global seed: figures, -traffic sources, -churn edits and -resilience draws all honour it (0 = each panel's default)")
		unit       = flag.Bool("unit-weights", false, "use hop-count link weights instead of distances")
		plane      = flag.String("dataplane", "interpreted", "PR forwarding engine: interpreted (core.Protocol) or compiled (dataplane FIB)")
		throughput = flag.Bool("throughput", false, "deprecated: use `prsim throughput`")
		topoName   = flag.String("topo", "geant", "topology (built-in name or generator spec like ring:24)")
		shards     = flag.Int("shards", 0, "engine shard count (0 = auto)")
		packets    = flag.Int("packets", 2_000_000, "decision count for -throughput")
		batchSize  = flag.Int("batch", 256, "packets per batch for -throughput")
		wire       = flag.Bool("wire", false, "-throughput on raw packet bytes through ForwardWire (codec per topology)")
		trafficArg = flag.String("traffic", "", "traffic source spec (poisson:rate=2430, mmpp:on=…,dwell=…, replay:path, fixed:rate=…) for -losswindow; sizes abstract -throughput packets")
		trafficMix = flag.Bool("trafficloss", false, "run the loss-window experiment over a panel of traffic mixes")
		egressBw   = flag.Float64("egress-bw", 100e9, "per-link egress bandwidth in bps for -throughput's end-to-end phase")
		churn      = flag.Bool("churn", false, "deprecated: use `prsim churn`")
		churnEdits = flag.Int("edits", 10, "random weight edits per topology for -churn")
		resilience = flag.Bool("resilience", false, "deprecated: use `prsim resilience`")
		scenario   = flag.String("scenario", "", "failure process spec for -resilience (failure.ParseScenario grammar; @path loads a scripted scenario file)")
		draws      = flag.Int("draws", 0, "scenario draws per topology for -resilience (default 50)")
		metrics    = flag.String("metrics", "", "serve the telemetry registry as JSON on this address while the run executes (e.g. localhost:6060)")
		trace      = flag.Bool("trace", false, "with -resilience: arm the flight recorder on one traced draw and print a recycled packet's explained cycle walk plus the per-epoch counter timeline")
		compileRpt = flag.Bool("compile", false, "deprecated: use `prsim compile`")
		soak       = flag.Bool("soak", false, "deprecated: use `prsim soak`")
		soakDur    = flag.Duration("duration", 0, "emission window for -soak (default 30s)")
		soakFlows  = flag.Int("flows", 0, "concurrent flow count for -soak (default 100000)")
		swapEvery  = flag.Duration("swap-every", 0, "hot-swap interval for -soak (default duration/12)")
	)
	flag.Parse()
	topoSet := false
	flag.Visit(func(f *flag.Flag) { topoSet = topoSet || f.Name == "topo" })

	// One global -seed: panels with their own historical defaults keep
	// them when the flag is absent.
	seedOr := func(def int64) int64 {
		if *seed != 0 {
			return *seed
		}
		return def
	}

	var trafficSrc traffic.Source
	if *trafficArg != "" {
		var err error
		if trafficSrc, err = traffic.ParseSpecSeeded(*trafficArg, seedOr(1)); err != nil {
			fatal(err)
		}
	}

	if *plane != "interpreted" && *plane != "compiled" {
		fatal(fmt.Errorf("unknown -dataplane %q (want interpreted or compiled)", *plane))
	}
	if *plane == "compiled" && !*lossWindow && !*throughput {
		fatal(fmt.Errorf("-dataplane applies to -losswindow only (-throughput always runs the compiled engine)"))
	}
	if *trace && !*resilience {
		fatal(fmt.Errorf("-trace requires -resilience"))
	}

	// One process-wide registry, served over HTTP for the run's duration
	// when -metrics names an address. Modes that run live metered
	// components (-throughput, -churn, -resilience -trace) feed it; a nil
	// registry keeps their hot paths uninstrumented.
	var mreg *telemetry.Registry
	if *metrics != "" {
		mreg = telemetry.NewRegistry()
		srv, err := telemetry.Serve(*metrics, mreg)
		if err != nil {
			fatal(fmt.Errorf("-metrics %s: %w", *metrics, err))
		}
		fmt.Printf("# telemetry: serving JSON snapshots on http://%s/metrics\n", srv.Addr)
	}

	switch {
	case *all:
		for _, f := range eval.Figures() {
			if err := runFigure(f, *scenarios, *seed, *unit); err != nil {
				fatal(err)
			}
			fmt.Println()
		}
	case *figID != "":
		f, err := eval.FigureByID(*figID)
		if err != nil {
			fatal(err)
		}
		if err := runFigure(f, *scenarios, *seed, *unit); err != nil {
			fatal(err)
		}
	case *overheads:
		if err := eval.WriteOverheadReport(os.Stdout, []string{"abilene", "geant", "teleglobe"}); err != nil {
			fatal(err)
		}
	case *lossWindow:
		if err := runLossWindow(*plane, trafficSrc); err != nil {
			fatal(err)
		}
	case *trafficMix:
		// A -traffic spec narrows the panel to that one source; the
		// default fixed/poisson/mmpp/pareto mix runs otherwise.
		var panel []traffic.Source
		if trafficSrc != nil {
			panel = []traffic.Source{trafficSrc}
		}
		cfg := eval.TrafficLossConfig{
			Panel:   eval.Panel{Topologies: []string{*topoName}},
			Sources: panel,
		}
		if err := eval.WriteTrafficLossReport(os.Stdout, cfg); err != nil {
			fatal(err)
		}
	case *throughput:
		legacyShim("throughput", "traffic")
		if err := runThroughput(*topoName, *shards, *packets, *batchSize, *wire, *egressBw, trafficSrc, seedOr(1), mreg); err != nil {
			fatal(err)
		}
	case *churn:
		legacyShim("churn")
		if err := runChurn(*topoName, *churnEdits, seedOr(1), mreg, nil); err != nil {
			fatal(err)
		}
	case *compileRpt:
		legacyShim("compile")
		if err := runCompile(*topoName, seedOr(1), nil); err != nil {
			fatal(err)
		}
	case *resilience:
		legacyShim("resilience")
		if *trace {
			if err := runTrace(*topoName, topoSet, *scenario, *draws, seedOr(1), mreg); err != nil {
				fatal(err)
			}
			break
		}
		if err := runResilience(*topoName, topoSet, *scenario, *draws, seedOr(1), 0); err != nil {
			fatal(err)
		}
	case *soak:
		legacyShim("soak")
		if err := runSoak(*topoName, *scenario, eval.SoakConfig{
			Panel:        eval.Panel{Seed: seedOr(1), Metrics: mreg},
			Flows:        *soakFlows,
			Duration:     *soakDur,
			Traffic:      *trafficArg,
			SwapEvery:    *swapEvery,
			Shards:       *shards,
			BatchSize:    *batchSize,
			BandwidthBps: *egressBw,
		}, nil); err != nil {
			fatal(err)
		}
	case *ablation != "":
		if err := eval.WriteEmbeddingDeliveryReport(os.Stdout, *ablation, seedOr(7)); err != nil {
			fatal(err)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: prsim <certify|resilience|soak|compile|churn|throughput> [flags], or legacy figure flags (-fig, -all, -overheads, -losswindow, -trafficloss, -embedding-ablation)")
		flag.Usage()
		os.Exit(2)
	}
}

func runFigure(f eval.Figure, scenarios int, seed int64, unitWeights bool) error {
	if scenarios > 0 {
		f.Scenarios = scenarios
	}
	if seed != 0 {
		f.Seed = seed
	}
	f.UnitWeights = unitWeights
	exp, err := eval.RunFigure(f)
	if err != nil {
		return err
	}
	return eval.WriteCCDF(os.Stdout, exp, fmt.Sprintf("Figure %s: %s", f.ID, f.Title))
}

// runLossWindow reproduces the §1 motivation: packets lost on a loaded
// OC-192 during a one-second outage, per scheme. The plane argument picks
// PR's engine: the interpreted core.Protocol or the compiled FIB. A
// non-nil traffic source replaces the fixed-interval probe, giving every
// scheme the identical Poisson/MMPP/replayed offered load.
func runLossWindow(plane string, source traffic.Source) error {
	tp := topo.Abilene(topo.UnitWeights)
	g := tp.Graph
	src := g.NodeByName("Seattle")
	dst := g.NodeByName("LosAngeles")

	sys, err := (embedding.Auto{Seed: 1}).Embed(g)
	if err != nil {
		return err
	}
	prot, err := core.New(g, sys, route.Build(g, route.HopCount), core.Config{Variant: core.Full})
	if err != nil {
		return err
	}
	var prScheme sim.Scheme = &sim.PRScheme{Protocol: prot}
	if plane == "compiled" {
		fib, err := dataplane.Compile(prot)
		if err != nil {
			return err
		}
		prScheme = &sim.CompiledPRScheme{FIB: fib}
	}
	// 20%-loaded OC-192 at 1 kB packets ≈ 243k pps; scaled 1:100 for the
	// simulation (2430 pps) — losses scale linearly with rate.
	const pps = 2430.0
	const scale = 100.0
	schemes := []sim.Scheme{
		prScheme,
		&sim.FCPScheme{},
		&sim.ReconvScheme{},
	}
	trafficName := "fixed 1:100 probe"
	if source != nil {
		trafficName = source.Name()
	}
	fmt.Printf("# §1 loss window: Seattle→LosAngeles flow (%s traffic), first-hop link fails at t=1s\n", trafficName)
	if source == nil {
		// The ×100 extrapolation describes the fixed 1:100 probe only; a
		// -traffic source runs at whatever rate it was configured with.
		fmt.Printf("# OC-192 at 20%% load ≈ 243k pps of 1 kB packets (simulated 1:%.0f)\n", scale)
		fmt.Printf("%-28s %-10s %-10s %-12s %-10s\n", "scheme", "generated", "delivered", "lost(scaled)", "lost(OC192)")
	} else {
		fmt.Printf("%-28s %-10s %-10s %-12s\n", "scheme", "generated", "delivered", "lost")
	}
	for _, s := range schemes {
		cfg := sim.Config{
			Graph:          g,
			Scheme:         s,
			Horizon:        3 * time.Second,
			DetectionDelay: 50 * time.Millisecond,
		}
		var res sim.LossWindowResult
		if source != nil {
			res, err = sim.RunLossWindowTraffic(cfg, src, dst, source, time.Second)
		} else {
			res, err = sim.RunLossWindow(cfg, src, dst, pps, time.Second)
		}
		if err != nil {
			return err
		}
		lost := res.Generated - res.Delivered
		if source == nil {
			fmt.Printf("%-28s %-10d %-10d %-12d %-10.0f\n",
				res.Scheme, res.Generated, res.Delivered, lost, float64(lost)*scale)
		} else {
			fmt.Printf("%-28s %-10d %-10d %-12d\n",
				res.Scheme, res.Generated, res.Delivered, lost)
		}
	}
	return nil
}

// runThroughput measures the compiled dataplane over a realistic mix of
// shortest-path and cycle-following packets, with one link failed so
// recovery branches are exercised. It runs the identical workload twice
// — decide-only (the engine's PR-1/PR-2 shape, for comparability) and
// end-to-end through the egress stage's per-dart paced transmit queues —
// and reports both rates plus the transmit-queue drop counts. With
// wire=true the workload is raw packet bytes instead — IPv4 or IPv6
// frames matching the codec Compile selected — pushed through
// ForwardWire's byte-rewriting fast path. A non-nil traffic source
// draws abstract packet sizes from its size distribution, so egress
// pacing sees the configured mix instead of uniform 1 kB packets.
func runThroughput(topoName string, shards, packets, batchSize int, wire bool, egressBw float64, source traffic.Source, seed int64, reg *telemetry.Registry) error {
	tp, err := topo.ByName(topoName)
	if err != nil {
		return err
	}
	g := tp.Graph
	sys := tp.Embedding
	if sys == nil {
		if sys, err = (embedding.Auto{Seed: 1}).Embed(g); err != nil {
			return err
		}
	}
	prot, err := core.New(g, sys, route.Build(g, route.HopCount), core.Config{Variant: core.Full})
	if err != nil {
		return err
	}
	fib, err := dataplane.Compile(prot)
	if err != nil {
		return err
	}
	if batchSize < 1 {
		batchSize = 256
	}
	batches := (packets + batchSize - 1) / batchSize

	// runPhase replays the same pre-generated workload through a fresh
	// engine, with or without an egress stage. engShards records the
	// shard count the engine actually ran with (it applies its own
	// default when the flag is 0).
	var engShards int
	runPhase := func(egress dataplane.Egress) (uint64, time.Duration, error) {
		free := make(chan *dataplane.Batch, 1024)
		eng := dataplane.NewEngine(fib, dataplane.EngineConfig{
			Shards:  shards,
			Egress:  egress,
			OnDone:  func(b *dataplane.Batch) { free <- b },
			Metrics: reg,
		})
		engShards = eng.Shards()
		eng.SetLink(0, true) // exercise detect/continue/resume branches too
		// Pre-generate the workload: a mostly-shortest-path mix with one
		// in four packets cycle following. Every packet carries a
		// concrete ingress dart, so recycled batches stay valid whatever
		// header the previous pass left behind. The same seed in both
		// phases makes them replay the identical mix.
		rng := rand.New(rand.NewSource(seed))
		var sizes traffic.Stream
		if source != nil {
			sizes = source.Stream()
		}
		const pool = 64
		// Wire frames mutate in place (marks, TTL, checksum); each batch
		// keeps a pristine template per frame and restores the whole
		// header every pass, so recycled batches replay the identical
		// workload — recovery branches included — instead of
		// accumulating PR marks.
		templates := make(map[*dataplane.Batch][][]byte, pool)
		for i := 0; i < pool; i++ {
			b := &dataplane.Batch{}
			if wire {
				b.Wire = make([]dataplane.WirePacket, batchSize)
				tmpl := make([][]byte, batchSize)
				for j := range b.Wire {
					node := graph.NodeID(rng.Intn(g.NumNodes()))
					dst := graph.NodeID(rng.Intn(g.NumNodes()))
					buf, err := fib.NewWireFrame(node, dst)
					if err != nil {
						return 0, 0, err
					}
					ingress := rotation.NoDart
					if rng.Intn(4) == 0 {
						// One in four frames is mid-recovery: PR-marked
						// with a concrete ingress dart, so the
						// cycle-following branch runs in wire mode too
						// (matching the abstract workload's mix).
						nb := g.Neighbors(node)[rng.Intn(g.Degree(node))]
						ingress = rotation.ReverseID(sys.OutgoingDart(node, nb.Link))
						if err := markWireFrame(fib, buf, uint32(rng.Intn(1<<fib.DDBits()))); err != nil {
							return 0, 0, err
						}
					}
					tmpl[j] = append([]byte(nil), buf...)
					b.Wire[j] = dataplane.WirePacket{Node: node, Ingress: ingress, Buf: buf}
				}
				templates[b] = tmpl
			} else {
				b.Pkts = make([]dataplane.Packet, batchSize)
				for j := range b.Pkts {
					node := graph.NodeID(rng.Intn(g.NumNodes()))
					nb := g.Neighbors(node)[rng.Intn(g.Degree(node))]
					var bits int32
					if sizes != nil {
						if _, sz, ok := sizes.Next(); ok {
							bits = int32(sz)
						}
					}
					b.Pkts[j] = dataplane.Packet{
						Node:    node,
						Dst:     graph.NodeID(rng.Intn(g.NumNodes())),
						Ingress: rotation.ReverseID(sys.OutgoingDart(node, nb.Link)),
						Bits:    bits,
						Hdr:     core.Header{PR: rng.Intn(4) == 0, DD: float64(rng.Intn(8))},
					}
				}
			}
			free <- b
		}
		start := time.Now()
		for i := 0; i < batches; i++ {
			b := <-free
			if wire {
				tmpl := templates[b]
				for j := range b.Wire {
					copy(b.Wire[j].Buf, tmpl[j])
				}
			}
			for !eng.Submit(b) {
				// Rings full: the workers are behind; yield and retry.
				time.Sleep(10 * time.Microsecond)
			}
		}
		decided := eng.Close()
		return decided, time.Since(start), nil
	}

	unit := "decisions"
	if wire {
		unit = "frames"
	}
	fmt.Printf("# compiled dataplane throughput (ingest → decide → transmit)\n")
	fmt.Printf("topology   %s (%d nodes, %d links)\n", tp.Name, g.NumNodes(), g.NumLinks())
	fmt.Printf("codec      %s (%d DD bits)\n", fib.Codec(), fib.DDBits())
	fmt.Printf("batch      %d packets\n", batchSize)
	if source != nil && !wire {
		fmt.Printf("sizes      %s\n", source.Name())
	}

	decided, elapsed, err := runPhase(nil)
	if err != nil {
		return err
	}
	fmt.Printf("shards     %d\n", engShards)
	fmt.Printf("decide-only   %d %s in %v — %.1f M %s/sec\n",
		decided, unit, elapsed.Round(time.Millisecond), float64(decided)/elapsed.Seconds()/1e6, unit)

	// The egress report reads tx.* counters, so the transmit phase always
	// gets a registry — the shared -metrics one when serving, a private
	// one otherwise (the decide phase stays uninstrumented either way).
	txReg := reg
	if txReg == nil {
		txReg = telemetry.NewRegistry()
	}
	tx := dataplane.NewTxQueue(fib, dataplane.TxConfig{BandwidthBps: egressBw, Metrics: txReg})
	decided, elapsed, err = runPhase(tx)
	if err != nil {
		return err
	}
	st := txReg.Snapshot()
	fmt.Printf("end-to-end    %d %s in %v — %.1f M %s/sec (egress %.0f Gb/s links)\n",
		decided, unit, elapsed.Round(time.Millisecond), float64(decided)/elapsed.Seconds()/1e6, unit, egressBw/1e9)
	fmt.Printf("egress        sent %d (%.1f Gb) | queue-full drops %d | link-down drops %d\n",
		st.Counter(dataplane.MetricTxSent), float64(st.Counter(dataplane.MetricTxSentBits))/1e9,
		st.Counter(dataplane.MetricTxDropQueueFull), st.Counter(dataplane.MetricTxDropLinkDown))
	return nil
}

// markWireFrame stamps a PR mark with the given DD code into a frame in
// place, in the frame's address family, repairing the IPv4 checksum.
func markWireFrame(fib *dataplane.FIB, buf []byte, dd uint32) error {
	if fib.Codec() == dataplane.CodecFlowLabel {
		fl, err := header.EncodeFlowLabel(header.Mark{PR: true, DD: dd})
		if err != nil {
			return err
		}
		buf[1] = buf[1]&0xF0 | byte(fl>>16)
		buf[2] = byte(fl >> 8)
		buf[3] = byte(fl)
		return nil
	}
	dscp, err := header.EncodeDSCP(header.Mark{PR: true, DD: dd})
	if err != nil {
		return err
	}
	buf[1] = dscp << 2
	buf[10], buf[11] = 0, 0
	ck := header.Checksum(buf[:header.HeaderLen])
	buf[10], buf[11] = byte(ck>>8), byte(ck)
	return nil
}

// runResilience quantifies the paper's headline claim: a Monte-Carlo
// sweep of seeded failure-scenario draws over a topology panel, PR on
// the compiled dataplane against the reconvergence baseline, every loss
// refereed by the scenario's connectivity oracle. An explicit -topo
// narrows the panel to that topology; the default panel covers the
// ring, grid and random generator families — three structurally
// different genus-0 regimes. A -scenario starting with '@' loads a
// scripted scenario file (one spec per line, '#' comments).
func runResilience(topoName string, topoSet bool, spec string, draws int, seed int64, pinK int) error {
	names := defaultPanel
	if topoSet {
		names = []string{topoName}
	}
	var proc failure.Process
	if strings.HasPrefix(spec, "@") {
		f, err := os.Open(spec[1:])
		if err != nil {
			return fmt.Errorf("-scenario script: %w", err)
		}
		defer f.Close()
		if proc, err = failure.ParseScript(f); err != nil {
			return err
		}
		spec = fmt.Sprintf("%s (script %s)", proc.Name(), spec[1:])
	}
	cfg := eval.ResilienceConfig{
		Panel: eval.Panel{Topologies: names, Spec: spec, Process: proc, Seed: seed},
		Draws: draws,
	}
	// -certify-pins: certify the reconvergence baseline first and replay
	// its counterexamples as pinned draws. Pins reference one graph's
	// element IDs, so the sweep must be narrowed to a single -topo.
	if pinK > 0 {
		if !topoSet {
			return fmt.Errorf("-certify-pins needs an explicit -topo (pins are per-topology failure sets)")
		}
		tp, err := topo.ByName(topoName)
		if err != nil {
			return err
		}
		cert, err := eval.RunCertify(tp, eval.CertifyConfig{
			Panel:    eval.Panel{Seed: seed},
			K:        pinK,
			Baseline: true,
		})
		if err != nil {
			return err
		}
		cfg.Pins = cert.PinScenarios()
		fmt.Printf("# certify-pins: baseline %s yields %d counterexample(s) at k=%d; replaying as pinned draws\n",
			cert.Walker, len(cfg.Pins), pinK)
	}
	return eval.WriteResilienceReport(os.Stdout, cfg)
}

// runTrace is -resilience -trace: instead of the aggregate sweep it
// replays draws with the flight recorder armed on every packet and the
// registry folded into per-epoch deltas, then prints the explained
// cycle walk of a recycled packet and the epoch timeline. The traced
// topology is -topo when set, otherwise the first panel topology.
// TraceResilience verifies the timeline's summed deltas equal the
// aggregate counters exactly before returning, so a printed timeline
// is guaranteed lossless.
func runTrace(topoName string, topoSet bool, spec string, draws int, seed int64, reg *telemetry.Registry) error {
	name := "ring:24"
	if topoSet {
		name = topoName
	}
	tp, err := topo.ByName(name)
	if err != nil {
		return err
	}
	var proc failure.Process
	if strings.HasPrefix(spec, "@") {
		f, err := os.Open(spec[1:])
		if err != nil {
			return fmt.Errorf("-scenario script: %w", err)
		}
		defer f.Close()
		if proc, err = failure.ParseScript(f); err != nil {
			return err
		}
		spec = ""
	}
	res, err := eval.TraceResilience(tp, eval.ResilienceConfig{
		Panel: eval.Panel{Spec: spec, Process: proc, Seed: seed, Metrics: reg},
		Draws: draws,
	})
	if err != nil {
		return err
	}

	fmt.Printf("# flight-recorded resilience trace: %s, scheme %s, scenario %s (draw %d)\n",
		tp.Name, res.Scheme, res.Scenario, res.Draw)
	fmt.Printf("flights kept %d | generated %d delivered %d violations %d\n\n",
		len(res.Flights), res.Aggregate.Counter(sim.MetricGenerated),
		res.Aggregate.Counter(sim.MetricDelivered), res.Aggregate.Counter(sim.MetricLossViolation))

	if f := res.Recycled(); f != nil {
		fmt.Println("## recycled packet (cycle walk)")
		fmt.Print(f.Explain())
	} else {
		fmt.Printf("no recycled packet in %d draw(s); try more -draws or a denser -scenario\n", max(draws, 1))
	}

	fmt.Println("\n## per-epoch counter timeline (summed deltas == aggregate, verified)")
	eval.WriteTimeline(os.Stdout, res.Epochs)
	return nil
}

// runSoak is the whole-stack endurance run: RunSoak sustains the
// configured concurrent flows through a live sharded engine with
// TxQueue egress while the failure scenario and a hot-swap stream
// (weight tweaks plus a structural chord add/remove) land on it, then
// prints the refereed account, the per-epoch timeline and the verdict
// line. A failing verdict is also a non-zero exit, so CI can gate on
// either. A -scenario starting with '@' loads a scripted scenario file.
func runSoak(topoName, spec string, cfg eval.SoakConfig, g *globals) error {
	tp, err := topo.ByName(topoName)
	if err != nil {
		return err
	}
	if strings.HasPrefix(spec, "@") {
		f, err := os.Open(spec[1:])
		if err != nil {
			return fmt.Errorf("-scenario script: %w", err)
		}
		defer f.Close()
		if cfg.Process, err = failure.ParseScript(f); err != nil {
			return err
		}
	} else {
		cfg.Spec = spec
	}
	res, err := eval.RunSoak(tp, cfg)
	if err != nil {
		return err
	}
	eval.WriteSoakReport(os.Stdout, res)
	// The trace is written even on a FAIL verdict — a failing soak is
	// exactly when the span timeline is worth staring at.
	if g != nil {
		if err := g.writeTrace(res.Epochs); err != nil {
			return err
		}
	}
	if !res.Pass {
		return fmt.Errorf("soak verdict FAIL: %s", strings.Join(res.FailReasons, "; "))
	}
	return nil
}

// runChurn reports the planned-maintenance numbers: the full-vs-delta
// recompile latency table over a topology panel, then a live hot-swap
// check on -topo — a sharded engine decides a continuous stream of
// batches while delta-recompiled FIBs are swapped in (Engine.ApplyDelta);
// every submitted packet must come out decided, i.e. zero loss across
// the swaps.
func runChurn(topoName string, edits int, seed int64, reg *telemetry.Registry, tracer *telemetry.Tracer) error {
	if edits <= 0 {
		return fmt.Errorf("-churn needs -edits ≥ 1 (got %d)", edits)
	}
	names := []string{topoName}
	for _, n := range []string{"abilene", "geant", "teleglobe", "ring:64", "grid:8x8"} {
		if n != topoName {
			names = append(names, n)
		}
	}
	fmt.Printf("# topology churn: full vs delta recompile, %d random single-link weight edits, then %d removals and re-additions of a non-bridge link (s. columns), per topology (seed %d)\n", edits, edits/2*2, seed)
	if err := eval.WriteChurnReport(os.Stdout, eval.ChurnConfig{
		Panel: eval.Panel{Topologies: names, Seed: seed, Metrics: reg, Tracer: tracer},
		Edits: edits,
	}); err != nil {
		return err
	}

	tp, err := topo.ByName(topoName)
	if err != nil {
		return err
	}
	g := tp.Graph
	sys := tp.Embedding
	if sys == nil {
		if sys, err = (embedding.Auto{Seed: 1}).Embed(g); err != nil {
			return err
		}
	}
	prot, err := core.New(g, sys, route.Build(g, route.HopCount), core.Config{Variant: core.Full})
	if err != nil {
		return err
	}
	rec, err := dataplane.NewRecompiler(prot, nil, nil)
	if err != nil {
		return err
	}

	if reg != nil {
		rec.Register(reg)
	}
	rec.SetTracer(tracer)
	var submitted atomic.Uint64
	free := make(chan *dataplane.Batch, 64)
	eng := dataplane.NewEngine(rec.FIB(), dataplane.EngineConfig{
		OnDone:  func(b *dataplane.Batch) { free <- b },
		Metrics: reg,
		Tracer:  tracer,
	})
	n := g.NumNodes()
	for i := 0; i < 16; i++ {
		pkts := make([]dataplane.Packet, 256)
		for j := range pkts {
			pkts[j] = dataplane.Packet{
				Node:    graph.NodeID((i + j) % n),
				Dst:     graph.NodeID((i + j + 1 + j%(n-1)) % n),
				Ingress: rotation.NoDart,
			}
		}
		free <- &dataplane.Batch{Pkts: pkts}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case b := <-free:
				for !eng.Submit(b) {
				}
				submitted.Add(uint64(len(b.Pkts)))
			}
		}
	}()

	rng := rand.New(rand.NewSource(seed))
	var recompile, swap time.Duration
	swaps := 0
	for i := 0; i < edits; i++ {
		l := graph.LinkID(rng.Intn(rec.Graph().NumLinks()))
		w := rec.Graph().Weight(l) * (0.4 + 1.2*rng.Float64())
		start := time.Now()
		d, err := rec.Apply(graph.SetWeight(l, w))
		if err != nil {
			close(stop)
			return err
		}
		recompile += time.Since(start)
		start = time.Now()
		if err := eng.ApplyDelta(d); err != nil {
			close(stop)
			return err
		}
		swap += time.Since(start)
		swaps++
		time.Sleep(time.Millisecond) // let traffic flow between swaps
	}
	close(stop)
	wg.Wait()
	decided := eng.Close()
	lost := submitted.Load() - decided
	fmt.Printf("\n# live hot-swap on %s: %d delta swaps under continuous engine traffic\n", tp.Name, swaps)
	fmt.Printf("packets submitted  %d\n", submitted.Load())
	fmt.Printf("packets decided    %d\n", decided)
	fmt.Printf("packets lost       %d (expected: 0)\n", lost)
	fmt.Printf("delta recompile    %v mean\n", (recompile / time.Duration(swaps)).Round(time.Microsecond))
	fmt.Printf("FIB swap           %v mean\n", (swap / time.Duration(swaps)).Round(time.Microsecond))
	if lost != 0 {
		return fmt.Errorf("engine dropped %d packets across hot-swaps", lost)
	}
	return nil
}

// runCompile is the scaling report behind the "scale past 1000 nodes"
// work: per-phase compile time (destination trees, quantiser ranking,
// FIB fill) sequential versus at GOMAXPROCS workers, resident FIB bytes
// dense versus shared-column, and delta-apply latency single-edit versus
// a coalesced duplicate-target batch.
func runCompile(topoName string, seed int64, tracer *telemetry.Tracer) error {
	tp, err := topo.ByName(topoName)
	if err != nil {
		return err
	}
	g := tp.Graph
	// Why this topology's tree build costs what it does: nodes with exactly
	// two links never enter the builder's heap, a relaxation runs through
	// them. One sequential pass over every destination counts both kinds.
	passThrough := 0
	for v := 0; v < g.NumNodes(); v++ {
		if g.Degree(graph.NodeID(v)) == 2 {
			passThrough++
		}
	}
	var b graph.SPTBuilder
	for d := 0; d < g.NumNodes(); d++ {
		b.Tree(g, graph.NodeID(d), nil)
	}
	fmt.Printf("# compile scaling on %s: %d nodes (%d pass-through), %d links\n", tp.Name, g.NumNodes(), passThrough, g.NumLinks())
	trees := float64(max(g.NumNodes(), 1))
	fmt.Printf("per tree         %.1f nodes queued, %.1f followed\n", float64(b.Queued)/trees, float64(b.Followed)/trees)
	sys := tp.Embedding
	if sys == nil {
		start := time.Now()
		if sys, err = (embedding.Auto{Seed: 1}).Embed(g); err != nil {
			return err
		}
		fmt.Printf("embed            %12v (genus %d)\n", time.Since(start).Round(time.Microsecond), sys.Genus())
	}

	procs := runtime.GOMAXPROCS(0)
	type phases struct {
		trees, quant, dense, shared time.Duration
		denseB, sharedB             int64
	}
	run := func(workers int) (phases, error) {
		var ph phases
		start := time.Now()
		tbl := route.BuildWorkers(g, route.HopCount, workers)
		ph.trees = time.Since(start)
		prot, err := core.New(g, sys, tbl, core.Config{Variant: core.Full, Quantise: true})
		if err != nil {
			return ph, err
		}
		start = time.Now()
		quant := core.BuildQuantiserWorkers(tbl, workers)
		ph.quant = time.Since(start)
		start = time.Now()
		dense, err := dataplane.CompileWithOptions(prot, quant,
			dataplane.CompileOptions{Workers: workers, Columns: dataplane.ColumnsDense, Tracer: tracer})
		if err != nil {
			return ph, err
		}
		ph.dense = time.Since(start)
		start = time.Now()
		shared, err := dataplane.CompileWithOptions(prot, quant,
			dataplane.CompileOptions{Workers: workers, Columns: dataplane.ColumnsShared, Tracer: tracer})
		if err != nil {
			return ph, err
		}
		ph.shared = time.Since(start)
		ph.denseB, ph.sharedB = dense.MemBytes(), shared.MemBytes()
		return ph, nil
	}
	seq, err := run(1)
	if err != nil {
		return err
	}
	fmt.Printf("%-16s %12s", "phase", "workers=1")
	if procs > 1 {
		fmt.Printf(" %11s=%d %9s", "workers", procs, "speedup")
	}
	fmt.Println()
	row := func(name string, s, p time.Duration) {
		fmt.Printf("%-16s %12v", name, s.Round(time.Microsecond))
		if procs > 1 {
			fmt.Printf(" %13v %8.1f×", p.Round(time.Microsecond), s.Seconds()/p.Seconds())
		}
		fmt.Println()
	}
	par := seq
	if procs > 1 {
		if par, err = run(procs); err != nil {
			return err
		}
	}
	row("trees", seq.trees, par.trees)
	row("quantiser", seq.quant, par.quant)
	row("fib dense", seq.dense, par.dense)
	row("fib shared", seq.shared, par.shared)
	row("total", seq.trees+seq.quant+seq.shared, par.trees+par.quant+par.shared)
	fmt.Printf("fib bytes        dense %d, shared %d (%.1f× smaller)\n",
		seq.denseB, seq.sharedB, float64(seq.denseB)/float64(seq.sharedB))

	// Delta curve: single weight edits versus a duplicate-target batch
	// the coalescer reduces before recompiling.
	tbl := route.BuildWorkers(g, route.HopCount, procs)
	prot, err := core.New(g, sys, tbl, core.Config{Variant: core.Full, Quantise: true})
	if err != nil {
		return err
	}
	rec, err := dataplane.NewRecompiler(prot, nil, nil)
	if err != nil {
		return err
	}
	recReg := telemetry.NewRegistry()
	rec.Register(recReg)
	rec.SetTracer(tracer)
	rng := rand.New(rand.NewSource(seed))
	const rounds = 8
	var single, batch time.Duration
	for i := 0; i < rounds; i++ {
		l := graph.LinkID(rng.Intn(rec.Graph().NumLinks()))
		w := rec.Graph().Weight(l) * (0.4 + 1.2*rng.Float64())
		start := time.Now()
		if _, err := rec.Apply(graph.SetWeight(l, w)); err != nil {
			return err
		}
		single += time.Since(start)
	}
	for i := 0; i < rounds; i++ {
		l := graph.LinkID(rng.Intn(rec.Graph().NumLinks()))
		edits := []graph.Edit{
			graph.SetWeight(l, 2), graph.SetWeight(l, 5),
			graph.SetWeight(l, rec.Graph().Weight(l)*(0.4+1.2*rng.Float64())),
		}
		start := time.Now()
		if _, err := rec.Apply(edits...); err != nil {
			return err
		}
		batch += time.Since(start)
	}
	st := recReg.Snapshot()
	fmt.Printf("delta apply      %12v mean (single weight edit)\n", (single / rounds).Round(time.Microsecond))
	fmt.Printf("coalesced apply  %12v mean (3-edit duplicate-target batch)\n", (batch / rounds).Round(time.Microsecond))
	fmt.Printf("recompiler       %d applies, %d edits (%d coalesced away), %d trees repaired, %d untouched\n",
		st.Counter(dataplane.MetricRecompileApplies), st.Counter(dataplane.MetricRecompileEdits),
		st.Counter(dataplane.MetricRecompileCoalesced), st.Counter(dataplane.MetricRepairRepaired),
		st.Counter(dataplane.MetricRepairUnchanged))
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "prsim:", err)
	os.Exit(1)
}
