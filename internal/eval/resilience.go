package eval

import (
	"fmt"
	"io"
	"slices"
	"time"

	"recycle/internal/dataplane"
	"recycle/internal/failure"
	"recycle/internal/sim"
	"recycle/internal/telemetry"
	"recycle/internal/topo"
	"recycle/internal/traffic"
)

// ResilienceConfig parameterises a Monte-Carlo resilience sweep. The
// embedded Panel carries the topology panel, failure process, seed and
// metrics registry shared with every other harness.
type ResilienceConfig struct {
	Panel
	// Draws is the number of seeded scenario draws per topology (default
	// 50). Draw i uses failure.DrawSeed(Seed, i), so every scheme under
	// comparison replays the identical i-th scenario.
	Draws int
	// Horizon is the simulated run length per draw (default 4s).
	Horizon time.Duration
	// Pins are certified counterexample scenarios (typically
	// certify.Certificate.PinScenarios) replayed as extra draws after
	// the Monte-Carlo ones — the regression seam between the adversarial
	// search and the sampling harness: a once-found violating failure
	// set is re-checked on every sweep, so it can never silently return.
	Pins []*failure.Scenario
	// CertifyPins, when positive, has WriteResilienceReport certify the
	// reconvergence baseline at this k first and append its
	// counterexamples to Pins — PR must survive the sets that break
	// reconvergence. Pins reference one graph's element IDs, so the
	// panel must name exactly one topology.
	CertifyPins int
}

// DefaultResilienceSpec is the background failure process of the sweep:
// independent per-link exponential up/down with a 2 s MTBF and 300 ms
// MTTR. Over a 4 s horizon every link fails about twice, concurrent
// multi-link outages are routine, and on sparse topologies the draws
// include partitions — so both loss classes (excused and violation) get
// exercised, not just the easy single-failure regime.
const DefaultResilienceSpec = "mtbf:up=2s,down=300ms"

// probePPS is the per-flow probe rate of a resilience draw, in packets
// per second.
const probePPS = 200

func (c *ResilienceConfig) withDefaults() ResilienceConfig {
	out := *c
	out.Panel = out.Panel.withDefaults(DefaultResilienceSpec)
	if out.Draws == 0 {
		out.Draws = 50
	}
	if out.Horizon == 0 {
		out.Horizon = 4 * time.Second
	}
	return out
}

// validate rejects a negative draw count: it would size the draw list
// below zero.
func (c *ResilienceConfig) validate() error {
	if c.Draws < 0 {
		return fmt.Errorf("eval: resilience Draws must be ≥ 0 (got %d)", c.Draws)
	}
	return nil
}

// ResilienceRow aggregates one (topology, scheme) cell of the sweep.
type ResilienceRow struct {
	Topology string
	// Genus of the embedding PR ran on. The §5 zero-violation guarantee
	// is conditioned on genus 0; a non-zero genus row measures how far an
	// imperfect embedding falls short rather than testing the guarantee.
	Genus  int
	Scheme string
	Draws  int
	// Totals sum the packet account over all draws; only violations
	// count against the scheme (see sim.Account for the loss classes).
	sim.Totals
	// ViolationDraws counts draws with at least one violation.
	ViolationDraws int
}

// ViolationFrac is Violations / Generated.
func (r ResilienceRow) ViolationFrac() float64 {
	if r.Generated == 0 {
		return 0
	}
	return float64(r.Violations) / float64(r.Generated)
}

// Availability is the delivered fraction of deliverable packets:
// Delivered / (Generated − Excused). Excused packets crossed a physical
// partition, so they are excluded from the denominator — a scheme that
// delivers everything deliverable scores 1 even on draws with
// partitions.
func (r ResilienceRow) Availability() float64 {
	if r.Generated == r.Excused {
		return 1
	}
	return float64(r.Delivered) / float64(r.Generated-r.Excused)
}

// probeDraws is what RunResilience and TraceResilience share: the
// compiled stack, the scenario draws — the Monte-Carlo ones followed by
// the certified counterexample pins — and the probe traffic, both
// directions of the topology's hop-diameter pair at probePPS.
type probeDraws struct {
	cfg   ResilienceConfig
	st    *stack
	draws []*failure.Scenario
	flows []sim.Flow
}

func newProbeDraws(tp topo.Topology, cfg ResilienceConfig) (*probeDraws, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	proc, err := cfg.process()
	if err != nil {
		return nil, err
	}
	st, err := buildStack(tp, dataplane.CompileOptions{})
	if err != nil {
		return nil, err
	}
	p := &probeDraws{cfg: cfg, st: st}
	for i := 0; i < cfg.Draws; i++ {
		sc, err := proc.Generate(st.g, cfg.Horizon, failure.DrawSeed(cfg.Seed, i))
		if err != nil {
			return nil, err
		}
		p.draws = append(p.draws, sc)
	}
	p.draws = append(p.draws, cfg.Pins...)
	src, dst := diameterPair(st.g)
	interval := time.Second / probePPS
	p.flows = []sim.Flow{
		{Src: src, Dst: dst, Source: traffic.Fixed{Interval: interval, Bits: 8192}},
		{Src: dst, Dst: src, Start: interval / 2, Source: traffic.Fixed{Interval: interval, Bits: 8192}},
	}
	return p, nil
}

// run replays sc against scheme with instant detection, metered into
// the panel's registry and flight-recorded into rec when non-nil, and
// returns the simulator and its run delta once its account balances.
func (p *probeDraws) run(scheme sim.Scheme, sc *failure.Scenario, rec *telemetry.Recorder) (*sim.Simulator, *telemetry.Snapshot, error) {
	s, err := sim.New(sim.Config{Graph: p.st.g, Scheme: scheme, Flows: p.flows, Horizon: p.cfg.Horizon,
		DetectionDelay: sim.InstantDetection, Metrics: p.cfg.Metrics, Recorder: rec})
	if err != nil {
		return nil, nil, err
	}
	if err := s.ApplyScenario(sc); err != nil {
		return nil, nil, err
	}
	d := s.Run()
	if err := s.Account().Check(sim.TotalsOf(d), 0); err != nil {
		return nil, nil, fmt.Errorf("eval: %s under %s: %w", scheme.Name(), sc.Name, err)
	}
	return s, d, nil
}

// RunResilience sweeps Monte-Carlo failure scenarios over one topology:
// cfg.Draws seeded draws of the failure process, each replayed against
// PR on the compiled dataplane and against the reconvergence baseline
// with the identical probe traffic (both directions of the topology's
// hop-diameter pair). Detection is instantaneous (sim.InstantDetection),
// isolating routing resilience from the loss-of-light latency that hits
// every scheme identically; the reconvergence baseline still pays its
// flooding+SPF+FIB-install window, which is where its violations come
// from. Every loss is refereed by the scenario's connectivity oracle;
// the certified counterexample pins replay as extra draws.
func RunResilience(tp topo.Topology, cfg ResilienceConfig) ([]ResilienceRow, error) {
	p, err := newProbeDraws(tp, cfg)
	if err != nil {
		return nil, err
	}
	rows := make([]ResilienceRow, 2)
	sums := []*telemetry.Snapshot{telemetry.NewSnapshot(), telemetry.NewSnapshot()} // run deltas by scheme
	for _, sc := range p.draws {
		for i, scheme := range []sim.Scheme{&sim.PRScheme{FIB: p.st.fib}, &sim.ReconvScheme{}} {
			_, d, err := p.run(scheme, sc, nil)
			if err != nil {
				return nil, err
			}
			sums[i].Merge(d)
			row := &rows[i]
			row.Topology, row.Genus, row.Scheme = tp.Name, p.st.sys.Genus(), scheme.Name()
			row.Draws++
			row.Totals = sim.TotalsOf(sums[i])
			if sim.TotalsOf(d).Violations > 0 {
				row.ViolationDraws++
			}
		}
	}
	return rows, nil
}

// WriteResilienceReport runs the sweep over the config's topology panel
// and renders the table: per (topology, scheme) the delivered, violation
// and excused fractions plus availability. It is the quantification of
// the paper's headline claim — PR rows on genus-0 embeddings must show
// zero violations; the reconvergence baseline's violation column is the
// loss PR exists to eliminate.
func WriteResilienceReport(w io.Writer, cfg ResilienceConfig) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	if err := cfg.loadScript(); err != nil {
		return err
	}
	if cfg.CertifyPins > 0 {
		if len(cfg.Topologies) != 1 {
			return fmt.Errorf("certify pins need one explicit topology (-topo): pins are per-topology failure sets")
		}
		tp, err := cfg.first()
		if err != nil {
			return err
		}
		cert, err := RunCertify(tp, CertifyConfig{K: cfg.CertifyPins, Baseline: true})
		if err != nil {
			return err
		}
		pins := cert.PinScenarios()
		cfg.Pins = slices.Concat(cfg.Pins, pins)
		fmt.Fprintf(w, "# certify-pins: baseline %s yields %d counterexample(s) at k=%d; replaying as pinned draws\n",
			cert.Walker, len(pins), cfg.CertifyPins)
	}
	eff := cfg.withDefaults()
	fmt.Fprintf(w, "# Monte-Carlo resilience: %d draws of %q per topology, %v horizon, seed %d\n",
		eff.Draws, eff.Spec, eff.Horizon, eff.Seed)
	if len(eff.Pins) > 0 {
		fmt.Fprintf(w, "# plus %d certified counterexample pin(s) replayed as extra draws\n", len(eff.Pins))
	}
	fmt.Fprintf(w, "# violation = lost while the pair stayed connected and the link state held still;\n")
	fmt.Fprintf(w, "# transient = a failure/repair landed mid-flight (§7); excused = the pair was partitioned\n")
	fmt.Fprintf(w, "%-12s %-5s %-34s %-9s %-9s %-10s %-9s %-8s %-10s %-12s\n",
		"topology", "genus", "scheme", "generated", "delivered", "violations", "transient", "excused", "avail", "violation-f")
	panel, err := eff.Panel.topologies()
	if err != nil {
		return err
	}
	for _, tp := range panel {
		rows, err := RunResilience(tp, cfg)
		if err != nil {
			return err
		}
		for _, r := range rows {
			fmt.Fprintf(w, "%-12s %-5d %-34s %-9d %-9d %-10d %-9d %-8d %-10.6f %-12.6f\n",
				r.Topology, r.Genus, r.Scheme, r.Generated, r.Delivered,
				r.Violations, r.Transient, r.Excused, r.Availability(), r.ViolationFrac())
		}
	}
	return nil
}
