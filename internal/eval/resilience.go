package eval

import (
	"fmt"
	"io"
	"slices"
	"time"

	"recycle/internal/dataplane"
	"recycle/internal/failure"
	"recycle/internal/sim"
	"recycle/internal/topo"
)

// ResilienceConfig parameterises a Monte-Carlo resilience sweep. The
// embedded Panel carries the topology panel, failure process, seed and
// metrics registry shared with every other harness; Metrics is consumed
// by TraceResilience only (RunResilience ignores it).
type ResilienceConfig struct {
	Panel
	// Draws is the number of seeded scenario draws per topology (default
	// 50). Draw i uses failure.DrawSeed(Seed, i), so every scheme under
	// comparison replays the identical i-th scenario.
	Draws int
	// Horizon is the simulated run length per draw (default 4s).
	Horizon time.Duration
	// PPS is the per-flow probe rate (default 200 packets/second).
	PPS float64
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

func (c *ResilienceConfig) withDefaults() ResilienceConfig {
	out := *c
	out.Panel = out.Panel.withDefaults(DefaultResilienceSpec)
	if out.Draws == 0 {
		out.Draws = 50
	}
	if out.Horizon == 0 {
		out.Horizon = 4 * time.Second
	}
	if out.PPS == 0 {
		out.PPS = 200
	}
	return out
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
	// Generated..Excused sum over all draws. Violations are losses while
	// the src–dst pair stayed physically connected and the link state
	// held still (they count against the scheme); transient losses had a
	// failure or repair land mid-flight (§7's damped regime); excused
	// losses crossed a partition no scheme can.
	Generated  int
	Delivered  int
	Violations int
	Transient  int
	Excused    int
	// ViolationDraws counts draws with at least one violation.
	ViolationDraws int
}

// DeliveredFrac is Delivered / Generated (1 when nothing was generated).
func (r ResilienceRow) DeliveredFrac() float64 { return frac(r.Delivered, r.Generated) }

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
	return frac(r.Delivered, r.Generated-r.Excused)
}

func frac(num, den int) float64 {
	if den == 0 {
		return 1
	}
	return float64(num) / float64(den)
}

// RunResilience sweeps Monte-Carlo failure scenarios over one topology:
// cfg.Draws seeded draws of the failure process, each replayed against
// PR on the compiled dataplane and against the reconvergence baseline
// with the identical probe traffic (both directions of the topology's
// hop-diameter pair). Detection is instantaneous (sim.InstantDetection),
// isolating routing resilience from the loss-of-light latency that hits
// every scheme identically; the reconvergence baseline still pays its
// flooding+SPF+FIB-install window, which is where its violations come
// from. Every loss is refereed by the scenario's connectivity oracle.
func RunResilience(tp topo.Topology, cfg ResilienceConfig) ([]ResilienceRow, error) {
	cfg = cfg.withDefaults()
	proc, err := cfg.process()
	if err != nil {
		return nil, err
	}
	st, err := buildStack(tp, dataplane.CompileOptions{})
	if err != nil {
		return nil, err
	}
	g, sys, fib := st.g, st.sys, st.fib
	src, dst := diameterPair(g)
	interval := time.Duration(float64(time.Second) / cfg.PPS)
	flows := []sim.Flow{
		{Src: src, Dst: dst, Interval: interval, Bits: 8192},
		{Src: dst, Dst: src, Interval: interval, Bits: 8192, Start: interval / 2},
	}
	schemes := []func() sim.Scheme{
		func() sim.Scheme { return &sim.PRScheme{FIB: fib} },
		func() sim.Scheme { return &sim.ReconvScheme{} },
	}
	rows := make([]ResilienceRow, len(schemes))
	// The draw list is the Monte-Carlo draws followed by the certified
	// counterexample pins: each pin replays as one extra draw against
	// every scheme, refereed by its own oracle like any sampled scenario.
	scenarios := make([]*failure.Scenario, 0, cfg.Draws+len(cfg.Pins))
	for draw := 0; draw < cfg.Draws; draw++ {
		sc, err := proc.Generate(g, cfg.Horizon, failure.DrawSeed(cfg.Seed, draw))
		if err != nil {
			return nil, err
		}
		scenarios = append(scenarios, sc)
	}
	scenarios = append(scenarios, cfg.Pins...)
	for draw, sc := range scenarios {
		for i, mk := range schemes {
			scheme := mk()
			s, err := sim.New(sim.Config{
				Graph:          g,
				Scheme:         scheme,
				Flows:          flows,
				Horizon:        cfg.Horizon,
				DetectionDelay: sim.InstantDetection,
			})
			if err != nil {
				return nil, err
			}
			if err := s.ApplyScenario(sc); err != nil {
				return nil, err
			}
			st := s.Run()
			row := &rows[i]
			if draw == 0 {
				row.Topology = tp.Name
				row.Genus = sys.Genus()
				row.Scheme = scheme.Name()
			}
			row.Draws++
			row.Generated += int(st.Counter(sim.MetricGenerated))
			row.Delivered += int(st.Counter(sim.MetricDelivered))
			row.Violations += int(st.Counter(sim.MetricLossViolation))
			row.Transient += int(st.Counter(sim.MetricLossTransient))
			row.Excused += int(st.Counter(sim.MetricLossExcused))
			if st.Counter(sim.MetricLossViolation) > 0 {
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
