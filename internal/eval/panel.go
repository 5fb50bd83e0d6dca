package eval

import (
	"fmt"
	"os"
	"strings"

	"recycle/internal/failure"
	"recycle/internal/telemetry"
	"recycle/internal/topo"
)

// Panel is the configuration surface every eval harness shares: the
// topology panel under test, the failure process driving the runs, the
// master seed, and an optional shared metrics registry. Harness configs
// (ResilienceConfig, SoakConfig, ChurnConfig, TrafficLossConfig,
// CertifyConfig, FiguresConfig, ThroughputConfig; the compile report
// takes a bare Panel) embed it, so the same literal fields parameterise
// every harness and a CLI can bind one set of global flags to all of
// them.
type Panel struct {
	// Topologies is the named topology panel the report writers iterate
	// (topo.ByName grammar, e.g. "abilene", "ring:24", "rand:24@7").
	// Run* harnesses take their one topology as an explicit argument
	// and ignore this field; a report over a single topology runs the
	// first name.
	Topologies []string
	// Spec is the failure-process specification the runs sample from
	// (failure.ParseScenario grammar). Empty selects the harness's
	// default process. Harnesses without a failure dimension (churn,
	// traffic mix) ignore it. The report writers also accept "@path",
	// a scripted scenario file (failure.ParseScript).
	Spec string
	// Process optionally supplies a pre-built failure process (e.g. a
	// scripted scenario file via failure.ParseScript); when non-nil it
	// is used verbatim and Spec only labels the report.
	Process failure.Process
	// Seed is the harness's master seed (default 1). Every derived
	// stream (scenario draws, traffic) sub-seeds from it, so
	// a fixed Seed reproduces the run bit-for-bit.
	Seed int64
	// Metrics optionally shares a live registry (e.g. one served over
	// HTTP by `prsim -metrics`); nil gives the harness a private one.
	// Runs subtract a base snapshot, so sharing never double-counts.
	Metrics *telemetry.Registry
	// Tracer, when non-nil, receives the run's control-plane span tree
	// (compiles, hot-swaps, scenario events) and is registered as a
	// collector on the run's registry, so snapshots — and the epoch
	// timeline — carry the spans that ended inside them. Harnesses
	// tolerate nil at zero cost.
	Tracer *telemetry.Tracer
}

// withDefaults resolves the Panel's empty fields: defaultSpec fills
// Spec (a non-nil Process labels it instead), and Seed defaults to 1.
func (p Panel) withDefaults(defaultSpec string) Panel {
	if p.Spec == "" {
		if p.Process != nil {
			p.Spec = p.Process.Name()
		} else {
			p.Spec = defaultSpec
		}
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// process resolves the Panel's failure process: Process verbatim when
// set (validated), the parsed Spec otherwise. Call after withDefaults.
func (p Panel) process() (failure.Process, error) {
	if p.Process != nil {
		if err := p.Process.Validate(); err != nil {
			return nil, err
		}
		return p.Process, nil
	}
	return failure.ParseScenario(p.Spec)
}

// loadScript resolves a Spec of the form "@path" — a scripted scenario
// file, one spec per line — into Process, and relabels Spec for the
// report header. Any other Spec is left alone.
func (p *Panel) loadScript() error {
	path, ok := strings.CutPrefix(p.Spec, "@")
	if !ok {
		return nil
	}
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("scenario script: %w", err)
	}
	defer f.Close()
	if p.Process, err = failure.ParseScript(f); err != nil {
		return err
	}
	p.Spec = fmt.Sprintf("%s (script %s)", p.Process.Name(), path)
	return nil
}

// first resolves the panel's first topology: the one a single-topology
// report runs on.
func (p Panel) first() (topo.Topology, error) {
	if len(p.Topologies) == 0 {
		return topo.Topology{}, fmt.Errorf("eval: no topology named")
	}
	return topo.ByName(p.Topologies[0])
}

// topologies resolves the named panel through topo.ByName, in order.
func (p Panel) topologies() ([]topo.Topology, error) {
	out := make([]topo.Topology, 0, len(p.Topologies))
	for _, name := range p.Topologies {
		tp, err := topo.ByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, tp)
	}
	return out, nil
}
