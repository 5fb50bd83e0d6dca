package recycle

import (
	"recycle/internal/certify"
	"recycle/internal/eval"
	"recycle/internal/failure"
	"recycle/internal/topo"
)

// CertifyConfig parameterises a k-failure certification run: the shared
// Panel (topologies, metrics, tracer) plus the adversary's power — up to
// K simultaneous failures drawn from the link, node or combined universe.
type CertifyConfig = eval.CertifyConfig

// Certificate is a per-topology resilience certificate: either
// "provably zero violations for every failure set of ≤K elements" or
// the subset-minimal counterexamples, each with its refereed violating
// walk attached. Headline() is the one-line verdict CI greps;
// PinScenarios() exports the counterexamples as regression pins for
// ResilienceConfig.Pins.
type Certificate = certify.Certificate

// ElementMode selects the universe a certification draws failures from.
type ElementMode = failure.ElementMode

// Element universes a certification may draw failures from.
const (
	// LinkFailures fails links only — the paper's primary regime.
	LinkFailures = failure.LinkFailures
	// NodeFailures fails whole routers (every incident link).
	NodeFailures = failure.NodeFailures
	// LinkAndNodeFailures draws from the union.
	LinkAndNodeFailures = failure.LinkAndNodeFailures
)

// RunCertify compiles the named topology's dataplane and runs the
// adversarial failure search against it (or, with cfg.Baseline, against
// the reconvergence control arm), returning the resilience certificate.
// Small regimes are proved by exhaustion; larger ones by the guided
// search (cut-targeting DFS), which is complete for subset-minimal
// counterexamples too, so either verdict is CERTIFIED or COUNTEREXAMPLE.
func RunCertify(topology string, cfg CertifyConfig) (*Certificate, error) {
	tp, err := topo.ByName(topology)
	if err != nil {
		return nil, err
	}
	return eval.RunCertify(tp, cfg)
}
