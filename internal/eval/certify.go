package eval

import (
	"fmt"
	"io"

	"recycle/internal/certify"
	"recycle/internal/dataplane"
	"recycle/internal/failure"
	"recycle/internal/topo"
)

// CertifyConfig parameterises a k-failure certification run: the
// adversarial counterpart of ResilienceConfig's Monte-Carlo sampling.
// The embedded Panel's Topologies, Metrics and Tracer are consumed
// (certify.* search-progress counters land in Metrics, the search's span
// tree in Tracer); Seed and the failure-process fields are ignored — both
// searches are deterministic, and the adversary enumerates failure sets,
// it does not sample a process.
type CertifyConfig struct {
	Panel
	// K is the maximum number of simultaneous element failures to
	// certify against (default 2; negative is an error).
	K int
	// Mode selects the element universe: link failures (default), node
	// failures, or both.
	Mode failure.ElementMode
	// Baseline certifies the reconvergence baseline instead of compiled
	// PR — the control arm that demonstrates the certificate machinery
	// finds real counterexamples (reconvergence violates under a single
	// well-placed failure; PR on a genus-0 embedding must not).
	Baseline bool
	// Workers bounds the per-destination fan-out (0 = automatic).
	Workers int
}

func (c *CertifyConfig) withDefaults() CertifyConfig {
	out := *c
	out.Panel = out.Panel.withDefaults("")
	if out.K == 0 {
		out.K = 2
	}
	return out
}

// RunCertify compiles the topology's dataplane and runs the adversarial
// failure search against it, producing the topology's resilience
// certificate: either "provably zero violations for every failure set
// of ≤K elements" (exhaustive regimes) or the minimal counterexamples
// with refereed violating walks. With cfg.Baseline the walker is the
// reconvergence baseline over the same graph. The certificate's
// PinScenarios feed ResilienceConfig.Pins, closing the loop between
// worst-case search and Monte-Carlo regression.
func RunCertify(tp topo.Topology, cfg CertifyConfig) (*certify.Certificate, error) {
	eff := cfg.withDefaults()
	g := tp.Graph

	var walker certify.Walker
	genus := certify.GenusUnknown
	if eff.Baseline {
		walker = certify.NewReconvWalker(g)
	} else {
		st, err := buildStack(tp, dataplane.CompileOptions{Tracer: eff.Tracer, Metrics: eff.Metrics})
		if err != nil {
			return nil, err
		}
		walker = certify.NewPRWalker(st.fib)
		genus = st.sys.Genus()
	}

	return certify.Certify(g, walker, certify.Config{
		K:       eff.K,
		Mode:    eff.Mode,
		Workers: eff.Workers,
		Label:   tp.Name,
		Genus:   genus,
		Metrics: eff.Metrics,
		Tracer:  eff.Tracer,
	})
}

// WriteCertifyReport runs certification over the config's topology
// panel and renders each certificate in full — headline (the line CI
// greps), search accounting, and any refereed counterexample walks. It
// returns the certificates alongside any error so a caller can feed
// their PinScenarios into a resilience sweep.
func WriteCertifyReport(w io.Writer, cfg CertifyConfig) ([]*certify.Certificate, error) {
	eff := cfg.withDefaults()
	panel, err := eff.Panel.topologies()
	if err != nil {
		return nil, err
	}
	certs := make([]*certify.Certificate, 0, len(panel))
	for i, tp := range panel {
		if i > 0 {
			fmt.Fprintln(w)
		}
		cert, err := RunCertify(tp, cfg)
		if err != nil {
			return certs, fmt.Errorf("eval: certify %s: %w", tp.Name, err)
		}
		if err := cert.Write(w); err != nil {
			return certs, err
		}
		certs = append(certs, cert)
	}
	return certs, nil
}
