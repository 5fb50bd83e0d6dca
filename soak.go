package recycle

import (
	"io"

	"recycle/internal/eval"
	"recycle/internal/topo"
)

// SoakConfig parameterises a whole-stack soak run: concurrent flow
// count, emission window, failure scenario, per-flow traffic process,
// hot-swap cadence and the pass verdict's drop bound.
type SoakConfig = eval.SoakConfig

// SoakResult is one soak run's full account: the refereed packet
// totals, rates per CPU-second, control-plane churn counts, egress and
// allocation telemetry, the per-epoch timeline (verified to sum to the
// aggregate exactly) and the pass/fail verdict.
type SoakResult = eval.SoakResult

// RunSoak runs the whole stack at once, for a sustained period of
// virtual time, on one named topology: hundreds of thousands of
// concurrent traffic flows walked hop by hop through the engine and its
// paced egress queues, under a continuous failure scenario and a stream
// of control-plane hot-swaps (weight tweaks plus a structural chord
// add/remove), every loss refereed by the connectivity oracle. One
// goroutine runs it on one clock, so one seed gives one run. The §5 guarantee holds
// under soak exactly as it does per-draw: a passing run saw zero
// violations — no packet lost while its pair stayed connected and
// nothing changed mid-flight.
func RunSoak(topology string, cfg SoakConfig) (*SoakResult, error) {
	tp, err := topo.ByName(topology)
	if err != nil {
		return nil, err
	}
	return eval.RunSoak(tp, cfg)
}

// WriteSoakReport renders a soak run as a readable report ending in a
// greppable "verdict: PASS|FAIL" line.
func WriteSoakReport(w io.Writer, r *SoakResult) { eval.WriteSoakReport(w, r) }
