package certify

import (
	"fmt"
	"io"
	"strings"

	"recycle/internal/core"
	"recycle/internal/failure"
	"recycle/internal/graph"
	"recycle/internal/telemetry"
)

// Violation is one counterexample: a subset-minimal failure set under
// which the walker loses a packet whose pair stays connected — exactly
// the loss class the Oracle counts against a scheme.
type Violation struct {
	Src, Dst graph.NodeID
	// Elements is the minimal failure set (links and/or nodes).
	Elements []failure.Element
	// Links is the concrete link expansion the walker consulted.
	Links *graph.FailureSet
	// Walk is the violating walk with its full transcript.
	Walk core.Result
	// Refereed reports that the connectivity Oracle confirmed the pair
	// connected under a static scenario of exactly these elements — the
	// same referee that classifies simulated losses.
	Refereed bool

	// indices is the sorted universe-index form used for dedup,
	// domination and differential comparison.
	indices []int
}

// Key canonicalises the violation as "src>dst:{elem, …}" for
// differential comparison between searches.
func (v Violation) Key() string {
	parts := make([]string, len(v.Elements))
	for i, e := range v.Elements {
		parts[i] = e.String()
	}
	return fmt.Sprintf("%d>%d:{%s}", v.Src, v.Dst, strings.Join(parts, ", "))
}

// SetString renders the failure set alone ("{link 3, node 7}").
func (v Violation) SetString() string {
	parts := make([]string, len(v.Elements))
	for i, e := range v.Elements {
		parts[i] = e.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Flight packages the violating walk as a flight-recorder transcript,
// ready for telemetry.Flight.Explain — the audit narrative attached to
// the certificate.
func (v Violation) Flight() *telemetry.Flight {
	fl := &telemetry.Flight{Src: v.Src, Dst: v.Dst, Verdict: verdict(v.Walk.Outcome)}
	for _, s := range v.Walk.Steps {
		fl.Hops = append(fl.Hops, telemetry.Hop{Node: s.Node, Ingress: s.Ingress, Egress: s.Egress, Event: s.Event, Header: s.Header})
	}
	return fl
}

// verdict names a walk's outcome in the flight recorder's vocabulary:
// delivered, looped, blackhole (a router refused the packet) or
// no-route.
func verdict(o core.Outcome) string {
	if o == core.Isolated {
		return "blackhole"
	}
	return o.String()
}

// Scenario wraps the violation as a static failure scenario — the form
// eval.RunResilience replays as a regression pin and the Oracle referees.
func (v Violation) Scenario() *failure.Scenario {
	return failure.StaticScenario(fmt.Sprintf("certify-pin:%s", v.Key()), v.Elements)
}

// Certificate is the per-(topology, scheme) verdict of a certification
// search.
type Certificate struct {
	// Topology and Walker label the subject; Genus is the embedding genus
	// the walker ran on (GenusUnknown when the scheme has none).
	Topology string
	Walker   string
	Genus    int
	// K and Mode fix the adversary's power: up to K simultaneous
	// failures drawn from the Mode universe (UniverseSize elements).
	K            int
	Mode         failure.ElementMode
	UniverseSize int
	// Method is "exhaustive" or "guided". Both searches provably cover
	// every subset-minimal counterexample of size ≤ K: the exhaustive
	// sweep by enumeration, the guided DFS by the consulted-link
	// completeness argument (see guided.go).
	Method string
	// Certified is the headline: zero counterexamples — no packet loss
	// under any ≤K-element failure leaving its pair connected.
	Certified bool
	// DistinctSets is the number of failure sets of size 1..K in the
	// universe (what "all ≤k failures" quantifies over).
	DistinctSets int64
	// Counterexamples lists every subset-minimal violation found, sorted
	// by (size, src, dst, set); empty when Certified.
	Counterexamples []Violation
	// Stats counts the search's work.
	Stats SearchStats
}

// buildCertificate finalises a search: dedup + minimise + referee every
// violation, then assemble and publish.
func buildCertificate(g *graph.Graph, w Walker, sp *space, cfg Config, method string, viols []Violation, stats SearchStats) (*Certificate, error) {
	minimised := make([]Violation, 0, len(viols))
	for _, v := range viols {
		mv, err := Minimise(g, w, sp, v)
		if err != nil {
			return nil, err
		}
		minimised = append(minimised, mv)
	}
	minimised = dedupViolations(minimised)
	for i := range minimised {
		if err := referee(g, &minimised[i]); err != nil {
			return nil, err
		}
	}

	var distinct int64
	for k := 1; k <= cfg.K; k++ {
		distinct += failure.CountSubsets(sp.size(), k)
	}
	cert := &Certificate{
		Topology:        cfg.Label,
		Walker:          w.Name(),
		Genus:           cfg.Genus,
		K:               cfg.K,
		Mode:            cfg.Mode,
		UniverseSize:    sp.size(),
		Method:          method,
		Certified:       len(minimised) == 0,
		DistinctSets:    distinct,
		Counterexamples: minimised,
		Stats:           stats,
	}
	stats.publish(cfg.Metrics)
	return cert, nil
}

// Minimise greedily reduces a violating set to a subset-minimal one: as
// long as removing some element keeps the walk violating (undelivered
// with the pair still connected), remove it. Both searches emit minimal
// sets by construction; Minimise re-checks the property at run time, so
// a search bug surfaces as a smaller set rather than a false minimality
// claim.
func Minimise(g *graph.Graph, w Walker, sp *space, v Violation) (Violation, error) {
	idx, walk := append([]int(nil), v.indices...), v.Walk
	if len(idx) == 0 {
		return Violation{}, fmt.Errorf("certify: minimise of empty set for %d>%d", v.Src, v.Dst)
	}
	for changed := true; changed && len(idx) > 1; {
		changed = false
		for i := 0; i < len(idx); i++ {
			cand := make([]int, 0, len(idx)-1)
			cand = append(cand, idx[:i]...)
			cand = append(cand, idx[i+1:]...)
			fs := sp.fsOf(cand)
			cw := w.Walk(v.Src, v.Dst, fs)
			if cw.Delivered() {
				continue
			}
			if !graph.ReachableUnder(g, v.Dst, fs)[v.Src] {
				continue // excused, not a violation — keep the element
			}
			idx, walk = cand, cw
			changed = true
			break
		}
	}
	return newViolation(sp, v.Src, v.Dst, idx, walk), nil
}

// referee confirms the violation through the connectivity Oracle — the
// same machinery that classifies simulated losses — and re-checks the
// walk. A disagreement means the search mislabelled an excused loss; it
// is returned as an error, never silently certified.
func referee(g *graph.Graph, v *Violation) error {
	o, err := failure.NewOracle(g, v.Scenario())
	if err != nil {
		return fmt.Errorf("certify: refereeing %s: %w", v.Key(), err)
	}
	if !o.ConnectedAt(v.Src, v.Dst, 0) {
		return fmt.Errorf("certify: %s: oracle rules the pair disconnected — excused, not a violation", v.Key())
	}
	if v.Walk.Delivered() {
		return fmt.Errorf("certify: %s: recorded walk delivered", v.Key())
	}
	v.Refereed = true
	return nil
}

// Headline is the one-line verdict CI greps for:
//
//	certificate: CERTIFIED k=2 — ...
//	certificate: COUNTEREXAMPLE k=2 — ...
func (c *Certificate) Headline() string {
	genus := ""
	if c.Genus != GenusUnknown {
		genus = fmt.Sprintf(" (genus %d)", c.Genus)
	}
	subject := fmt.Sprintf("topology %s, scheme %s%s, universe %s (%d elements), method %s",
		c.Topology, c.Walker, genus, c.Mode, c.UniverseSize, c.Method)
	if len(c.Counterexamples) == 0 {
		return fmt.Sprintf("certificate: CERTIFIED k=%d — %s: zero violations across all %d failure sets of ≤%d elements (%d walks)",
			c.K, subject, c.DistinctSets, c.K, c.Stats.Walks)
	}
	v := c.Counterexamples[0]
	return fmt.Sprintf("certificate: COUNTEREXAMPLE k=%d — %s: %d minimal violating sets; smallest %s breaks pair %d→%d (%s while the pair stays connected; refereed)",
		c.K, subject, len(c.Counterexamples), v.SetString(), v.Src, v.Dst, verdict(v.Walk.Outcome))
}

// Write renders the full certificate: the headline, the search
// accounting, and (for counterexamples) the refereed violating walk of
// the smallest set.
func (c *Certificate) Write(w io.Writer) error {
	if _, err := fmt.Fprintln(w, c.Headline()); err != nil {
		return err
	}
	st := c.Stats
	fmt.Fprintf(w, "  search: %d set enumerations, %d walks, %d pair-sets pruned unaffected, %d pruned dominated, %d excused by disconnection\n",
		st.Sets, st.Walks, st.PrunedUnaffected, st.PrunedDominated, st.Excused)
	if st.DFSStates > 0 {
		fmt.Fprintf(w, "  guided: %d DFS states\n", st.DFSStates)
	}
	if len(c.Counterexamples) == 0 {
		return nil
	}
	const maxListed = 5
	for i, v := range c.Counterexamples {
		if i == maxListed {
			fmt.Fprintf(w, "  … %d further minimal counterexamples not listed\n", len(c.Counterexamples)-maxListed)
			break
		}
		fmt.Fprintf(w, "  counterexample %d: %s pair %d→%d (%s, refereed=%v)\n",
			i+1, v.SetString(), v.Src, v.Dst, verdict(v.Walk.Outcome), v.Refereed)
	}
	fmt.Fprintln(w, "  violating walk of the smallest counterexample:")
	for _, line := range strings.Split(c.Counterexamples[0].Flight().Explain(), "\n") {
		fmt.Fprintf(w, "    %s\n", line)
	}
	return nil
}

// PinScenarios exports every counterexample as a static failure scenario
// — the regression pins eval.RunResilience replays on every sweep so a
// once-found counterexample can never silently return.
func (c *Certificate) PinScenarios() []*failure.Scenario {
	out := make([]*failure.Scenario, len(c.Counterexamples))
	for i, v := range c.Counterexamples {
		out[i] = v.Scenario()
	}
	return out
}
