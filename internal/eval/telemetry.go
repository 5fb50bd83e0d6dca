package eval

import (
	"fmt"
	"io"

	"recycle/internal/sim"
	"recycle/internal/telemetry"
	"recycle/internal/topo"
)

// WriteTimeline renders a per-epoch counter fold as a readable table:
// one row per link-state epoch with the headline counters' deltas, so
// losses visibly cluster in the epochs whose failures caused them.
func WriteTimeline(w io.Writer, epochs []telemetry.Epoch) {
	fmt.Fprintf(w, "%-4s %-10s %-10s %-32s %9s %9s %9s %8s %6s %6s\n",
		"ep", "start", "end", "label", "generated", "delivered", "blackhole", "no-route", "ttl", "viol")
	for _, e := range epochs {
		t := sim.TotalsOf(e.Delta)
		fmt.Fprintf(w, "%-4d %-10v %-10v %-32s %9d %9d %9d %8d %6d %6d\n",
			e.Index, e.Start, e.End, e.Label, t.Generated, t.Delivered,
			t.DropBlackhole, t.DropNoRoute, t.DropTTL, t.Violations)
	}
}

// TraceResult is one traced resilience draw: the recorder's retained
// flights, the per-epoch timeline, and the run's aggregate counter
// deltas — with the exposition-is-lossless invariant (summed epoch
// deltas == aggregate) already verified by TraceResilience.
type TraceResult struct {
	Scheme   string
	Scenario string
	// Draw is the scenario draw index that produced a recycled flight
	// (the first one that did, or the last draw tried).
	Draw      int
	Flights   []*telemetry.Flight
	Epochs    []telemetry.Epoch
	Aggregate *telemetry.Snapshot
}

// Recycled returns the first flight that engaged PR (nil when none
// did).
func (t *TraceResult) Recycled() *telemetry.Flight {
	for _, f := range t.Flights {
		if f.Recycled() {
			return f
		}
	}
	return nil
}

// TraceResilience replays resilience draws with the full telemetry
// surface armed — every packet flight-recorded, counters folded per
// epoch — and returns the first draw on which PR actually recycled a
// packet (falling back to the last draw when none did, e.g. a scenario
// that never fails a link on the probe path). It is RunResilience's
// explainability counterpart: instead of aggregate rows it produces
// the per-packet cycle walks and the per-epoch loss timeline for one
// scenario, and it verifies the timeline's summed deltas equal the
// aggregate counters exactly before returning. It replays Monte-Carlo
// draws only, so it refuses a config carrying Pins or CertifyPins.
func TraceResilience(tp topo.Topology, cfg ResilienceConfig) (*TraceResult, error) {
	if len(cfg.Pins) > 0 || cfg.CertifyPins > 0 {
		return nil, fmt.Errorf("eval: resilience trace replays Monte-Carlo draws only; it takes no Pins or CertifyPins")
	}
	p, err := newProbeDraws(tp, cfg)
	if err != nil {
		return nil, err
	}
	var out *TraceResult
	for draw, sc := range p.draws {
		rec := telemetry.NewRecorder(telemetry.RecorderConfig{SampleEvery: 1, Capacity: 256})
		scheme := &sim.PRScheme{FIB: p.st.fib}
		s, agg, err := p.run(scheme, sc, rec)
		if err != nil {
			return nil, err
		}
		if err := checkTimelineExact(s.Timeline().Sum(), agg); err != nil {
			return nil, fmt.Errorf("eval: draw %d: %w", draw, err)
		}
		out = &TraceResult{
			Scheme:    scheme.Name(),
			Scenario:  sc.Name,
			Draw:      draw,
			Flights:   rec.Flights(),
			Epochs:    s.Timeline().Epochs(),
			Aggregate: agg,
		}
		if out.Recycled() != nil {
			return out, nil
		}
	}
	return out, nil
}

// WriteTraceReport is the explainability counterpart of
// WriteResilienceReport: TraceResilience on the panel's first topology,
// rendered as the explained cycle walk of a recycled packet followed by
// the per-epoch counter timeline (already verified lossless).
func WriteTraceReport(w io.Writer, cfg ResilienceConfig) error {
	if err := cfg.loadScript(); err != nil {
		return err
	}
	tp, err := cfg.first()
	if err != nil {
		return err
	}
	res, err := TraceResilience(tp, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# flight-recorded resilience trace: %s, scheme %s, scenario %s (draw %d)\n",
		tp.Name, res.Scheme, res.Scenario, res.Draw)
	t := sim.TotalsOf(res.Aggregate)
	fmt.Fprintf(w, "flights kept %d | generated %d delivered %d violations %d\n\n",
		len(res.Flights), t.Generated, t.Delivered, t.Violations)
	if f := res.Recycled(); f != nil {
		fmt.Fprintln(w, "## recycled packet (cycle walk)")
		fmt.Fprint(w, f.Explain())
	} else {
		fmt.Fprintf(w, "no recycled packet in %d draw(s); try more -draws or a denser -scenario\n", cfg.withDefaults().Draws)
	}
	fmt.Fprintln(w, "\n## per-epoch counter timeline (summed deltas == aggregate, verified)")
	WriteTimeline(w, res.Epochs)
	return nil
}

// checkTimelineExact verifies the lossless-exposition invariant: the
// merged per-epoch deltas must equal the aggregate counter-for-counter
// and histogram-for-histogram.
func checkTimelineExact(sum, agg *telemetry.Snapshot) error {
	for name, v := range agg.Counters {
		if sum.Counters[name] != v {
			return fmt.Errorf("timeline not exact: %s summed %d, aggregate %d", name, sum.Counters[name], v)
		}
	}
	for name, v := range sum.Counters {
		if agg.Counters[name] != v {
			return fmt.Errorf("timeline not exact: %s summed %d, aggregate %d", name, v, agg.Counters[name])
		}
	}
	for name, h := range agg.Histograms {
		sh := sum.Histograms[name]
		if sh.Count != h.Count || sh.Sum != h.Sum {
			return fmt.Errorf("timeline not exact: histogram %s summed %d/%d, aggregate %d/%d",
				name, sh.Count, sh.Sum, h.Count, h.Sum)
		}
	}
	return nil
}
