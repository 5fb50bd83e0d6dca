package recycle

import (
	"io"

	"recycle/internal/eval"
	"recycle/internal/telemetry"
	"recycle/internal/topo"
)

// MetricsRegistry is the unified telemetry registry: named zero-alloc
// counters, gauges and fixed-bucket histograms plus snapshot-time
// collectors, read consistently via Snapshot(). Hand one to
// EngineConfig.Metrics / TxConfig.Metrics to meter the dataplane.
type MetricsRegistry = telemetry.Registry

// MetricsSnapshot is a point-in-time copy of every registered metric,
// with Sub/Merge delta algebra for interval analysis.
type MetricsSnapshot = telemetry.Snapshot

// HistogramSnapshot is one histogram's frozen bucket counts, with
// Mean and Quantile estimators.
type HistogramSnapshot = telemetry.HistogramSnapshot

// FlightRecorder captures per-packet cycle walks in a bounded ring;
// arm it via sim.Config.Recorder.
type FlightRecorder = telemetry.Recorder

// FlightRecorderConfig parameterises a FlightRecorder: ring capacity,
// sampling rate, (src,dst) match filters, per-flight hop cap.
type FlightRecorderConfig = telemetry.RecorderConfig

// Flight is one recorded packet walk — every hop with its event,
// egress dart and header state — with an Explain() narrative.
type Flight = telemetry.Flight

// MetricsEpoch is one epoch of a per-epoch counter fold keyed to
// link-state events (TraceResult.Epochs): its interval, label and delta
// snapshot.
type MetricsEpoch = telemetry.Epoch

// Tracer produces causally-linked control-plane spans into a bounded
// ring: compile phases, recompile stages, swap barrier/apply, soak and
// certify lifecycle. Register it on a MetricsRegistry (RegisterCollector)
// to carry spans in every snapshot, or hand it to SoakConfig.Tracer /
// CertifyConfig.Tracer. A nil *Tracer is fully inert, so instrumented
// code needs no enabled? branches.
type Tracer = telemetry.Tracer

// SpanSnapshot is a point-in-time reading of a tracer's ended spans,
// participating in the MetricsSnapshot Sub/Merge delta algebra.
type SpanSnapshot = telemetry.SpanSnapshot

// NewTracer returns a tracer whose ring holds at least capacity ended
// spans (<= 0 selects the default of 4096).
func NewTracer(capacity int) *Tracer { return telemetry.NewTracer(capacity) }

// WriteChromeTrace renders a span snapshot (plus an optional epoch
// timeline) as Chrome trace-event JSON — open the file in
// chrome://tracing or Perfetto.
func WriteChromeTrace(w io.Writer, s *SpanSnapshot, epochs []MetricsEpoch) error {
	return telemetry.WriteChromeTrace(w, s, epochs)
}

// WritePrometheus renders a metrics snapshot in the Prometheus text
// exposition format (version 0.0.4).
func WritePrometheus(w io.Writer, s *MetricsSnapshot) error {
	return telemetry.WritePrometheus(w, s)
}

// TraceResult is one flight-recorded resilience draw: the retained
// per-packet cycle walks, the per-epoch counter timeline and the
// aggregate deltas, with the timeline's lossless-exposition invariant
// (summed epoch deltas == aggregate) already verified.
type TraceResult = eval.TraceResult

// TraceResilience replays Monte-Carlo resilience draws on one named
// topology with the full telemetry surface armed — every packet
// flight-recorded, counters folded per link-state epoch — and returns
// the first draw on which PR actually recycled a packet. It is
// RunResilience's explainability counterpart.
func TraceResilience(topology string, cfg ResilienceConfig) (*TraceResult, error) {
	tp, err := topo.ByName(topology)
	if err != nil {
		return nil, err
	}
	return eval.TraceResilience(tp, cfg)
}

// WriteMetricsTimeline renders a per-epoch counter fold as a readable
// table: one row per link-state epoch with the headline deltas.
func WriteMetricsTimeline(w io.Writer, epochs []MetricsEpoch) { eval.WriteTimeline(w, epochs) }
