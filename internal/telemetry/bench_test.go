package telemetry

import "testing"

// TestHotPathZeroAllocs pins the tentpole's core promise: no metric
// write on a hot path allocates. Handle increments, tally flushes,
// histogram observations and gauge updates must all be allocation-free.
func TestHotPathZeroAllocs(t *testing.T) {
	r := NewRegistry()
	h := r.Counter("c").Handle()
	g := r.Gauge("g")
	hist := r.Histogram("h", ExponentialBuckets(100, 4, 8))
	hh := hist.Handle()
	var histTally HistogramTally
	bank := NewCounterBank(r, "a", "b")
	var tally Tally

	checks := map[string]func(){
		"counter-handle": func() { h.Inc(); h.Add(3) },
		"gauge":          func() { g.Set(7); g.Add(-2); g.SetMax(9) },
		"histogram":      func() { hh.Observe(1234) },
		"tally-flush":    func() { tally[0]++; tally[1] += 5; bank.Flush(&tally) },
		"hist-tally":     func() { hist.Tally(&histTally, 1234); hist.Flush(&histTally) },
	}
	for name, fn := range checks {
		if allocs := testing.AllocsPerRun(1000, fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
}

// BenchmarkTelemetryCounter is the CI-gated cost of one hot-path counter
// increment through a private handle (one uncontended atomic add on the
// writer's own cache line). Gated at 0 allocs/op.
func BenchmarkTelemetryCounter(b *testing.B) {
	r := NewRegistry()
	h := r.Counter("bench").Handle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Inc()
	}
}

// BenchmarkTelemetryTallyFlush is the engine's actual per-decision
// pattern: a non-atomic tally increment, flushed through a bank every
// 256 iterations — the amortised cost CI compares against the raw
// atomic of BenchmarkTelemetryCounter.
func BenchmarkTelemetryTallyFlush(b *testing.B) {
	r := NewRegistry()
	bank := NewCounterBank(r, "a", "b", "c", "d", "e", "f")
	var tally Tally
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tally[i&5]++
		if i&255 == 255 {
			bank.Flush(&tally)
		}
	}
}

// BenchmarkTelemetryHistogram is one sharded histogram observation
// through a private handle: bucket scan plus three atomic adds.
func BenchmarkTelemetryHistogram(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench", ExponentialBuckets(100, 4, 8)).Handle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i & 0xffff))
	}
}

// TestSpanHotPathZeroAllocs is the span twin of TestHotPathZeroAllocs:
// opening a span, attaching attributes and publishing it into the ring
// must not allocate — spans are values, attrs are inline, and the ring
// slot is claimed in place.
func TestSpanHotPathZeroAllocs(t *testing.T) {
	tr := NewTracer(64)
	root := tr.Start("root", 0)
	if allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Start("child", root.ID())
		sp.SetAttr(AttrWorker, 3)
		sp.SetAttr(AttrLo, 0)
		sp.SetAttr(AttrHi, 128)
		sp.End()
	}); allocs != 0 {
		t.Errorf("span start/attr/end: %v allocs/op, want 0", allocs)
	}
	root.End()
}

// BenchmarkSpanStartEnd is the CI-gated cost of one complete span —
// Start, one attribute, End into the ring — the unit every control-plane
// phase and worker range pays. Gated at 0 allocs/op: the two clock reads
// dominate, the ring publication is a short mutexed copy.
func BenchmarkSpanStartEnd(b *testing.B) {
	tr := NewTracer(DefaultSpanRing)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := tr.Start("bench", 0)
		sp.SetAttr(AttrCount, int64(i))
		sp.End()
	}
}
