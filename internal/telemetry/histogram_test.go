package telemetry

import "testing"

func TestHistogramBucketEdges(t *testing.T) {
	h := newHistogram("edges", []int64{10, 100, 1000})
	// Bounds are upper-inclusive: v <= bounds[i] lands in bucket i.
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, // negatives clamp to 0
		{0, 0},
		{10, 0},   // exactly on the first edge
		{11, 1},   // just above it
		{100, 1},  // exactly on the second
		{101, 2},  // just above
		{1000, 2}, // last finite edge
		{1001, 3}, // overflow bucket
	}
	for _, c := range cases {
		h.Observe(c.v)
	}
	s := h.snapshot()
	want := []uint64{3, 2, 2, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != uint64(len(cases)) {
		t.Fatalf("count = %d, want %d", s.Count, len(cases))
	}
	// Sum clamps the negative observation to 0.
	var wantSum uint64
	for _, c := range cases {
		if c.v > 0 {
			wantSum += uint64(c.v)
		}
	}
	if s.Sum != wantSum {
		t.Fatalf("sum = %d, want %d", s.Sum, wantSum)
	}
}

func TestHistogramHandlesLandInSameSnapshot(t *testing.T) {
	h := newHistogram("sharded", []int64{5})
	// More handles than shard rows: round-robin wraps, totals still sum.
	for i := 0; i < 2*shardCount; i++ {
		h.Handle().Observe(int64(i))
	}
	s := h.snapshot()
	if s.Count != 2*shardCount {
		t.Fatalf("count = %d, want %d", s.Count, 2*shardCount)
	}
	if s.Counts[0] != 6 || s.Counts[1] != 2*shardCount-6 {
		t.Fatalf("buckets = %v, want [6 %d]", s.Counts, 2*shardCount-6)
	}
}

func TestHistogramMeanQuantile(t *testing.T) {
	h := newHistogram("q", []int64{1, 2, 4, 8})
	for v := int64(1); v <= 8; v++ {
		h.Observe(v)
	}
	s := h.snapshot()
	if m := s.Mean(); m != 4.5 {
		t.Fatalf("mean = %v, want 4.5", m)
	}
	// Quantile is an upper bound: the first edge below which *more* than
	// a q fraction fell. 4 of 8 observations are ≤ 4, so p49 resolves to
	// edge 4 and p50 (needing >4 observations) moves to the next edge.
	if q := s.Quantile(0.49); q != 4 {
		t.Fatalf("p49 = %d, want the bucket edge 4", q)
	}
	if q := s.Quantile(0.5); q != 8 {
		t.Fatalf("p50 = %d, want the bucket edge 8", q)
	}
	if q := s.Quantile(1.0); q != 8 {
		t.Fatalf("p100 = %d, want 8", q)
	}
	if q := (HistogramSnapshot{}).Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %d, want 0", q)
	}
	if m := (HistogramSnapshot{}).Mean(); m != 0 {
		t.Fatalf("empty mean = %v, want 0", m)
	}
}

func TestHistogramValidation(t *testing.T) {
	for name, bounds := range map[string][]int64{
		"empty":         {},
		"nonincreasing": {5, 5},
		"decreasing":    {5, 3},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s bounds did not panic", name)
				}
			}()
			newHistogram(name, bounds)
		}()
	}
}

func TestExponentialBuckets(t *testing.T) {
	b := ExponentialBuckets(100, 4, 5)
	want := []int64{100, 400, 1600, 6400, 25600}
	for i, w := range want {
		if b[i] != w {
			t.Fatalf("bucket %d = %d, want %d", i, b[i], w)
		}
	}
	// A factor close to 1 must still yield strictly increasing bounds.
	b = ExponentialBuckets(1, 1.01, 10)
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not strictly increasing at %d: %v", i, b)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("factor <= 1 did not panic")
		}
	}()
	ExponentialBuckets(1, 1, 3)
}

func TestLinearBuckets(t *testing.T) {
	b := LinearBuckets(100, 25, 3)
	want := []int64{100, 125, 150}
	for i, w := range want {
		if b[i] != w {
			t.Fatalf("bucket %d = %d, want %d", i, b[i], w)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("zero width did not panic")
		}
	}()
	LinearBuckets(0, 0, 3)
}

// TestQuantileOverflowIsLowerBound pins the overflow-bucket contract:
// observations above the last configured bound land in the overflow
// bucket, and any quantile that resolves there reports the last finite
// bound — a *lower* bound on the true value, the "off the scale"
// sentinel the doc comment promises, never a fabricated larger number.
func TestQuantileOverflowIsLowerBound(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("overflow", []int64{10, 20})
	h.Observe(5)       // bucket ≤10
	h.Observe(1 << 40) // overflow
	h.Observe(1 << 41) // overflow

	s := r.Snapshot().Histograms["overflow"]
	if s.Count != 3 {
		t.Fatalf("count = %d; want 3", s.Count)
	}
	// The median and everything above it live in the overflow bucket.
	for _, q := range []float64{0.5, 0.9, 1.0} {
		if got := s.Quantile(q); got != 20 {
			t.Fatalf("Quantile(%g) = %d; want the last finite bound 20", q, got)
		}
	}
	// Below the overflow mass the usual upper-bound contract holds.
	if got := s.Quantile(0.0); got != 10 {
		t.Fatalf("Quantile(0) = %d; want 10", got)
	}
	// The overflow count itself stays visible for callers that want to
	// detect saturated buckets.
	if s.Counts[len(s.Counts)-1] != 2 {
		t.Fatalf("overflow bucket holds %d; want 2", s.Counts[len(s.Counts)-1])
	}
}

// TestHistogramTallyFlushEqualsObserves: a tally filled through Tally
// and flushed leaves the snapshot N Observes of the same values leave —
// bucket counts, Count, Sum and the clamping of negatives — across
// several flushes (a flushed tally starts again from zero), and an
// empty flush changes nothing.
func TestHistogramTallyFlushEqualsObserves(t *testing.T) {
	bounds := ExponentialBuckets(1000, 4, HistogramTallySize-1) // the widest layout a tally holds
	observed := newHistogram("observed", bounds)
	tallied := newHistogram("tallied", bounds)
	values := []int64{-7, 0, 1, 999, 1000, 1001, 4000, 4001, 123456789, bounds[len(bounds)-1], bounds[len(bounds)-1] + 1, 1 << 40}
	var tally HistogramTally
	tallied.Flush(&tally) // empty: no counts, no Count
	for round := 0; round < 3; round++ {
		for i, v := range values {
			v += int64(round * i)
			observed.Observe(v)
			tallied.Tally(&tally, v)
		}
		if got := tallied.snapshot().Count; got != uint64(round*len(values)) {
			t.Fatalf("round %d: Count = %d before the flush; a tally must not touch the histogram", round, got)
		}
		tallied.Flush(&tally)
		if tally != (HistogramTally{}) {
			t.Fatalf("round %d: flush left the tally at %+v", round, tally)
		}
		want, got := observed.snapshot(), tallied.snapshot()
		if got.Count != want.Count || got.Sum != want.Sum {
			t.Fatalf("round %d: Count/Sum = %d/%d; want %d/%d", round, got.Count, got.Sum, want.Count, want.Sum)
		}
		for i := range want.Counts {
			if got.Counts[i] != want.Counts[i] {
				t.Fatalf("round %d: counts = %v; want %v", round, got.Counts, want.Counts)
			}
		}
	}
}
