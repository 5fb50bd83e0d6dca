package telemetry

import (
	"fmt"
	"sync/atomic"
)

// Histogram is a fixed-bucket sharded histogram of non-negative int64
// observations (nanoseconds, hop counts, stretch percent). Bucket i
// holds observations v with v <= bounds[i] (and > bounds[i-1]); one
// implicit overflow bucket catches everything above the last bound.
// Bounds are fixed at creation, so Observe allocates nothing: a bucket
// search over a short sorted slice plus one atomic increment on the
// caller's shard row.
type Histogram struct {
	name   string
	bounds []int64
	stride int // padded row length in uint64 words
	// rows is shardCount rows of [bucket0..bucketK-1, overflow, count,
	// sum, pad...]; stride is a multiple of 8 words so each row starts
	// on its own cache line and writers on different rows never share.
	rows []atomic.Uint64
	next atomic.Uint32 // handle cursor
}

// row slot offsets past the bucket counts.
const (
	slotCount = 0 // + len(bounds) + 1
	slotSum   = 1
	histExtra = 2
)

func newHistogram(name string, bounds []int64) *Histogram {
	if len(bounds) == 0 {
		panic(fmt.Sprintf("telemetry: histogram %q needs at least one bucket bound", name))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %q bounds not strictly increasing", name))
		}
	}
	want := len(bounds) + 1 + histExtra
	stride := (want + 7) &^ 7 // round rows up to whole cache lines
	return &Histogram{
		name:   name,
		bounds: append([]int64(nil), bounds...),
		stride: stride,
		rows:   make([]atomic.Uint64, shardCount*stride),
	}
}

// Name returns the histogram's registered name.
func (h *Histogram) Name() string { return h.name }

// Bounds returns the bucket upper edges (callers must not mutate).
func (h *Histogram) Bounds() []int64 { return h.bounds }

// bucket returns the index of the bucket v falls in. Bounds are short
// (≤ ~16), so a branch-predictable linear scan beats binary search.
func (h *Histogram) bucket(v int64) int {
	for i, b := range h.bounds {
		if v <= b {
			return i
		}
	}
	return len(h.bounds)
}

// Observe records v on the shared shard row. Hot paths use a Handle.
// Negative observations clamp to zero.
func (h *Histogram) Observe(v int64) { h.observe(0, v) }

func (h *Histogram) observe(shard int, v int64) {
	if v < 0 {
		v = 0
	}
	base := shard * h.stride
	h.rows[base+h.bucket(v)].Add(1)
	h.rows[base+len(h.bounds)+1+slotCount].Add(1)
	h.rows[base+len(h.bounds)+1+slotSum].Add(uint64(v))
}

// Handle returns a private shard row of the histogram; each concurrent
// writer should hold its own.
type HistogramHandle struct {
	h     *Histogram
	shard int
}

// Handle assigns the next shard row round-robin. Safe for concurrent
// callers (the cursor is atomic, matching Counter.Handle).
func (h *Histogram) Handle() HistogramHandle {
	s := int(h.next.Add(1)-1) & (shardCount - 1)
	return HistogramHandle{h: h, shard: s}
}

// Observe records v on the handle's row.
func (hh HistogramHandle) Observe(v int64) { hh.h.observe(hh.shard, v) }

// HistogramTallySize is the bucket capacity of a HistogramTally, the
// overflow bucket included: it serves histograms of up to
// HistogramTallySize-1 bounds.
const HistogramTallySize = 16

// HistogramTally is the histogram analogue of Tally: a plain local
// accumulator a hot loop fills with ordinary (non-atomic) adds through
// Histogram.Tally and empties through Histogram.Flush once per batch.
// The zero value is ready to use; a fixed array, so it lives on the
// caller's stack.
type HistogramTally struct {
	counts [HistogramTallySize]uint64
	sum    uint64
}

// Tally records v into t, bucketed by h's bounds, without touching h's
// shared rows. Negative observations clamp to zero, as in Observe. A
// histogram of more than HistogramTallySize-1 bounds does not fit a
// tally — layouts are static, so that is an index panic, not a runtime
// condition.
func (h *Histogram) Tally(t *HistogramTally, v int64) {
	if v < 0 {
		v = 0
	}
	t.counts[h.bucket(v)]++
	t.sum += uint64(v)
}

// Flush adds t's observations to the shared shard row and zeroes t: the
// snapshot afterwards equals the one the same values through Observe
// would have left, for one atomic add per non-empty bucket plus at most
// two.
func (h *Histogram) Flush(t *HistogramTally) {
	nb := len(h.bounds) + 1
	var n uint64
	for i, c := range t.counts[:nb] {
		if c != 0 {
			h.rows[i].Add(c)
			n += c
		}
	}
	if n == 0 {
		return
	}
	h.rows[nb+slotCount].Add(n)
	if t.sum != 0 {
		h.rows[nb+slotSum].Add(t.sum)
	}
	*t = HistogramTally{}
}

// snapshot sums the shard rows.
func (h *Histogram) snapshot() HistogramSnapshot {
	nb := len(h.bounds) + 1
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, nb),
	}
	for shard := 0; shard < shardCount; shard++ {
		base := shard * h.stride
		for i := 0; i < nb; i++ {
			s.Counts[i] += h.rows[base+i].Load()
		}
		s.Count += h.rows[base+nb+slotCount].Load()
		s.Sum += h.rows[base+nb+slotSum].Load()
	}
	return s
}

// HistogramSnapshot is one histogram's point-in-time reading: Counts[i]
// observations fell at or below Bounds[i] (above Bounds[i-1]); the last
// slot is the overflow bucket. Sum is the total of all observed values.
type HistogramSnapshot struct {
	Bounds []int64  `json:"bounds"`
	Counts []uint64 `json:"counts"`
	Count  uint64   `json:"count"`
	Sum    uint64   `json:"sum"`
}

// Mean returns the average observation (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns an upper bound for the q-quantile (0 ≤ q ≤ 1): the
// bucket edge at or below which a q fraction of observations fell —
// except when the quantile lands in the overflow bucket, where the last
// finite bound is returned and is a *lower* bound (the true value
// exceeded every configured bucket edge). Callers sizing buckets should
// treat Quantile == Bounds[len-1] as "off the scale", not as a
// measurement.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	target := uint64(q * float64(s.Count))
	var seen uint64
	for i, c := range s.Counts {
		seen += c
		if seen > target || seen == s.Count {
			if i >= len(s.Bounds) {
				return s.Bounds[len(s.Bounds)-1]
			}
			return s.Bounds[i]
		}
	}
	return s.Bounds[len(s.Bounds)-1]
}

// sub returns the bucket-wise delta s − prev (zero-value prev allowed).
func (s HistogramSnapshot) sub(prev HistogramSnapshot) HistogramSnapshot {
	d := HistogramSnapshot{
		Bounds: s.Bounds,
		Counts: make([]uint64, len(s.Counts)),
		Count:  s.Count - prev.Count,
		Sum:    s.Sum - prev.Sum,
	}
	for i := range s.Counts {
		var p uint64
		if i < len(prev.Counts) {
			p = prev.Counts[i]
		}
		d.Counts[i] = s.Counts[i] - p
	}
	return d
}

// merge returns the bucket-wise sum of s and o (zero-value s allowed).
func (s HistogramSnapshot) merge(o HistogramSnapshot) HistogramSnapshot {
	if len(s.Counts) == 0 {
		out := HistogramSnapshot{
			Bounds: o.Bounds,
			Counts: append([]uint64(nil), o.Counts...),
			Count:  s.Count + o.Count,
			Sum:    s.Sum + o.Sum,
		}
		return out
	}
	out := HistogramSnapshot{
		Bounds: s.Bounds,
		Counts: append([]uint64(nil), s.Counts...),
		Count:  s.Count + o.Count,
		Sum:    s.Sum + o.Sum,
	}
	for i := range o.Counts {
		if i < len(out.Counts) {
			out.Counts[i] += o.Counts[i]
		}
	}
	return out
}

// ExponentialBuckets returns n bounds starting at first, each factor
// times the previous — the standard latency bucket layout.
func ExponentialBuckets(first int64, factor float64, n int) []int64 {
	if first <= 0 || factor <= 1 || n <= 0 {
		panic("telemetry: ExponentialBuckets needs first > 0, factor > 1, n > 0")
	}
	out := make([]int64, n)
	v := float64(first)
	for i := range out {
		out[i] = int64(v)
		if i > 0 && out[i] <= out[i-1] {
			out[i] = out[i-1] + 1 // guard against rounding collisions
		}
		v *= factor
	}
	return out
}

// LinearBuckets returns n bounds first, first+width, ...
func LinearBuckets(first, width int64, n int) []int64 {
	if width <= 0 || n <= 0 {
		panic("telemetry: LinearBuckets needs width > 0, n > 0")
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = first + int64(i)*width
	}
	return out
}
