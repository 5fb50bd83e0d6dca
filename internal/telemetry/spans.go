package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span tracing: causally-linked timed regions over the control plane.
//
// A Tracer hands out Spans — (name, parent, monotonic start, duration,
// a few typed attributes) — and collects ended spans into a bounded
// ring. The hot path is allocation-free: Start returns a Span by value,
// SetAttr writes into a fixed inline array drawn from a small interned
// key set, and End claims a ring slot under a short mutex (control-plane
// spans fire per phase or per worker range, never per packet, so a lock
// is cheap and keeps the ring race-clean).
//
// Causality is by ID, never by ring position: IDs are assigned at Start
// from an atomic sequence, so a child records its parent's ID before the
// parent has ended, and ring wraparound can evict a finished span's
// record without ever invalidating the linkage of spans still alive.
//
// A Tracer is a Collector: registered on a Registry it contributes a
// SpanSnapshot to every Snapshot, and because SpanSnapshot participates
// in the Sub/Merge algebra, Timeline epochs carry exactly the spans that
// ended inside them — span trees and epoch deltas tell one story.

// SpanID identifies a span within its Tracer; 0 means "no parent".
type SpanID uint64

// AttrKey names a span attribute. Keys are a closed interned set so
// attaching one stores two words, never a string.
type AttrKey uint8

// The interned attribute key set.
const (
	attrNone   AttrKey = iota
	AttrWorker         // fan-out worker index
	AttrLo             // range start (inclusive)
	AttrHi             // range end (exclusive)
	AttrCount          // generic cardinality: edits, columns, pairs, restarts
	AttrEpoch          // timeline epoch index
	AttrNodes          // graph node count
	AttrDest           // destination node
	AttrSeed           // RNG seed
	AttrLink           // link ID (scenario events, swaps)
	numAttrKeys
)

var attrKeyNames = [numAttrKeys]string{
	attrNone: "none", AttrWorker: "worker", AttrLo: "lo", AttrHi: "hi",
	AttrCount: "count", AttrEpoch: "epoch", AttrNodes: "nodes",
	AttrDest: "dest", AttrSeed: "seed", AttrLink: "link",
}

// String returns the key's interned name.
func (k AttrKey) String() string {
	if k < numAttrKeys {
		return attrKeyNames[k]
	}
	return "unknown"
}

// MaxSpanAttrs is the inline attribute capacity of a span; SetAttr
// beyond it is dropped (attrs are labels, not storage).
const MaxSpanAttrs = 4

// SpanAttr is one typed attribute: an interned key and an int64 value.
type SpanAttr struct {
	Key AttrKey `json:"key"`
	Val int64   `json:"val"`
}

// SpanRecord is one ended span as it appears in a SpanSnapshot.
type SpanRecord struct {
	// Seq is the publication sequence (ascending End order, 1-based) —
	// the identity the snapshot algebra dedups and deltas by.
	Seq uint64 `json:"seq"`
	// ID and Parent are Start-order identities; Parent 0 is a root.
	ID     SpanID `json:"id"`
	Parent SpanID `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Start is monotonic time since the Tracer's creation; Dur the
	// span's length.
	Start time.Duration `json:"start_ns"`
	Dur   time.Duration `json:"dur_ns"`
	Attrs []SpanAttr    `json:"attrs,omitempty"`
}

// End returns the span's monotonic end instant.
func (r SpanRecord) End() time.Duration { return r.Start + r.Dur }

// Attr returns the value of key k (0, false when absent).
func (r SpanRecord) Attr(k AttrKey) (int64, bool) {
	for _, a := range r.Attrs {
		if a.Key == k {
			return a.Val, true
		}
	}
	return 0, false
}

// spanSlot is one ring entry; attrs are inline so publication never
// allocates. seq 0 marks an empty slot (publication seqs are 1-based).
type spanSlot struct {
	seq        uint64
	id, parent uint64
	name       string
	start, dur time.Duration
	attrs      [MaxSpanAttrs]SpanAttr
	nattrs     uint8
}

// Tracer produces spans into a bounded ring. The zero value is not
// usable; a nil *Tracer is — every method no-ops, so instrumented code
// needs no "tracing enabled?" branches.
type Tracer struct {
	start time.Time
	ids   atomic.Uint64 // span IDs, assigned at Start

	mu      sync.Mutex
	ring    []spanSlot
	seq     uint64 // next publication seq - 1 (published count)
	dropped uint64 // finished spans evicted by wraparound
}

// DefaultSpanRing is the ring capacity NewTracer uses for capacity <= 0.
const DefaultSpanRing = 4096

// NewTracer returns a tracer with a ring of at least `capacity` ended
// spans (rounded up to a power of two; <= 0 selects DefaultSpanRing).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultSpanRing
	}
	size := 1
	for size < capacity {
		size <<= 1
	}
	return &Tracer{start: time.Now(), ring: make([]spanSlot, size)}
}

// Span is a live timed region. It is a value — keep it on the stack,
// call End exactly once. The zero Span (and any span from a nil Tracer)
// is inert: SetAttr and End no-op.
type Span struct {
	t          *Tracer
	id, parent uint64
	name       string
	start      time.Duration
	attrs      [MaxSpanAttrs]SpanAttr
	nattrs     uint8
}

// Start opens a span. parent 0 makes a root; pass parent.ID() to nest.
// Safe on a nil Tracer (returns an inert span).
func (t *Tracer) Start(name string, parent SpanID) Span {
	if t == nil {
		return Span{}
	}
	return Span{
		t:      t,
		id:     t.ids.Add(1),
		parent: uint64(parent),
		name:   name,
		start:  time.Since(t.start),
	}
}

// ID returns the span's identity for parenting children (0 when inert).
func (s *Span) ID() SpanID { return SpanID(s.id) }

// SetAttr attaches a typed attribute; beyond MaxSpanAttrs it is dropped.
func (s *Span) SetAttr(k AttrKey, v int64) {
	if s.t == nil || s.nattrs >= MaxSpanAttrs {
		return
	}
	s.attrs[s.nattrs] = SpanAttr{Key: k, Val: v}
	s.nattrs++
}

// End closes the span and publishes it into the ring, evicting the
// oldest ended span when full. Live (unended) spans are never in the
// ring, so eviction cannot orphan them: when they End later they publish
// with their original ID and children keep linking to it.
func (s *Span) End() {
	if s.t == nil {
		return
	}
	t := s.t
	dur := time.Since(t.start) - s.start
	t.mu.Lock()
	t.seq++
	i := t.seq & uint64(len(t.ring)-1)
	if t.ring[i].seq != 0 {
		t.dropped++
	}
	t.ring[i] = spanSlot{
		seq: t.seq, id: s.id, parent: s.parent, name: s.name,
		start: s.start, dur: dur, attrs: s.attrs, nattrs: s.nattrs,
	}
	t.mu.Unlock()
	s.t = nil // double-End is a no-op, not a duplicate record
}

// Epoch returns the tracer's creation instant — the zero point of every
// span's Start.
func (t *Tracer) Epoch() time.Time { return t.start }

// RangeObserver adapts the tracer to par.ForObserved: the returned
// observer opens one child span of parent per worker range, tagged with
// the worker index and bounds, and ends it when the range completes. A
// nil tracer returns nil — the fan-out then runs unobserved at zero
// cost. (The signature matches par.RangeObserver structurally so this
// package needs no par import.)
func (t *Tracer) RangeObserver(name string, parent SpanID) func(worker, lo, hi int) func() {
	if t == nil {
		return nil
	}
	return func(worker, lo, hi int) func() {
		sp := t.Start(name, parent)
		sp.SetAttr(AttrWorker, int64(worker))
		sp.SetAttr(AttrLo, int64(lo))
		sp.SetAttr(AttrHi, int64(hi))
		return func() { sp.End() }
	}
}

// SpanSnapshot is the tracer's point-in-time reading: the ended spans
// still in the ring, ascending by Seq, plus the eviction count. It
// participates in the Snapshot Sub/Merge algebra keyed by Seq.
type SpanSnapshot struct {
	Spans   []SpanRecord `json:"spans,omitempty"`
	Dropped uint64       `json:"dropped,omitempty"`
	// MaxSeq is the highest publication seq ever assigned — the Sub
	// watermark (spans in the ring all have Seq <= MaxSeq).
	MaxSeq uint64 `json:"max_seq,omitempty"`
}

// SpanSnapshot reads the ring (nil-tracer safe, returns nil).
func (t *Tracer) SpanSnapshot() *SpanSnapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := &SpanSnapshot{Dropped: t.dropped, MaxSeq: t.seq}
	for i := range t.ring {
		sl := &t.ring[i]
		if sl.seq == 0 {
			continue
		}
		r := SpanRecord{
			Seq: sl.seq, ID: SpanID(sl.id), Parent: SpanID(sl.parent),
			Name: sl.name, Start: sl.start, Dur: sl.dur,
		}
		if sl.nattrs > 0 {
			r.Attrs = append([]SpanAttr(nil), sl.attrs[:sl.nattrs]...)
		}
		out.Spans = append(out.Spans, r)
	}
	t.mu.Unlock()
	sort.Slice(out.Spans, func(i, j int) bool { return out.Spans[i].Seq < out.Spans[j].Seq })
	return out
}

// Collect implements Collector: a tracer registered on a Registry
// contributes its SpanSnapshot to every Snapshot.
func (t *Tracer) Collect(s *Snapshot) {
	if t == nil {
		return
	}
	s.Spans = t.SpanSnapshot()
}

// Sub returns the spans published after prev's watermark — the epoch
// delta. A nil prev (or receiver) behaves as empty.
func (s *SpanSnapshot) Sub(prev *SpanSnapshot) *SpanSnapshot {
	if s == nil {
		return nil
	}
	var mark, pdropped uint64
	if prev != nil {
		mark, pdropped = prev.MaxSeq, prev.Dropped
	}
	d := &SpanSnapshot{Dropped: s.Dropped - pdropped, MaxSeq: s.MaxSeq}
	for _, r := range s.Spans {
		if r.Seq > mark {
			d.Spans = append(d.Spans, r)
		}
	}
	return d
}

// Merge unions o into s by Seq — duplicates collapse, order of merging
// is immaterial (the result is always ascending by Seq) — and returns
// the merged snapshot. The inverse of Sub: merging every epoch delta
// reproduces the aggregate exactly when the ring never wrapped within
// an epoch.
func (s *SpanSnapshot) Merge(o *SpanSnapshot) *SpanSnapshot {
	if s == nil {
		if o == nil {
			return nil
		}
		s = &SpanSnapshot{}
	}
	if o == nil {
		return s
	}
	seen := make(map[uint64]bool, len(s.Spans)+len(o.Spans))
	merged := make([]SpanRecord, 0, len(s.Spans)+len(o.Spans))
	for _, r := range s.Spans {
		if !seen[r.Seq] {
			seen[r.Seq] = true
			merged = append(merged, r)
		}
	}
	for _, r := range o.Spans {
		if !seen[r.Seq] {
			seen[r.Seq] = true
			merged = append(merged, r)
		}
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].Seq < merged[j].Seq })
	out := &SpanSnapshot{Spans: merged, Dropped: s.Dropped + o.Dropped, MaxSeq: s.MaxSeq}
	if o.MaxSeq > out.MaxSeq {
		out.MaxSeq = o.MaxSeq
	}
	return out
}

// TotalDur sums every span's duration — the scalar the timeline sum
// check compares epoch-by-epoch against the aggregate.
func (s *SpanSnapshot) TotalDur() time.Duration {
	if s == nil {
		return 0
	}
	var d time.Duration
	for _, r := range s.Spans {
		d += r.Dur
	}
	return d
}

// ByName returns the spans with the given name, in Seq order.
func (s *SpanSnapshot) ByName(name string) []SpanRecord {
	if s == nil {
		return nil
	}
	var out []SpanRecord
	for _, r := range s.Spans {
		if r.Name == name {
			out = append(out, r)
		}
	}
	return out
}
