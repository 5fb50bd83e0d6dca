// Package telemetry is the process-wide observability layer: a
// zero-allocation hot-path metrics core (sharded cache-padded counters,
// gauges and fixed-bucket histograms registered in one Registry with a
// consistent Snapshot), a per-packet flight recorder that captures a
// packet's full cycle walk for post-mortem explanation, and an epoch
// timeline that folds counters into per-epoch deltas keyed to
// failure-scenario events.
//
// The engine workers, the egress transmit queues, the delta recompiler
// and the packet account (sim.Account, which counts and referees every
// simulator and soak packet) all record into the same Registry, so
// one Snapshot is the coherent state of the whole pipeline — the single
// metrics surface; per-subsystem stats structs that once each told a
// disconnected part of the story have been retired in its favour.
//
// # Hot-path discipline
//
// Nothing on a forwarding hot path may allocate or contend. Counters are
// banks of cache-line-padded cells: a worker takes a CounterHandle once
// (its own cell) and increments it with a single uncontended atomic add.
// For per-decision event counting even an atomic per packet is too much;
// a worker keeps a plain local Tally and flushes it through a
// CounterBank once per batch — one atomic add per metric per 256
// decisions. Histograms follow the same pattern with per-shard bucket
// rows, and a HistogramTally flushed once per batch where a per-packet
// observation is too much. The instrumentation-overhead budget is
// pinned by benchmark tests: 0 allocs/op, and the instrumented decide
// path within 5% of the bare one.
//
// # Snapshot consistency
//
// Snapshot reads every cell with atomic loads, so each individual metric
// is an exact point-in-time sum and never torn. Cross-metric consistency
// is exact when writers are quiescent (an engine after Close, the
// single-threaded simulator at an epoch boundary) — which is when the
// timeline and the reports read it.
package telemetry

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// shardCount is the number of padded cells per counter/histogram. A
// power of two so handle assignment is a mask; 8 matches the engine's
// shard cap.
const shardCount = 8

// cell is one cache-line-isolated counter word: 8 bytes of value, 56 of
// padding, so neighbouring cells never false-share.
type cell struct {
	v atomic.Uint64
	_ [56]byte
}

// Counter is a monotonically increasing sharded counter. Add/Inc on the
// Counter itself serialise on cell 0 (fine for control-plane paths);
// hot paths take a Handle — a private cell — once, then increment it
// without contention.
type Counter struct {
	name  string
	next  atomic.Uint32
	cells [shardCount]cell
}

// Name returns the counter's registered name.
func (c *Counter) Name() string { return c.name }

// Add increments the counter by n on the shared cell.
func (c *Counter) Add(n uint64) { c.cells[0].v.Add(n) }

// Inc increments the counter by one on the shared cell.
func (c *Counter) Inc() { c.cells[0].v.Add(1) }

// Value sums all cells: the counter's current total.
func (c *Counter) Value() uint64 {
	var n uint64
	for i := range c.cells {
		n += c.cells[i].v.Load()
	}
	return n
}

// Handle returns a private cell of the counter (round-robin over the
// shard set). A handle's Add is one uncontended atomic on its own cache
// line; each concurrent writer should hold its own handle.
func (c *Counter) Handle() CounterHandle {
	i := c.next.Add(1) - 1
	return CounterHandle{c: &c.cells[i&(shardCount-1)]}
}

// CounterHandle is one writer's view of a Counter. The zero value is
// invalid; obtain handles from Counter.Handle.
type CounterHandle struct{ c *cell }

// Add increments the handle's cell by n.
func (h CounterHandle) Add(n uint64) { h.c.v.Add(n) }

// Inc increments the handle's cell by one.
func (h CounterHandle) Inc() { h.c.v.Add(1) }

// Gauge is an instantaneous level (queue depth, current epoch). Unlike a
// Counter it can move both ways; it is a single atomic — gauges are
// updated at batch granularity or slower, never per packet.
type Gauge struct {
	name string
	v    atomic.Int64
}

// Name returns the gauge's registered name.
func (g *Gauge) Name() string { return g.name }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by d (negative to decrease).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// SetMax raises the gauge to v if v exceeds the current value — the
// high-watermark update (maximum latency, peak backlog).
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// TallySize is the slot count of a Tally — sized so a core.Event (< 8)
// indexes it with a mask instead of a bounds check.
const TallySize = 8

// Tally is a plain local accumulator for hot loops: a worker increments
// slots with ordinary (non-atomic) adds — one machine instruction per
// decision — and flushes through a CounterBank once per batch. The zero
// value is ready to use.
type Tally [TallySize]uint64

// CounterBank binds up to TallySize counters to tally slots, with a
// private handle per slot. One bank per writer: build it where the
// writer starts (NewCounterBank round-robins fresh cells each call).
type CounterBank struct {
	handles [TallySize]CounterHandle
	n       int
}

// NewCounterBank resolves names (get-or-create) in r and returns a bank
// whose slot i flushes into names[i]. It panics when more than TallySize
// names are given — bank layouts are static, so this is a programming
// error, not a runtime condition.
func NewCounterBank(r *Registry, names ...string) *CounterBank {
	if len(names) > TallySize {
		panic(fmt.Sprintf("telemetry: counter bank of %d names exceeds %d slots", len(names), TallySize))
	}
	b := &CounterBank{n: len(names)}
	for i, name := range names {
		b.handles[i] = r.Counter(name).Handle()
	}
	return b
}

// Flush adds each non-zero tally slot to its counter and zeroes the
// tally — at most one atomic add per bound metric.
func (b *CounterBank) Flush(t *Tally) {
	for i := 0; i < b.n; i++ {
		if t[i] != 0 {
			b.handles[i].Add(t[i])
			t[i] = 0
		}
	}
}

// Collector contributes derived or externally-owned values to a
// Snapshot at read time — the adapter that lets subsystems with private
// accounting (the recompiler and its repairer pool) publish into the
// registry without moving their hot paths onto telemetry primitives.
type Collector interface {
	Collect(s *Snapshot)
}

// CollectorFunc adapts a function to the Collector interface.
type CollectorFunc func(s *Snapshot)

// Collect implements Collector.
func (f CollectorFunc) Collect(s *Snapshot) { f(s) }

// Registry is the process-wide metric namespace: counters, gauges and
// histograms are created on first use by name, collectors are sampled at
// snapshot time. All methods are safe for concurrent use; instrument
// lookups take a lock, so hot paths resolve instruments once, up front.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	hists      map[string]*Histogram
	collectors []Collector
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{name: name}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{name: name}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named fixed-bucket histogram, creating it with
// the given bounds on first use. Later calls return the existing
// histogram and ignore bounds; callers sharing a name must agree on the
// layout (Bounds exposes it).
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(name, bounds)
		r.hists[name] = h
	}
	return h
}

// RegisterCollector adds a snapshot-time collector.
func (r *Registry) RegisterCollector(c Collector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, c)
}

// Snapshot reads every registered instrument and collector into an
// immutable value snapshot.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.Lock()
	counters := make([]*Counter, 0, len(r.counters))
	for _, c := range r.counters {
		counters = append(counters, c)
	}
	gauges := make([]*Gauge, 0, len(r.gauges))
	for _, g := range r.gauges {
		gauges = append(gauges, g)
	}
	hists := make([]*Histogram, 0, len(r.hists))
	for _, h := range r.hists {
		hists = append(hists, h)
	}
	collectors := append([]Collector(nil), r.collectors...)
	r.mu.Unlock()

	s := &Snapshot{
		Counters:   make(map[string]uint64, len(counters)),
		Gauges:     make(map[string]int64, len(gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(hists)),
	}
	for _, c := range counters {
		s.Counters[c.name] = c.Value()
	}
	for _, g := range gauges {
		s.Gauges[g.name] = g.Value()
	}
	for _, h := range hists {
		s.Histograms[h.name] = h.snapshot()
	}
	for _, c := range collectors {
		c.Collect(s)
	}
	return s
}

// Snapshot is a point-in-time reading of a Registry: plain maps, safe to
// retain, compare and serialise (the HTTP endpoint emits it as JSON).
// Spans is populated when a Tracer is registered as a Collector and
// participates in Sub/Merge like every other instrument.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Spans      *SpanSnapshot                `json:"spans,omitempty"`
}

// NewSnapshot returns an empty snapshot (used by tests and collectors).
func NewSnapshot() *Snapshot {
	return &Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
}

// Counter returns the named counter value (0 when absent).
func (s *Snapshot) Counter(name string) uint64 { return s.Counters[name] }

// Gauge returns the named gauge value (0 when absent).
func (s *Snapshot) Gauge(name string) int64 { return s.Gauges[name] }

// SetCounter records a counter value — the emit hook for Collectors.
func (s *Snapshot) SetCounter(name string, v uint64) { s.Counters[name] = v }

// AddCounter accumulates v into the named counter — the emit hook for
// Collectors whose instances may share a registry (several Recompilers
// across a soak restart, say): each contributes its total instead of
// overwriting the last writer's.
func (s *Snapshot) AddCounter(name string, v uint64) { s.Counters[name] += v }

// SetGauge records a gauge value — the emit hook for Collectors.
func (s *Snapshot) SetGauge(name string, v int64) { s.Gauges[name] = v }

// Sub returns s minus prev: counter and histogram values become the
// delta accumulated between the two snapshots; gauges are levels, not
// rates, so s's value is kept as-is. Names absent from prev are treated
// as zero. This is the epoch-delta primitive of the Timeline.
func (s *Snapshot) Sub(prev *Snapshot) *Snapshot {
	d := &Snapshot{
		Counters:   make(map[string]uint64, len(s.Counters)),
		Gauges:     make(map[string]int64, len(s.Gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(s.Histograms)),
	}
	for name, v := range s.Counters {
		d.Counters[name] = v - prev.Counters[name]
	}
	for name, v := range s.Gauges {
		d.Gauges[name] = v
	}
	for name, h := range s.Histograms {
		d.Histograms[name] = h.sub(prev.Histograms[name])
	}
	d.Spans = s.Spans.Sub(prev.Spans)
	return d
}

// Merge adds o's counters and histograms into s (creating names as
// needed) and overwrites gauges with o's values — the inverse of Sub,
// used to prove per-epoch deltas sum back to the aggregate exactly.
func (s *Snapshot) Merge(o *Snapshot) {
	for name, v := range o.Counters {
		s.Counters[name] += v
	}
	for name, v := range o.Gauges {
		s.Gauges[name] = v
	}
	for name, h := range o.Histograms {
		s.Histograms[name] = s.Histograms[name].merge(h)
	}
	if o.Spans != nil {
		s.Spans = s.Spans.Merge(o.Spans)
	}
}

// Names returns the sorted union of all metric names in the snapshot.
func (s *Snapshot) Names() []string {
	names := make([]string, 0, len(s.Counters)+len(s.Gauges)+len(s.Histograms))
	for n := range s.Counters {
		names = append(names, n)
	}
	for n := range s.Gauges {
		names = append(names, n)
	}
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
