package dataplane

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"recycle/internal/core"
	"recycle/internal/graph"
	"recycle/internal/rotation"
	"recycle/internal/telemetry"
)

// Packet is the engine's unit of work: one forwarding decision to make.
// Submit fills the first four fields; the worker fills the rest. It is 40
// bytes — four 4-byte words in, the 16-byte header both ways, then a
// 4-byte dart and two single bytes out (TestStateSizes) — so a batch of
// 256 is ten KB and a cache line holds a packet and a half.
type Packet struct {
	// Node is the router making the decision.
	Node graph.NodeID
	// Dst is the packet's destination node.
	Dst graph.NodeID
	// Ingress is the dart the packet arrived on (rotation.NoDart at the
	// origin).
	Ingress rotation.DartID
	// Bits is the packet's wire size, used by the egress stage for
	// link-rate pacing (0 = the egress default, 8192 bits).
	Bits int32
	// Hdr is the PR header before the decision; the worker overwrites it
	// with the post-decision header.
	Hdr core.Header

	// Egress is the chosen egress dart (rotation.NoDart when !OK).
	Egress rotation.DartID
	// Event classifies the decision.
	Event core.Event
	// OK is false when the router had no usable egress.
	OK bool
}

// Batch is a slice of packets handed to the engine together. Batching
// amortises ring hand-off and snapshot loads over many decisions. The two
// slices are independent planes of the same batch: Pkts carries abstract
// decisions (DecideBatch), Wire carries raw frames forwarded byte-in-place
// (ForwardWireBatch). Either may be empty.
type Batch struct {
	Pkts []Packet
	Wire []WirePacket
}

// size is the decision count the batch contributes to Engine.Decided.
func (b *Batch) size() uint64 { return uint64(len(b.Pkts) + len(b.Wire)) }

// EngineConfig parameterises NewEngine.
type EngineConfig struct {
	// Shards is the worker count (default: GOMAXPROCS, capped at 8).
	Shards int
	// Egress, when non-nil, is the pipeline's transmit stage: every
	// decided batch is handed to it (with the snapshot it was decided
	// under) before OnDone. See TxQueue for the built-in per-dart
	// serialising implementation.
	Egress Egress
	// OnDone, when non-nil, receives each batch after its packets have
	// been decided and transmitted, on the deciding worker's goroutine.
	// The engine keeps no reference afterwards, so OnDone may recycle
	// the batch.
	OnDone func(*Batch)
	// Metrics, when non-nil, publishes the engine's decision telemetry
	// into the registry: engine.decided / engine.batches, a per-event
	// breakdown (engine.event.*), drop and wire counters, and an
	// engine.queue.depth gauge sampled at snapshot time. Each worker
	// keeps a plain local tally flushed once per batch, so the per-
	// decision cost is one non-atomic increment; with Metrics nil the
	// hot path pays a single pointer test per batch.
	Metrics *telemetry.Registry
	// Tracer receives a span tree per SwapFIB/ApplyDelta — barrier wait
	// vs. apply — attributing hot-swap latency. Nil traces nothing; the
	// per-packet decide path is never spanned.
	Tracer *telemetry.Tracer
}

// Engine metric names, per decision event and outcome. The bank slot
// order of the first six matches core.Event values so a worker tallies
// with tally[int(event)&7]++.
const (
	MetricDecided       = "engine.decided"
	MetricBatches       = "engine.batches"
	MetricEventRoute    = "engine.event.route"
	MetricEventDetect   = "engine.event.detect"
	MetricEventCycle    = "engine.event.cycle"
	MetricEventContinue = "engine.event.continue"
	MetricEventResume   = "engine.event.resume"
	MetricDropNoRoute   = "engine.drop.no-route"
	MetricWireForwarded = "engine.wire.forwarded"
	MetricWireDropped   = "engine.wire.dropped"
	MetricQueueDepth    = "engine.queue.depth"
	MetricBatchNs       = "engine.batch_ns"
	MetricFIBMemBytes   = "fib.mem.bytes"
	// MetricSwapBarrierNs / MetricSwapApplyNs split each hot-swap's
	// latency: time spent waiting on the writer mutex (the swap barrier
	// contending with SetLink and other swaps) vs. time rebinding the
	// egress and publishing the new state. One observation per swap,
	// 1µs…262ms exponential buckets.
	MetricSwapBarrierNs = "engine.swap_barrier_ns"
	MetricSwapApplyNs   = "engine.swap_apply_ns"
)

// swapBuckets spans 1µs to ~262ms.
func swapBuckets() []int64 { return telemetry.ExponentialBuckets(1000, 4, 10) }

// shardMetrics is one worker's private instrumentation: a local tally
// (slots 0–4 mirror core.Event, 5 no-route, 6–7 the wire verdicts)
// flushed through a CounterBank once per batch, plus private handles
// for the decided/batch totals.
type shardMetrics struct {
	tally   telemetry.Tally
	bank    *telemetry.CounterBank
	decided telemetry.CounterHandle
	batches telemetry.CounterHandle
	batchNs telemetry.HistogramHandle // decision latency per batch
}

// tallySlot indexes beyond the core.Event range.
const (
	slotNoRoute       = 5 // aliases core.EventDeliver, which the FIB never emits
	slotWireForwarded = 6
	slotWireDropped   = 7
)

func newShardMetrics(r *telemetry.Registry) *shardMetrics {
	return &shardMetrics{
		bank: telemetry.NewCounterBank(r,
			MetricEventRoute, MetricEventDetect, MetricEventCycle,
			MetricEventContinue, MetricEventResume, MetricDropNoRoute,
			MetricWireForwarded, MetricWireDropped),
		decided: r.Counter(MetricDecided).Handle(),
		batches: r.Counter(MetricBatches).Handle(),
		// 100 ns .. ~1.7 ms per-batch decision latency.
		batchNs: r.Histogram(MetricBatchNs, telemetry.ExponentialBuckets(100, 4, 8)).Handle(),
	}
}

// Engine is the sharded forwarding engine, a three-stage pipeline:
// ingest (Submit pushes batches onto per-shard rings), decide (worker
// goroutines drain their ring against the compiled FIB), transmit (the
// configured Egress paces decided packets onto per-dart queues). With no
// Egress configured the pipeline stops at the decision, the shape the
// engine had before transmit existed.
//
// Forwarding state — the FIB plus the interface-state bitset — lives in
// one atomically swapped immutable pair (RCU style): SetLink copies the
// bitset, flips one bit and republishes; SwapFIB/ApplyDelta publish a
// recompiled FIB with the detected failures carried over. A link the FIB
// lists as removed is down in every bitset the engine publishes: the
// failure that never heals, which PR already survives. Workers load
// the pair once per batch, so they never take a lock, never see a torn
// state, and never mix a FIB with a bitset sized for a different link
// space. A batch in flight across a swap finishes under the pair it
// started with; every batch popped after SwapFIB returns decides on the
// new FIB — that return is the swap barrier, and nothing is dropped.
type Engine struct {
	cur    atomic.Pointer[engineState]
	cfg    EngineConfig
	mu     sync.Mutex // serialises SetLink / SwapFIB writers
	shards []*shard
	next   atomic.Uint64 // round-robin submit cursor
	closed atomic.Bool
	stop   chan struct{} // closed by Close to wake parked workers
	wg     sync.WaitGroup

	// memGauge tracks the resident bytes of the FIB currently forwarded
	// on (fib.mem.bytes), re-published at every swap. Nil when the
	// engine is uninstrumented.
	memGauge *telemetry.Gauge
	// swapBarrierNs/swapApplyNs attribute each hot-swap's latency; nil
	// when the engine is uninstrumented.
	swapBarrierNs *telemetry.Histogram
	swapApplyNs   *telemetry.Histogram
}

// engineState is the RCU unit: a FIB and an interface-state snapshot
// sized for the same link space, always published together.
type engineState struct {
	fib   *FIB
	links *LinkState
}

// shard pairs one ring with one worker. Counters are padded apart so
// per-shard updates do not false-share cache lines.
type shard struct {
	ring    ring
	notify  chan struct{} // wakes a parked worker after a push
	metrics *shardMetrics // nil when the engine is uninstrumented
	decided atomic.Uint64
	_       [56]byte
}

// ringDepth is the per-shard ring capacity in batches, a power of two.
const ringDepth = 256

// ring is a bounded queue of batches: multi-producer (Submit serialises
// with a short per-shard lock at batch granularity), single consumer (the
// shard's worker pops lock-free).
type ring struct {
	buf  []*Batch
	mask uint64
	mu   sync.Mutex
	head atomic.Uint64 // consumer position
	tail atomic.Uint64 // producer position
}

// push refuses once closed is set; checking under the ring lock, paired
// with Close's lock-then-sweep of each ring, guarantees no accepted batch
// is ever stranded by the Submit/Close race.
func (r *ring) push(b *Batch, closed *atomic.Bool) bool {
	r.mu.Lock()
	if closed.Load() {
		r.mu.Unlock()
		return false
	}
	t := r.tail.Load()
	if t-r.head.Load() >= uint64(len(r.buf)) {
		r.mu.Unlock()
		return false
	}
	r.buf[t&r.mask] = b
	r.tail.Store(t + 1)
	r.mu.Unlock()
	return true
}

func (r *ring) pop() *Batch {
	h := r.head.Load()
	if h == r.tail.Load() {
		return nil
	}
	b := r.buf[h&r.mask]
	r.buf[h&r.mask] = nil
	r.head.Store(h + 1)
	return b
}

// NewEngine starts the workers and returns a running engine with every
// link up but the FIB's removed ones. Callers must Close it to stop the
// workers.
func NewEngine(fib *FIB, cfg EngineConfig) *Engine {
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
		if cfg.Shards > 8 {
			cfg.Shards = 8
		}
	}
	e := &Engine{cfg: cfg, shards: make([]*shard, cfg.Shards), stop: make(chan struct{})}
	e.cur.Store(&engineState{fib: fib, links: fib.LinkState(nil)})
	for i := range e.shards {
		e.shards[i] = &shard{
			ring:   ring{buf: make([]*Batch, ringDepth), mask: ringDepth - 1},
			notify: make(chan struct{}, 1),
		}
		if cfg.Metrics != nil {
			e.shards[i].metrics = newShardMetrics(cfg.Metrics)
		}
		e.wg.Add(1)
		go e.worker(e.shards[i])
	}
	if cfg.Metrics != nil {
		e.memGauge = cfg.Metrics.Gauge(MetricFIBMemBytes)
		e.memGauge.Set(fib.MemBytes())
		e.swapBarrierNs = cfg.Metrics.Histogram(MetricSwapBarrierNs, swapBuckets())
		e.swapApplyNs = cfg.Metrics.Histogram(MetricSwapApplyNs, swapBuckets())
		depthGauge := cfg.Metrics.Gauge(MetricQueueDepth)
		cfg.Metrics.RegisterCollector(telemetry.CollectorFunc(func(*telemetry.Snapshot) {
			var n int64
			for _, sh := range e.shards {
				n += int64(sh.ring.tail.Load() - sh.ring.head.Load())
			}
			depthGauge.Set(n)
		}))
	}
	return e
}

// Shards returns the worker count.
func (e *Engine) Shards() int { return len(e.shards) }

// Snapshot returns the current interface-state snapshot. Callers must
// treat it as immutable.
func (e *Engine) Snapshot() *LinkState { return e.cur.Load().links }

// FIB returns the FIB the engine currently forwards on. It changes only
// through SwapFIB/ApplyDelta.
func (e *Engine) FIB() *FIB { return e.cur.Load().fib }

// SetLink publishes a local failure detection (or repair): copy-on-write
// the current snapshot and swap it in. A repair of a link the FIB lists
// as removed leaves it down. Concurrent writers serialise on a mutex;
// readers are never blocked.
func (e *Engine) SetLink(l graph.LinkID, down bool) {
	e.mu.Lock()
	cur := e.cur.Load()
	next := cur.links.Clone()
	next.Set(l, down)
	e.cur.Store(&engineState{fib: cur.fib, links: next})
	e.mu.Unlock()
}

// SwapFIB hot-swaps the engine onto a recompiled FIB without dropping a
// packet: workers pick the new state up at their next batch, batches
// already in flight finish consistently under the old pair. Link IDs
// never move, so f's link space is the current one, grown by any
// appended links: a detected failure keeps its bit, a link f removes is
// down for good, and one it revives comes back up. When SwapFIB returns,
// every batch not yet being decided — including everything submitted
// afterwards — is decided on the new FIB: that is the swap barrier the
// churn tests pin.
//
// A configured Egress is keyed by dart. When f appends links, an Egress
// implementing DartRebinder (TxQueue does) grows to the new dart space
// before the new state publishes, and every dart keeps its pacing clock;
// the swap is refused when the attached Egress cannot grow. A FIB with
// fewer links than the current one is no edit of it and is refused.
func (e *Engine) SwapFIB(f *FIB) error {
	if f == nil {
		return fmt.Errorf("dataplane: nil FIB")
	}
	root := e.cfg.Tracer.Start("engine.swap", 0)
	defer root.End()
	barrier, barrierT0 := e.cfg.Tracer.Start("engine.swap.barrier", root.ID()), time.Now()
	e.mu.Lock()
	barrier.End()
	if e.swapBarrierNs != nil {
		e.swapBarrierNs.Observe(int64(time.Since(barrierT0)))
	}
	defer e.mu.Unlock()
	cur := e.cur.Load()
	if f.NumLinks() < cur.fib.NumLinks() {
		return fmt.Errorf("dataplane: link space shrank (%d → %d links); link IDs never move, so this FIB is no edit of the running one",
			cur.fib.NumLinks(), f.NumLinks())
	}
	var rb DartRebinder
	if e.cfg.Egress != nil && f.NumLinks() > cur.fib.NumLinks() {
		var ok bool
		if rb, ok = e.cfg.Egress.(DartRebinder); !ok {
			return fmt.Errorf("dataplane: egress %T is keyed by dart and cannot grow; rebuild the engine to add links", e.cfg.Egress)
		}
	}
	apply, applyT0 := e.cfg.Tracer.Start("engine.swap.apply", root.ID()), time.Now()
	if rb != nil {
		// Grow before publishing: every batch decided on the new FIB
		// transmits into a dart space that holds its darts.
		rb.RebindDarts(2 * f.NumLinks())
	}
	// Carry the detected failures over; a link the old FIB removed and f
	// revives comes back up.
	links := f.LinkState(nil)
	for l := 0; l < cur.fib.NumLinks(); l++ {
		if cur.links.Down(graph.LinkID(l)) && !cur.links.isRemoved(graph.LinkID(l)) {
			links.Set(graph.LinkID(l), true)
		}
	}
	e.cur.Store(&engineState{fib: f, links: links})
	if e.memGauge != nil {
		e.memGauge.Set(f.MemBytes())
	}
	apply.End()
	if e.swapApplyNs != nil {
		e.swapApplyNs.Observe(int64(time.Since(applyT0)))
	}
	return nil
}

// ApplyDelta is SwapFIB for a Recompiler delta.
func (e *Engine) ApplyDelta(d *Delta) error {
	if d == nil {
		return fmt.Errorf("dataplane: nil delta")
	}
	return e.SwapFIB(d.FIB)
}

// Submit hands a batch to a shard (round-robin, falling over to the next
// shard when one ring is full). It returns false when every ring is full
// or the engine is closed — backpressure the caller must handle. After a
// successful Submit the engine owns the batch until OnDone returns it.
func (e *Engine) Submit(b *Batch) bool {
	if e.closed.Load() {
		return false
	}
	start := e.next.Add(1) - 1
	for i := 0; i < len(e.shards); i++ {
		sh := e.shards[(start+uint64(i))%uint64(len(e.shards))]
		if sh.ring.push(b, &e.closed) {
			wake(sh)
			return true
		}
	}
	return false
}

// SubmitTo hands a batch to a specific shard, for callers that partition
// traffic themselves (e.g. by ingress port).
func (e *Engine) SubmitTo(shard int, b *Batch) bool {
	sh := e.shards[shard]
	if !sh.ring.push(b, &e.closed) {
		return false
	}
	wake(sh)
	return true
}

// wake nudges a parked worker; the buffered token makes it lossless
// without ever blocking the producer.
func wake(sh *shard) {
	select {
	case sh.notify <- struct{}{}:
	default:
	}
}

// Close stops accepting batches, waits for the workers to drain and
// exit, then returns the total number of decisions made. A batch whose
// Submit raced with Close and won (push saw closed unset) is decided
// here: taking each ring's lock after the workers exit fences out every
// in-flight push, so the final sweep observes anything they accepted.
func (e *Engine) Close() uint64 {
	if !e.closed.CompareAndSwap(false, true) {
		return e.Decided() // already closed
	}
	close(e.stop)
	e.wg.Wait()
	for _, sh := range e.shards {
		sh.ring.mu.Lock()
		var leftovers []*Batch
		for b := sh.ring.pop(); b != nil; b = sh.ring.pop() {
			leftovers = append(leftovers, b)
		}
		sh.ring.mu.Unlock()
		for _, b := range leftovers {
			// The same instrumented path the worker ran: the sweep's
			// decisions land in the shard's counters (flushed per batch),
			// so a Submit that raced Close and won is fully counted — a
			// snapshot taken after Close never under-reports.
			e.decideBatch(sh, b, e.cur.Load())
		}
	}
	return e.Decided()
}

// Step decides b on the caller's goroutine under the current state —
// decide → tally → transmit → OnDone, as a worker does — and returns the
// FIB it was decided under: after a structural swap, egress darts mean
// something only in that FIB's dart space. Step counts on shard 0's
// unsynchronised tally, so a caller that steps must not also Submit.
func (e *Engine) Step(b *Batch) *FIB {
	st := e.cur.Load()
	e.decideBatch(e.shards[0], b, st)
	return st.fib
}

// decideBatch runs one batch through decide → tally → transmit → done.
// It is the single decision path: workers, Step and Close's leftover
// sweep all come through here, so counters are flushed wherever a batch
// is decided.
func (e *Engine) decideBatch(sh *shard, b *Batch, st *engineState) {
	m := sh.metrics
	if m == nil {
		st.fib.DecideBatch(b.Pkts, st.links)
		st.fib.ForwardWireBatch(b.Wire, st.links)
	} else {
		t0 := time.Now()
		t := &m.tally
		st.fib.DecideBatchTally(b.Pkts, st.links, (*[telemetry.TallySize]uint64)(t))
		fwd := st.fib.ForwardWireBatch(b.Wire, st.links)
		t[slotWireForwarded] += uint64(fwd)
		t[slotWireDropped] += uint64(len(b.Wire) - fwd)
		m.batchNs.Observe(int64(time.Since(t0)))
		m.bank.Flush(t)
		m.decided.Add(b.size())
		m.batches.Inc()
	}
	if e.cfg.Egress != nil {
		e.cfg.Egress.Transmit(b, st.links)
	}
	sh.decided.Add(b.size())
	if e.cfg.OnDone != nil {
		e.cfg.OnDone(b)
	}
}

// Decided returns the total decisions made so far across all shards.
func (e *Engine) Decided() uint64 {
	var n uint64
	for _, sh := range e.shards {
		n += sh.decided.Load()
	}
	return n
}

func (e *Engine) worker(sh *shard) {
	defer e.wg.Done()
	idle := 0
	for {
		b := sh.ring.pop()
		if b == nil {
			if e.closed.Load() {
				// Re-check after observing closed: a batch may have been
				// pushed between the failed pop and the flag read. (Close
				// sweeps the ring afterwards, so even a push that lands
				// after this is decided, not stranded.)
				if b = sh.ring.pop(); b == nil {
					return
				}
			} else if idle < 64 {
				// Brief spin keeps latency low across momentary gaps.
				idle++
				runtime.Gosched()
				continue
			} else {
				// Park until the next push (or Close) instead of burning
				// a core on an idle engine.
				select {
				case <-sh.notify:
				case <-e.stop:
				}
				idle = 0
				continue
			}
		}
		idle = 0
		// One load covers the whole batch: its decisions see a single
		// consistent (FIB, interface-state) pair — across a hot-swap a
		// batch is decided wholly on the old or wholly on the new state —
		// and the egress stage paces under the same snapshot.
		e.decideBatch(sh, b, e.cur.Load())
	}
}
