package dataplane

import (
	"fmt"
	"sync"
	"time"

	"recycle/internal/rotation"
	"recycle/internal/telemetry"
)

// Egress is stage three of the engine pipeline (ingest → decide →
// transmit): it receives each decided batch on the deciding worker's
// goroutine, together with the interface-state snapshot the decisions
// were made under, before OnDone sees the batch. Implementations must be
// safe for concurrent calls from every shard and must not retain the
// batch. TxQueue is the built-in implementation; an AF_PACKET/XDP-style
// sink would implement the same interface.
type Egress interface {
	Transmit(b *Batch, st *LinkState)
}

// DartRebinder is implemented by Egress stages whose per-dart state
// must follow a hot-swap that appends links. Engine.SwapFIB calls
// RebindDarts — under its swap lock, before the new (FIB, LinkState)
// pair publishes — with the grown dart-space size. Dart IDs never move,
// so every existing dart keeps its state. Implementations must tolerate
// concurrent Transmit/Send calls. An Egress that does not implement this
// interface makes a swap that appends links an error.
type DartRebinder interface {
	RebindDarts(numDarts int)
}

// TxVerdict classifies the outcome of one transmit attempt.
type TxVerdict uint8

const (
	// TxSent: the packet was serialised onto its egress link.
	TxSent TxVerdict = iota
	// TxDropQueueFull: the per-dart transmit queue exceeded its bound —
	// the engine is offered more than the link drains.
	TxDropQueueFull
	// TxDropLinkDown: the egress link is marked down in the snapshot the
	// batch was decided under (a failure detected between decision and
	// transmit, or a caller replaying stale decisions), or the dart is
	// outside the queue's dart space: no link is behind it.
	TxDropLinkDown
)

// String names the verdict.
func (v TxVerdict) String() string {
	switch v {
	case TxSent:
		return "sent"
	case TxDropQueueFull:
		return "drop-queue-full"
	case TxDropLinkDown:
		return "drop-link-down"
	}
	return fmt.Sprintf("TxVerdict(%d)", uint8(v))
}

// TxConfig parameterises NewTxQueue.
type TxConfig struct {
	// BandwidthBps is the serialisation rate of every link direction
	// (default 9.953 Gb/s, an OC-192 — the simulator's default).
	BandwidthBps float64
	// MaxBacklog bounds each dart's queue as the maximum queueing delay a
	// packet may be enqueued behind (default 10 ms; at OC-192 that is a
	// ≈12 MB buffer). Packets arriving at a fuller queue are dropped with
	// TxDropQueueFull.
	MaxBacklog time.Duration
	// DefaultBits sizes abstract packets whose Bits field is zero
	// (default 8192 = 1 kB, the paper's average packet size). Wire frames
	// are sized from their IP total-length field instead.
	DefaultBits int
	// Now is the transmit clock, an offset from some fixed origin, read
	// under the queue's lock once per batch (Transmit, SendBatch, Send)
	// and again for a packet only a fresh reading may drop, so it must
	// not call back into the TxQueue. Defaults to wall time since
	// NewTxQueue; tests and the soak inject a virtual clock for
	// deterministic pacing.
	Now func() time.Duration
	// Metrics, when non-nil, publishes transmit telemetry into the
	// registry: the tx.* counters and a tx.queue_wait_ns histogram of the
	// queueing delay each sent packet paid behind its link's serialiser,
	// both flushed once per batch (Transmit, SendBatch, Send).
	Metrics *telemetry.Registry
}

// Transmit metric names.
const (
	MetricTxSent          = "tx.sent"
	MetricTxSentBits      = "tx.sent_bits"
	MetricTxDropQueueFull = "tx.drop.queue-full"
	MetricTxDropLinkDown  = "tx.drop.link-down"
	MetricTxQueueWaitNs   = "tx.queue_wait_ns"
)

// TxDropped sums the two tx.drop.* counters of a registry snapshot —
// the egress account lives under the tx.* names (TxConfig.Metrics),
// coherent with the engine and simulator counters.
func TxDropped(s *telemetry.Snapshot) uint64 {
	return s.Counter(MetricTxDropQueueFull) + s.Counter(MetricTxDropLinkDown)
}

// TxQueue is the engine's built-in Egress: one bounded, link-rate-paced
// transmit queue per dart (link direction), mirroring the simulator's
// linkFree serialisation model. Each dart keeps a virtual
// transmitter-idle instant, free; a packet starts serialising at
// max(now, free) and advances free by its serialisation time. A packet
// that would wait longer than MaxBacklog is dropped and counted, never
// silently discarded.
//
// A batch is paced under one lock: Transmit and SendBatch take it once,
// read the clock once, pace every packet with plain loads and stores
// and flush their tally after unlocking; Send is the batch of one.
// Batches from different shards therefore serialise, and the packets of
// one dart leave in the order their batches took the lock — per-dart
// FIFO, link-order delivery. The link-down test reads the immutable
// LinkState snapshot the batch was decided under.
//
// free counts link bit-times, not nanoseconds, so serialising a packet
// is free += bits, exactly: no link runs fast by a truncated fraction of
// a nanosecond and no runt serialises for free, at any bandwidth. Only
// clock readings and reported delays (Backlog, the queue-wait
// histogram) convert. An int64 of bit-times is 2.9 years of queue clock
// at 100 Gb/s.
//
// The packets of a batch share one clock reading: one late in the batch
// may start serialising up to the batch's own service time early, and
// its wait is measured from that reading — a NIC doorbell's granularity,
// three orders below MaxBacklog, and exact under an injected clock. A
// queue-full verdict alone insists on a fresh reading, which serves only
// the packet that needed it. Nothing on the path allocates.
//
// RebindDarts (hot-swaps that append links) grows the dart space under
// the same lock; a dart outside it is a counted TxDropLinkDown, never an
// index panic.
type TxQueue struct {
	nsPerBit    float64 // one bit-time: 1e9 / BandwidthBps
	maxBacklog  int64   // bit-times
	defaultBits int64
	now         func() time.Duration
	bank        *telemetry.CounterBank // nil when uninstrumented
	wait        *telemetry.Histogram   // nil when uninstrumented
	mu          sync.Mutex             // guards free
	free        []int64                // per dart: when its transmitter goes idle, in bit-times
}

// txTally is one batch's transmit account, kept on the sender's stack
// and flushed once: verdict counts and the queue waits of packets sent.
type txTally struct {
	n    telemetry.Tally
	wait telemetry.HistogramTally
}

// Slots of txTally.n, in the order NewTxQueueDarts binds the bank.
const (
	txSent = iota
	txSentBits
	txDropFull
	txDropDown
)

// NewTxQueue builds transmit queues for a FIB's 2×NumLinks darts.
func NewTxQueue(fib *FIB, cfg TxConfig) *TxQueue {
	return NewTxQueueDarts(2*fib.NumLinks(), cfg)
}

// NewTxQueueDarts is NewTxQueue for an explicit dart count.
func NewTxQueueDarts(numDarts int, cfg TxConfig) *TxQueue {
	if cfg.BandwidthBps <= 0 {
		cfg.BandwidthBps = 9.953e9
	}
	if cfg.MaxBacklog <= 0 {
		cfg.MaxBacklog = 10 * time.Millisecond
	}
	if cfg.DefaultBits <= 0 {
		cfg.DefaultBits = 8192
	}
	q := &TxQueue{
		nsPerBit:    1e9 / cfg.BandwidthBps,
		defaultBits: int64(cfg.DefaultBits),
		now:         cfg.Now,
		free:        make([]int64, numDarts),
	}
	q.maxBacklog = q.toBits(cfg.MaxBacklog)
	if q.now == nil {
		start := time.Now()
		q.now = func() time.Duration { return time.Since(start) }
	}
	if cfg.Metrics != nil {
		// 1 µs .. ~1 s queue-wait buckets; a zero wait (idle link) lands
		// in the first.
		q.wait = cfg.Metrics.Histogram(MetricTxQueueWaitNs, telemetry.ExponentialBuckets(1000, 4, 10))
		// Registry counters are get-or-create by name, so several
		// TxQueues sharing a registry (an engine rebuild, a soak restart)
		// sum into the same tx.* totals.
		q.bank = telemetry.NewCounterBank(cfg.Metrics,
			MetricTxSent, MetricTxSentBits, MetricTxDropQueueFull, MetricTxDropLinkDown)
	}
	return q
}

// toBits converts a clock reading or delay to whole link bit-times.
func (q *TxQueue) toBits(d time.Duration) int64 {
	return int64(float64(d) / q.nsPerBit)
}

// toDelay reports a non-negative span of bit-times as a delay, to the
// nearest nanosecond.
func (q *TxQueue) toDelay(bits int64) time.Duration {
	return time.Duration(float64(bits)*q.nsPerBit + 0.5)
}

// Transmit implements Egress: every successfully decided packet in the
// batch is handed to its egress dart's queue. Packets the FIB delivered
// locally or refused (OK false / a non-forward wire verdict) never reach
// a transmitter and are not counted here.
func (q *TxQueue) Transmit(b *Batch, st *LinkState) {
	var t txTally
	q.mu.Lock()
	now := q.toBits(q.now())
	q.pacePkts(now, b.Pkts, st, nil, &t)
	for i := range b.Wire {
		if p := &b.Wire[i]; p.Verdict == WireForward {
			q.pace(now, p.Egress, wireFrameBits(p.Buf), st, &t)
		}
	}
	q.mu.Unlock()
	q.flush(&t)
}

// SendBatch is Transmit's packet half for callers that act on each
// verdict (the soak): verdicts, nil or at least len(pkts) long, receives
// packet i's verdict at index i for every packet the FIB accepted (OK);
// the entries of refused packets are left alone.
func (q *TxQueue) SendBatch(pkts []Packet, st *LinkState, verdicts []TxVerdict) {
	var t txTally
	q.mu.Lock()
	q.pacePkts(q.toBits(q.now()), pkts, st, verdicts, &t)
	q.mu.Unlock()
	q.flush(&t)
}

// Send queues one packet of the given size onto dart d, returning the
// transmit verdict: the batch of one, for callers that pace individual
// packets (tests, calibrations).
func (q *TxQueue) Send(d rotation.DartID, bits int64, st *LinkState) TxVerdict {
	var t txTally
	q.mu.Lock()
	v := q.pace(q.toBits(q.now()), d, bits, st, &t)
	q.mu.Unlock()
	q.flush(&t)
	return v
}

// pacePkts paces every accepted packet of pkts at clock reading now,
// under q.mu, writing verdicts as SendBatch documents.
func (q *TxQueue) pacePkts(now int64, pkts []Packet, st *LinkState, verdicts []TxVerdict, t *txTally) {
	for i := range pkts {
		p := &pkts[i]
		if !p.OK {
			continue
		}
		bits := int64(p.Bits)
		if bits == 0 {
			bits = q.defaultBits
		}
		v := q.pace(now, p.Egress, bits, st, t)
		if verdicts != nil {
			verdicts[i] = v
		}
	}
}

// pace is the pacing rule every transmit path shares: under q.mu, it
// paces one packet of the given size onto dart d at clock reading now
// (bit-times) and tallies the outcome into t.
func (q *TxQueue) pace(now int64, d rotation.DartID, bits int64, st *LinkState, t *txTally) TxVerdict {
	if d < 0 || int(d) >= len(q.free) || st != nil && st.Down(rotation.LinkOf(d)) {
		t.n[txDropDown]++
		return TxDropLinkDown
	}
	start := max(now, q.free[d])
	if start-now > q.maxBacklog {
		// Only a fresh clock condemns a packet: the batch's reading is
		// as old as the batch, and the link has drained since.
		now = q.toBits(q.now())
		if start = max(now, q.free[d]); start-now > q.maxBacklog {
			t.n[txDropFull]++
			return TxDropQueueFull
		}
	}
	q.free[d] = start + bits
	t.n[txSent]++
	t.n[txSentBits] += uint64(bits)
	if q.wait != nil {
		// Unconditional: toDelay(0) is exactly 0, and a branch on the
		// wait mispredicts on every packet that finds its link busy.
		q.wait.Tally(&t.wait, int64(q.toDelay(start-now)))
	}
	return TxSent
}

// flush publishes a batch's tally into the registry and zeroes it.
func (q *TxQueue) flush(t *txTally) {
	if q.bank == nil {
		return
	}
	q.bank.Flush(&t.n)
	q.wait.Flush(&t.wait)
}

// backlog is the queueing delay, in bit-times, dart d imposes on a
// packet handed in at clock reading now; q.mu must be held.
func (q *TxQueue) backlog(d int, now int64) int64 {
	return max(q.free[d]-now, 0)
}

// Backlog returns dart d's current queueing delay: how long a packet
// handed in now would wait before its first bit serialises. A dart
// outside the current dart space has no queue and reports zero.
func (q *TxQueue) Backlog(d rotation.DartID) time.Duration {
	q.mu.Lock()
	defer q.mu.Unlock()
	if d < 0 || int(d) >= len(q.free) {
		return 0
	}
	return q.toDelay(q.backlog(int(d), q.toBits(q.now())))
}

// NumDarts returns the size of the current dart space.
func (q *TxQueue) NumDarts() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.free)
}

// SampleBacklog observes every dart's instantaneous queueing delay into
// a histogram per dart class — forward darts (even IDs, the link's
// tail→head direction) and reverse darts (odd IDs) — and returns each
// class's maximum this sample. Either histogram may be nil (that class
// is then only maxed, not binned). One scan under the lock, meant to be
// called at flush cadence, never per packet; the sampled distribution
// is the queue-sizing telemetry a single peak gauge hides. Each class is
// tallied on the stack and flushed once per call, so a histogram must
// have at most telemetry.HistogramTallySize-1 bounds.
func (q *TxQueue) SampleBacklog(fwd, rev *telemetry.Histogram) (maxFwd, maxRev time.Duration) {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.toBits(q.now())
	hist := [2]*telemetry.Histogram{fwd, rev}
	var tally [2]telemetry.HistogramTally
	var max [2]time.Duration
	for i := range q.free {
		b := q.toDelay(q.backlog(i, now))
		if h := hist[i&1]; h != nil {
			h.Tally(&tally[i&1], int64(b))
		}
		if b > max[i&1] {
			max[i&1] = b
		}
	}
	for c, h := range hist {
		if h != nil {
			h.Flush(&tally[c])
		}
	}
	return max[0], max[1]
}

// MaxBacklog returns the largest per-dart queueing delay across the
// current dart space — the queue-depth headline a soak run watches.
func (q *TxQueue) MaxBacklog() time.Duration {
	return max(q.SampleBacklog(nil, nil))
}

// RebindDarts implements DartRebinder: it grows the dart space to
// numDarts for a hot-swap onto a FIB with appended links. Dart IDs never
// move, so every dart keeps its pacing clock (its free instant) and an
// in-flight queue keeps draining at the link rate; a smaller numDarts
// changes nothing.
func (q *TxQueue) RebindDarts(numDarts int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if grow := numDarts - len(q.free); grow > 0 {
		q.free = append(q.free, make([]int64, grow)...)
	}
}

// wireFrameBits sizes a raw frame from its IP total-length field (IPv4
// bytes 2–3; IPv6 fixed header plus payload length), falling back to the
// buffer length for anything unparseable. The length field is
// attacker/corruption-controlled, so it is clamped to
// [8×header-min, 8×len(buf)]: an inflated claim cannot pace the link as
// if megabytes were serialised, and a zero or runt claim cannot
// serialise for free.
func wireFrameBits(buf []byte) int64 {
	max := 8 * int64(len(buf))
	if len(buf) >= 20 && buf[0]>>4 == 4 {
		return clampBits(8*int64(uint16(buf[2])<<8|uint16(buf[3])), 8*20, max)
	}
	if len(buf) >= 40 && buf[0]>>4 == 6 {
		return clampBits(8*(40+int64(uint16(buf[4])<<8|uint16(buf[5]))), 8*40, max)
	}
	return max
}

// clampBits bounds a claimed frame size to [min, max].
func clampBits(bits, min, max int64) int64 {
	if bits < min {
		return min
	}
	if bits > max {
		return max
	}
	return bits
}
