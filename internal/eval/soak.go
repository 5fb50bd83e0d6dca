package eval

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"recycle/internal/dataplane"
	"recycle/internal/failure"
	"recycle/internal/graph"
	"recycle/internal/rotation"
	"recycle/internal/telemetry"
	"recycle/internal/topo"
	"recycle/internal/traffic"
)

// The soak harness is the full stack running *at once* for a sustained
// period: hundreds of thousands of concurrent traffic flows walked
// hop-by-hop through a live sharded Engine with a TxQueue egress, while
// a continuous failure scenario plays out against the engine's link
// state and a stream of Recompiler hot-swaps (weight tweaks and
// structural chord add/remove) lands on the running engine — everything
// publishing into one telemetry.Registry whose Timeline is rolled on
// every scenario event and swap, with the summed per-epoch deltas
// proven equal to the aggregate exactly (the same lossless-exposition
// invariant TraceResilience pins).
//
// Every loss is refereed live, with the semantics the simulator's
// oracle referee established: a drop while the pair was partitioned is
// excused; a drop whose flight window overlapped a link-state
// transition or a hot-swap is a §7 transient; a drop under steady
// connected state is a violation — the class the paper's guarantee
// (and the soak verdict) demands stay at zero.

// Soak metric names. The soak.* counters are written by the
// single-threaded referee pump, so the per-epoch timeline attributes
// every emission, delivery and refereed loss to the epoch it happened
// in.
const (
	MetricSoakGenerated   = "soak.generated"
	MetricSoakDelivered   = "soak.delivered"
	MetricSoakDropNoRoute = "soak.drop.no-route"
	MetricSoakDropTTL     = "soak.drop.ttl"
	MetricSoakViolation   = "soak.loss.violation"
	MetricSoakTransient   = "soak.loss.transient"
	MetricSoakExcused     = "soak.loss.excused"
	MetricSoakHops        = "soak.hops"
	MetricSoakLatencyNs   = "soak.latency_ns"
	MetricSoakFlows       = "soak.flows"
	MetricSoakLagNs       = "soak.calendar_lag_ns"
	MetricSoakHeapBytes   = "soak.heap_alloc_bytes"
	MetricSoakTxBacklogNs = "soak.tx_backlog_ns"
	// Per-dart-class backlog distributions, sampled by the pump at flush
	// cadence: forward darts (even IDs) and reverse darts (odd IDs) each
	// get a histogram of instantaneous queueing delay plus a peak gauge —
	// the queue-sizing telemetry the single MaxBacklog gauge hides.
	MetricSoakTxBacklogFwdNs    = "soak.tx_backlog.fwd_ns"
	MetricSoakTxBacklogRevNs    = "soak.tx_backlog.rev_ns"
	MetricSoakTxBacklogFwdMaxNs = "soak.tx_backlog.fwd_max_ns"
	MetricSoakTxBacklogRevMaxNs = "soak.tx_backlog.rev_max_ns"
)

// backlogBuckets bins sampled per-dart backlog: 1 µs .. ~262 ms, with
// idle darts (zero backlog) landing in the first bucket.
func backlogBuckets() []int64 { return telemetry.ExponentialBuckets(1000, 4, 10) }

// DefaultSoakSpec is the soak's background failure process: per-link
// exponential 20 s MTBF / 200 ms MTTR. On a 100-link topology that is
// several link events per second — continuous churn, with occasional
// concurrent failures and partitions.
const DefaultSoakSpec = "mtbf:up=20s,down=200ms"

// SoakConfig parameterises RunSoak. The embedded Panel carries the
// failure process (default DefaultSoakSpec), the master seed — which
// drives everything: flow endpoints, traffic, the scenario draw and the
// swap edit stream — and the optional shared metrics registry.
type SoakConfig struct {
	Panel
	// Flows is the concurrent flow count (default 100_000). Each flow is
	// a persistent (src,dst) pair emitting per the Traffic process; the
	// per-flow state is ~48 bytes, so hundreds of thousands of flows fit
	// easily where that many traffic.Stream iterators (≈5 kB of legacy
	// rand state each) would not.
	Flows int
	// Duration is how long emissions run (default 30s). In-flight
	// packets drain to a verdict after the horizon.
	Duration time.Duration
	// Traffic is the per-flow arrival process (traffic.ParseSpec
	// grammar: fixed, poisson or mmpp; default "poisson:rate=2"). The
	// spec's rate is per flow: aggregate offered load is Flows × the
	// process's mean rate.
	Traffic string
	// SwapEvery is the interval between control-plane hot-swaps against
	// the running engine (default Duration/12). Most swaps are weight
	// tweaks; one adds a structural chord and a later one removes it
	// (when a genus-preserving chord exists).
	SwapEvery time.Duration
	// Shards is the engine worker count (0 = engine default).
	Shards int
	// BatchSize is packets per engine batch (default 256).
	BatchSize int
	// BandwidthBps is the egress per-link bandwidth (0 = TxQueue's
	// default).
	BandwidthBps float64
	// MaxHops is the per-packet hop budget (default 4×nodes, the
	// simulator's TTL convention).
	MaxHops int
	// MaxDropFrac bounds the pass verdict's tolerated drop fraction:
	// (no-route + ttl + tx drops) / generated (default 0.02). Violations
	// are never tolerated, whatever this bound.
	MaxDropFrac float64
}

func (c *SoakConfig) withDefaults() SoakConfig {
	out := *c
	out.Panel = out.Panel.withDefaults(DefaultSoakSpec)
	if out.Flows == 0 {
		out.Flows = 100_000
	}
	if out.Duration == 0 {
		out.Duration = 30 * time.Second
	}
	if out.Traffic == "" {
		out.Traffic = "poisson:rate=2"
	}
	if out.SwapEvery == 0 {
		out.SwapEvery = out.Duration / 12
	}
	if out.BatchSize == 0 {
		out.BatchSize = 256
	}
	if out.MaxDropFrac == 0 {
		out.MaxDropFrac = 0.02
	}
	return out
}

// SoakResult is one soak run's full account.
type SoakResult struct {
	Topology string
	Scenario string
	Genus    int
	Flows    int
	// OfferedPPS is the configured aggregate offered load: Flows × the
	// traffic process's mean per-flow rate.
	OfferedPPS float64
	// Horizon is the configured emission window; Elapsed the wall time
	// including the post-horizon drain.
	Horizon time.Duration
	Elapsed time.Duration

	// Generated..DropTTL account every emitted packet exactly:
	// Generated == Delivered + DropNoRoute + DropTTL.
	Generated   uint64
	Delivered   uint64
	DropNoRoute uint64
	DropTTL     uint64
	// Violations/Transient/Excused referee the drops: a violation is a
	// loss under steady connected state (the class the §5 guarantee
	// forbids on genus-0 embeddings), a transient had a failure, repair
	// or hot-swap land mid-flight (§7's damped regime), an excused loss
	// crossed a partition no scheme can.
	Violations uint64
	Transient  uint64
	Excused    uint64

	// Decisions is the engine's total (every hop of every walk);
	// DecisionsPerSec and DeliveredPerSec are sustained rates over
	// Elapsed.
	Decisions       uint64
	DecisionsPerSec float64
	DeliveredPerSec float64

	// Swaps counts hot-swaps applied to the live engine;
	// StructuralSwaps of those changed the link set; SkippedSwaps were
	// abandoned (no genus-preserving chord found, or an edit was
	// refused). ScenarioEvents counts link failures/repairs applied.
	Swaps           int
	StructuralSwaps int
	SkippedSwaps    int
	ScenarioEvents  int

	// AllocBytes/Mallocs/NumGC are runtime.MemStats deltas over the run
	// — the steady-state allocation telemetry a microbenchmark cannot
	// see.
	AllocBytes uint64
	Mallocs    uint64
	NumGC      uint32

	// Epochs is the per-event timeline; Aggregate the run's total
	// deltas. RunSoak verifies sum(Epochs) == Aggregate exactly before
	// returning.
	Epochs    []telemetry.Epoch
	Aggregate *telemetry.Snapshot

	// Pass is the verdict: zero violations and drops within
	// MaxDropFrac. FailReasons explains a false Pass.
	Pass        bool
	FailReasons []string
}

// DropFrac is (walk drops + tx drops) / generated. The egress account
// lives under the tx.* names of the run's Aggregate snapshot, retired
// dart-space generations across structural swaps included.
func (r *SoakResult) DropFrac() float64 {
	if r.Generated == 0 {
		return 0
	}
	var txDropped uint64
	if r.Aggregate != nil {
		txDropped = dataplane.TxDropped(r.Aggregate)
	}
	return float64(r.DropNoRoute+r.DropTTL+txDropped) / float64(r.Generated)
}

// ---------------------------------------------------------------------------
// Compact per-flow traffic state
// ---------------------------------------------------------------------------

type flowKind uint8

const (
	flowFixed flowKind = iota
	flowPoisson
	flowMMPP
)

// soakTraffic is a traffic.Source compiled into shared per-kind
// parameters, so per-flow state shrinks to soakFlow.
type soakTraffic struct {
	kind     flowKind
	interval time.Duration // fixed
	rate     float64       // poisson
	rateOn   float64       // mmpp
	rateOff  float64
	meanOn   float64 // mmpp dwell means, in seconds
	meanOff  float64
	sizes    traffic.SizeDist // nil for the fixed-size fast path
	bits     int32
	meanRate float64 // packets/sec per flow, for the offered-load report
}

func compileTraffic(src traffic.Source) (*soakTraffic, error) {
	if err := src.Validate(); err != nil {
		return nil, err
	}
	sizeOf := func(d traffic.SizeDist) (traffic.SizeDist, int32) {
		switch s := d.(type) {
		case nil:
			return nil, traffic.DefaultBits
		case traffic.FixedSize:
			if s.Bits == 0 {
				return nil, traffic.DefaultBits
			}
			return nil, int32(s.Bits)
		default:
			return d, 0
		}
	}
	switch s := src.(type) {
	case traffic.Fixed:
		bits := int32(s.Bits)
		if bits == 0 {
			bits = traffic.DefaultBits
		}
		return &soakTraffic{kind: flowFixed, interval: s.Interval, bits: bits,
			meanRate: float64(time.Second) / float64(s.Interval)}, nil
	case traffic.Poisson:
		sizes, bits := sizeOf(s.Sizes)
		return &soakTraffic{kind: flowPoisson, rate: s.Rate, sizes: sizes, bits: bits,
			meanRate: s.Rate}, nil
	case traffic.MMPP:
		sizes, bits := sizeOf(s.Sizes)
		return &soakTraffic{kind: flowMMPP, rateOn: s.RateOn, rateOff: s.RateOff,
			meanOn: s.MeanOn.Seconds(), meanOff: s.MeanOff.Seconds(),
			sizes: sizes, bits: bits, meanRate: s.MeanRate()}, nil
	}
	return nil, fmt.Errorf("eval: soak traffic must be fixed, poisson or mmpp (got %s)", src.Name())
}

// soakFlow is one flow's complete emission state: ≈48 bytes, against
// the ≈5 kB a traffic.Stream's legacy rand.Rand source would cost.
type soakFlow struct {
	next  time.Duration // next emission instant
	dwell time.Duration // mmpp: time left in the current state
	rng   uint64        // splitmix64 state
	src   int32
	dst   int32
	on    bool // mmpp state
}

// sm64 is splitmix64: tiny, seedable, statistically solid — the same
// sequencing finaliser failure.DrawSeed sub-seeds with.
func sm64(s *uint64) uint64 {
	*s += 0x9E3779B97F4A7C15
	z := *s
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// smUnit draws a uniform in (0, 1].
func smUnit(s *uint64) float64 {
	return (float64(sm64(s)>>11) + 1) / (1 << 53)
}

// expDur draws an exponential gap at the given rate (events/second).
func expDur(s *uint64, rate float64) time.Duration {
	return time.Duration(-math.Log(smUnit(s)) / rate * float64(time.Second))
}

// nextGap advances one flow to its next emission, mirroring the
// corresponding traffic.Stream semantics (Poisson: exponential gaps;
// MMPP: memoryless redraw across state switches, exactly the
// mmppStream.Next algorithm).
func (tr *soakTraffic) nextGap(f *soakFlow) time.Duration {
	switch tr.kind {
	case flowFixed:
		return tr.interval
	case flowPoisson:
		return expDur(&f.rng, tr.rate)
	default: // flowMMPP
		var gap time.Duration
		for {
			r := tr.rateOn
			if !f.on {
				r = tr.rateOff
			}
			if r > 0 {
				d := expDur(&f.rng, r)
				if d < f.dwell {
					f.dwell -= d
					return gap + d
				}
			}
			gap += f.dwell
			f.on = !f.on
			mean := tr.meanOn
			if !f.on {
				mean = tr.meanOff
			}
			f.dwell = time.Duration(-math.Log(smUnit(&f.rng)) * mean * float64(time.Second))
		}
	}
}

// ---------------------------------------------------------------------------
// Emission calendar: a binary min-heap of flow indices keyed by next
// ---------------------------------------------------------------------------

type soakCalendar struct {
	flows []soakFlow
	heap  []int32
}

func (c *soakCalendar) len() int { return len(c.heap) }

func (c *soakCalendar) less(i, j int) bool {
	return c.flows[c.heap[i]].next < c.flows[c.heap[j]].next
}

// peek returns the earliest next-emission instant.
func (c *soakCalendar) peek() time.Duration { return c.flows[c.heap[0]].next }

func (c *soakCalendar) siftDown(i int) {
	n := len(c.heap)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && c.less(l, m) {
			m = l
		}
		if r < n && c.less(r, m) {
			m = r
		}
		if m == i {
			return
		}
		c.heap[i], c.heap[m] = c.heap[m], c.heap[i]
		i = m
	}
}

func (c *soakCalendar) init() {
	for i := len(c.heap)/2 - 1; i >= 0; i-- {
		c.siftDown(i)
	}
}

// bump re-sinks the root after its flow's next instant advanced.
func (c *soakCalendar) bump() { c.siftDown(0) }

// ---------------------------------------------------------------------------
// Churn log: applied control-plane instants for the transient referee
// ---------------------------------------------------------------------------

// churnLog records when control-plane actions (scenario events, FIB
// hot-swaps) actually landed on the engine, plus the worst observed lag
// between an action's scheduled and applied instants. The referee
// widens its stability window backwards by that lag and checks applied
// instants directly: a packet walks under engine state at most lag
// behind the oracle's scheduled state, so a loss within the slack of a
// transition is a §7 transient, never a false violation minted by
// scheduling jitter.
type churnLog struct {
	mu    sync.Mutex
	times []time.Duration // applied instants, ascending
	lagNs atomic.Int64
}

func (c *churnLog) record(at time.Duration) {
	c.mu.Lock()
	c.times = append(c.times, at)
	c.mu.Unlock()
}

func (c *churnLog) noteLag(lag time.Duration) {
	for {
		cur := c.lagNs.Load()
		if int64(lag) <= cur || c.lagNs.CompareAndSwap(cur, int64(lag)) {
			return
		}
	}
}

func (c *churnLog) lag() time.Duration { return time.Duration(c.lagNs.Load()) }

// overlaps reports whether any applied instant falls in (from, to].
func (c *churnLog) overlaps(from, to time.Duration) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	i := sort.Search(len(c.times), func(i int) bool { return c.times[i] > from })
	return i < len(c.times) && c.times[i] <= to
}

// ---------------------------------------------------------------------------
// RunSoak
// ---------------------------------------------------------------------------

// soakMeta is the walker's per-packet sidecar, parallel to Batch.Pkts.
type soakMeta struct {
	emit time.Duration
	src  int32
	hops int32
}

// soakBatch pairs an engine batch with its sidecar.
type soakBatch struct {
	b    *dataplane.Batch
	meta []soakMeta
}

// soakDone is one decided batch plus the FIB it was decided under. The
// deciding FIB matters: across a structural hot-swap the current FIB
// has a different dart space, and mapping egress darts through the
// wrong one is silently wrong.
type soakDone struct {
	sb  *soakBatch
	fib *dataplane.FIB
}

// RunSoak drives the full stack for cfg.Duration and referees every
// loss. The verdict demands zero violations and bounded drops, and the
// per-epoch timeline's summed deltas are verified against the
// aggregate snapshot before the result is returned.
func RunSoak(tp topo.Topology, cfg SoakConfig) (*SoakResult, error) {
	cfg = cfg.withDefaults()
	g := tp.Graph
	n := g.NumNodes()
	if n < 2 {
		return nil, fmt.Errorf("eval: soak needs at least 2 nodes")
	}
	if cfg.MaxHops == 0 {
		cfg.MaxHops = 4 * n
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	tracer := cfg.Tracer
	if tracer != nil {
		reg.RegisterCollector(tracer)
	}
	runSpan := tracer.Start("soak.run", 0)
	runSpan.SetAttr(telemetry.AttrNodes, int64(n))
	runSpan.SetAttr(telemetry.AttrSeed, cfg.Seed)
	defer runSpan.End()

	st, err := buildStack(tp, dataplane.CompileOptions{
		Tracer: tracer, TraceParent: runSpan.ID(), Metrics: reg,
	})
	if err != nil {
		return nil, err
	}
	sys, fib := st.sys, st.fib
	rec, err := st.recompiler(tracer, reg)
	if err != nil {
		return nil, err
	}

	proc, err := cfg.process()
	if err != nil {
		return nil, err
	}
	sc, err := proc.Generate(g, cfg.Duration, failure.DrawSeed(cfg.Seed, 0))
	if err != nil {
		return nil, err
	}
	oracle, err := failure.NewOracle(g, sc)
	if err != nil {
		return nil, err
	}
	events, err := sc.Events(g)
	if err != nil {
		return nil, err
	}

	src, err := traffic.ParseSpecSeeded(cfg.Traffic, cfg.Seed)
	if err != nil {
		return nil, err
	}
	tr, err := compileTraffic(src)
	if err != nil {
		return nil, err
	}

	tx := dataplane.NewTxQueue(fib, dataplane.TxConfig{BandwidthBps: cfg.BandwidthBps, Metrics: reg})
	reg.Gauge(MetricSoakFlows).Set(int64(cfg.Flows))
	reg.RegisterCollector(telemetry.CollectorFunc(func(s *telemetry.Snapshot) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.SetGauge(MetricSoakHeapBytes, int64(ms.HeapAlloc))
		s.SetGauge(MetricSoakTxBacklogNs, int64(tx.MaxBacklog()))
	}))

	// Seed the flow population: random (src,dst) pairs, de-phased first
	// emissions so the calendar doesn't open with a thundering herd.
	rng := rand.New(rand.NewSource(failure.DrawSeed(cfg.Seed, 1)))
	cal := &soakCalendar{
		flows: make([]soakFlow, cfg.Flows),
		heap:  make([]int32, cfg.Flows),
	}
	for i := range cal.flows {
		f := &cal.flows[i]
		f.src = int32(rng.Intn(n))
		for {
			f.dst = int32(rng.Intn(n))
			if f.dst != f.src {
				break
			}
		}
		f.rng = uint64(failure.DrawSeed(cfg.Seed, 2)) + uint64(i)*0x9E3779B97F4A7C15
		f.on = true
		switch tr.kind {
		case flowFixed:
			f.next = time.Duration(sm64(&f.rng) % uint64(tr.interval))
		case flowPoisson:
			f.next = expDur(&f.rng, tr.rate)
		default:
			f.dwell = time.Duration(-math.Log(smUnit(&f.rng)) * tr.meanOn * float64(time.Second))
			f.next = tr.nextGap(f)
		}
		cal.heap[i] = int32(i)
	}
	cal.init()

	churn := &churnLog{}
	p := &soakPump{
		cfg:    cfg,
		tr:     tr,
		cal:    cal,
		oracle: oracle,
		churn:  churn,
		rng:    rand.New(rand.NewSource(failure.DrawSeed(cfg.Seed, 3))),
		lag:    reg.Gauge(MetricSoakLagNs),
		tracer: tracer,
		root:   runSpan.ID(),
		tx:     tx,
	}
	p.backFwd = reg.Histogram(MetricSoakTxBacklogFwdNs, backlogBuckets())
	p.backRev = reg.Histogram(MetricSoakTxBacklogRevNs, backlogBuckets())
	p.backFwdMax = reg.Gauge(MetricSoakTxBacklogFwdMaxNs)
	p.backRevMax = reg.Gauge(MetricSoakTxBacklogRevMaxNs)
	p.generated = reg.Counter(MetricSoakGenerated).Handle()
	p.delivered = reg.Counter(MetricSoakDelivered).Handle()
	p.noRoute = reg.Counter(MetricSoakDropNoRoute).Handle()
	p.ttl = reg.Counter(MetricSoakDropTTL).Handle()
	p.loss = [3]telemetry.CounterHandle{
		failure.LossViolation: reg.Counter(MetricSoakViolation).Handle(),
		failure.LossTransient: reg.Counter(MetricSoakTransient).Handle(),
		failure.LossExcused:   reg.Counter(MetricSoakExcused).Handle(),
	}
	p.hops = reg.Histogram(MetricSoakHops, telemetry.ExponentialBuckets(1, 2, 10)).Handle()
	p.latency = reg.Histogram(MetricSoakLatencyNs, telemetry.ExponentialBuckets(1000, 4, 12)).Handle()

	// Batch pool: enough to keep every shard busy, and the done channel
	// is sized to the pool so a worker's hand-off can never block.
	pool := 4 * max(cfg.Shards, runtime.GOMAXPROCS(0))
	if pool < 32 {
		pool = 32
	}
	p.done = make(chan soakDone, pool)
	p.byBatch = make(map[*dataplane.Batch]*soakBatch, pool)
	for i := 0; i < pool; i++ {
		sb := &soakBatch{
			b:    &dataplane.Batch{Pkts: make([]dataplane.Packet, 0, cfg.BatchSize)},
			meta: make([]soakMeta, 0, cfg.BatchSize),
		}
		p.byBatch[sb.b] = sb
		p.idle = append(p.idle, sb)
	}

	// The byBatch map is immutable once the engine starts, so the
	// OnDoneState hook (worker goroutines) reads it without locks.
	eng := dataplane.NewEngine(fib, dataplane.EngineConfig{
		Shards:  cfg.Shards,
		Egress:  tx,
		Metrics: reg,
		Tracer:  tracer,
		OnDoneState: func(b *dataplane.Batch, f *dataplane.FIB, _ *dataplane.LinkState) {
			p.done <- soakDone{sb: p.byBatch[b], fib: f}
		},
	})
	p.eng = eng

	var msStart runtime.MemStats
	runtime.ReadMemStats(&msStart)
	base := reg.Snapshot()
	tl := telemetry.NewTimeline(reg)
	start := time.Now()

	ctl := &soakControl{
		cfg: cfg, eng: eng, rec: rec, tl: tl, churn: churn,
		events: events, start: start,
		baseGenus: sys.Genus(),
		rng:       rand.New(rand.NewSource(failure.DrawSeed(cfg.Seed, 4))),
		tracer:    tracer,
		root:      runSpan.ID(),
	}
	ctlDone := make(chan struct{})
	go func() {
		defer close(ctlDone)
		ctl.run()
	}()

	p.run(start)
	<-ctlDone
	decisions := eng.Close()
	elapsed := time.Since(start)
	if ctl.err != nil {
		return nil, ctl.err
	}

	finishAt := cfg.Duration
	if elapsed > finishAt {
		finishAt = elapsed
	}
	epochs := tl.Finish(finishAt)
	agg := reg.Snapshot().Sub(base)
	if err := checkTimelineExact(tl.Sum(), agg); err != nil {
		return nil, fmt.Errorf("eval: soak %w", err)
	}

	var msEnd runtime.MemStats
	runtime.ReadMemStats(&msEnd)

	res := &SoakResult{
		Topology:        tp.Name,
		Scenario:        sc.Name,
		Genus:           sys.Genus(),
		Flows:           cfg.Flows,
		OfferedPPS:      float64(cfg.Flows) * tr.meanRate,
		Horizon:         cfg.Duration,
		Elapsed:         elapsed,
		Generated:       agg.Counter(MetricSoakGenerated),
		Delivered:       agg.Counter(MetricSoakDelivered),
		DropNoRoute:     agg.Counter(MetricSoakDropNoRoute),
		DropTTL:         agg.Counter(MetricSoakDropTTL),
		Violations:      agg.Counter(MetricSoakViolation),
		Transient:       agg.Counter(MetricSoakTransient),
		Excused:         agg.Counter(MetricSoakExcused),
		Decisions:       decisions,
		DecisionsPerSec: float64(decisions) / elapsed.Seconds(),
		Swaps:           ctl.swaps,
		StructuralSwaps: ctl.structural,
		SkippedSwaps:    ctl.skipped,
		ScenarioEvents:  ctl.eventsApplied,
		AllocBytes:      msEnd.TotalAlloc - msStart.TotalAlloc,
		Mallocs:         msEnd.Mallocs - msStart.Mallocs,
		NumGC:           msEnd.NumGC - msStart.NumGC,
		Epochs:          epochs,
		Aggregate:       agg,
	}
	res.DeliveredPerSec = float64(res.Delivered) / elapsed.Seconds()

	if got := res.Delivered + res.DropNoRoute + res.DropTTL; got != res.Generated {
		return nil, fmt.Errorf("eval: soak accounting leak: %d delivered+dropped ≠ %d generated", got, res.Generated)
	}
	if got := res.Violations + res.Transient + res.Excused; got != res.DropNoRoute+res.DropTTL {
		return nil, fmt.Errorf("eval: soak referee leak: %d refereed ≠ %d dropped", got, res.DropNoRoute+res.DropTTL)
	}

	res.Pass = true
	if res.Violations != 0 {
		res.Pass = false
		res.FailReasons = append(res.FailReasons,
			fmt.Sprintf("%d violations (losses under steady connected state)", res.Violations))
	}
	if df := res.DropFrac(); df > cfg.MaxDropFrac {
		res.Pass = false
		res.FailReasons = append(res.FailReasons,
			fmt.Sprintf("drop fraction %.4f exceeds bound %.4f", df, cfg.MaxDropFrac))
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// The pump: single-threaded emit → classify → referee → resubmit loop
// ---------------------------------------------------------------------------

// soakPump owns all traffic-side state. Decided batches come back on
// the done channel (from worker goroutines); everything else — packet
// classification, oracle queries, calendar pops, counter writes —
// happens on the pump goroutine, so the referee needs no locks and the
// oracle's lazily-filled reachability cache is safe. Workers never
// submit (they only send on the buffered channel), so resubmission can
// never deadlock the engine.
type soakPump struct {
	cfg    SoakConfig
	tr     *soakTraffic
	cal    *soakCalendar
	oracle *failure.Oracle
	churn  *churnLog
	eng    *dataplane.Engine
	rng    *rand.Rand // shared size-distribution draws

	done    chan soakDone
	byBatch map[*dataplane.Batch]*soakBatch
	idle    []*soakBatch

	tracer *telemetry.Tracer
	root   telemetry.SpanID
	tx     *dataplane.TxQueue
	// Per-dart-class backlog sampling (forward/reverse darts), taken on
	// the pump goroutine each time a flush of decided batches drains.
	backFwd    *telemetry.Histogram
	backRev    *telemetry.Histogram
	backFwdMax *telemetry.Gauge
	backRevMax *telemetry.Gauge

	generated telemetry.CounterHandle
	delivered telemetry.CounterHandle
	noRoute   telemetry.CounterHandle
	ttl       telemetry.CounterHandle
	loss      [3]telemetry.CounterHandle // by failure.Loss
	hops      telemetry.HistogramHandle
	latency   telemetry.HistogramHandle
	lag       *telemetry.Gauge

	emitted  uint64
	resolved uint64
}

func (p *soakPump) run(start time.Time) {
	horizon := p.cfg.Duration
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	// The pump span covers the traffic/referee goroutine's lifetime; the
	// drain span (opened when the horizon passes with packets still in
	// flight) isolates the post-horizon resolution tail — the recovery
	// latency the referee's verdicts depend on.
	pumpSpan := p.tracer.Start("soak.pump", p.root)
	defer pumpSpan.End()
	var drain telemetry.Span
	defer drain.End()
	for {
		now := time.Since(start)
		// Fill idle batches with due emissions and submit them.
		for len(p.idle) > 0 && p.cal.len() > 0 && p.cal.peek() <= now && p.cal.peek() < horizon {
			sb := p.idle[len(p.idle)-1]
			p.idle = p.idle[:len(p.idle)-1]
			p.fill(sb, now, horizon)
			if len(sb.b.Pkts) == 0 {
				p.idle = append(p.idle, sb)
				break
			}
			p.submit(sb)
		}
		if now >= horizon && p.emitted == p.resolved {
			return // drained: every emitted packet has a verdict
		}
		if now >= horizon && drain.ID() == 0 {
			drain = p.tracer.Start("soak.drain", pumpSpan.ID())
		}
		// Calendar-lag gauge: how far emissions trail their schedule
		// (saturation telemetry — offered load beyond the pump).
		if now < horizon && p.cal.len() > 0 {
			if lag := now - p.cal.peek(); lag > 0 {
				p.lag.SetMax(int64(lag))
			}
		}

		// Sleep until a decided batch comes back or the next emission is
		// due (whichever is first).
		wake := 5 * time.Millisecond
		if len(p.idle) > 0 && now < horizon && p.cal.len() > 0 {
			if d := p.cal.peek() - now; d > 0 && d < wake {
				wake = d
			}
		}
		timer.Reset(wake)
		select {
		case d := <-p.done:
			p.process(d, time.Since(start), horizon)
			for drained := false; !drained; {
				select {
				case d := <-p.done:
					p.process(d, time.Since(start), horizon)
				default:
					drained = true
				}
			}
			p.sampleBacklog()
		case <-timer.C:
		}
	}
}

// sampleBacklog observes every dart's instantaneous backlog into the
// per-class histograms and peak gauges. Called once per flush of decided
// batches — O(darts), never per packet.
func (p *soakPump) sampleBacklog() {
	if p.tx == nil {
		return
	}
	mf, mr := p.tx.SampleBacklog(p.backFwd, p.backRev)
	p.backFwdMax.SetMax(int64(mf))
	p.backRevMax.SetMax(int64(mr))
}

// fill tops an idle batch up with due emissions.
func (p *soakPump) fill(sb *soakBatch, now, horizon time.Duration) {
	capN := cap(sb.b.Pkts)
	for len(sb.b.Pkts) < capN && p.cal.len() > 0 {
		at := p.cal.peek()
		if at > now || at >= horizon {
			break
		}
		f := &p.cal.flows[p.cal.heap[0]]
		bits := p.tr.bits
		if p.tr.sizes != nil {
			bits = int32(p.tr.sizes.SampleBits(p.rng))
		}
		sb.b.Pkts = append(sb.b.Pkts, dataplane.Packet{
			Node:    graph.NodeID(f.src),
			Dst:     graph.NodeID(f.dst),
			Ingress: rotation.NoDart,
			Bits:    bits,
		})
		sb.meta = append(sb.meta, soakMeta{emit: at, src: f.src})
		f.next = at + p.tr.nextGap(f)
		p.cal.bump()
		p.emitted++
		p.generated.Inc()
	}
}

func (p *soakPump) submit(sb *soakBatch) {
	for !p.eng.Submit(sb.b) {
		// Every ring full — transient by construction (the pool is far
		// smaller than aggregate ring capacity); let workers drain.
		time.Sleep(50 * time.Microsecond)
	}
}

// process classifies one decided batch: delivered packets and drops
// are resolved, survivors advance one hop and the batch — topped up
// with fresh emissions — goes straight back to the engine.
func (p *soakPump) process(d soakDone, now, horizon time.Duration) {
	sb, fib := d.sb, d.fib
	pkts, meta := sb.b.Pkts, sb.meta
	keep := 0
	for i := range pkts {
		pk := &pkts[i]
		m := &meta[i]
		if !pk.OK {
			p.refereeDrop(m, pk.Dst, now, p.noRoute)
			continue
		}
		next := fib.Head(pk.Egress)
		m.hops++
		if next == pk.Dst {
			p.resolved++
			p.delivered.Inc()
			p.hops.Observe(int64(m.hops))
			p.latency.Observe(int64(now - m.emit))
			continue
		}
		if int(m.hops) >= p.cfg.MaxHops {
			p.refereeDrop(m, pk.Dst, now, p.ttl)
			continue
		}
		// The arrival dart at the next node IS the egress dart (the
		// convention core.Protocol.Walk and the wire path share): cycle
		// following computes φ(ingress) on it directly.
		pk.Node = next
		pk.Ingress = pk.Egress
		pkts[keep] = *pk
		meta[keep] = *m
		keep++
	}
	sb.b.Pkts = pkts[:keep]
	sb.meta = meta[:keep]
	p.fill(sb, now, horizon)
	if len(sb.b.Pkts) == 0 {
		p.idle = append(p.idle, sb)
		return
	}
	p.submit(sb)
}

// refereeDrop classifies one lost packet with Oracle.Classify, the
// simulator's referee. The soak adds one rule of its own: a violation whose
// flight window, widened backwards by the worst observed control-plane
// lag, holds a transition — or holds an applied instant in the churn log
// — is a §7 transient, never a false violation minted by scheduling
// jitter.
func (p *soakPump) refereeDrop(m *soakMeta, dst graph.NodeID, now time.Duration, drop telemetry.CounterHandle) {
	p.resolved++
	drop.Inc()
	c := p.oracle.Classify(graph.NodeID(m.src), dst, m.emit, now)
	if c == failure.LossViolation && (!p.oracle.StableThroughout(m.emit-p.churn.lag(), now) || p.churn.overlaps(m.emit, now)) {
		c = failure.LossTransient
	}
	p.loss[c].Inc()
}

// ---------------------------------------------------------------------------
// The control goroutine: scenario replay + hot-swap schedule
// ---------------------------------------------------------------------------

// soakControl owns the control plane: it replays the scenario's link
// events against the engine and lands a hot-swap every SwapEvery, each
// rolling the shared Timeline at its scheduled instant. It is the only
// goroutine touching the Timeline and the Recompiler.
type soakControl struct {
	cfg       SoakConfig
	eng       *dataplane.Engine
	rec       *dataplane.Recompiler
	tl        *telemetry.Timeline
	churn     *churnLog
	events    []failure.Event
	start     time.Time
	baseGenus int
	rng       *rand.Rand
	tracer    *telemetry.Tracer
	root      telemetry.SpanID

	swaps         int
	structural    int
	skipped       int
	eventsApplied int
	chord         graph.LinkID
	added         bool
	err           error
}

func updown(down bool) string {
	if down {
		return "down"
	}
	return "up"
}

func (c *soakControl) run() {
	horizon := c.cfg.Duration
	ei := 0
	swapIdx := 0
	nextSwap := c.cfg.SwapEvery
	// Structural swaps: a chord is added a third of the way in and
	// removed at two thirds, bracketing a window in which the engine
	// forwards on a larger dart space than it was built with.
	total := int(horizon / c.cfg.SwapEvery)
	addAt := total / 3
	removeAt := (2 * total) / 3
	if removeAt <= addAt {
		removeAt = addAt + 1
	}
	for c.err == nil {
		next := failure.Forever
		if ei < len(c.events) {
			next = c.events[ei].At
		}
		doSwap := false
		if nextSwap < next {
			next = nextSwap
			doSwap = true
		}
		if next >= horizon {
			return
		}
		if d := next - time.Since(c.start); d > 0 {
			time.Sleep(d)
		}
		if doSwap {
			c.swap(swapIdx, next, addAt, removeAt)
			swapIdx++
			nextSwap += c.cfg.SwapEvery
			continue
		}
		// Apply every event scheduled at this instant under one epoch
		// boundary — the same same-instant folding the oracle does, so
		// timeline epoch i aligns with oracle epoch i.
		first := true
		for ei < len(c.events) && c.events[ei].At == next {
			ev := c.events[ei]
			label := fmt.Sprintf("link %d %s", ev.Link, updown(ev.Down))
			if first {
				c.tl.Roll(next, label)
				first = false
			} else {
				c.tl.Annotate(label)
			}
			name := "soak.link.up"
			if ev.Down {
				name = "soak.link.down"
			}
			sp := c.tracer.Start(name, c.root)
			sp.SetAttr(telemetry.AttrLink, int64(ev.Link))
			c.eng.SetLink(ev.Link, ev.Down)
			sp.End()
			applied := time.Since(c.start)
			c.churn.record(applied)
			c.churn.noteLag(applied - next)
			c.eventsApplied++
			ei++
		}
	}
}

// swap lands one hot-swap on the running engine: a weight tweak, or at
// the scheduled indices a structural chord add / remove.
func (c *soakControl) swap(idx int, at time.Duration, addAt, removeAt int) {
	// The swap span brackets the whole attempt — recompile and engine
	// ApplyDelta included. Those publish their own root span trees
	// ("recompile.apply", "engine.swap"); the Chrome export shows them
	// temporally nested inside this one on the control-plane track.
	sp := c.tracer.Start("soak.swap", c.root)
	sp.SetAttr(telemetry.AttrCount, int64(idx))
	defer sp.End()
	var (
		d     *dataplane.Delta
		label string
		err   error
	)
	switch {
	case idx == addAt && !c.added:
		d, label = c.tryAddChord()
		if d == nil && c.err != nil {
			return
		}
		if d == nil {
			// No genus-preserving chord found: fall back to a weight
			// tweak so the swap cadence holds.
			c.skipped++
			d, label, err = c.tweakWeight()
		}
	case idx == removeAt && c.added:
		label = fmt.Sprintf("swap: remove chord link %d", c.chord)
		d, err = c.rec.Apply(graph.RemoveLinkEdit(c.chord))
		if err == nil {
			c.added = false
		}
	default:
		d, label, err = c.tweakWeight()
	}
	if err != nil {
		c.skipped++
		return
	}
	c.tl.Roll(at, label)
	if aerr := c.eng.ApplyDelta(d); aerr != nil {
		// The recompiler advanced but the engine refused: the two are
		// now desynchronised, which no later swap can repair. Abort.
		c.err = fmt.Errorf("eval: soak hot-swap refused: %w", aerr)
		return
	}
	applied := time.Since(c.start)
	c.churn.record(applied)
	c.churn.noteLag(applied - at)
	c.swaps++
	if d.Structural {
		c.structural++
	}
}

// tryAddChord hunts for a chord whose appended rotation placement keeps
// the surface genus — §5's guarantee is conditioned on the embedding,
// so a genus-raising chord is reverted (the trial edit is undone) and
// another candidate tried.
func (c *soakControl) tryAddChord() (*dataplane.Delta, string) {
	n := c.rec.Graph().NumNodes()
	for try := 0; try < 16; try++ {
		g := c.rec.Graph()
		a := graph.NodeID(c.rng.Intn(n))
		b := graph.NodeID(c.rng.Intn(n))
		if a == b || g.HasLink(a, b) {
			continue
		}
		d, err := c.rec.Apply(graph.AddLinkEdit(a, b, 1))
		if err != nil {
			continue // the recompiler is unchanged on error
		}
		if d.System.Genus() > c.baseGenus {
			chord := graph.LinkID(d.Graph.NumLinks() - 1)
			if _, rerr := c.rec.Apply(graph.RemoveLinkEdit(chord)); rerr != nil {
				c.err = fmt.Errorf("eval: soak could not revert trial chord: %w", rerr)
				return nil, ""
			}
			continue
		}
		c.chord = graph.LinkID(d.Graph.NumLinks() - 1)
		c.added = true
		return d, fmt.Sprintf("swap: add chord %d–%d (link %d)", a, b, c.chord)
	}
	return nil, ""
}

// tweakWeight nudges a random link's weight — the planned-maintenance
// edit stream that exercises non-structural hot-swaps.
func (c *soakControl) tweakWeight() (*dataplane.Delta, string, error) {
	g := c.rec.Graph()
	l := graph.LinkID(c.rng.Intn(g.NumLinks()))
	w := g.Weight(l) * (0.5 + c.rng.Float64())
	d, err := c.rec.Apply(graph.SetWeight(l, w))
	return d, fmt.Sprintf("swap: link %d weight %.3g", l, w), err
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

// RunSoakReport is RunSoak on the panel's first topology followed by
// WriteSoakReport — the whole `prsim soak` verb. The result comes back
// so a caller can dump its epochs and map the verdict to an exit code.
func RunSoakReport(w io.Writer, cfg SoakConfig) (*SoakResult, error) {
	if err := cfg.loadScript(); err != nil {
		return nil, err
	}
	tp, err := cfg.first()
	if err != nil {
		return nil, err
	}
	res, err := RunSoak(tp, cfg)
	if err != nil {
		return nil, err
	}
	WriteSoakReport(w, res)
	return res, nil
}

// WriteSoakReport renders one soak run: the headline account, the
// sustained rates, the control-plane churn, the allocation and egress
// telemetry, and the full per-epoch timeline — closing with the
// verdict line CI greps.
func WriteSoakReport(w io.Writer, r *SoakResult) {
	fmt.Fprintf(w, "# soak: %s (genus %d), %d flows ≈ %.0f pps offered, %v horizon (%v elapsed), scenario %s\n",
		r.Topology, r.Genus, r.Flows, r.OfferedPPS, r.Horizon, r.Elapsed.Round(time.Millisecond), r.Scenario)
	fmt.Fprintf(w, "# violation = lost while the pair stayed connected and nothing changed mid-flight;\n")
	fmt.Fprintf(w, "# transient = a failure/repair/hot-swap landed mid-flight (§7); excused = the pair was partitioned\n\n")

	fmt.Fprintf(w, "generated   %12d\n", r.Generated)
	fmt.Fprintf(w, "delivered   %12d  (%.1f pkts/s sustained)\n", r.Delivered, r.DeliveredPerSec)
	fmt.Fprintf(w, "no-route    %12d\n", r.DropNoRoute)
	fmt.Fprintf(w, "ttl         %12d\n", r.DropTTL)
	fmt.Fprintf(w, "violations  %12d\n", r.Violations)
	fmt.Fprintf(w, "transient   %12d\n", r.Transient)
	fmt.Fprintf(w, "excused     %12d\n", r.Excused)
	fmt.Fprintf(w, "decisions   %12d  (%.0f decisions/s sustained)\n", r.Decisions, r.DecisionsPerSec)
	fmt.Fprintf(w, "swaps       %12d  (%d structural, %d skipped)\n", r.Swaps, r.StructuralSwaps, r.SkippedSwaps)
	fmt.Fprintf(w, "link events %12d\n", r.ScenarioEvents)
	if a := r.Aggregate; a != nil {
		fmt.Fprintf(w, "tx          %12d sent, %d dropped (%d queue-full, %d link-down, %d stale-dart)\n",
			a.Counter(dataplane.MetricTxSent), dataplane.TxDropped(a),
			a.Counter(dataplane.MetricTxDropQueueFull), a.Counter(dataplane.MetricTxDropLinkDown),
			a.Counter(dataplane.MetricTxDropStaleDart))
	}
	perDecision := 0.0
	if r.Decisions > 0 {
		perDecision = float64(r.AllocBytes) / float64(r.Decisions)
	}
	fmt.Fprintf(w, "alloc       %12d B (%.1f B/decision), %d mallocs, %d GCs\n",
		r.AllocBytes, perDecision, r.Mallocs, r.NumGC)
	if r.Aggregate != nil {
		fmt.Fprintf(w, "gauges      calendar-lag %v, peak tx backlog %v, heap %d B, fib %d B\n",
			time.Duration(r.Aggregate.Gauge(MetricSoakLagNs)),
			time.Duration(r.Aggregate.Gauge(MetricSoakTxBacklogNs)),
			r.Aggregate.Gauge(MetricSoakHeapBytes),
			r.Aggregate.Gauge(dataplane.MetricFIBMemBytes))
		writeBacklogClass(w, r.Aggregate, "fwd darts", MetricSoakTxBacklogFwdNs, MetricSoakTxBacklogFwdMaxNs)
		writeBacklogClass(w, r.Aggregate, "rev darts", MetricSoakTxBacklogRevNs, MetricSoakTxBacklogRevMaxNs)
		writeStageLatencies(w, r.Aggregate)
		if sp := r.Aggregate.Spans; sp != nil {
			fmt.Fprintf(w, "spans       %12d captured (%d evicted)\n", len(sp.Spans), sp.Dropped)
		}
	}

	fmt.Fprintf(w, "\n%-5s %-12s %-12s %-40s %9s %9s %8s %6s %5s %6s %7s\n",
		"ep", "start", "end", "label", "generated", "delivered", "no-route", "ttl", "viol", "trans", "excused")
	for _, e := range r.Epochs {
		d := e.Delta
		fmt.Fprintf(w, "%-5d %-12v %-12v %-40s %9d %9d %8d %6d %5d %6d %7d\n",
			e.Index, e.Start, e.End, e.Label,
			d.Counter(MetricSoakGenerated), d.Counter(MetricSoakDelivered),
			d.Counter(MetricSoakDropNoRoute), d.Counter(MetricSoakDropTTL),
			d.Counter(MetricSoakViolation), d.Counter(MetricSoakTransient),
			d.Counter(MetricSoakExcused))
	}

	verdict := "PASS"
	if !r.Pass {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "\nverdict: %s (drop fraction %.4f", verdict, r.DropFrac())
	for _, reason := range r.FailReasons {
		fmt.Fprintf(w, "; %s", reason)
	}
	fmt.Fprintf(w, ")\n")
}

// writeBacklogClass prints one dart class's sampled backlog
// distribution: p50/p99 (bucket upper bounds) over every flush-cadence
// sample of every dart in the class, plus the true peak from the
// high-watermark gauge.
func writeBacklogClass(w io.Writer, a *telemetry.Snapshot, label, hist, maxGauge string) {
	h, ok := a.Histograms[hist]
	if !ok || h.Count == 0 {
		return
	}
	fmt.Fprintf(w, "backlog     %-10s p50 ≤%v  p99 ≤%v  max %v  (%d samples)\n",
		label,
		time.Duration(h.Quantile(0.5)).Round(time.Microsecond),
		time.Duration(h.Quantile(0.99)).Round(time.Microsecond),
		time.Duration(a.Gauge(maxGauge)),
		h.Count)
}

// writeStageLatencies prints the control- and data-plane stage latency
// histograms the run accumulated — compile phases, swap barrier/apply,
// engine decide batches, tx queue waits — as p50/p99 bucket bounds, the
// latency-attribution summary of the span-traced seams.
func writeStageLatencies(w io.Writer, a *telemetry.Snapshot) {
	stages := []struct{ label, name string }{
		{"compile phase", dataplane.MetricCompilePhaseNs},
		{"swap barrier", dataplane.MetricSwapBarrierNs},
		{"swap apply", dataplane.MetricSwapApplyNs},
		{"decide batch", dataplane.MetricBatchNs},
		{"tx queue wait", dataplane.MetricTxQueueWaitNs},
	}
	wrote := false
	for _, st := range stages {
		h, ok := a.Histograms[st.name]
		if !ok || h.Count == 0 {
			continue
		}
		if !wrote {
			fmt.Fprintf(w, "\nstage latency (p50/p99 are bucket upper bounds):\n")
			wrote = true
		}
		fmt.Fprintf(w, "  %-14s p50 ≤%-12v p99 ≤%-12v %d samples\n",
			st.label,
			time.Duration(h.Quantile(0.5)).Round(time.Microsecond),
			time.Duration(h.Quantile(0.99)).Round(time.Microsecond),
			h.Count)
	}
}
