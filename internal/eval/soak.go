package eval

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"recycle/internal/dataplane"
	"recycle/internal/failure"
	"recycle/internal/graph"
	"recycle/internal/rotation"
	"recycle/internal/sim"
	"recycle/internal/telemetry"
	"recycle/internal/topo"
	"recycle/internal/traffic"
)

// The soak harness is the full stack running *at once* for a sustained
// period: hundreds of thousands of concurrent traffic flows walked
// hop-by-hop through a live Engine into a TxQueue egress, while
// a continuous failure scenario plays out against the engine's link
// state and a stream of Recompiler hot-swaps (weight tweaks and
// structural chord add/remove) lands on the running engine — everything
// publishing into one telemetry.Registry whose Timeline is rolled on
// every scenario event and swap, with the summed per-epoch deltas
// proven equal to the aggregate exactly (the same lossless-exposition
// invariant TraceResilience pins).
//
// One goroutine, the pump, runs it all on one virtual clock: traffic,
// control plane, decisions (Engine.Step), transmit (TxQueue.SendBatch)
// and referee. Each hop costs soakHop of virtual time, and the TxQueue
// paces on the same clock, so one seed gives one run. Emissions wait on
// a sim.Calendar of flow indices, the simulator's own event calendar,
// keyed by each flow's next instant. The pump lands every
// scenario event and hot-swap due by now before each tick's fill, so all
// a packet meets after its emission is scheduled inside its flight
// window (emit, lost], and the control still due before the horizon
// when the last packet drains lands then. The pump counts every packet into the
// simulator's account (sim.Account): its oracle referees every loss as
// it does the simulator's, with one rule added — a hot-swap scheduled
// mid-flight makes a loss transient, as a failure or repair does. A
// packet its egress queue refuses is congestion, not a §5 loss: it
// stops, is counted under tx.drop.* alone, and only the drop-fraction
// bound judges it.

// The soak's own metric names, beside the packet account.
const (
	MetricSoakFlows     = "soak.flows"
	MetricSoakLagNs     = "soak.calendar_lag_ns"
	MetricSoakHeapBytes = "soak.heap_alloc_bytes"
	// Per-dart-class backlog distributions, sampled by the pump every
	// tick: forward darts (even IDs) and reverse darts (odd IDs) each
	// get a histogram of instantaneous queueing delay plus a peak gauge.
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
	// a persistent (src,dst) pair emitting per the Traffic process, flow
	// i drawing the source's flow i; its whole state is 56 bytes,
	// calendar entry included, so hundreds of thousands of flows fit in
	// a few megabytes.
	Flows int
	// Duration is how long emissions run, in virtual time (default 30s).
	// In-flight packets drain to a verdict after the horizon.
	Duration time.Duration
	// Traffic is the per-flow arrival process (traffic.ParseSpec
	// grammar: fixed, poisson or mmpp; default "poisson:rate=2"). The
	// spec's rate is per flow: aggregate offered load is Flows × the
	// process's mean rate.
	Traffic string
	// SwapEvery is the virtual interval between control-plane hot-swaps
	// against the running engine (default Duration/12). Most swaps are
	// weight tweaks; one adds a structural chord and a later one removes
	// it (when a genus-preserving chord exists).
	SwapEvery time.Duration
	// Deprecated: Shards is ignored; the soak decides on one goroutine.
	Shards int
	// BatchSize is packets per Engine.Step (default 256).
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
		out.SwapEvery = max(out.Duration/12, 1) // a horizon under 12 ns still advances
	}
	if out.BatchSize == 0 {
		out.BatchSize = 256
	}
	if out.MaxDropFrac == 0 {
		out.MaxDropFrac = 0.02
	}
	return out
}

// validate rejects negative sizes and intervals: they cannot be
// allocated, pass over no packets, or never advance the swap schedule.
func (c *SoakConfig) validate() error {
	switch {
	case c.Flows < 0:
		return fmt.Errorf("eval: soak Flows must be ≥ 0 (got %d)", c.Flows)
	case c.BatchSize < 0:
		return fmt.Errorf("eval: soak BatchSize must be ≥ 0 (got %d)", c.BatchSize)
	case c.MaxHops < 0:
		return fmt.Errorf("eval: soak MaxHops must be ≥ 0 (got %d)", c.MaxHops)
	case c.Duration < 0:
		return fmt.Errorf("eval: soak Duration must be ≥ 0 (got %v)", c.Duration)
	case c.SwapEvery < 0:
		return fmt.Errorf("eval: soak SwapEvery must be ≥ 0 (got %v)", c.SwapEvery)
	}
	return nil
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
	// Horizon is the configured emission window, in virtual time;
	// Elapsed the wall time the run took, drain included — CPU time of
	// one goroutine.
	Horizon time.Duration
	Elapsed time.Duration

	// Totals account every emitted packet with the egress drops of
	// Aggregate: Generated == Delivered + Dropped() +
	// dataplane.TxDropped(Aggregate). The engine sees every link event
	// as it lands, so DropBlackhole stays 0.
	sim.Totals

	// Decisions is the engine's total (every hop of every walk);
	// DecisionsPerSec and DeliveredPerSec are rates over Elapsed: per
	// CPU-second of the one-goroutine run.
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
	return float64(r.Dropped()+txDropped) / float64(r.Generated)
}

// soakFlow is one flow's emission state: 32 bytes, plus a 24-byte entry
// on the pump's calendar keyed by its next emission instant, so a
// hundred thousand flows take 5.6 MB.
type soakFlow struct {
	traffic.State
	src int32
	dst int32
}

// ---------------------------------------------------------------------------
// RunSoak
// ---------------------------------------------------------------------------

// soakMeta is the walker's per-packet sidecar, parallel to the pump's
// packets in flight.
type soakMeta struct {
	emit time.Duration
	src  int32
	hops int32
}

// soakHop is the virtual time one hop costs: a decision plus the link
// traversal to the next router. Every hop costs the same, so a packet's
// flight is its hop count × soakHop.
const soakHop = 100 * time.Microsecond

// RunSoak drives the full stack for cfg.Duration and referees every
// loss. The verdict demands zero violations and bounded drops, and the
// per-epoch timeline's summed deltas are verified against the
// aggregate snapshot before the result is returned.
func RunSoak(tp topo.Topology, cfg SoakConfig) (*SoakResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
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
	if _, ok := src.(traffic.Replay); ok {
		return nil, fmt.Errorf("eval: soak traffic must be fixed, poisson or mmpp (got %s)", src.Name())
	}
	tr, err := traffic.Compile(src)
	if err != nil {
		return nil, err
	}

	reg.Gauge(MetricSoakFlows).Set(int64(cfg.Flows))
	reg.RegisterCollector(telemetry.CollectorFunc(func(s *telemetry.Snapshot) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.SetGauge(MetricSoakHeapBytes, int64(ms.HeapAlloc))
	}))

	// Seed the flow population: random (src,dst) pairs, flow i drawing
	// the source's flow i, each fixed flow de-phased within its interval
	// so the calendar doesn't open with a thundering herd.
	rng := rand.New(rand.NewSource(failure.DrawSeed(cfg.Seed, 1)))
	p := &soakPump{
		cfg:    cfg,
		tr:     tr,
		flows:  make([]soakFlow, cfg.Flows),
		lag:    reg.Gauge(MetricSoakLagNs),
		tracer: tracer,
		root:   runSpan.ID(),
	}
	for i := range p.flows {
		f := &p.flows[i]
		f.src = int32(rng.Intn(n))
		for f.dst = f.src; f.dst == f.src; {
			f.dst = int32(rng.Intn(n))
		}
		f.State = tr.Flow(i)
		next, _ := tr.Next(&f.State)
		if fixed, ok := src.(traffic.Fixed); ok {
			next = time.Duration(rng.Int63n(int64(fixed.Interval)))
		}
		p.cal.Push(next, int32(i))
	}
	// The TxQueue paces on the pump's clock.
	p.tx = dataplane.NewTxQueue(fib, dataplane.TxConfig{
		BandwidthBps: cfg.BandwidthBps, Metrics: reg,
		Now: func() time.Duration { return p.now },
	})
	p.verdicts = make([]dataplane.TxVerdict, cfg.BatchSize)
	p.backFwd = reg.Histogram(MetricSoakTxBacklogFwdNs, backlogBuckets())
	p.backRev = reg.Histogram(MetricSoakTxBacklogRevNs, backlogBuckets())
	p.backFwdMax = reg.Gauge(MetricSoakTxBacklogFwdMaxNs)
	p.backRevMax = reg.Gauge(MetricSoakTxBacklogRevMaxNs)

	// The pump decides every batch itself with Step, so the engine's one
	// worker never wakes. It also transmits each decided packet itself
	// (tick), so the engine has no Egress: a packet its queue refuses
	// stops there.
	eng := dataplane.NewEngine(fib, dataplane.EngineConfig{
		Shards:  1,
		Metrics: reg,
		Tracer:  tracer,
	})
	p.eng = eng

	var msStart runtime.MemStats
	runtime.ReadMemStats(&msStart)
	base := reg.Snapshot()
	tl := telemetry.NewTimeline(reg)
	start := time.Now()

	p.ctl = newSoakControl(cfg, eng, p.tx, rec, tl, events, runSpan.ID())
	// A hot-swap is no link event, yet it can cost a packet in flight
	// across it; fill lands all control due by a packet's emission first.
	p.acct = sim.NewAccount(reg, oracle, p.ctl.swapIn)
	end := p.run()
	decisions := eng.Close()
	elapsed := time.Since(start)
	if p.ctl.err != nil {
		return nil, p.ctl.err
	}

	epochs := tl.Finish(max(cfg.Duration, end))
	agg := reg.Snapshot().Sub(base)
	if err := checkTimelineExact(tl.Sum(), agg); err != nil {
		return nil, fmt.Errorf("eval: soak %w", err)
	}

	var msEnd runtime.MemStats
	runtime.ReadMemStats(&msEnd)

	tot := sim.TotalsOf(agg)
	if err := p.acct.Check(tot, dataplane.TxDropped(agg)); err != nil {
		return nil, fmt.Errorf("eval: soak %w", err)
	}
	res := &SoakResult{
		Topology:        tp.Name,
		Scenario:        sc.Name,
		Genus:           sys.Genus(),
		Flows:           cfg.Flows,
		OfferedPPS:      float64(cfg.Flows) * tr.MeanRate(),
		Horizon:         cfg.Duration,
		Elapsed:         elapsed,
		Totals:          tot,
		Decisions:       decisions,
		DecisionsPerSec: float64(decisions) / elapsed.Seconds(),
		Swaps:           p.ctl.swaps,
		StructuralSwaps: p.ctl.structural,
		SkippedSwaps:    p.ctl.skipped,
		ScenarioEvents:  p.ctl.ei,
		AllocBytes:      msEnd.TotalAlloc - msStart.TotalAlloc,
		Mallocs:         msEnd.Mallocs - msStart.Mallocs,
		NumGC:           msEnd.NumGC - msStart.NumGC,
		Epochs:          epochs,
		Aggregate:       agg,
	}
	res.DeliveredPerSec = float64(res.Delivered) / elapsed.Seconds()

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
// The pump: one goroutine, one virtual clock
// ---------------------------------------------------------------------------

// soakPump owns the clock, the traffic, the control plane and the
// packet account. It is a discrete-event loop on the goroutine that
// called RunSoak: it decides its packets inline with Engine.Step, so the
// account's referee needs no locks and the oracle's lazily-filled
// reachability cache is safe.
type soakPump struct {
	cfg   SoakConfig
	tr    *traffic.Process
	flows []soakFlow
	// cal holds each flow's index at its next emission instant.
	cal  sim.Calendar[int32]
	ctl  *soakControl
	eng  *dataplane.Engine
	acct *sim.Account

	now   time.Duration // the virtual clock; the TxQueue paces on it
	batch dataplane.Batch
	// pkts are the packets in flight, each due at its router at now;
	// meta is their sidecar.
	pkts []dataplane.Packet
	meta []soakMeta

	tracer *telemetry.Tracer
	root   telemetry.SpanID
	tx     *dataplane.TxQueue
	// verdicts holds the egress verdicts of the chunk being resolved.
	verdicts []dataplane.TxVerdict
	// Per-dart-class backlog sampling (forward/reverse darts), taken
	// every tick.
	backFwd    *telemetry.Histogram
	backRev    *telemetry.Histogram
	backFwdMax *telemetry.Gauge
	backRevMax *telemetry.Gauge
	lag        *telemetry.Gauge
}

// run ticks the clock until every emitted packet has a verdict and
// returns the virtual instant the drain ends. A tick lands the control
// due by now, adds the emissions due by now, decides every packet in
// flight and advances the clock one hop; with nothing in flight the
// clock jumps straight to the next emission.
func (p *soakPump) run() time.Duration {
	horizon := p.cfg.Duration
	// The pump span covers the whole loop; the drain span (opened when
	// the horizon passes with packets still in flight) isolates the
	// post-horizon resolution tail — the recovery latency the referee's
	// verdicts depend on.
	pumpSpan := p.tracer.Start("soak.pump", p.root)
	defer pumpSpan.End()
	var drain telemetry.Span
	defer drain.End()
	for {
		if len(p.pkts) == 0 {
			if p.cal.Len() == 0 || p.cal.Peek().At >= horizon {
				// Drained: every emitted packet has a verdict. The control
				// scheduled before the horizon still lands, as it would
				// under traffic.
				p.ctl.applyDue(horizon - 1)
				return p.now
			}
			p.now = max(p.now, p.cal.Peek().At)
		}
		if p.now >= horizon && drain.ID() == 0 {
			drain = p.tracer.Start("soak.drain", pumpSpan.ID())
		}
		p.ctl.applyDue(p.now)
		p.fill(horizon)
		p.tick()
		p.sampleBacklog()
		p.now += soakHop
	}
}

// sampleBacklog observes every dart's backlog into the per-class
// histograms and peak gauges. Called once per tick — O(darts), never per
// packet.
func (p *soakPump) sampleBacklog() {
	mf, mr := p.tx.SampleBacklog(p.backFwd, p.backRev)
	p.backFwdMax.SetMax(int64(mf))
	p.backRevMax.SetMax(int64(mr))
}

// fill adds every emission due by now and before the horizon to the
// packets in flight. The control due by now has landed already, so no
// packet is decided under control older than its birth.
func (p *soakPump) fill(horizon time.Duration) {
	// Calendar lag: how far the tick trails the emissions it picks up.
	if p.now < horizon && p.cal.Len() > 0 {
		if lag := p.now - p.cal.Peek().At; lag > 0 {
			p.lag.SetMax(int64(lag))
		}
	}
	for p.cal.Len() > 0 {
		top := p.cal.Peek()
		at := top.At
		if at > p.now || at >= horizon {
			break
		}
		f := &p.flows[top.Value]
		p.pkts = append(p.pkts, dataplane.Packet{
			Node:    graph.NodeID(f.src),
			Dst:     graph.NodeID(f.dst),
			Ingress: rotation.NoDart,
			Bits:    int32(p.tr.Bits(&f.State)),
		})
		p.meta = append(p.meta, soakMeta{emit: at, src: f.src})
		gap, _ := p.tr.Next(&f.State)
		p.cal.Reschedule(at + gap)
		p.acct.Emit()
	}
}

// tick decides every packet in flight, BatchSize at a time, hands each
// decided chunk to its egress queues in one SendBatch and resolves the
// chunk's packets at once: a drop is refereed at now, a packet the queue
// refuses stops (counted under tx.drop.*, and nowhere else: congestion
// is no §5 loss class), a packet whose egress reaches its destination is
// delivered one hop later, and every other packet is at its next router
// one hop later.
func (p *soakPump) tick() {
	keep := 0
	for off := 0; off < len(p.pkts); off += p.cfg.BatchSize {
		end := min(off+p.cfg.BatchSize, len(p.pkts))
		p.batch.Pkts = p.pkts[off:end]
		// Across a structural hot-swap the dart space changes, so egress
		// darts are mapped through the FIB the batch was decided under.
		fib := p.eng.Step(&p.batch)
		p.tx.SendBatch(p.batch.Pkts, p.eng.Snapshot(), p.verdicts)
		for i := off; i < end; i++ {
			pk, m := &p.pkts[i], &p.meta[i]
			if !pk.OK {
				p.acct.Drop(sim.DropNoRoute, graph.NodeID(m.src), pk.Dst, m.emit, p.now)
				continue
			}
			if p.verdicts[i-off] != dataplane.TxSent {
				continue
			}
			next := fib.Head(pk.Egress)
			m.hops++
			if next == pk.Dst {
				p.acct.Deliver(int(m.hops), p.now+soakHop-m.emit)
				continue
			}
			if int(m.hops) >= p.cfg.MaxHops {
				p.acct.Drop(sim.DropTTL, graph.NodeID(m.src), pk.Dst, m.emit, p.now)
				continue
			}
			// The arrival dart at the next node IS the egress dart (the
			// convention core.Protocol.Walk and the wire path share): cycle
			// following computes φ(ingress) on it directly.
			pk.Node = next
			pk.Ingress = pk.Egress
			p.pkts[keep] = *pk
			p.meta[keep] = *m
			keep++
		}
	}
	p.pkts, p.meta = p.pkts[:keep], p.meta[:keep]
}

// ---------------------------------------------------------------------------
// The control plane: scenario replay + hot-swap schedule
// ---------------------------------------------------------------------------

// soakControl is the control plane the pump applies: the scenario's
// link events, and a hot-swap every `every` before the horizon, each
// landed on the engine and rolled into the shared Timeline at its
// scheduled instant. Only the pump goroutine touches it, the Timeline
// and the Recompiler.
type soakControl struct {
	eng      *dataplane.Engine
	tx       *dataplane.TxQueue
	rec      *dataplane.Recompiler
	tl       *telemetry.Timeline
	events   []failure.Event
	every    time.Duration // swap i is scheduled at (i+1)·every
	horizon  time.Duration // no swap is scheduled at or after it
	addAt    int           // the swap that adds a structural chord
	removeAt int           // the swap that removes it again
	rng      *rand.Rand
	tracer   *telemetry.Tracer
	root     telemetry.SpanID

	ei         int // scenario events applied so far
	swapIdx    int // swaps attempted so far
	swaps      int
	structural int
	skipped    int
	chord      graph.LinkID
	added      bool
	err        error
}

// newSoakControl schedules cfg's hot-swaps beside the scenario's events.
// A chord is added a third of the way in and removed at two thirds,
// after which it stays a tombstone: the engine forwards on a larger dart
// space than it was built with, the chord's link down for good.
func newSoakControl(cfg SoakConfig, eng *dataplane.Engine, tx *dataplane.TxQueue, rec *dataplane.Recompiler,
	tl *telemetry.Timeline, events []failure.Event, root telemetry.SpanID) *soakControl {
	total := int(cfg.Duration / cfg.SwapEvery)
	return &soakControl{
		eng: eng, tx: tx, rec: rec, tl: tl, events: events,
		every: cfg.SwapEvery, horizon: cfg.Duration,
		addAt: total / 3, removeAt: max(2*total/3, total/3+1),
		tracer: cfg.Tracer, root: root,
		rng: rand.New(rand.NewSource(failure.DrawSeed(cfg.Seed, 4))),
	}
}

// next returns the earliest control instant not yet applied;
// failure.Forever when none is left or an error stopped the schedule.
func (c *soakControl) next() time.Duration {
	if c.err != nil {
		return failure.Forever
	}
	at := failure.Forever
	if sw := time.Duration(c.swapIdx+1) * c.every; sw < c.horizon {
		at = sw
	}
	if c.ei < len(c.events) {
		at = min(at, c.events[c.ei].At)
	}
	return at
}

// swapIn reports whether a hot-swap is scheduled in (from, to].
func (c *soakControl) swapIn(from, to time.Duration) bool {
	at := (from/c.every + 1) * c.every
	return at <= to && at < c.horizon
}

// applyDue lands every scenario event and hot-swap scheduled at or
// before now, in schedule order; at one instant the events go before the
// swap. The pump calls it before every fill, so the engine state a
// packet meets changes after its emission only at instants its flight
// window holds.
func (c *soakControl) applyDue(now time.Duration) {
	for at := c.next(); at <= now; at = c.next() {
		if c.ei < len(c.events) && c.events[c.ei].At == at {
			c.applyEvent()
		} else {
			c.swap(at)
		}
	}
}

// applyEvent lands the next link failure or repair on the engine.
// Events at one instant fold into one Timeline epoch, as the oracle
// folds them.
func (c *soakControl) applyEvent() {
	ev := c.events[c.ei]
	c.ei++
	dir := "up"
	if ev.Down {
		dir = "down"
	}
	c.tl.Roll(ev.At, fmt.Sprintf("link %d %s", ev.Link, dir))
	sp := c.tracer.Start("soak.link."+dir, c.root)
	sp.SetAttr(telemetry.AttrLink, int64(ev.Link))
	c.eng.SetLink(ev.Link, ev.Down)
	sp.End()
}

// swap lands the next hot-swap on the running engine: a weight tweak,
// or at the scheduled indices a structural chord add / remove.
func (c *soakControl) swap(at time.Duration) {
	idx := c.swapIdx
	c.swapIdx++
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
	case idx == c.addAt && !c.added:
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
	case idx == c.removeAt && c.added:
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
	// The egress queue is the pump's, not the engine's: grow it to an
	// appended link's darts as SwapFIB would.
	c.tx.RebindDarts(2 * d.FIB.NumLinks())
	if aerr := c.eng.ApplyDelta(d); aerr != nil {
		// The recompiler advanced but the engine refused: the two are
		// now desynchronised, which no later swap can repair. Abort.
		c.err = fmt.Errorf("eval: soak hot-swap refused: %w", aerr)
		return
	}
	c.swaps++
	if d.Structural {
		c.structural++
	}
}

// tryAddChord hunts for a chord whose appended rotation placement keeps
// the surface genus — §5's guarantee is conditioned on the embedding. An
// appended link sits last in both endpoints' rotations, so it keeps the
// genus exactly when the corners it lands in, one after each endpoint's
// last dart, lie on one face, which it splits; otherwise it joins two
// faces and raises the genus. Such candidates are skipped before any
// edit: a removed link stays behind as a tombstone, so no trial chord
// could be taken back. The genus is still checked after the edit, and a
// raise aborts the soak rather than run §5 on an embedding it does not
// cover.
func (c *soakControl) tryAddChord() (*dataplane.Delta, string) {
	sys := c.rec.System()
	faces, genus := sys.Faces(), sys.Genus()
	// corner is the dart whose face an appended link enters at v.
	corner := func(v graph.NodeID) rotation.DartID {
		r := sys.Rotation(v)
		return rotation.ReverseID(r[len(r)-1])
	}
	n := c.rec.Graph().NumNodes()
	for try := 0; try < 16; try++ {
		g := c.rec.Graph()
		a := graph.NodeID(c.rng.Intn(n))
		b := graph.NodeID(c.rng.Intn(n))
		if a == b || g.HasLink(a, b) || g.Degree(a) == 0 || g.Degree(b) == 0 || !faces.SameFace(corner(a), corner(b)) {
			continue
		}
		chord := g.AddTarget(a, b)
		d, err := c.rec.Apply(graph.AddLinkEdit(a, b, 1))
		if err != nil {
			continue // the recompiler is unchanged on error
		}
		if ng := d.System.Genus(); ng > genus {
			c.err = fmt.Errorf("eval: soak chord %d–%d raised the genus %d → %d", a, b, genus, ng)
			return nil, ""
		}
		c.chord, c.added = chord, true
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
// rates per CPU-second, the control-plane churn, the allocation and egress
// telemetry, and the full per-epoch timeline — closing with the
// verdict line CI greps.
func WriteSoakReport(w io.Writer, r *SoakResult) {
	fmt.Fprintf(w, "# soak: %s (genus %d), %d flows ≈ %.0f pps offered, %v virtual horizon (%v wall), scenario %s\n",
		r.Topology, r.Genus, r.Flows, r.OfferedPPS, r.Horizon, r.Elapsed.Round(time.Millisecond), r.Scenario)
	fmt.Fprintf(w, "# violation = lost while the pair stayed connected and nothing changed mid-flight;\n")
	fmt.Fprintf(w, "# transient = a failure, repair or hot-swap was scheduled mid-flight (§7); excused = the pair was partitioned\n\n")

	fmt.Fprintf(w, "generated   %12d\n", r.Generated)
	fmt.Fprintf(w, "delivered   %12d  (%.1f pkts/CPU-s)\n", r.Delivered, r.DeliveredPerSec)
	fmt.Fprintf(w, "no-route    %12d\n", r.DropNoRoute)
	fmt.Fprintf(w, "ttl         %12d\n", r.DropTTL)
	fmt.Fprintf(w, "violations  %12d\n", r.Violations)
	fmt.Fprintf(w, "transient   %12d\n", r.Transient)
	fmt.Fprintf(w, "excused     %12d\n", r.Excused)
	fmt.Fprintf(w, "decisions   %12d  (%.0f decisions/CPU-s)\n", r.Decisions, r.DecisionsPerSec)
	fmt.Fprintf(w, "swaps       %12d  (%d structural, %d skipped)\n", r.Swaps, r.StructuralSwaps, r.SkippedSwaps)
	fmt.Fprintf(w, "link events %12d\n", r.ScenarioEvents)
	if a := r.Aggregate; a != nil {
		fmt.Fprintf(w, "tx          %12d sent, %d dropped (%d queue-full, %d link-down)\n",
			a.Counter(dataplane.MetricTxSent), dataplane.TxDropped(a),
			a.Counter(dataplane.MetricTxDropQueueFull), a.Counter(dataplane.MetricTxDropLinkDown))
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
			time.Duration(max(r.Aggregate.Gauge(MetricSoakTxBacklogFwdMaxNs), r.Aggregate.Gauge(MetricSoakTxBacklogRevMaxNs))),
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
		t := sim.TotalsOf(e.Delta)
		fmt.Fprintf(w, "%-5d %-12v %-12v %-40s %9d %9d %8d %6d %5d %6d %7d\n",
			e.Index, e.Start, e.End, e.Label, t.Generated, t.Delivered,
			t.DropNoRoute, t.DropTTL, t.Violations, t.Transient, t.Excused)
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
// distribution: p50/p99 (bucket upper bounds) over every per-tick
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
