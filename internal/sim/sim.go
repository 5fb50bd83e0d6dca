package sim

import (
	"container/heap"
	"fmt"
	"time"

	"recycle/internal/core"
	"recycle/internal/failure"
	"recycle/internal/graph"
	"recycle/internal/rotation"
	"recycle/internal/telemetry"
	"recycle/internal/traffic"
)

// Packet is one simulated datagram.
type Packet struct {
	// ID is unique per simulation.
	ID int64
	// Src and Dst are the endpoints.
	Src, Dst graph.NodeID
	// Bits is the packet size on the wire.
	Bits int
	// Created is the emission time.
	Created time.Duration
	// Hops counts traversed links.
	Hops int
	// Ingress is the dart the packet arrived on (NoDart at origin).
	Ingress rotation.DartID
	// State carries scheme-specific per-packet data (PR header, FCP
	// carried-failure set). Owned by the scheme.
	State any

	// prHops counts hops spent off the shortest path (detect / cycle /
	// continue decisions), for the recycle-hop histogram.
	prHops int
	// flight is the armed flight-recorder transcript (nil when the
	// packet is not recorded).
	flight *telemetry.Flight
}

// DropReason classifies packet losses.
type DropReason string

// Drop reasons — each is metered under its sim.drop.* counter and
// stamped as the flight transcript's terminal verdict.
const (
	// DropBlackhole: sent onto a physically dead link before local
	// detection fired — the loss window every FRR scheme races against.
	DropBlackhole DropReason = "blackhole"
	// DropNoRoute: the scheme had no usable egress.
	DropNoRoute DropReason = "no-route"
	// DropTTL: hop budget exhausted (forwarding loop under failures).
	DropTTL DropReason = "ttl"
)

// Flow emits packets between two nodes. By default it is fixed-interval
// (Interval/Bits: the stream of traffic.Fixed); setting Source drives the
// flow with any traffic arrival process instead — Poisson, MMPP bursts,
// bounded-Pareto sizes, trace replay (package traffic).
type Flow struct {
	Src, Dst graph.NodeID
	// Interval between packets when Source is nil.
	Interval time.Duration
	// Bits per packet when Source is nil (default 8192 = 1 kB, the
	// paper's average size).
	Bits int
	// Start offsets the first packet (for a Source-driven flow, the
	// process origin: the first packet lands at Start plus the source's
	// first inter-arrival gap).
	Start time.Duration
	// Source optionally replaces the fixed-interval process. The
	// simulator mints a fresh deterministic stream per run, so reusing a
	// Config replays identical traffic. A nil Source is
	// traffic.Fixed{Interval, Bits}.
	Source traffic.Source
}

// Config parameterises a simulation run.
type Config struct {
	// Graph is the topology.
	Graph *graph.Graph
	// Scheme is the forwarding scheme under test.
	Scheme Scheme
	// Flows is the traffic matrix.
	Flows []Flow
	// Horizon ends the run (events after it are discarded).
	Horizon time.Duration
	// LinkDelay converts a link to its propagation delay. Nil defaults to
	// weight-as-kilometres over 200,000 km/s fibre, minimum 10 µs.
	LinkDelay func(l graph.Link) time.Duration
	// BandwidthBps is the serialisation rate of every link (default
	// 9.953 Gb/s, an OC-192).
	BandwidthBps float64
	// DetectionDelay is how long until routers adjacent to a failed link
	// locally detect it (default 50 ms; InstantDetection makes state
	// changes visible to routers in the same instant they happen).
	DetectionDelay time.Duration
	// HoldDown delays acting on link *recovery* (up-transitions) beyond
	// DetectionDelay. The paper's §7 flap-damping rule: a link must stay
	// idle long enough that packets which saw it down cannot meet it up
	// again while still cycle following. Zero means recoveries propagate
	// after DetectionDelay alone.
	HoldDown time.Duration
	// TTL is the hop budget per packet (default 4×nodes).
	TTL int
	// Metrics, when non-nil, is the registry the run meters into —
	// share one registry with an Engine, TxQueue or Recompiler for a
	// single coherent snapshot across the whole pipeline. When nil the
	// simulator meters into a private registry; either way Run returns
	// the run's counter delta, and Simulator.Metrics / Simulator.Timeline
	// expose the registry and the per-epoch fold.
	Metrics *telemetry.Registry
	// Recorder, when non-nil, arms the per-packet flight recorder:
	// sampled or matched packets record their full cycle walk (darts
	// taken, DD codes stamped, recycle events, final verdict).
	Recorder *telemetry.Recorder
}

// Simulator metric names. Counters fold per epoch in the Timeline;
// sim.latency_max_ns is a high-watermark gauge.
const (
	MetricGenerated     = "sim.generated"
	MetricDelivered     = "sim.delivered"
	MetricDropBlackhole = "sim.drop.blackhole"
	MetricDropNoRoute   = "sim.drop.no-route"
	MetricDropTTL       = "sim.drop.ttl"
	MetricLossViolation = "sim.loss.violation"
	MetricLossTransient = "sim.loss.transient"
	MetricLossExcused   = "sim.loss.excused"
	MetricLatencyNs     = "sim.latency_ns"
	MetricLatencyMaxNs  = "sim.latency_max_ns"
	MetricHops          = "sim.hops"
	MetricLatencyUs     = "sim.latency_us"
	MetricRecycleHops   = "sim.recycle_hops"
	MetricStretchPct    = "sim.stretch_pct"
	// Internal faults survived by forwarding on the stale state: a planned
	// topology update whose edits did not apply, a delta recompile that
	// failed.
	MetricFaultTopoUpdate = "sim.fault.topo_update"
	MetricFaultRecompile  = "sim.fault.recompile"
)

// InstantDetection, as Config.DetectionDelay, makes link state changes
// visible to adjacent routers in the very instant they happen (a literal
// zero keeps the 50 ms default). It isolates a scheme's *routing*
// resilience from the hardware loss-of-light latency — which hits every
// scheme identically and is unavoidable by any of them — so the
// resilience harness measures exactly the guarantee the paper states:
// after routers see a failure, does the scheme still deliver?
const InstantDetection = time.Duration(-1)

// Run-delta accessors. A run's outcome IS its telemetry counter delta
// (the sim.* names, see Run); these helpers read the derived quantities
// callers ask for most. The three loss classes partition the drops when
// a scenario oracle is installed (ApplyScenario): a *violation*
// (MetricLossViolation) lost a packet while its pair was physically
// connected and the link state held still — the regime of the paper's
// §1 guarantee; a *transient* (MetricLossTransient) had a failure or
// repair land mid-flight, §7's damped regime; an *excused* loss
// (MetricLossExcused) crossed a partition no scheme can.

// Dropped sums the three sim.drop.* counters of a run delta.
func Dropped(d *telemetry.Snapshot) uint64 {
	return d.Counter(MetricDropBlackhole) + d.Counter(MetricDropNoRoute) + d.Counter(MetricDropTTL)
}

// DeliveryRate is delivered / generated (1 when nothing was generated).
func DeliveryRate(d *telemetry.Snapshot) float64 {
	g := d.Counter(MetricGenerated)
	if g == 0 {
		return 1
	}
	return float64(d.Counter(MetricDelivered)) / float64(g)
}

// MeanLatency is the average delivery latency of a run delta (0 when
// none delivered).
func MeanLatency(d *telemetry.Snapshot) time.Duration {
	n := d.Counter(MetricDelivered)
	if n == 0 {
		return 0
	}
	return time.Duration(d.Counter(MetricLatencyNs) / n)
}

// MaxLatency is the run's latency high watermark (the
// sim.latency_max_ns gauge).
func MaxLatency(d *telemetry.Snapshot) time.Duration {
	return time.Duration(d.Gauge(MetricLatencyMaxNs))
}

// Simulator executes one configuration. Create with New, inject failures
// with FailLinkAt / RepairLinkAt, then Run.
type Simulator struct {
	cfg   Config
	g     *graph.Graph
	queue eventHeap
	seq   int64
	now   time.Duration

	physDown  []bool            // physical link state
	linkGen   []uint64          // physical state generation, for flap damping
	knownDown *graph.FailureSet // locally detected state, fed to schemes
	linkFree  []time.Duration   // next instant each link's transmitter is idle (per direction)
	streams   []traffic.Stream  // per-flow emission streams
	oracle    *failure.Oracle   // loss referee installed by ApplyScenario (nil = don't classify)

	reg      *telemetry.Registry
	met      *simMetrics
	timeline *telemetry.Timeline // created at Run start, rolled on link events
	hopDist  map[graph.NodeID][]int
	hopGen   *graph.Graph // graph hopDist was computed over (topology updates invalidate)

	nextPacketID int64
}

// simMetrics is the referee's resolved instrument set: handles and
// histograms looked up once in New, so the event loop never touches
// the registry's lock.
type simMetrics struct {
	generated, delivered                telemetry.CounterHandle
	dropBlackhole, dropNoRoute, dropTTL telemetry.CounterHandle
	loss                                [3]telemetry.CounterHandle // by failure.Loss
	latencyNs, hops                     telemetry.CounterHandle
	faultUpdate, faultCompile           telemetry.CounterHandle
	latencyMax                          *telemetry.Gauge
	latencyUs, recycleHops, stretchPct  telemetry.HistogramHandle
}

func newSimMetrics(r *telemetry.Registry) *simMetrics {
	return &simMetrics{
		generated:     r.Counter(MetricGenerated).Handle(),
		delivered:     r.Counter(MetricDelivered).Handle(),
		dropBlackhole: r.Counter(MetricDropBlackhole).Handle(),
		dropNoRoute:   r.Counter(MetricDropNoRoute).Handle(),
		dropTTL:       r.Counter(MetricDropTTL).Handle(),
		loss: [3]telemetry.CounterHandle{
			failure.LossViolation: r.Counter(MetricLossViolation).Handle(),
			failure.LossTransient: r.Counter(MetricLossTransient).Handle(),
			failure.LossExcused:   r.Counter(MetricLossExcused).Handle(),
		},
		latencyNs:    r.Counter(MetricLatencyNs).Handle(),
		hops:         r.Counter(MetricHops).Handle(),
		faultUpdate:  r.Counter(MetricFaultTopoUpdate).Handle(),
		faultCompile: r.Counter(MetricFaultRecompile).Handle(),
		latencyMax:   r.Gauge(MetricLatencyMaxNs),
		// 10 µs .. ~2.6 s delivery latency.
		latencyUs: r.Histogram(MetricLatencyUs, telemetry.ExponentialBuckets(10, 4, 9)).Handle(),
		// 0, 1, 2, ... 15 hops off the shortest path (16+ overflows).
		recycleHops: r.Histogram(MetricRecycleHops, telemetry.LinearBuckets(0, 1, 16)).Handle(),
		// Path stretch 100% (no stretch) .. 400%+, 25-point steps.
		stretchPct: r.Histogram(MetricStretchPct, telemetry.LinearBuckets(100, 25, 13)).Handle(),
	}
}

// New validates the configuration and prepares a simulator. Every flow
// and source parameter is checked up front with a descriptive error —
// a bad rate or dwell time fails here, not as a panic mid-run.
func New(cfg Config) (*Simulator, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("sim: nil graph")
	}
	if cfg.Scheme == nil {
		return nil, fmt.Errorf("sim: nil scheme")
	}
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("sim: horizon must be positive")
	}
	if cfg.BandwidthBps < 0 {
		return nil, fmt.Errorf("sim: negative bandwidth %g bps", cfg.BandwidthBps)
	}
	if cfg.DetectionDelay < 0 && cfg.DetectionDelay != InstantDetection {
		return nil, fmt.Errorf("sim: negative detection delay %v", cfg.DetectionDelay)
	}
	if cfg.HoldDown < 0 {
		return nil, fmt.Errorf("sim: negative hold-down %v", cfg.HoldDown)
	}
	if cfg.TTL < 0 {
		return nil, fmt.Errorf("sim: negative TTL %d", cfg.TTL)
	}
	if cfg.BandwidthBps == 0 {
		cfg.BandwidthBps = 9.953e9
	}
	if cfg.DetectionDelay == 0 {
		cfg.DetectionDelay = 50 * time.Millisecond
	} else if cfg.DetectionDelay == InstantDetection {
		cfg.DetectionDelay = 0
	}
	if cfg.TTL == 0 {
		cfg.TTL = 4 * cfg.Graph.NumNodes()
	}
	if cfg.LinkDelay == nil {
		cfg.LinkDelay = func(l graph.Link) time.Duration {
			d := time.Duration(l.Weight / 200_000 * float64(time.Second))
			if d < 10*time.Microsecond {
				d = 10 * time.Microsecond
			}
			return d
		}
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	s := &Simulator{
		cfg:       cfg,
		g:         cfg.Graph,
		physDown:  make([]bool, cfg.Graph.NumLinks()),
		linkGen:   make([]uint64, cfg.Graph.NumLinks()),
		knownDown: graph.NewFailureSet(),
		linkFree:  make([]time.Duration, 2*cfg.Graph.NumLinks()),
		streams:   make([]traffic.Stream, len(cfg.Flows)),
		reg:       reg,
		met:       newSimMetrics(reg),
	}
	for i, f := range cfg.Flows {
		if err := validateFlow(cfg.Graph, i, f); err != nil {
			return nil, err
		}
		src := f.Source
		if src == nil {
			src = traffic.Fixed{Interval: f.Interval, Bits: f.Bits}
		}
		st := src.Stream()
		s.streams[i] = st
		if gap, bits, ok := st.Next(); ok {
			s.schedule(&event{at: f.Start + gap, kind: evGenerate, flow: i, bits: bits})
		}
	}
	return s, nil
}

// validateFlow checks one flow's parameters, including its source's.
func validateFlow(g *graph.Graph, i int, f Flow) error {
	n := g.NumNodes()
	if f.Src < 0 || int(f.Src) >= n {
		return fmt.Errorf("sim: flow %d source node %d outside [0, %d)", i, f.Src, n)
	}
	if f.Dst < 0 || int(f.Dst) >= n {
		return fmt.Errorf("sim: flow %d destination node %d outside [0, %d)", i, f.Dst, n)
	}
	if f.Start < 0 {
		return fmt.Errorf("sim: flow %d has negative start %v", i, f.Start)
	}
	if f.Source != nil {
		if err := f.Source.Validate(); err != nil {
			return fmt.Errorf("sim: flow %d: %w", i, err)
		}
		return nil
	}
	if f.Interval <= 0 {
		return fmt.Errorf("sim: flow %d has non-positive interval", i)
	}
	if f.Bits < 0 {
		return fmt.Errorf("sim: flow %d has negative bits %d", i, f.Bits)
	}
	return nil
}

// Now returns the current simulated time (useful to schemes).
func (s *Simulator) Now() time.Duration { return s.now }

// KnownFailures returns the locally detected failure set schemes route
// around. Schemes must not mutate it.
func (s *Simulator) KnownFailures() *graph.FailureSet { return s.knownDown }

// Graph returns the topology.
func (s *Simulator) Graph() *graph.Graph { return s.g }

// FailLinkAt schedules a bidirectional link failure.
func (s *Simulator) FailLinkAt(l graph.LinkID, at time.Duration) {
	s.schedule(&event{at: at, kind: evLinkDown, link: l})
}

// RepairLinkAt schedules a link repair.
func (s *Simulator) RepairLinkAt(l graph.LinkID, at time.Duration) {
	s.schedule(&event{at: at, kind: evLinkUp, link: l})
}

// FailNodeAt schedules a whole-node outage: every link incident to n
// fails at the same instant. This is the timed-event counterpart of
// graph.FailNode — the paper's §4 model of a dead router (all its links
// failing bidirectionally) as a first-class sim event.
func (s *Simulator) FailNodeAt(n graph.NodeID, at time.Duration) {
	for _, nb := range s.g.Neighbors(n) {
		s.FailLinkAt(nb.Link, at)
	}
}

// RepairNodeAt schedules the node's return: every incident link repairs
// at the same instant. Pair with FailNodeAt; a link the node shares with
// another scheduled outage repairs here regardless — prefer
// ApplyScenario, which merges overlapping outages, when composing
// multi-cause histories.
func (s *Simulator) RepairNodeAt(n graph.NodeID, at time.Duration) {
	for _, nb := range s.g.Neighbors(n) {
		s.RepairLinkAt(nb.Link, at)
	}
}

// ApplyScenario expands a failure scenario into its normalised fail/
// repair event sequence (overlapping outages of one link merged, node
// outages expanded to incident links — see failure.Scenario.Events) and
// schedules it, then installs the scenario's connectivity oracle: every
// subsequent packet loss is refereed into Stats.Violations (pair
// connected, state stable over the packet's lifetime — counts against
// the scheme), Stats.Transient (pair connected but the state changed
// mid-flight, §7's damped regime) or Stats.Excused (the pair was
// partitioned at some instant — no scheme delivers across a partition).
func (s *Simulator) ApplyScenario(sc *failure.Scenario) error {
	events, err := sc.Events(s.g)
	if err != nil {
		return err
	}
	oracle, err := failure.NewOracle(s.g, sc)
	if err != nil {
		return err
	}
	for _, e := range events {
		if e.Down {
			s.FailLinkAt(e.Link, e.At)
		} else {
			s.RepairLinkAt(e.Link, e.At)
		}
	}
	s.oracle = oracle
	return nil
}

// Oracle returns the connectivity oracle installed by ApplyScenario
// (nil before it).
func (s *Simulator) Oracle() *failure.Oracle { return s.oracle }

// Metrics returns the registry the run meters into — Config.Metrics
// when one was supplied, the simulator's private registry otherwise.
func (s *Simulator) Metrics() *telemetry.Registry { return s.reg }

// Timeline returns the per-epoch fold of the run's counters: one epoch
// per link-state transition instant, aligned with the oracle's epoch
// numbering (same-instant events share a boundary). Nil before Run.
func (s *Simulator) Timeline() *telemetry.Timeline { return s.timeline }

// drop retires a lost packet: count the reason, referee it against the
// scenario oracle when one is installed, close its flight transcript.
func (s *Simulator) drop(pkt *Packet, reason DropReason, c telemetry.CounterHandle) {
	c.Inc()
	s.met.recycleHops.Observe(int64(pkt.prHops))
	if s.oracle != nil {
		s.met.loss[s.oracle.Classify(pkt.Src, pkt.Dst, pkt.Created, s.now)].Inc()
	}
	if pkt.flight != nil {
		s.cfg.Recorder.Finish(pkt.flight, string(reason), s.now)
	}
}

// headerOf reads the packet's PR header when the scheme keeps one.
func headerOf(pkt *Packet) core.Header {
	h, _ := pkt.State.(core.Header)
	return h
}

// shortestHops returns the failure-free hop distance src→dst (−1 when
// unreachable), BFS'd once per source and cached; a topology update
// swapping the graph invalidates the cache.
func (s *Simulator) shortestHops(src, dst graph.NodeID) int {
	if s.hopGen != s.g {
		s.hopDist = make(map[graph.NodeID][]int)
		s.hopGen = s.g
	}
	d, ok := s.hopDist[src]
	if !ok {
		d = graph.HopDistances(s.g, src, nil)
		s.hopDist[src] = d
	}
	if int(dst) < len(d) {
		return d[dst]
	}
	return -1
}

// UpdateTopologyAt schedules a planned topology change — the maintenance
// scenario class: link weights shift (drain or cost-out) or new links
// come up mid-run. Schemes implementing TopologyUpdater (e.g. a compiled
// PR scheme with a delta recompiler) react; everything else keeps
// forwarding on its pre-maintenance tables, exactly like a router the
// control plane has not reached yet.
//
// Removals are rejected: they renumber the live link space under
// in-flight packets. Model a decommission as a weight cost-out (drain)
// followed by FailLinkAt — which is how operators do it anyway.
func (s *Simulator) UpdateTopologyAt(at time.Duration, edits ...graph.Edit) error {
	if len(edits) == 0 {
		return fmt.Errorf("sim: empty topology update")
	}
	for _, e := range edits {
		if e.Kind == graph.EditRemoveLink {
			return fmt.Errorf("sim: %v not schedulable mid-run; drain the link (SetWeight) and FailLinkAt instead", e)
		}
		if e.Kind != graph.EditWeight && e.Kind != graph.EditAddLink {
			return fmt.Errorf("sim: unknown edit kind in %v", e)
		}
	}
	s.schedule(&event{at: at, kind: evTopoUpdate, edits: edits})
	return nil
}

// TopologyUpdater is implemented by schemes that react to planned
// topology changes (UpdateTopologyAt). The simulator's graph has already
// been swapped when the hook runs; edits describe the change.
type TopologyUpdater interface {
	TopologyUpdated(s *Simulator, edits []graph.Edit)
}

// applyTopoUpdate swaps the simulator onto the edited graph, growing the
// per-link state for any added links, then notifies the scheme.
func (s *Simulator) applyTopoUpdate(edits []graph.Edit) {
	g2, _, err := graph.ApplyEdits(s.g, edits)
	if err != nil {
		// UpdateTopologyAt screened the edit kinds; what fails here is a
		// malformed maintenance plan (bad link/node IDs). The network it
		// meant to change is still there: count the fault, keep forwarding.
		s.met.faultUpdate.Inc()
		return
	}
	for grow := g2.NumLinks() - s.g.NumLinks(); grow > 0; grow-- {
		s.physDown = append(s.physDown, false)
		s.linkGen = append(s.linkGen, 0)
		s.linkFree = append(s.linkFree, 0, 0)
	}
	s.g = g2
	if tu, ok := s.cfg.Scheme.(TopologyUpdater); ok {
		tu.TopologyUpdated(s, edits)
	}
}

func (s *Simulator) schedule(e *event) {
	// The horizon caps packet generation only; deliveries, detections and
	// convergences in flight at the horizon still drain, so every
	// generated packet gets a definite fate.
	if e.kind == evGenerate && e.at > s.cfg.Horizon {
		return
	}
	e.seq = s.seq
	s.seq++
	heap.Push(&s.queue, e)
}

// Run drains the event queue up to the horizon and returns the run's
// telemetry counter delta — what *this* run accumulated under the
// sim.* names, scoped by a base snapshot so a shared registry
// (Config.Metrics reused across runs, or fed by an engine) never
// double-counts. See Metrics / Timeline for the live surface.
func (s *Simulator) Run() *telemetry.Snapshot {
	base := s.reg.Snapshot()
	s.timeline = telemetry.NewTimeline(s.reg)
	s.cfg.Scheme.Init(s)
	for s.queue.Len() > 0 {
		e := heap.Pop(&s.queue).(*event)
		s.now = e.at
		switch e.kind {
		case evGenerate:
			s.handleGenerate(e.flow, e.bits)
		case evArrive:
			s.handleArrive(e.pkt, e.node)
		case evLinkDown:
			// A physical transition opens the next oracle epoch; fold the
			// counters accumulated so far into the closing one.
			s.timeline.Roll(e.at, fmt.Sprintf("link %d down", e.link))
			s.physDown[e.link] = true
			s.linkGen[e.link]++
			if s.cfg.DetectionDelay == 0 {
				// InstantDetection: apply atomically with the physical
				// transition, so no same-instant arrival can slip between
				// the failure and its detection.
				s.knownDown.Add(e.link)
				s.cfg.Scheme.TopologyChanged(s, e.link, true)
				break
			}
			s.schedule(&event{at: s.now + s.cfg.DetectionDelay, kind: evDetect,
				link: e.link, down: true, gen: s.linkGen[e.link]})
		case evLinkUp:
			s.timeline.Roll(e.at, fmt.Sprintf("link %d up", e.link))
			s.physDown[e.link] = false
			s.linkGen[e.link]++
			if s.cfg.DetectionDelay == 0 && s.cfg.HoldDown == 0 {
				s.knownDown.Remove(e.link)
				s.cfg.Scheme.TopologyChanged(s, e.link, false)
				break
			}
			// §7 flap damping: recoveries additionally wait out the
			// hold-down before routers act on them.
			s.schedule(&event{at: s.now + s.cfg.DetectionDelay + s.cfg.HoldDown, kind: evDetect,
				link: e.link, down: false, gen: s.linkGen[e.link]})
		case evDetect:
			if e.gen != s.linkGen[e.link] {
				break // the link flapped again before this took effect
			}
			if e.down {
				s.knownDown.Add(e.link)
			} else {
				s.knownDown.Remove(e.link)
			}
			s.cfg.Scheme.TopologyChanged(s, e.link, e.down)
		case evConverge:
			s.cfg.Scheme.Converge(s)
		case evTopoUpdate:
			s.applyTopoUpdate(e.edits)
		}
	}
	end := s.now
	if end < s.cfg.Horizon {
		end = s.cfg.Horizon
	}
	s.timeline.Finish(end)
	return s.reg.Snapshot().Sub(base)
}

// ScheduleConvergeAt lets schemes request a convergence-complete callback.
func (s *Simulator) ScheduleConvergeAt(at time.Duration) {
	s.schedule(&event{at: at, kind: evConverge})
}

func (s *Simulator) handleGenerate(flowIdx, bits int) {
	f := s.cfg.Flows[flowIdx]
	pkt := &Packet{
		ID:      s.nextPacketID,
		Src:     f.Src,
		Dst:     f.Dst,
		Bits:    bits,
		Created: s.now,
		Ingress: rotation.NoDart,
	}
	s.nextPacketID++
	s.met.generated.Inc()
	if s.cfg.Recorder != nil {
		pkt.flight = s.cfg.Recorder.Begin(pkt.ID, pkt.Src, pkt.Dst, s.now)
	}
	// Schedule the flow's next emission, then process this packet.
	if gap, nbits, ok := s.streams[flowIdx].Next(); ok {
		s.schedule(&event{at: s.now + gap, kind: evGenerate, flow: flowIdx, bits: nbits})
	}
	s.handleArrive(pkt, f.Src)
}

func (s *Simulator) handleArrive(pkt *Packet, node graph.NodeID) {
	if node == pkt.Dst {
		lat := s.now - pkt.Created
		s.met.delivered.Inc()
		s.met.latencyNs.Add(uint64(lat))
		s.met.hops.Add(uint64(pkt.Hops))
		s.met.latencyMax.SetMax(int64(lat))
		s.met.latencyUs.Observe(int64(lat / time.Microsecond))
		s.met.recycleHops.Observe(int64(pkt.prHops))
		if base := s.shortestHops(pkt.Src, pkt.Dst); base > 0 {
			s.met.stretchPct.Observe(int64(100 * pkt.Hops / base))
		}
		if pkt.flight != nil {
			pkt.flight.Record(telemetry.Hop{At: s.now, Node: node, Ingress: pkt.Ingress,
				Egress: rotation.NoDart, Event: core.EventDeliver, Header: headerOf(pkt)})
			s.cfg.Recorder.Finish(pkt.flight, "delivered", s.now)
		}
		return
	}
	if pkt.Hops >= s.cfg.TTL {
		s.drop(pkt, DropTTL, s.met.dropTTL)
		return
	}
	egress, ev, ok := s.cfg.Scheme.Process(s, node, pkt)
	if !ok {
		s.drop(pkt, DropNoRoute, s.met.dropNoRoute)
		return
	}
	switch ev {
	case core.EventDetect, core.EventCycle, core.EventContinue:
		pkt.prHops++
	}
	if pkt.flight != nil {
		pkt.flight.Record(telemetry.Hop{At: s.now, Node: node, Ingress: pkt.Ingress,
			Egress: egress, Event: ev, Header: headerOf(pkt)})
	}
	link := rotation.LinkOf(egress)
	if s.physDown[link] {
		// The scheme chose a dead link (failure not yet locally
		// detected): the packet is lost in the outage.
		s.drop(pkt, DropBlackhole, s.met.dropBlackhole)
		return
	}
	// FIFO serialisation per link direction, then propagation.
	txTime := time.Duration(float64(pkt.Bits) / s.cfg.BandwidthBps * float64(time.Second))
	start := s.now
	if s.linkFree[egress] > start {
		start = s.linkFree[egress]
	}
	done := start + txTime
	s.linkFree[egress] = done
	arrive := done + s.cfg.LinkDelay(s.g.Link(link))
	pkt.Hops++
	pkt.Ingress = egress
	next := s.g.Link(link).Other(node)
	s.schedule(&event{at: arrive, kind: evArrive, pkt: pkt, node: next})
}
