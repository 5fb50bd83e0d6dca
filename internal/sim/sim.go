package sim

import (
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

// Flow emits packets between two nodes, driven by any traffic arrival
// process — fixed interval, Poisson, MMPP bursts, bounded-Pareto sizes,
// trace replay (package traffic).
type Flow struct {
	Src, Dst graph.NodeID
	// Start is the process origin: the first packet lands at Start plus
	// the source's first gap (zero for traffic.Fixed).
	Start time.Duration
	// Source is the arrival process. Flow i of a Config is the source's
	// flow i, started afresh every run, so reusing a Config replays
	// identical traffic.
	Source traffic.Source
}

// Config parameterises a simulation run.
type Config struct {
	// Graph is the topology.
	Graph *graph.Graph
	// Scheme is the forwarding scheme under test.
	Scheme Scheme
	// Flows is the traffic: the only way packets enter a run.
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
	// share one with an Engine, a TxQueue or a whole sweep for a single
	// coherent snapshot; nil meters into a private one. Either way Run
	// returns the run's delta and Simulator.Timeline its per-epoch fold.
	Metrics *telemetry.Registry
	// Recorder, when non-nil, arms the per-packet flight recorder:
	// sampled or matched packets record their full cycle walk (darts
	// taken, DD codes stamped, recycle events, final verdict).
	Recorder *telemetry.Recorder
}

// The simulator's own metric names, beside its packet account (see
// Account): sim.latency_max_ns is a high-watermark gauge.
const (
	MetricLatencyMaxNs = "sim.latency_max_ns"
	MetricRecycleHops  = "sim.recycle_hops"
	MetricStretchPct   = "sim.stretch_pct"
)

// InstantDetection, as Config.DetectionDelay, makes link state changes
// visible to adjacent routers in the very instant they happen (a literal
// zero keeps the 50 ms default). It isolates a scheme's *routing*
// resilience from the hardware loss-of-light latency — which hits every
// scheme identically and is unavoidable by any of them — so the
// resilience harness measures exactly the guarantee the paper states:
// after routers see a failure, does the scheme still deliver?
const InstantDetection = time.Duration(-1)

// DeliveryRate is a run delta's delivered / generated (1 when nothing
// was generated).
func DeliveryRate(d *telemetry.Snapshot) float64 {
	t := TotalsOf(d)
	if t.Generated == 0 {
		return 1
	}
	return float64(t.Delivered) / float64(t.Generated)
}

// MeanLatency is the average delivery latency of a run delta (0 when
// none delivered): the sim.latency_ns histogram's sum over its count.
func MeanLatency(d *telemetry.Snapshot) time.Duration {
	t := TotalsOf(d)
	if t.Delivered == 0 {
		return 0
	}
	return time.Duration(t.LatencyNs / t.Delivered)
}

// MaxLatency is the run's latency high watermark (the
// sim.latency_max_ns gauge).
func MaxLatency(d *telemetry.Snapshot) time.Duration {
	return time.Duration(d.Gauge(MetricLatencyMaxNs))
}

// Simulator executes one configuration. Create with New, schedule the
// network's failure history with ApplyScenario (or the FailLinkAt /
// RepairLinkAt primitives it expands to), then Run.
type Simulator struct {
	cfg   Config
	queue Calendar[event]
	now   time.Duration

	physDown  []bool             // physical link state
	linkGen   []uint64           // physical state generation, for flap damping
	knownDown *graph.FailureSet  // locally detected state, fed to schemes
	linkFree  []time.Duration    // next instant each link's transmitter is idle (per direction)
	procs     []*traffic.Process // per-flow compiled traffic sources
	states    []traffic.State    // per-flow traffic generator state

	reg         *telemetry.Registry
	acct        *Account // the packet account; its oracle is installed by ApplyScenario
	latencyMax  *telemetry.Gauge
	recycleHops telemetry.HistogramHandle
	stretchPct  telemetry.HistogramHandle
	timeline    *telemetry.Timeline    // created at Run start, rolled on link events
	hopDist     map[graph.NodeID][]int // failure-free hop distances, per source

	nextPacketID int64
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
		cfg:        cfg,
		physDown:   make([]bool, cfg.Graph.NumLinks()),
		linkGen:    make([]uint64, cfg.Graph.NumLinks()),
		knownDown:  graph.NewFailureSet(),
		linkFree:   make([]time.Duration, 2*cfg.Graph.NumLinks()),
		procs:      make([]*traffic.Process, len(cfg.Flows)),
		states:     make([]traffic.State, len(cfg.Flows)),
		hopDist:    make(map[graph.NodeID][]int),
		reg:        reg,
		acct:       NewAccount(reg, nil, nil),
		latencyMax: reg.Gauge(MetricLatencyMaxNs),
		// 0, 1, 2, ... 15 hops off the shortest path (16+ overflows).
		recycleHops: reg.Histogram(MetricRecycleHops, telemetry.LinearBuckets(0, 1, 16)).Handle(),
		// Path stretch 100% (no stretch) .. 400%+, 25-point steps.
		stretchPct: reg.Histogram(MetricStretchPct, telemetry.LinearBuckets(100, 25, 13)).Handle(),
	}
	for i, f := range cfg.Flows {
		if err := validateFlow(cfg.Graph, i, f); err != nil {
			return nil, err
		}
		proc, err := traffic.Compile(f.Source)
		if err != nil {
			return nil, fmt.Errorf("sim: flow %d: %w", i, err)
		}
		s.procs[i], s.states[i] = proc, proc.Flow(i)
		s.scheduleEmission(i, f.Start)
	}
	return s, nil
}

// scheduleEmission schedules flow i's next packet, one gap after from.
func (s *Simulator) scheduleEmission(i int, from time.Duration) {
	if gap, ok := s.procs[i].Next(&s.states[i]); ok {
		s.schedule(from+gap, event{kind: evGenerate, flow: i})
	}
}

// validateFlow checks one flow's endpoints, start and source; New
// validates the source's parameters as it compiles it.
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
	if f.Source == nil {
		return fmt.Errorf("sim: flow %d has no traffic source", i)
	}
	return nil
}

// Now returns the current simulated time (useful to schemes).
func (s *Simulator) Now() time.Duration { return s.now }

// KnownFailures returns the locally detected failure set schemes route
// around. Schemes must not mutate it.
func (s *Simulator) KnownFailures() *graph.FailureSet { return s.knownDown }

// Graph returns the topology.
func (s *Simulator) Graph() *graph.Graph { return s.cfg.Graph }

// FailLinkAt schedules a bidirectional link failure.
func (s *Simulator) FailLinkAt(l graph.LinkID, at time.Duration) {
	s.schedule(at, event{kind: evLinkDown, link: l})
}

// RepairLinkAt schedules a link repair.
func (s *Simulator) RepairLinkAt(l graph.LinkID, at time.Duration) {
	s.schedule(at, event{kind: evLinkUp, link: l})
}

// ApplyScenario expands a failure scenario into its normalised fail/
// repair event sequence (overlapping outages of one link merged, node
// outages expanded to incident links — see failure.Scenario.Events) and
// schedules it, then installs the scenario's connectivity oracle as the
// account's referee: every subsequent packet loss is a violation, a
// transient or excused (see Account).
func (s *Simulator) ApplyScenario(sc *failure.Scenario) error {
	events, err := sc.Events(s.cfg.Graph)
	if err != nil {
		return err
	}
	oracle, err := failure.NewOracle(s.cfg.Graph, sc)
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
	s.acct.oracle = oracle
	return nil
}

// Oracle returns the connectivity oracle installed by ApplyScenario
// (nil before it).
func (s *Simulator) Oracle() *failure.Oracle { return s.acct.oracle }

// Account returns the run's packet account, to Check a run delta
// against.
func (s *Simulator) Account() *Account { return s.acct }

// Timeline returns the per-epoch fold of the run's counters: one epoch
// per link-state transition instant, aligned with the oracle's epoch
// numbering (same-instant events share a boundary). Nil before Run.
func (s *Simulator) Timeline() *telemetry.Timeline { return s.timeline }

// drop retires a lost packet: count and referee it, close its flight
// transcript.
func (s *Simulator) drop(pkt *Packet, reason DropReason) {
	s.acct.Drop(reason, pkt.Src, pkt.Dst, pkt.Created, s.now)
	s.recycleHops.Observe(int64(pkt.prHops))
	if pkt.flight != nil {
		s.cfg.Recorder.Finish(pkt.flight, reason.String(), s.now)
	}
}

// headerOf reads the packet's PR header when the scheme keeps one.
func headerOf(pkt *Packet) core.Header {
	h, _ := pkt.State.(core.Header)
	return h
}

// shortestHops returns the failure-free hop distance src→dst (−1 when
// unreachable), BFS'd once per source and cached for the run.
func (s *Simulator) shortestHops(src, dst graph.NodeID) int {
	d, ok := s.hopDist[src]
	if !ok {
		d = graph.HopDistances(s.cfg.Graph, src, nil)
		s.hopDist[src] = d
	}
	if int(dst) < len(d) {
		return d[dst]
	}
	return -1
}

func (s *Simulator) schedule(at time.Duration, e event) {
	// The horizon caps packet generation only; deliveries, detections and
	// convergences in flight at the horizon still drain, so every
	// generated packet gets a definite fate.
	if e.kind == evGenerate && at > s.cfg.Horizon {
		return
	}
	s.queue.Push(at, e)
}

// Run drains the event queue up to the horizon and returns the run's
// telemetry counter delta — what *this* run accumulated under the
// sim.* names, scoped by a base snapshot so a shared registry
// (Config.Metrics reused across runs, or fed by an engine) never
// double-counts. See Timeline for the per-epoch fold.
func (s *Simulator) Run() *telemetry.Snapshot {
	base := s.reg.Snapshot()
	s.timeline = telemetry.NewTimeline(s.reg)
	s.cfg.Scheme.Init(s)
	for s.queue.Len() > 0 {
		top := s.queue.Pop()
		s.now = top.At
		e := &top.Value
		switch e.kind {
		case evGenerate:
			s.handleGenerate(e.flow)
		case evArrive:
			s.handleArrive(e.pkt, e.node)
		case evLinkDown:
			// A physical transition opens the next oracle epoch; fold the
			// counters accumulated so far into the closing one.
			s.timeline.Roll(s.now, fmt.Sprintf("link %d down", e.link))
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
			s.schedule(s.now+s.cfg.DetectionDelay, event{kind: evDetect,
				link: e.link, down: true, gen: s.linkGen[e.link]})
		case evLinkUp:
			s.timeline.Roll(s.now, fmt.Sprintf("link %d up", e.link))
			s.physDown[e.link] = false
			s.linkGen[e.link]++
			if s.cfg.DetectionDelay == 0 && s.cfg.HoldDown == 0 {
				s.knownDown.Remove(e.link)
				s.cfg.Scheme.TopologyChanged(s, e.link, false)
				break
			}
			// §7 flap damping: recoveries additionally wait out the
			// hold-down before routers act on them.
			s.schedule(s.now+s.cfg.DetectionDelay+s.cfg.HoldDown, event{kind: evDetect,
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
	s.schedule(at, event{kind: evConverge})
}

func (s *Simulator) handleGenerate(flowIdx int) {
	f := s.cfg.Flows[flowIdx]
	pkt := &Packet{
		ID:      s.nextPacketID,
		Src:     f.Src,
		Dst:     f.Dst,
		Bits:    s.procs[flowIdx].Bits(&s.states[flowIdx]),
		Created: s.now,
		Ingress: rotation.NoDart,
	}
	s.nextPacketID++
	s.acct.Emit()
	if s.cfg.Recorder != nil {
		pkt.flight = s.cfg.Recorder.Begin(pkt.ID, pkt.Src, pkt.Dst, s.now)
	}
	// Schedule the flow's next emission, then process this packet.
	s.scheduleEmission(flowIdx, s.now)
	s.handleArrive(pkt, f.Src)
}

func (s *Simulator) handleArrive(pkt *Packet, node graph.NodeID) {
	if node == pkt.Dst {
		lat := s.now - pkt.Created
		s.acct.Deliver(pkt.Hops, lat)
		s.latencyMax.SetMax(int64(lat))
		s.recycleHops.Observe(int64(pkt.prHops))
		if base := s.shortestHops(pkt.Src, pkt.Dst); base > 0 {
			s.stretchPct.Observe(int64(100 * pkt.Hops / base))
		}
		if pkt.flight != nil {
			pkt.flight.Record(telemetry.Hop{At: s.now, Node: node, Ingress: pkt.Ingress,
				Egress: rotation.NoDart, Event: core.EventDeliver, Header: headerOf(pkt)})
			s.cfg.Recorder.Finish(pkt.flight, "delivered", s.now)
		}
		return
	}
	if pkt.Hops >= s.cfg.TTL {
		s.drop(pkt, DropTTL)
		return
	}
	egress, ev, ok := s.cfg.Scheme.Process(s, node, pkt)
	if !ok {
		s.drop(pkt, DropNoRoute)
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
		s.drop(pkt, DropBlackhole)
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
	arrive := done + s.cfg.LinkDelay(s.cfg.Graph.Link(link))
	pkt.Hops++
	pkt.Ingress = egress
	next := s.cfg.Graph.Link(link).Other(node)
	s.schedule(arrive, event{kind: evArrive, pkt: pkt, node: next})
}
