package sim

import (
	"fmt"
	"time"

	"recycle/internal/core"
	"recycle/internal/dataplane"
	"recycle/internal/graph"
	"recycle/internal/reconv"
	"recycle/internal/rotation"
	"recycle/internal/traffic"
)

// Scheme is a pluggable forwarding mechanism driven by the simulator.
type Scheme interface {
	// Name identifies the scheme in reports.
	Name() string
	// Init is called once before the run.
	Init(s *Simulator)
	// Process decides the egress dart for a packet at a node and returns
	// the decision's core.Event, which labels the hop in a flight
	// transcript. Returning ok=false drops the packet (no usable route).
	Process(s *Simulator, node graph.NodeID, pkt *Packet) (egress rotation.DartID, ev core.Event, ok bool)
	// TopologyChanged notifies the scheme that routers adjacent to a link
	// have locally detected a state change.
	TopologyChanged(s *Simulator, l graph.LinkID, down bool)
	// Converge is invoked when a requested convergence completes.
	Converge(s *Simulator)
}

// ---------------------------------------------------------------------------
// Packet Re-cycling
// ---------------------------------------------------------------------------

// PRScheme forwards with a compiled dataplane.FIB, the per-router
// forwarding function of §4. Routers consult only locally detected
// failures, which flip bits in a dataplane.LinkState mirror of the
// simulator's known-failure set; packets sent into a not-yet-detected
// dead link are lost, so PR's loss window is exactly the detection delay.
//
// With a Recompiler attached the scheme also covers the maintenance
// scenario class: a planned topology change (Simulator.UpdateTopologyAt)
// is delta-recompiled and the scheme hops onto the patched FIB — the
// simulator counterpart of Engine.ApplyDelta. Without one, the scheme
// keeps its pre-maintenance FIB, modelling a router the control plane
// has not updated yet (still loss-free for weight changes: stale
// shortest paths remain live paths, just not optimal ones).
type PRScheme struct {
	FIB *dataplane.FIB
	// Recompiler, when non-nil, reacts to planned topology updates with
	// a delta recompile. It must have been built over the same network
	// state FIB was compiled from.
	Recompiler *dataplane.Recompiler

	state *dataplane.LinkState
}

// Name implements Scheme.
func (p *PRScheme) Name() string {
	return "packet-recycling-compiled-" + p.FIB.Variant().String()
}

// Init implements Scheme.
func (p *PRScheme) Init(s *Simulator) {
	p.state = dataplane.FromFailureSet(s.Graph().NumLinks(), s.KnownFailures())
}

// Process implements Scheme.
func (p *PRScheme) Process(s *Simulator, node graph.NodeID, pkt *Packet) (rotation.DartID, core.Event, bool) {
	hdr, _ := pkt.State.(core.Header)
	d := p.FIB.Decide(node, pkt.Dst, pkt.Ingress, hdr, p.state)
	if d.OK {
		pkt.State = d.Header
	}
	return d.Egress, d.Event, d.OK
}

// TopologyChanged implements Scheme: mirror the detection into the
// compiled link-state bitset.
func (p *PRScheme) TopologyChanged(_ *Simulator, l graph.LinkID, down bool) {
	mirrorDetection(p.state, l, down)
}

// mirrorDetection records a local detection in a compiled scheme's link
// state. A scheme the control plane has not updated keeps the link space of
// its FIB, and a link added since lies outside it: a router that has not
// been told of a link cannot detect its failure, so that detection is
// ignored.
func mirrorDetection(st *dataplane.LinkState, l graph.LinkID, down bool) {
	if int(l) < st.NumLinks() {
		st.Set(l, down)
	}
}

// TopologyUpdated implements TopologyUpdater: delta-recompile the edit
// set and swap onto the patched FIB. The link-state mirror is rebuilt in
// the new link space from the simulator's known failures — the same
// carry-over Engine.ApplyDelta performs. A recompile that fails leaves the
// router where a missing recompiler does, on the stale FIB, and is counted.
func (p *PRScheme) TopologyUpdated(s *Simulator, edits []graph.Edit) {
	if p.Recompiler == nil {
		return // un-updated router: keep forwarding on the stale FIB
	}
	d, err := p.Recompiler.Apply(edits...)
	if err != nil {
		s.met.faultCompile.Inc()
		return
	}
	if d == nil {
		return // the batch netted out to nothing; current FIB stands
	}
	p.FIB = d.FIB
	p.state = dataplane.FromFailureSet(d.Graph.NumLinks(), s.KnownFailures())
}

// Converge implements Scheme.
func (p *PRScheme) Converge(*Simulator) {}

// ---------------------------------------------------------------------------
// Failure-Carrying Packets
// ---------------------------------------------------------------------------

// FCPScheme forwards per the FCP rule: each packet carries the failures it
// has met; routers compute shortest paths over the topology minus carried
// failures. Locally detected failures are folded into the packet's set at
// the router that sees them.
type FCPScheme struct {
	g *graph.Graph
}

// Name implements Scheme.
func (f *FCPScheme) Name() string { return "failure-carrying-packets" }

// Init implements Scheme.
func (f *FCPScheme) Init(s *Simulator) { f.g = s.Graph() }

// Process implements Scheme.
func (f *FCPScheme) Process(s *Simulator, node graph.NodeID, pkt *Packet) (rotation.DartID, core.Event, bool) {
	carried, _ := pkt.State.(*graph.FailureSet)
	if carried == nil {
		carried = graph.NewFailureSet()
		pkt.State = carried
	}
	for {
		tree := graph.ShortestPathTree(f.g, pkt.Dst, carried)
		next := tree.NextLink[node]
		if next == graph.NoLink {
			return rotation.NoDart, core.EventRoute, false
		}
		if s.KnownFailures().Down(next) {
			carried.Add(next) // learn and recompute
			continue
		}
		return dartFrom(f.g, node, next), core.EventRoute, true
	}
}

// TopologyChanged implements Scheme.
func (f *FCPScheme) TopologyChanged(*Simulator, graph.LinkID, bool) {}

// Converge implements Scheme.
func (f *FCPScheme) Converge(*Simulator) {}

// ---------------------------------------------------------------------------
// Reconverging IGP
// ---------------------------------------------------------------------------

// ReconvScheme models a link-state IGP: routers forward on tables computed
// at the last convergence; a detected change schedules a network-wide
// reconvergence after the model's flooding+SPF+FIB window. Packets that
// reach a failed egress before the new tables install are dropped — the
// §1 loss the paper motivates PR with.
type ReconvScheme struct {
	// Model parameterises the convergence window (zero value =
	// reconv.DefaultConvergence()).
	Model reconv.ConvergenceModel

	g      *graph.Graph
	trees  []*graph.SPTree
	radius int
}

// Name implements Scheme.
func (r *ReconvScheme) Name() string { return "reconvergence" }

// Init implements Scheme.
func (r *ReconvScheme) Init(s *Simulator) {
	if r.Model == (reconv.ConvergenceModel{}) {
		r.Model = reconv.DefaultConvergence()
	}
	r.g = s.Graph()
	r.radius = graph.HopDiameter(r.g)
	if r.radius < 0 {
		r.radius = r.g.NumNodes()
	}
	r.recompute(nil)
}

func (r *ReconvScheme) recompute(failures *graph.FailureSet) {
	r.trees = graph.AllTrees(r.g, failures)
}

// Process implements Scheme.
func (r *ReconvScheme) Process(s *Simulator, node graph.NodeID, pkt *Packet) (rotation.DartID, core.Event, bool) {
	next := r.trees[pkt.Dst].NextLink[node]
	if next == graph.NoLink || s.KnownFailures().Down(next) {
		// No route, or the old FIB points into a failed link the router
		// already knows is dead: traffic is dropped until convergence
		// completes.
		return rotation.NoDart, core.EventRoute, false
	}
	return dartFrom(r.g, node, next), core.EventRoute, true
}

// TopologyChanged implements Scheme: detection starts the convergence
// countdown (flooding + SPF + FIB install beyond the detection already
// elapsed).
func (r *ReconvScheme) TopologyChanged(s *Simulator, _ graph.LinkID, _ bool) {
	window := r.Model.Window(r.radius) - r.Model.Detection
	s.ScheduleConvergeAt(s.Now() + window)
}

// TopologyUpdated implements TopologyUpdater: a planned change floods
// like any LSA — the IGP converges onto the new metrics after the model
// window (no detection delay: the operator announced it, nobody had to
// notice a loss-of-light).
func (r *ReconvScheme) TopologyUpdated(s *Simulator, _ []graph.Edit) {
	r.g = s.Graph()
	window := r.Model.Window(r.radius) - r.Model.Detection
	s.ScheduleConvergeAt(s.Now() + window)
}

// Converge implements Scheme: install tables reflecting everything
// currently known.
func (r *ReconvScheme) Converge(s *Simulator) {
	r.recompute(s.KnownFailures())
}

// dartFrom returns link l oriented away from node n.
func dartFrom(g *graph.Graph, n graph.NodeID, l graph.LinkID) rotation.DartID {
	ab, ba := rotation.DartsOf(l)
	if g.Link(l).A == n {
		return ab
	}
	return ba
}

// ---------------------------------------------------------------------------
// Loss-window experiment (§1 motivation)
// ---------------------------------------------------------------------------

// LossWindowResult compares schemes on one outage scenario.
type LossWindowResult struct {
	Scheme    string
	Traffic   string
	Generated int
	Delivered int
	Blackhole int
	NoRoute   int
	TTL       int
}

// RunLossWindow runs the §1 motivation experiment: a single flow crossing
// a link that fails mid-run, on the given topology and scheme. The flow
// emits pps packets per second of 1 kB from src to dst between 0 and
// horizon; the first link of src's shortest path fails at failAt.
func RunLossWindow(cfg Config, src, dst graph.NodeID, pps float64, failAt time.Duration) (LossWindowResult, error) {
	interval := time.Duration(float64(time.Second) / pps)
	return runLossWindowFlow(cfg, Flow{Src: src, Dst: dst, Interval: interval, Bits: 8192}, failAt)
}

// RunLossWindowTraffic is RunLossWindow with an arbitrary arrival process
// driving the flow — the loss window under Poisson, MMPP-burst or replay
// traffic instead of the fixed-interval probe. The source's stream is
// minted fresh for the run, so the same source gives every scheme under
// comparison the identical offered load.
func RunLossWindowTraffic(cfg Config, src, dst graph.NodeID, source traffic.Source, failAt time.Duration) (LossWindowResult, error) {
	return runLossWindowFlow(cfg, Flow{Src: src, Dst: dst, Source: source}, failAt)
}

// runLossWindowFlow is the shared body: one flow, the first link of the
// source's shortest path failing at failAt.
func runLossWindowFlow(cfg Config, flow Flow, failAt time.Duration) (LossWindowResult, error) {
	return runOutageFlow(cfg, flow, failAt, 0)
}

// RunMaintenance runs the planned-decommission experiment: the first
// link of src's shortest path is drained (its weight costed out to above
// any alternative path) at drainAt, then taken down at failAt — the
// operator playbook for maintenance. A scheme that reacts to the drain
// (TopologyUpdater: delta-recompiled PR, a reconverging IGP) has moved
// all traffic off the link before it dies and loses nothing; a scheme
// that ignores planned updates eats the §1 detection loss window even
// though the outage was announced.
func RunMaintenance(cfg Config, src, dst graph.NodeID, pps float64, drainAt, failAt time.Duration) (LossWindowResult, error) {
	if failAt < drainAt {
		return LossWindowResult{}, fmt.Errorf("sim: maintenance fails at %v before the %v drain", failAt, drainAt)
	}
	interval := time.Duration(float64(time.Second) / pps)
	return runOutageFlow(cfg, Flow{Src: src, Dst: dst, Interval: interval, Bits: 8192}, failAt, drainAt)
}

// runOutageFlow fails the first link of the flow's shortest path at
// failAt, optionally draining it (weight cost-out via a topology update)
// at drainAt first (0 = no drain).
func runOutageFlow(cfg Config, flow Flow, failAt, drainAt time.Duration) (LossWindowResult, error) {
	cfg.Flows = []Flow{flow}
	s, err := New(cfg)
	if err != nil {
		return LossWindowResult{}, err
	}
	// Fail the first link on src's current shortest path.
	tree := graph.ShortestPathTree(cfg.Graph, flow.Dst, nil)
	target := tree.NextLink[flow.Src]
	if drainAt > 0 {
		heavy := 1.0
		for _, l := range cfg.Graph.Links() {
			heavy += l.Weight
		}
		if err := s.UpdateTopologyAt(drainAt, graph.SetWeight(target, heavy)); err != nil {
			return LossWindowResult{}, err
		}
	}
	s.FailLinkAt(target, failAt)
	st := s.Run()
	trafficName := "fixed"
	if flow.Source != nil {
		trafficName = flow.Source.Name()
	}
	return LossWindowResult{
		Scheme:    cfg.Scheme.Name(),
		Traffic:   trafficName,
		Generated: int(st.Counter(MetricGenerated)),
		Delivered: int(st.Counter(MetricDelivered)),
		Blackhole: int(st.Counter(MetricDropBlackhole)),
		NoRoute:   int(st.Counter(MetricDropNoRoute)),
		TTL:       int(st.Counter(MetricDropTTL)),
	}, nil
}
