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
// The FIB is static for the run: a failure changes only the link state,
// never the tables (§4–§5). Planned change under live traffic is the
// engine's (Recompiler.Apply → Engine.ApplyDelta), not the simulator's.
type PRScheme struct {
	FIB *dataplane.FIB

	state *dataplane.LinkState
}

// Name implements Scheme.
func (p *PRScheme) Name() string {
	return "packet-recycling-compiled-" + p.FIB.Variant().String()
}

// Init implements Scheme.
func (p *PRScheme) Init(s *Simulator) {
	p.state = p.FIB.LinkState(s.KnownFailures())
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
	p.state.Set(l, down)
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
		return rotation.OutgoingDart(f.g, node, next), core.EventRoute, true
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
	return rotation.OutgoingDart(r.g, node, next), core.EventRoute, true
}

// TopologyChanged implements Scheme: detection starts the convergence
// countdown (flooding + SPF + FIB install beyond the detection already
// elapsed).
func (r *ReconvScheme) TopologyChanged(s *Simulator, _ graph.LinkID, _ bool) {
	window := r.Model.Window(r.radius) - r.Model.Detection
	s.ScheduleConvergeAt(s.Now() + window)
}

// Converge implements Scheme: install tables reflecting everything
// currently known.
func (r *ReconvScheme) Converge(s *Simulator) {
	r.recompute(s.KnownFailures())
}

// ---------------------------------------------------------------------------
// Loss-window experiment (§1 motivation)
// ---------------------------------------------------------------------------

// LossWindowResult compares schemes on one outage scenario.
type LossWindowResult struct {
	Scheme  string
	Traffic string
	Totals
}

// RunLossWindow runs the §1 motivation experiment: a single flow crossing
// a link that fails mid-run, on the given topology and scheme. The flow
// emits pps packets per second of 1 kB from src to dst between 0 and
// horizon; the first link of src's shortest path fails at failAt.
func RunLossWindow(cfg Config, src, dst graph.NodeID, pps float64, failAt time.Duration) (LossWindowResult, error) {
	interval := time.Duration(float64(time.Second) / pps)
	return RunLossWindowTraffic(cfg, src, dst, traffic.Fixed{Interval: interval, Bits: 8192}, failAt)
}

// RunLossWindowTraffic is RunLossWindow with an arbitrary arrival process
// driving the flow — the loss window under Poisson, MMPP-burst or replay
// traffic instead of the fixed-interval probe. The source's flow starts
// afresh every run, so the same source gives every scheme under
// comparison the identical offered load.
func RunLossWindowTraffic(cfg Config, src, dst graph.NodeID, source traffic.Source, failAt time.Duration) (LossWindowResult, error) {
	cfg.Flows = []Flow{{Src: src, Dst: dst, Source: source}}
	s, err := New(cfg)
	if err != nil {
		return LossWindowResult{}, err
	}
	s.FailLinkAt(graph.ShortestPathTree(cfg.Graph, dst, nil).NextLink[src], failAt)
	t := TotalsOf(s.Run())
	if err := s.acct.Check(t, 0); err != nil {
		return LossWindowResult{}, fmt.Errorf("sim: %s: %w", cfg.Scheme.Name(), err)
	}
	return LossWindowResult{Scheme: cfg.Scheme.Name(), Traffic: source.Name(), Totals: t}, nil
}
