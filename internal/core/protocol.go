// Package core implements Packet Re-cycling (PR) itself: the cycle-following
// tables derived from a cellular embedding, the PR/DD packet header bits,
// and the per-hop forwarding rule with both termination variants the paper
// describes — the single-failure protocol of §4.2 and the
// decreasing-distance protocol of §4.3 that survives arbitrary
// connectivity-preserving failure combinations.
package core

import (
	"fmt"

	"recycle/internal/graph"
	"recycle/internal/rotation"
	"recycle/internal/route"
)

// Variant selects the termination rule.
type Variant uint8

const (
	// Basic is the §4.2 protocol: one PR bit; encountering a failure while
	// cycle following clears the bit and resumes shortest-path routing.
	// Guaranteed for any single link failure on 2-edge-connected networks;
	// may loop under some multi-failure combinations (Figure 1(c)).
	Basic Variant = iota
	// Full is the §4.3 protocol: PR bit plus DD bits. A router that hits a
	// failure while cycle following resumes shortest-path routing only if
	// its own distance discriminator is strictly smaller than the header's;
	// otherwise it continues on the complementary cycle of the failed
	// interface. Guaranteed for any failure combination that keeps source
	// and destination connected.
	Full
)

// String names the variant.
func (v Variant) String() string {
	switch v {
	case Basic:
		return "basic"
	case Full:
		return "full"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// Header is PR's per-packet state: one PR bit and, in the Full variant, the
// DD bits stamped by the first failure-detecting router. DD is a float so
// that weight-sum discriminators work; with the paper's hop-count
// discriminator it is integral and needs ⌈log2 d⌉ bits on the wire (see
// package header for the DSCP encoding).
type Header struct {
	PR bool
	DD float64
}

// Protocol binds a topology, its cellular embedding and its routing tables
// into a forwarding engine. It is immutable and safe for concurrent walks.
type Protocol struct {
	g    *graph.Graph
	sys  *rotation.System
	tbl  *route.Table
	vrnt Variant
	// quant, when non-nil, replaces raw discriminators with their
	// order-preserving ranks: Header.DD carries a b-bit code instead of an
	// unbounded hop/weight sum. Decisions are bit-identical to the raw
	// protocol (see Quantiser); only the header contents differ.
	quant *Quantiser
}

// Config adjusts protocol construction.
type Config struct {
	// Variant selects Basic (§4.2) or Full (§4.3). Default Full.
	Variant Variant
	// Quantise stamps and compares rank-quantised discriminators (see
	// Quantiser) instead of raw ones, bounding Header.DD to the bit budget
	// a wire codec can carry. Default off: Header.DD holds raw values.
	Quantise bool
}

// New builds a Protocol. The rotation system and routing table must be
// built over the same graph g.
func New(g *graph.Graph, sys *rotation.System, tbl *route.Table, cfg Config) (*Protocol, error) {
	if sys.Graph() != g {
		return nil, fmt.Errorf("core: rotation system built over a different graph")
	}
	if tbl.Graph() != g {
		return nil, fmt.Errorf("core: routing table built over a different graph")
	}
	p := &Protocol{g: g, sys: sys, tbl: tbl, vrnt: cfg.Variant}
	if cfg.Quantise {
		p.quant = BuildQuantiser(tbl)
	}
	return p, nil
}

// NewWithQuantiser is New with a prebuilt quantiser — the
// delta-recompilation hook: an incremental recompiler that already
// rebuilt only the dirty rank columns (Quantiser.Rebuild) injects the
// result here instead of paying BuildQuantiser's full O(n² log n) pass.
// quant must be built over tbl; nil quant with cfg.Quantise set falls
// back to a full build.
func NewWithQuantiser(g *graph.Graph, sys *rotation.System, tbl *route.Table, cfg Config, quant *Quantiser) (*Protocol, error) {
	if quant != nil && quant.n != g.NumNodes() {
		return nil, fmt.Errorf("core: quantiser sized for %d nodes; graph has %d", quant.n, g.NumNodes())
	}
	if !cfg.Quantise {
		return New(g, sys, tbl, cfg)
	}
	cfg.Quantise = quant == nil
	p, err := New(g, sys, tbl, cfg)
	if err != nil {
		return nil, err
	}
	if quant != nil {
		p.quant = quant
	}
	return p, nil
}

// Graph returns the protocol's topology.
func (p *Protocol) Graph() *graph.Graph { return p.g }

// System returns the protocol's rotation system.
func (p *Protocol) System() *rotation.System { return p.sys }

// Routes returns the protocol's routing tables.
func (p *Protocol) Routes() *route.Table { return p.tbl }

// Variant returns the protocol's termination variant.
func (p *Protocol) Variant() Variant { return p.vrnt }

// Quantiser returns the rank quantiser when the protocol was built with
// Config.Quantise, nil otherwise.
func (p *Protocol) Quantiser() *Quantiser { return p.quant }

// Event classifies what happened at a node while forwarding one packet.
type Event uint8

const (
	// EventRoute: normal shortest-path forwarding.
	EventRoute Event = iota
	// EventDetect: shortest-path egress failed; PR bit set (and DD stamped
	// in the Full variant); packet sent on the complementary cycle.
	EventDetect
	// EventCycle: cycle following via the cycle-following table.
	EventCycle
	// EventContinue: cycle-following egress failed and the termination test
	// said keep cycling (Full: own DD ≥ header DD); packet sent on the
	// complementary cycle of the newly failed interface.
	EventContinue
	// EventResume: cycle-following egress failed and the termination test
	// said stop (Basic: always; Full: own DD < header DD); PR bit cleared,
	// shortest-path routing resumed at this node.
	EventResume
	// EventDeliver: the packet reached its destination.
	EventDeliver
)

// String names the event.
func (e Event) String() string {
	switch e {
	case EventRoute:
		return "route"
	case EventDetect:
		return "detect"
	case EventCycle:
		return "cycle"
	case EventContinue:
		return "continue"
	case EventResume:
		return "resume"
	case EventDeliver:
		return "deliver"
	}
	return fmt.Sprintf("Event(%d)", int(e))
}

// Outcome is the terminal fate of a walk.
type Outcome int

const (
	// Delivered: packet reached the destination.
	Delivered Outcome = iota
	// Looped: the exact forwarding state repeated (or the step cap was
	// hit) — a forwarding loop. The Full variant must never produce this
	// when source and destination remain connected.
	Looped
	// Isolated: a router found every incident link failed.
	Isolated
	// NoRoute: the failure-free routing table has no path (disconnected
	// topology); PR never engages.
	NoRoute
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Delivered:
		return "delivered"
	case Looped:
		return "looped"
	case Isolated:
		return "isolated"
	case NoRoute:
		return "no-route"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// Step records one node's handling of the packet.
type Step struct {
	// Node processing the packet.
	Node graph.NodeID
	// Ingress is the dart the packet arrived on (NoDart at the origin).
	Ingress rotation.DartID
	// Egress is the dart the packet left on (NoDart on the final step).
	Egress rotation.DartID
	// Event classifies the decision taken here.
	Event Event
	// Header is the packet header *after* this node's processing.
	Header Header
}

// Result is a completed walk.
type Result struct {
	Outcome Outcome
	// Steps is the full per-node transcript.
	Steps []Step
	// Cost is the weight sum of traversed links.
	Cost float64
	// Stretch is Cost divided by the failure-free shortest-path cost
	// (≥ 1 for delivered packets; 0 when not delivered or src == dst).
	Stretch float64
}

// Delivered reports whether the packet arrived.
func (r Result) Delivered() bool { return r.Outcome == Delivered }

// Path returns the node sequence visited, including source and (when
// delivered) destination.
func (r Result) Path() []graph.NodeID {
	out := make([]graph.NodeID, len(r.Steps))
	for i, s := range r.Steps {
		out[i] = s.Node
	}
	return out
}

// Hops returns the number of links traversed.
func (r Result) Hops() int {
	if len(r.Steps) == 0 {
		return 0
	}
	return len(r.Steps) - 1
}
