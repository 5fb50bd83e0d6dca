package core

import (
	"recycle/internal/graph"
	"recycle/internal/rotation"
)

// Decider is one router's forwarding decision with the failure state
// already bound: the shape FIB.Decide and Protocol.Decide share, minus
// their failure-state argument.
type Decider func(node, dst graph.NodeID, ingress rotation.DartID, hdr Header) Decision

// Walk is the static walk loop: it forwards one packet from src to dst
// on decide, following each egress dart to the node head returns, until
// the packet is delivered, a router refuses it (Isolated), or its
// forwarding state repeats (Looped). Every decision is recorded as a
// Step, a refused one as a terminal step with Egress = NoDart. The state
// (node, ingress, header) is the complete input of a static decision, so
// its first exact repetition proves a loop; a cap of 4·V·E+16 steps on a
// network of nodes V and links E is the backstop. Walk leaves Cost and
// Stretch zero.
func Walk(src, dst graph.NodeID, nodes, links int, decide Decider, head func(rotation.DartID) graph.NodeID) Result {
	node, ingress, hdr := src, rotation.NoDart, Header{}
	var steps []Step
	for limit := 4*nodes*links + 16; len(steps) <= limit; {
		if node == dst {
			steps = append(steps, Step{Node: node, Ingress: ingress, Egress: rotation.NoDart, Event: EventDeliver, Header: hdr})
			return Result{Outcome: Delivered, Steps: steps}
		}
		if repeats(steps, node, ingress, hdr) {
			return Result{Outcome: Looped, Steps: steps}
		}
		d := decide(node, dst, ingress, hdr)
		if !d.OK {
			steps = append(steps, Step{Node: node, Ingress: ingress, Egress: rotation.NoDart, Event: d.Event, Header: d.Header})
			return Result{Outcome: Isolated, Steps: steps}
		}
		steps = append(steps, Step{Node: node, Ingress: ingress, Egress: d.Egress, Event: d.Event, Header: d.Header})
		node, ingress, hdr = head(d.Egress), d.Egress, d.Header
	}
	return Result{Outcome: Looped, Steps: steps}
}

// repeats reports whether a recorded step was decided in the state
// (node, ingress, hdr). Step i was decided at its Node and Ingress under
// the header step i−1 left, the empty header at the origin.
func repeats(steps []Step, node graph.NodeID, ingress rotation.DartID, hdr Header) bool {
	prev := Header{}
	for _, s := range steps {
		if s.Ingress == ingress && s.Node == node && prev == hdr {
			return true
		}
		prev = s.Header
	}
	return false
}

// Walk simulates one packet from src to dst under the given failure set and
// returns the full transcript with its cost and stretch. Failures are
// bidirectional (§4). The walk is purely combinatorial — no event timing —
// matching how the paper evaluates path stretch; package sim layers queuing
// and timing on the same rules.
func (p *Protocol) Walk(src, dst graph.NodeID, failures *graph.FailureSet) Result {
	if !p.tbl.Reachable(src, dst) {
		return Result{Outcome: NoRoute}
	}
	decide := func(node, dst graph.NodeID, ingress rotation.DartID, hdr Header) Decision {
		return p.Decide(node, dst, ingress, hdr, failures)
	}
	head := func(d rotation.DartID) graph.NodeID { return rotation.Head(p.g, d) }
	res := Walk(src, dst, p.g.NumNodes(), p.g.NumLinks(), decide, head)
	for _, s := range res.Steps {
		if s.Egress != rotation.NoDart {
			res.Cost += p.g.Weight(rotation.LinkOf(s.Egress))
		}
	}
	if res.Delivered() && src != dst {
		res.Stretch = res.Cost / p.tbl.PathCost(src, dst)
	}
	return res
}

// Decision is one router's handling of one packet, as returned by Decide.
// The small fields come first so the struct is 24 bytes in four fields:
// the compiler keeps a struct in registers (SSA) only up to four words and
// four fields, and a Decision is returned by value on every Decide.
type Decision struct {
	// Egress is the chosen outgoing dart (NoDart when OK is false).
	Egress rotation.DartID
	// Event classifies the decision.
	Event Event
	// OK is false when every usable egress was failed (isolated router).
	OK bool
	// Header is the packet header after processing.
	Header Header
}

// Decide performs a single forwarding decision at node for a packet bound
// to dst that arrived on ingress (rotation.NoDart at the origin) carrying
// hdr. It consults only links incident to node in the failure set — i.e.
// locally detectable failures — and takes a link the graph has removed
// for one that failed for good, making it suitable for event-driven
// simulation where knowledge is local (package sim) as well as for Walk.
func (p *Protocol) Decide(node, dst graph.NodeID, ingress rotation.DartID, hdr Header, failures *graph.FailureSet) Decision {
	eg, ev, h, ok := p.decide(node, dst, ingress, hdr, failures)
	return Decision{Egress: eg, Event: ev, Header: h, OK: ok}
}

// decide implements the PR forwarding rule at one router. It returns the
// egress dart, the event classification and the updated header; ok is false
// when every usable egress is failed (isolated router).
//
// The resume branch re-enters decide with the PR bit cleared; the re-entry
// cannot resume again (its PR bit is clear), so recursion depth is ≤ 2.
func (p *Protocol) decide(node, dst graph.NodeID, ingress rotation.DartID, hdr Header, failures *graph.FailureSet) (rotation.DartID, Event, Header, bool) {
	if !hdr.PR {
		spLink := p.tbl.NextLink(node, dst)
		if spLink == graph.NoLink {
			return rotation.NoDart, 0, hdr, false
		}
		spDart := p.sys.OutgoingDart(node, spLink)
		if !p.down(spLink, failures) {
			return spDart, EventRoute, hdr, true
		}
		// Failure detected on the shortest-path egress (§4.2/§4.3): set the
		// PR bit, stamp DD with this router's own distance discriminator,
		// and take the complementary cycle of the failed interface.
		hdr.PR = true
		if p.vrnt == Full {
			hdr.DD = p.dd(node, dst)
		}
		if eg, ok := p.firstUpComplementary(spDart, failures); ok {
			return eg, EventDetect, hdr, true
		}
		return rotation.NoDart, 0, hdr, false
	}

	// PR bit set: cycle following. The egress is the cycle-following table
	// entry for our ingress interface, φ(ingress).
	eg := p.sys.FaceNext(ingress)
	if !p.down(rotation.LinkOf(eg), failures) {
		return eg, EventCycle, hdr, true
	}
	// Failure encountered while cycle following: termination test.
	if p.vrnt == Basic || p.dd(node, dst) < hdr.DD {
		// §4.2: re-encountering a failure signals that cycle following is
		// no longer necessary. §4.3: strictly smaller DD. Clear the bit
		// and decide again at this node with shortest-path routing.
		hdr.PR = false
		resumedEg, event, newHdr, ok := p.decide(node, dst, rotation.NoDart, hdr, failures)
		if !ok {
			return rotation.NoDart, 0, hdr, false
		}
		if event == EventRoute {
			event = EventResume
		}
		return resumedEg, event, newHdr, true
	}
	// Own DD ≥ header DD: keep cycling on the complementary cycle of the
	// newly failed interface, header unchanged.
	if cand, ok := p.firstUpComplementary(eg, failures); ok {
		return cand, EventContinue, hdr, true
	}
	return rotation.NoDart, 0, hdr, false
}

// down reports whether link l is unusable: failed, or removed from the
// graph — a failure that never heals, whose darts stay in the rotation.
func (p *Protocol) down(l graph.LinkID, failures *graph.FailureSet) bool {
	return failures.Down(l) || p.g.Removed(l)
}

// dd returns the discriminator the protocol stamps and compares: the raw
// route.Table value, or its order-preserving rank under Config.Quantise.
// Rank comparison is exactly equivalent to raw comparison (see Quantiser),
// so the two modes take identical decisions.
func (p *Protocol) dd(node, dst graph.NodeID) float64 {
	if p.quant != nil {
		return quantDD(p.quant.Rank(node, dst))
	}
	return p.tbl.DD(node, dst)
}

// firstUpComplementary walks the complementary chain σ(d), σ²(d), ... of a
// failed egress dart until an up link is found, applying the failure rule
// repeatedly when the complementary interface itself is down. Returns ok
// false when the rotation wraps around with every incident link failed.
func (p *Protocol) firstUpComplementary(failed rotation.DartID, failures *graph.FailureSet) (rotation.DartID, bool) {
	for cand := p.sys.Complementary(failed); cand != failed; cand = p.sys.Complementary(cand) {
		if !p.down(rotation.LinkOf(cand), failures) {
			return cand, true
		}
	}
	return rotation.NoDart, false
}
