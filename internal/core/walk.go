package core

import (
	"recycle/internal/graph"
	"recycle/internal/rotation"
)

// walkState is the complete forwarding state of a packet at a router.
// Forwarding is a deterministic function of this state and the (static)
// failure set, so an exact repetition proves a forwarding loop.
type walkState struct {
	node    graph.NodeID
	ingress rotation.DartID
	pr      bool
	dd      float64
}

// Walk simulates one packet from src to dst under the given failure set and
// returns the full transcript. Failures are bidirectional (§4). The walk is
// purely combinatorial — no event timing — matching how the paper evaluates
// path stretch; package sim layers queuing and timing on the same rules.
func (p *Protocol) Walk(src, dst graph.NodeID, failures *graph.FailureSet) Result {
	var res Result
	if src == dst {
		res.Outcome = Delivered
		res.Steps = []Step{{Node: src, Ingress: rotation.NoDart, Egress: rotation.NoDart, Event: EventDeliver}}
		return res
	}
	if !p.tbl.Reachable(src, dst) {
		res.Outcome = NoRoute
		return res
	}

	hdr := Header{}
	node := src
	ingress := rotation.NoDart
	seen := make(map[walkState]bool)

	for len(res.Steps) <= p.maxSteps {
		if node == dst {
			res.Steps = append(res.Steps, Step{Node: node, Ingress: ingress, Egress: rotation.NoDart, Event: EventDeliver, Header: hdr})
			res.Outcome = Delivered
			res.Stretch = res.Cost / p.tbl.PathCost(src, dst)
			return res
		}
		state := walkState{node: node, ingress: ingress, pr: hdr.PR, dd: hdr.DD}
		if seen[state] {
			res.Outcome = Looped
			return res
		}
		seen[state] = true

		egress, event, newHdr, ok := p.decide(node, dst, ingress, hdr, failures)
		if !ok {
			res.Outcome = Isolated
			return res
		}
		res.Steps = append(res.Steps, Step{Node: node, Ingress: ingress, Egress: egress, Event: event, Header: newHdr})
		res.Cost += p.g.Weight(rotation.LinkOf(egress))
		hdr = newHdr
		node = p.headOf(egress)
		ingress = egress
	}
	res.Outcome = Looped // step cap backstop
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
// locally detectable failures — making it suitable for event-driven
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
		if !failures.Down(spLink) {
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
	if !failures.Down(rotation.LinkOf(eg)) {
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
		if !failures.Down(rotation.LinkOf(cand)) {
			return cand, true
		}
	}
	return rotation.NoDart, false
}

func (p *Protocol) headOf(d rotation.DartID) graph.NodeID {
	l := p.g.Link(rotation.LinkOf(d))
	if d%2 == 0 {
		return l.B
	}
	return l.A
}
