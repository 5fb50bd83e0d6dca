package dataplane

import (
	"encoding/binary"
	"net/netip"

	"recycle/internal/core"
	"recycle/internal/graph"
	"recycle/internal/header"
	"recycle/internal/rotation"
)

// The wire path forwards real packet bytes in both address families:
// decode the PR mark (DSCP pool 2 on IPv4, flow label on IPv6), decide on
// the compiled FIB (Header.DD is the rank the mark carries, so FIB.Decide
// is the wire path's slow half too), re-encode the mark in place and repair
// the IPv4 checksum incrementally (RFC 1624; IPv6 has none) — no parsing
// structs, no full checksum recomputation, no allocations.
//
// Routing on an up link and cycle following on an up link never change the
// mark, so each family's step tries that case first, before any mark decode
// — TTL−1 plus one checksum word (IPv4) or one byte (IPv6) — and only a
// frame that meets a failure (detect, continue, resume) reads and rewrites
// its mark. There the PR bit picks the egress as data, not control flow:
// behind a failure a third of the frames carry it in no learnable order, and
// the compiler emits a branch, never a CMOV, for `if pr { eg = φ }`. So
// commonEgress (fib.go; the struct path's masked batch loop shares it) loads
// both darts and selects by a mask computed from the mark bits, and a guard
// entry of -1 in front of the dart table (FIB.faceGuard) makes φ(ingress)
// the same load for every frame, NoDart's included.
//
// Every changed 16-bit word adds ~m + m' to RFC 1624 equation 3,
// HC' = ~(~HC + Σ(~m + m')), and end-around folding commutes with adding
// to a positive sum (fold(fold(a)+b) = fold(a+b) for a > 0), so the TOS and
// TTL words go in with one fold and the stored bytes equal those of a
// word-by-word repair.
//
// Marks carry the *quantised* discriminator (core.Quantiser ranks), which
// Compile guarantees fits the codec it selected: the only width drop left
// is a family mismatch — an IPv4 packet needing a mark wider than DSCP on a
// network whose codec is the IPv6 flow label.
//
// Node addressing follows fixed plans so destination lookup is pure
// arithmetic: node n owns 10.1.hi.lo in IPv4 and fd00:5052::hi:lo-style
// bytes in IPv6, hi.lo being n in big-endian: 65536 nodes either way.

// wireAddrPrefix is the /16 of the IPv4 node address plan, 10.1.0.0/16.
const wireAddrPrefix = 0x0A01

// wireAddr6Prefix is the first 14 bytes of the IPv6 node address plan:
// fd00:5052::/112, a ULA tagged "PR" (0x50 0x52).
var wireAddr6Prefix = [14]byte{0xfd, 0x00, 0x50, 0x52}

// wireAddr6Hi is the prefix's first eight bytes; the other six are zero.
const wireAddr6Hi = 0xfd00_5052 << 32

// NodeAddr returns the IPv4 address assigned to node n by the plan.
func NodeAddr(n graph.NodeID) netip.Addr {
	return netip.AddrFrom4([4]byte{
		byte(wireAddrPrefix >> 8), byte(wireAddrPrefix & 0xFF),
		byte(uint32(n) >> 8), byte(uint32(n)),
	})
}

// NodeOfAddr inverts NodeAddr, returning graph.NoNode for addresses
// outside the plan.
func NodeOfAddr(a netip.Addr) graph.NodeID {
	if !a.Is4() {
		return graph.NoNode
	}
	b := a.As4()
	be := uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
	if be>>16 != wireAddrPrefix {
		return graph.NoNode
	}
	return graph.NodeID(be & 0xFFFF)
}

// NodeAddr6 returns the IPv6 address assigned to node n by the plan.
func NodeAddr6(n graph.NodeID) netip.Addr {
	var b [16]byte
	copy(b[:], wireAddr6Prefix[:])
	b[14] = byte(uint32(n) >> 8)
	b[15] = byte(uint32(n))
	return netip.AddrFrom16(b)
}

// NodeOfAddr6 inverts NodeAddr6, returning graph.NoNode for addresses
// outside the plan.
func NodeOfAddr6(a netip.Addr) graph.NodeID {
	if !a.Is6() || a.Is4In6() {
		return graph.NoNode
	}
	b := a.As16()
	if [14]byte(b[:14]) != wireAddr6Prefix {
		return graph.NoNode
	}
	return graph.NodeID(uint32(b[14])<<8 | uint32(b[15]))
}

// WireVerdict classifies the outcome of one wire-path forwarding step.
type WireVerdict uint8

const (
	// WireForward: the packet was rewritten in place; send it on the
	// returned egress dart.
	WireForward WireVerdict = iota
	// WireDeliver: the destination address is this node; hand the packet
	// to the local stack untouched.
	WireDeliver
	// WireDropTTL: the TTL (hop limit) reached zero.
	WireDropTTL
	// WireDropNoRoute: the FIB had no usable egress (isolated router or
	// unreachable destination).
	WireDropNoRoute
	// WireDropNotIP: neither a 20-byte-header IPv4 packet nor a
	// fixed-header IPv6 packet.
	WireDropNotIP
	// WireDropNotOurs: the destination address is outside the node plan.
	WireDropNotOurs
	// WireDropCodecMismatch: the packet's address family cannot carry the
	// quantised discriminator this network needs — an IPv4 packet on a
	// flow-label-codec network whose mark would exceed DSCP's 3 DD bits.
	// Never hit in the network's own family: Compile sizes the codec.
	WireDropCodecMismatch
	// WireDropBadMark: the packet carries a PR mark that is impossible
	// by protocol (a re-cycling packet with no ingress interface) —
	// host-originated or forged marking.
	WireDropBadMark
)

// String names the verdict.
func (v WireVerdict) String() string {
	switch v {
	case WireForward:
		return "forward"
	case WireDeliver:
		return "deliver"
	case WireDropTTL:
		return "drop-ttl"
	case WireDropNoRoute:
		return "drop-no-route"
	case WireDropNotIP:
		return "drop-not-ip"
	case WireDropNotOurs:
		return "drop-not-ours"
	case WireDropCodecMismatch:
		return "drop-codec-mismatch"
	case WireDropBadMark:
		return "drop-bad-mark"
	}
	return "drop-unknown"
}

// Dropped reports whether the verdict is any drop.
func (v WireVerdict) Dropped() bool { return v != WireForward && v != WireDeliver }

// ForwardWire performs one PR forwarding step on raw packet bytes at node,
// arrived on ingress (rotation.NoDart at the origin host), dispatching on
// the IP version nibble. On WireForward the buffer has been rewritten in
// place — PR mark re-encoded, TTL/hop limit decremented, IPv4 checksum
// incrementally repaired — and the packet should be transmitted on the
// returned dart.
//
// Unmarked traffic (DSCP outside pool 2, flow-label low bits ≠ 11) is
// treated as PR-clear and its field is preserved unless a failure forces
// marking.
//
// Both codecs assume the PR domain bleaches the mark field at its edge,
// exactly as diffserv domains re-mark DSCP (RFC 2474 §6 reserves pool 2
// for local use, and RFC 6437 lets a domain rewrite flow labels it
// assigns meaning to): a host-set pseudo-random flow label whose low
// bits happen to be 11 would otherwise be read as a mark — one in four
// labels, one in eight additionally carrying the PR bit and refused as
// forged. Ingress routers (ingress == rotation.NoDart) therefore must
// sit behind the bleaching boundary.
func (f *FIB) ForwardWire(node graph.NodeID, ingress rotation.DartID, st *LinkState, buf []byte) (rotation.DartID, WireVerdict) {
	if len(buf) > 0 && buf[0]>>4 == 6 {
		return f.forwardWire6(node, ingress, st, buf)
	}
	return f.forwardWire4(node, ingress, st, buf) // refuses all but 0x45 headers
}

// forwardWire4 is the IPv4 half of the wire path: DSCP pool-2 marks,
// RFC 1624 incremental checksum repair.
func (f *FIB) forwardWire4(node graph.NodeID, ingress rotation.DartID, st *LinkState, buf []byte) (rotation.DartID, WireVerdict) {
	if len(buf) < header.HeaderLen || buf[0] != 0x45 {
		return rotation.NoDart, WireDropNotIP
	}
	dstBE := uint32(buf[16])<<24 | uint32(buf[17])<<16 | uint32(buf[18])<<8 | uint32(buf[19])
	if dstBE>>16 != wireAddrPrefix {
		return rotation.NoDart, WireDropNotOurs
	}
	dst := graph.NodeID(dstBE & 0xFFFF)
	if int(dst) >= f.numNodes {
		return rotation.NoDart, WireDropNotOurs
	}
	if dst == node {
		return rotation.NoDart, WireDeliver
	}
	if buf[8] <= 1 {
		return rotation.NoDart, WireDropTTL
	}

	// The mark-preserving case; 0x8C is the pool-2 marker and the PR bit.
	tos := buf[1]
	eg := f.commonEgress(f.ndAt(int(node), int(dst)), ingress, -int32((uint32(tos&0x8C)+0x74)>>8))
	ck := uint16(buf[10])<<8 | uint16(buf[11])
	if eg >= 0 && !st.Down(graph.LinkID(eg>>1)) {
		buf[8]--
		ck = foldChecksum(ck, ttlDelta)
		buf[10], buf[11] = byte(ck>>8), byte(ck)
		return rotation.DartID(eg), WireForward
	}

	pr := tos&0x8C == 0x8C
	marked := tos&0x0C == 0x0C // DSCP pool 2 (xxxx11); anything else is unmarked traffic
	var dd uint32
	if marked {
		dd = uint32(tos>>4) & header.MaxDD
	}
	if pr && ingress == rotation.NoDart {
		// A re-cycling mark on a packet with no ingress interface cannot
		// come from a PR router; refuse it rather than guess.
		return rotation.NoDart, WireDropBadMark
	}
	d := f.Decide(node, dst, ingress, core.Header{PR: pr, DD: float64(dd)}, st)
	if !d.OK {
		return rotation.NoDart, WireDropNoRoute
	}
	prOut, ddOut := d.Header.PR, uint32(d.Header.DD) // a rank either way: the mark's, or the one just stamped
	newTOS := tos
	if prOut || marked {
		if ddOut > header.MaxDD {
			// Only reachable when the compiled codec is the flow label:
			// this IPv4 packet cannot carry the mark the network needs.
			return rotation.NoDart, WireDropCodecMismatch
		}
		newTOS = byte(ddOut)<<4 | 0x0C | tos&0b11 // keep ECN bits
		if prOut {
			newTOS |= 0x80
		}
	}
	// The TOS word keeps its high byte: its ~m + m' is 0xFFFF + ΔTOS.
	buf[1] = newTOS
	buf[8]--
	ck = foldChecksum(ck, 0xFFFF+uint32(newTOS)-uint32(tos)+ttlDelta)
	buf[10], buf[11] = byte(ck>>8), byte(ck)
	return d.Egress, WireForward
}

// forwardWire6 is the IPv6 half of the wire path: flow-label marks on the
// fixed 40-byte header, and no header checksum to repair.
func (f *FIB) forwardWire6(node graph.NodeID, ingress rotation.DartID, st *LinkState, buf []byte) (rotation.DartID, WireVerdict) {
	if len(buf) < header.HeaderLen6 {
		return rotation.NoDart, WireDropNotIP
	}
	// The 14 prefix bytes as two overlapping words: the array compare is a
	// byte copy and a call, and was half the cost of a forwarded frame.
	if binary.BigEndian.Uint64(buf[24:]) != wireAddr6Hi || binary.BigEndian.Uint64(buf[30:]) != 0 {
		return rotation.NoDart, WireDropNotOurs
	}
	dst := graph.NodeID(uint32(buf[38])<<8 | uint32(buf[39]))
	if int(dst) >= f.numNodes {
		return rotation.NoDart, WireDropNotOurs
	}
	if dst == node {
		return rotation.NoDart, WireDeliver
	}
	if buf[7] <= 1 {
		return rotation.NoDart, WireDropTTL
	}

	fl := uint32(buf[1]&0x0F)<<16 | uint32(buf[2])<<8 | uint32(buf[3])
	// Pool-2 marker and PR bit are 0x80003; then as forwardWire4.
	eg := f.commonEgress(f.ndAt(int(node), int(dst)), ingress, -int32(((fl&0x80003)+0x7FFFD)>>20))
	if eg >= 0 && !st.Down(graph.LinkID(eg>>1)) {
		buf[7]--
		return rotation.DartID(eg), WireForward
	}

	pr := fl&0x80003 == 0x80003
	marked := fl&0b11 == 0b11 // pool-2 flow label (low bits 11); else unmarked
	var dd uint32
	if marked {
		dd = fl >> 2 & header.MaxFlowLabelDD
	}
	if pr && ingress == rotation.NoDart {
		return rotation.NoDart, WireDropBadMark
	}
	d := f.Decide(node, dst, ingress, core.Header{PR: pr, DD: float64(dd)}, st)
	if !d.OK {
		return rotation.NoDart, WireDropNoRoute
	}
	prOut, ddOut := d.Header.PR, uint32(d.Header.DD) // a rank either way: the mark's, or the one just stamped
	if prOut || marked {
		// Compile guarantees every rank fits the flow label's 17 DD bits,
		// so unlike the IPv4 half this re-encode cannot overflow.
		newFL := ddOut<<2 | 0b11
		if prOut {
			newFL |= 1 << 19
		}
		buf[1] = buf[1]&0xF0 | byte(newFL>>16)
		buf[2] = byte(newFL >> 8)
		buf[3] = byte(newFL)
	}
	buf[7]--
	return d.Egress, WireForward
}

// WirePacket is one raw frame awaiting a wire-path forwarding step — the
// engine's unit of work on the byte-level fast path. Submit fills the
// first three fields; the worker fills the rest.
type WirePacket struct {
	// Node is the router making the decision.
	Node graph.NodeID
	// Ingress is the dart the frame arrived on (rotation.NoDart at the
	// origin host).
	Ingress rotation.DartID
	// Buf is the packet bytes, rewritten in place on WireForward.
	Buf []byte

	// Egress is the chosen egress dart (rotation.NoDart unless the
	// verdict is WireForward).
	Egress rotation.DartID
	// Verdict classifies the outcome.
	Verdict WireVerdict
}

// NewWireFrame marshals a fresh unmarked frame from src to dst in the
// address family of the FIB's codec, with a full TTL budget — the frame
// shape every wire-path driver (simulator schemes, benchmarks, examples)
// should start from.
func (f *FIB) NewWireFrame(src, dst graph.NodeID) ([]byte, error) {
	if f.codec == CodecFlowLabel {
		h := header.IPv6{
			HopLimit:   255,
			NextHeader: 17,
			Src:        NodeAddr6(src),
			Dst:        NodeAddr6(dst),
		}
		return h.Marshal()
	}
	h := header.IPv4{
		TotalLength: header.HeaderLen,
		TTL:         255,
		Protocol:    17,
		Src:         NodeAddr(src),
		Dst:         NodeAddr(dst),
	}
	return h.Marshal()
}

// ForwardWireBatch forwards a whole batch of raw frames in one call,
// writing each packet's Egress and Verdict in place — the wire counterpart
// of DecideBatch, sharing one interface-state snapshot across the batch.
// It returns the number of frames whose verdict is WireForward.
func (f *FIB) ForwardWireBatch(pkts []WirePacket, st *LinkState) (forwarded int) {
	for i := range pkts {
		p := &pkts[i]
		if len(p.Buf) > 0 && p.Buf[0]>>4 == 6 {
			p.Egress, p.Verdict = f.forwardWire6(p.Node, p.Ingress, st, p.Buf)
		} else {
			p.Egress, p.Verdict = f.forwardWire4(p.Node, p.Ingress, st, p.Buf)
		}
		if p.Verdict == WireForward {
			forwarded++
		}
	}
	return forwarded
}

// ttlDelta is ~m + m' of a decremented TTL word: m' = m − 0x0100.
const ttlDelta = 0xFEFF

// foldChecksum folds delta = Σ(~m + m') over the changed header words into
// an RFC 1071 checksum per RFC 1624 equation 3. Two end-around steps reduce
// any 32-bit sum.
func foldChecksum(ck uint16, delta uint32) uint16 {
	sum := uint32(^ck) + delta
	sum = sum&0xFFFF + sum>>16
	sum = sum&0xFFFF + sum>>16
	return ^uint16(sum)
}
