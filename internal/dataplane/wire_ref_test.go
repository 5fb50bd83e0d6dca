package dataplane_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"testing"

	"recycle/internal/core"
	"recycle/internal/dataplane"
	"recycle/internal/graph"
	"recycle/internal/header"
	"recycle/internal/rotation"
	"recycle/internal/route"
)

// wireFix is one compiled network the reference tests drive frames
// through, with the specification it was compiled from.
type wireFix struct {
	name string
	p    *core.Protocol
	fib  *dataplane.FIB
	g    *graph.Graph
}

// wireFixes returns geant under both codecs — hop counts in DSCP,
// quantised weight sums in the flow label — and under the basic variant,
// which never stamps a discriminator.
func wireFixes(t testing.TB) []wireFix {
	p, fib, g := wireFixture(t, "geant")
	p6, fib6, g6 := flowLabelFixture(t)
	pb := buildProtocol(t, g, p.System(), route.HopCount, core.Basic)
	fibb, err := dataplane.Compile(pb)
	if err != nil {
		t.Fatal(err)
	}
	return []wireFix{{"geant/dscp", p, fib, g}, {"geant/flow-label", p6, fib6, g6}, {"geant/dscp/basic", pb, fibb, g}}
}

// refForwardWire is the specification the wire path is held against:
// parse with the header codecs, decide with core.Protocol, stamp
// FIB.WireDD at detection (full variant), and re-marshal the whole header — a full
// checksum recompute, no incremental repair. It returns the bytes the
// frame must hold afterwards: the input itself on every verdict but
// WireForward. Both fixtures stamp ranks (hop counts are their own
// ranks), so core's Header.DD and the wire's DD field are the same number.
func refForwardWire(x wireFix, fails *graph.FailureSet, node graph.NodeID, ingress rotation.DartID, in []byte) (rotation.DartID, dataplane.WireVerdict, []byte) {
	var (
		h4      header.IPv4
		h6      header.IPv6
		v6      bool
		dst     graph.NodeID
		ttl     uint8
		mark    header.Mark
		markErr error
	)
	switch {
	case len(in) > 0 && in[0]>>4 == 4 && h4.Unmarshal(in) == nil:
		dst, ttl = dataplane.NodeOfAddr(h4.Dst), h4.TTL
		mark, markErr = h4.PRMark()
	case len(in) > 0 && in[0]>>4 == 6 && h6.Unmarshal(in) == nil:
		v6 = true
		dst, ttl = dataplane.NodeOfAddr6(h6.Dst), h6.HopLimit
		mark, markErr = h6.PRMark()
	default:
		return rotation.NoDart, dataplane.WireDropNotIP, in
	}
	switch {
	case dst == graph.NoNode || int(dst) >= x.g.NumNodes():
		return rotation.NoDart, dataplane.WireDropNotOurs, in
	case dst == node:
		return rotation.NoDart, dataplane.WireDeliver, in
	case ttl <= 1:
		return rotation.NoDart, dataplane.WireDropTTL, in
	case mark.PR && ingress == rotation.NoDart:
		return rotation.NoDart, dataplane.WireDropBadMark, in
	case mark.PR && (ingress < 0 || int(ingress) >= 2*x.g.NumLinks()):
		// core panics on a dart it does not have; the wire path refuses.
		return rotation.NoDart, dataplane.WireDropNoRoute, in
	}
	d := x.p.Decide(node, dst, ingress, core.Header{PR: mark.PR, DD: float64(mark.DD)}, fails)
	if !d.OK {
		return rotation.NoDart, dataplane.WireDropNoRoute, in
	}
	remark := d.Header.PR || markErr == nil
	m := header.Mark{PR: d.Header.PR, DD: uint32(d.Header.DD)}
	if d.Event == core.EventDetect && x.p.Variant() == core.Full {
		m.DD, _ = x.fib.WireDD(node, dst)
	}
	var (
		out []byte
		err error
	)
	if v6 {
		h6.HopLimit--
		if remark {
			err = h6.SetMark(m)
		}
		if err == nil {
			out, err = h6.Marshal()
		}
	} else {
		h4.TTL--
		if remark && h4.SetMark(m) != nil {
			return rotation.NoDart, dataplane.WireDropCodecMismatch, in
		}
		out, err = h4.Marshal()
	}
	if err != nil {
		panic(err) // the generators only make frames the codecs can re-marshal
	}
	return d.Egress, dataplane.WireForward, append(out, in[len(out):]...)
}

// wireCase is one frame with the router and interface it arrives at.
type wireCase struct {
	name    string
	node    graph.NodeID
	ingress rotation.DartID
	buf     []byte
	want    dataplane.WireVerdict
}

// verdictTable returns the flow-label fixture, a one-link failure set
// behind which some rank is too wide for DSCP, and frames of both
// families that between them draw every verdict under that one set.
func verdictTable(t testing.TB) (wireFix, *graph.FailureSet, []wireCase) {
	t.Helper()
	p, fib, g := flowLabelFixture(t)
	x := wireFix{"geant/flow-label", p, fib, g}
	tbl := p.Routes()
	n := g.NumNodes()
	var (
		node, dst graph.NodeID
		fails     *graph.FailureSet
	)
search:
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			node, dst = graph.NodeID(a), graph.NodeID(b)
			link := tbl.NextLink(node, dst)
			if rank, ok := fib.WireDD(node, dst); link == graph.NoLink || !ok || rank <= header.MaxDD {
				continue
			}
			if fails = graph.NewFailureSet(link); graph.ConnectedUnder(g, fails) {
				break search
			}
			fails = nil
		}
	}
	if fails == nil {
		t.Fatal("no wide-rank pair behind a non-bridge link on geant/weight-sum")
	}
	// A pair whose shortest-path egress at its source is up.
	var upSrc, upDst graph.NodeID
	for upSrc, upDst = 0, 1; fails.Down(tbl.NextLink(upSrc, upDst)); upDst++ {
	}
	into := rotation.ReverseID(p.System().OutgoingDart(upSrc, tbl.NextLink(upSrc, upDst)))

	mark4 := func(tos byte, ttl uint8, dst netip.Addr) []byte {
		h := header.IPv4{DSCP: tos >> 2, ECN: tos & 3, TotalLength: header.HeaderLen, TTL: ttl, Protocol: 17,
			Src: dataplane.NodeAddr(upSrc), Dst: dst}
		buf, err := h.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	mark6 := func(fl uint32, dst netip.Addr) []byte {
		h := header.IPv6{FlowLabel: fl, HopLimit: 64, NextHeader: 17, Src: dataplane.NodeAddr6(upSrc), Dst: dst}
		buf, err := h.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	edit := func(buf []byte, i int, v byte) []byte { buf[i] = v; return buf }
	beyond := graph.NodeID(n)
	to4, to6 := dataplane.NodeAddr(upDst), dataplane.NodeAddr6(upDst)
	nd := rotation.NoDart
	fwd, deliver := dataplane.WireForward, dataplane.WireDeliver
	return x, fails, append(ingressEdgeCases(t, g, upSrc, upDst), []wireCase{
		{"v4 route", upSrc, nd, mkPacket(t, upSrc, upDst, 64), fwd},
		{"v6 route", upSrc, nd, mkPacket6(t, upSrc, upDst, 64), fwd},
		{"v4 route, pool 2 PR clear, ECN", upSrc, nd, mark4(0b0101_1110, 2, to4), fwd},
		{"v4 cycle", upSrc, into, mark4(0b1011_1101, 255, to4), fwd},
		{"v6 cycle", upSrc, into, mark6(1<<19|9<<2|0b11, to6), fwd},
		{"v6 detect", node, nd, mkPacket6(t, node, dst, 64), fwd},
		{"v4 detect, rank too wide", node, nd, mkPacket(t, node, dst, 64), dataplane.WireDropCodecMismatch},
		{"v4 deliver", upDst, nd, mkPacket(t, upSrc, upDst, 64), deliver},
		{"v6 deliver", upDst, nd, mkPacket6(t, upSrc, upDst, 1), deliver},
		{"v4 ttl 1", upSrc, nd, mkPacket(t, upSrc, upDst, 1), dataplane.WireDropTTL},
		{"v4 ttl 0", upSrc, nd, mkPacket(t, upSrc, upDst, 0), dataplane.WireDropTTL},
		{"v6 hop limit 1", upSrc, nd, mkPacket6(t, upSrc, upDst, 1), dataplane.WireDropTTL},
		{"v4 PR, dart out of range", upSrc, rotation.DartID(2*g.NumLinks() + 3), mark4(0b1000_1100, 64, to4), dataplane.WireDropNoRoute},
		{"v6 PR, dart out of range", upSrc, -7, mark6(1<<19|0b11, to6), dataplane.WireDropNoRoute},
		{"v4 forged PR", upSrc, nd, mark4(0b1000_1100, 64, to4), dataplane.WireDropBadMark},
		{"v6 forged PR", upSrc, nd, mark6(1<<19|0b11, to6), dataplane.WireDropBadMark},
		{"empty", upSrc, nd, nil, dataplane.WireDropNotIP},
		{"v4 truncated", upSrc, nd, mkPacket(t, upSrc, upDst, 64)[:19], dataplane.WireDropNotIP},
		{"v6 truncated", upSrc, nd, mkPacket6(t, upSrc, upDst, 64)[:39], dataplane.WireDropNotIP},
		{"version 9", upSrc, nd, edit(mkPacket(t, upSrc, upDst, 64), 0, 0x95), dataplane.WireDropNotIP},
		{"v4 IHL 6", upSrc, nd, edit(mkPacket(t, upSrc, upDst, 64), 0, 0x46), dataplane.WireDropNotIP},
		{"v4 beyond topology", upSrc, nd, mkPacket(t, upSrc, beyond, 64), dataplane.WireDropNotOurs},
		{"v6 beyond topology", upSrc, nd, mkPacket6(t, upSrc, beyond, 64), dataplane.WireDropNotOurs},
		{"v4 foreign prefix", upSrc, nd, mark4(0, 64, netip.MustParseAddr("192.0.2.1")), dataplane.WireDropNotOurs},
		{"v6 off plan", upSrc, nd, mark6(0, netip.MustParseAddr("2001:db8::1")), dataplane.WireDropNotOurs},
	}...)
}

// ingressEdgeCases returns frames of both families from src to dst —
// unmarked, marked PR-clear and PR-set — arriving at src on every kind of
// ingress the dart table has no entry for: NoDart (the guard entry), the
// darts just below and above the table, and the largest int32. A frame
// whose PR bit is clear never has its ingress read, so it routes whatever
// the ingress says; a PR-set one is refused, as forged at NoDart and for
// want of a route on a dart the FIB does not have.
func ingressEdgeCases(t testing.TB, g *graph.Graph, src, dst graph.NodeID) []wireCase {
	t.Helper()
	numDarts := rotation.DartID(2 * g.NumLinks())
	var cases []wireCase
	for _, ingress := range []rotation.DartID{rotation.NoDart, -2, numDarts, numDarts + 5, math.MaxInt32} {
		for _, m := range []struct {
			name string
			tos  uint8  // IPv4: PR, 3 DD bits, pool-2 marker, ECN
			fl   uint32 // IPv6: PR at bit 19, DD, pool-2 marker
			pr   bool
		}{
			{"unmarked", 0b1001_0110, 1<<19 | 9<<2 | 0b01, false}, // the PR bit's position set outside pool 2
			{"PR clear", 0b0101_1110, 9<<2 | 0b11, false},
			{"PR set", 0b1101_1101, 1<<19 | 9<<2 | 0b11, true},
		} {
			want := dataplane.WireForward
			if m.pr {
				want = dataplane.WireDropNoRoute
				if ingress == rotation.NoDart {
					want = dataplane.WireDropBadMark
				}
			}
			h4 := header.IPv4{DSCP: m.tos >> 2, ECN: m.tos & 3, TotalLength: header.HeaderLen, TTL: 64, Protocol: 17,
				Src: dataplane.NodeAddr(src), Dst: dataplane.NodeAddr(dst)}
			h6 := header.IPv6{FlowLabel: m.fl, HopLimit: 64, NextHeader: 17,
				Src: dataplane.NodeAddr6(src), Dst: dataplane.NodeAddr6(dst)}
			b4, err4 := h4.Marshal()
			b6, err6 := h6.Marshal()
			if err4 != nil || err6 != nil {
				t.Fatal(err4, err6)
			}
			cases = append(cases,
				wireCase{fmt.Sprintf("v4 %s, ingress %d", m.name, ingress), src, ingress, b4, want},
				wireCase{fmt.Sprintf("v6 %s, ingress %d", m.name, ingress), src, ingress, b6, want})
		}
	}
	return cases
}

// randomWireCase draws one frame for the reference comparison: any
// destination in or out of the plan, the TTL edge values, every kind of
// mark, consistent, forged and out-of-range ingress darts, and now and
// then a frame that is no IP header at all.
func randomWireCase(t testing.TB, rng *rand.Rand, x wireFix, v6 bool) wireCase {
	n := x.g.NumNodes()
	c := wireCase{node: graph.NodeID(rng.Intn(n)), ingress: rotation.NoDart}
	dst := graph.NodeID(rng.Intn(n))
	switch rng.Intn(20) {
	case 0:
		dst = c.node
	case 1:
		dst = graph.NodeID(n + rng.Intn(1<<16-n))
	}
	ttl := []uint8{0, 1, 2, 255, uint8(3 + rng.Intn(252))}[rng.Intn(5)]

	// The mark field: 20 bits of flow label or, shifted up, 6 of DSCP.
	ddMax := uint32(header.MaxFlowLabelDD)
	if !v6 {
		ddMax = header.MaxDD
	} else if rng.Intn(4) > 0 {
		ddMax = uint32(n) // the ranks a real stamp can carry
	}
	field := uint32(rng.Intn(int(ddMax)+1))<<2 | 0b11
	pr := false
	switch rng.Intn(3) {
	case 0: // unmarked: any value outside pool 2
		field = field&^0b11 | uint32(rng.Intn(3))
		if rng.Intn(2) == 0 {
			field |= 1 << 19
		}
	case 1: // PR set
		pr = true
		field |= 1 << 19
	}
	numDarts := 2 * x.g.NumLinks()
	switch k := rng.Intn(10); {
	case pr && k < 7: // a dart that does arrive at node
		nbrs := x.g.Neighbors(c.node)
		c.ingress = rotation.ReverseID(x.p.System().OutgoingDart(c.node, nbrs[rng.Intn(len(nbrs))].Link))
	case k == 7:
		c.ingress = rotation.DartID(rng.Intn(numDarts))
	case k == 8:
		c.ingress = rotation.DartID(numDarts + rng.Intn(5))
	case k == 9 && rng.Intn(2) == 0:
		c.ingress = rotation.DartID(-2 - rng.Intn(5))
	}

	var err error
	if v6 {
		h := header.IPv6{TrafficClass: uint8(rng.Intn(256)), FlowLabel: field, PayloadLength: uint16(rng.Intn(1500)),
			NextHeader: 17, HopLimit: ttl, Src: dataplane.NodeAddr6(c.node), Dst: dataplane.NodeAddr6(dst)}
		c.buf, err = h.Marshal()
	} else {
		dscp := uint8(field&0x1F | field>>19<<5)
		h := header.IPv4{DSCP: dscp, ECN: uint8(rng.Intn(4)), TotalLength: uint16(header.HeaderLen + rng.Intn(1480)),
			ID: uint16(rng.Intn(1 << 16)), Flags: uint8(rng.Intn(8)), TTL: ttl, Protocol: uint8(rng.Intn(256)),
			Src: dataplane.NodeAddr(c.node), Dst: dataplane.NodeAddr(dst)}
		c.buf, err = h.Marshal()
	}
	if err != nil {
		t.Fatal(err)
	}
	switch rng.Intn(40) {
	case 0:
		c.buf = c.buf[:rng.Intn(len(c.buf))]
	case 1:
		ver := rng.Intn(16)
		if v6 && ver == 4 {
			ver = 9 // 40 bytes read as IPv4 would want a checksum
		}
		c.buf[0] = c.buf[0]&0x0F | byte(ver)<<4
	case 2:
		c.buf[0] = c.buf[0]&0xF0 | byte(rng.Intn(16)) // IHL on IPv4, traffic class on IPv6
	case 3: // a destination outside the plan's prefix: any one bit of it
		if v6 {
			c.buf[24+rng.Intn(14)] ^= 1 << rng.Intn(8)
		} else {
			c.buf[16+rng.Intn(2)] ^= 1 << rng.Intn(8) // keep the checksum good: the refusal must come from the address
			c.buf[10], c.buf[11] = 0, 0
			binary.BigEndian.PutUint16(c.buf[10:], header.Checksum(c.buf))
		}
	}
	return c
}

// checkAgainstReference forwards the cases as one batch and holds every
// frame's egress, verdict and bytes against refForwardWire. It returns
// the verdicts for the caller's coverage count.
func checkAgainstReference(t *testing.T, x wireFix, fails *graph.FailureSet, cases []wireCase) []dataplane.WireVerdict {
	t.Helper()
	st := dataplane.FromFailureSet(x.g.NumLinks(), fails)
	pkts := make([]dataplane.WirePacket, len(cases))
	for i, c := range cases {
		pkts[i] = dataplane.WirePacket{Node: c.node, Ingress: c.ingress, Buf: append([]byte(nil), c.buf...),
			Egress: 12345, Verdict: 99} // stale outputs the batch must overwrite
	}
	forwarded := x.fib.ForwardWireBatch(pkts, st)
	verdicts := make([]dataplane.WireVerdict, len(cases))
	for i, c := range cases {
		eg, v, out := refForwardWire(x, fails, c.node, c.ingress, c.buf)
		got := pkts[i]
		if got.Egress != eg || got.Verdict != v || !bytes.Equal(got.Buf, out) {
			t.Fatalf("%s under %v, frame %d %q at node %d ingress %d:\n in  % x\n got % x → dart %d, %v\n ref % x → dart %d, %v",
				x.name, fails, i, c.name, c.node, c.ingress, c.buf, got.Buf, got.Egress, got.Verdict, out, eg, v)
		}
		if v != dataplane.WireForward && !bytes.Equal(got.Buf, c.buf) {
			t.Fatalf("%s frame %d: %v wrote to the buffer", x.name, i, v)
		}
		if v == dataplane.WireForward {
			forwarded--
		}
		verdicts[i] = v
	}
	if forwarded != 0 {
		t.Fatalf("%s: ForwardWireBatch's count is off by %d", x.name, forwarded)
	}
	return verdicts
}

// TestForwardWireBatchMatchesReference: over both codecs, both families
// and random failure sets of 0–4 links, ForwardWireBatch's egress,
// verdict and bytes equal the reference's — which shares no code with
// the wire path beyond the FIB's rank lookup — and a frame that is not
// forwarded is not written to.
func TestForwardWireBatchMatchesReference(t *testing.T) {
	x, fails, table := verdictTable(t)
	for i, v := range checkAgainstReference(t, x, fails, table) {
		if v != table[i].want {
			t.Errorf("verdict table %q: %v, want %v", table[i].name, v, table[i].want)
		}
	}

	rng := rand.New(rand.NewSource(15))
	for _, x := range wireFixes(t) {
		for _, v6 := range []bool{false, true} {
			var seen [dataplane.WireDropBadMark + 1]int
			for round := 0; round < 60; round++ {
				fails := graph.NewFailureSet()
				for fails.Len() < round%5 {
					fails.Add(graph.LinkID(rng.Intn(x.g.NumLinks())))
				}
				cases := make([]wireCase, 256)
				for i := range cases {
					cases[i] = randomWireCase(t, rng, x, v6)
				}
				for _, v := range checkAgainstReference(t, x, fails, cases) {
					seen[v]++
				}
			}
			for v, count := range seen {
				mismatch := dataplane.WireVerdict(v) == dataplane.WireDropCodecMismatch
				if canMismatch := !v6 && x.fib.Codec() == dataplane.CodecFlowLabel; count == 0 && (!mismatch || canMismatch) {
					t.Errorf("%s v6=%v: no random frame drew %v", x.name, v6, dataplane.WireVerdict(v))
				} else if mismatch && count > 0 && !canMismatch {
					t.Errorf("%s v6=%v: %d codec mismatches in the network's own family", x.name, v6, count)
				}
			}
		}
	}
}

// updateChecksumRef is the word-at-a-time RFC 1624 equation 3 repair the
// wire path used before it folded both words at once, kept as the
// reference for the stored bytes.
func updateChecksumRef(ck, old, new uint16) uint16 {
	sum := uint32(^ck) + uint32(^old) + uint32(new)
	for sum>>16 != 0 {
		sum = sum&0xFFFF + sum>>16
	}
	return ^uint16(sum)
}

// TestForwardWireChecksumBoundaries sweeps the ID field through all 65536
// values, which walks the stored checksum through every value it can
// take, for a TTL-only rewrite, a TOS+TTL rewrite and a PR-set frame
// that keeps its mark — and stores the other zero, 0xFFFF, wherever
// the checksum is 0x0000. After the hop the checksum must equal a full
// recompute and the word-by-word repair, on both sides of every
// end-around carry.
func TestForwardWireChecksumBoundaries(t *testing.T) {
	p, fib, g := wireFixture(t, "geant")
	src, dst := graph.NodeID(1), graph.NodeID(g.NumNodes()-1)
	spLink := p.Routes().NextLink(src, dst)
	into := rotation.ReverseID(p.System().OutgoingDart(src, spLink))
	up := dataplane.FromFailureSet(g.NumLinks(), nil)
	down := dataplane.FromFailureSet(g.NumLinks(), graph.NewFailureSet(spLink))
	for _, sc := range []struct {
		name    string
		st      *dataplane.LinkState
		ingress rotation.DartID
		tos     byte
		tosOut  bool // the hop must change the TOS byte
	}{
		{"ttl only", up, rotation.NoDart, 0x00, false},
		{"ttl only, pool 2 with ECN", up, rotation.NoDart, 0b0101_1110, false},
		{"ttl only, cycle following", up, into, 0b1011_1101, false},
		{"tos and ttl, detect", down, rotation.NoDart, 0b0000_0010, true},
	} {
		before, after := map[uint16]bool{}, map[uint16]bool{}
		for id := 0; id < 1<<16; id++ {
			h := header.IPv4{DSCP: sc.tos >> 2, ECN: sc.tos & 3, TotalLength: 84, ID: uint16(id), TTL: 64,
				Protocol: 17, Src: dataplane.NodeAddr(src), Dst: dataplane.NodeAddr(dst)}
			in, err := h.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			stored := []uint16{binary.BigEndian.Uint16(in[10:])}
			if stored[0] == 0 {
				stored = append(stored, 0xFFFF)
			}
			for _, ck := range stored {
				binary.BigEndian.PutUint16(in[10:], ck)
				out := append([]byte(nil), in...)
				if _, v := fib.ForwardWire(src, sc.ingress, sc.st, out); v != dataplane.WireForward {
					t.Fatalf("%s id %#x: verdict %v", sc.name, id, v)
				}
				if out[8] != 63 || (out[1] != in[1]) != sc.tosOut {
					t.Fatalf("%s id %#x: TOS %#x → %#x, TTL → %d", sc.name, id, in[1], out[1], out[8])
				}
				got := binary.BigEndian.Uint16(out[10:])
				before[ck], after[got] = true, true

				full := append([]byte(nil), out...)
				full[10], full[11] = 0, 0
				if want := header.Checksum(full[:header.HeaderLen]); got != want {
					t.Fatalf("%s id %#x stored %#04x: checksum %#04x, full recompute %#04x", sc.name, id, ck, got, want)
				}
				word := func(b []byte, i int) uint16 { return binary.BigEndian.Uint16(b[i:]) }
				want := updateChecksumRef(ck, word(in, 0), word(out, 0))
				want = updateChecksumRef(want, word(in, 8), word(out, 8))
				if got != want {
					t.Fatalf("%s id %#x stored %#04x: checksum %#04x, word-by-word repair %#04x", sc.name, id, ck, got, want)
				}
			}
		}
		for _, edge := range []uint16{0x0000, 0x0001, 0x00FF, 0x0100, 0xFEFE, 0xFEFF, 0xFF00, 0xFFFE} {
			if !before[edge] || !after[edge] {
				t.Errorf("%s: checksum %#04x stored before the hop: %v, after: %v", sc.name, edge, before[edge], after[edge])
			}
		}
		if !before[0xFFFF] || after[0xFFFF] {
			t.Errorf("%s: 0xFFFF stored before the hop: %v, after: %v (equation 3 never yields it)", sc.name, before[0xFFFF], after[0xFFFF])
		}
	}
}

// FuzzForwardWire feeds arbitrary bytes, routers, ingress darts and
// failure masks to the wire path of both fixtures. It must never panic;
// a frame that is not forwarded is not written to; a forwarded frame
// differs in its mark field, TTL and checksum only, leaves on an up link,
// and keeps whatever its IPv4 checksum summed to (zero, for a valid
// frame); and the batch says what the one-frame call says.
func FuzzForwardWire(f *testing.F) {
	_, _, table := verdictTable(f)
	for i, c := range table {
		f.Add(c.buf, uint16(c.node), int32(c.ingress), uint64(1)<<(i%64))
	}
	fixes := wireFixes(f)
	f.Fuzz(func(t *testing.T, data []byte, node uint16, ingress int32, failMask uint64) {
		for _, x := range fixes {
			fails := graph.NewFailureSet()
			for l := 0; l < 64 && l < x.g.NumLinks(); l++ {
				if failMask>>l&1 != 0 {
					fails.Add(graph.LinkID(l))
				}
			}
			st := dataplane.FromFailureSet(x.g.NumLinks(), fails)
			at := graph.NodeID(int(node) % x.g.NumNodes())
			out := append([]byte(nil), data...)
			eg, v := x.fib.ForwardWire(at, rotation.DartID(ingress), st, out)

			pkts := []dataplane.WirePacket{{Node: at, Ingress: rotation.DartID(ingress), Buf: append([]byte(nil), data...)}}
			forwarded := x.fib.ForwardWireBatch(pkts, st)
			if pkts[0].Egress != eg || pkts[0].Verdict != v || !bytes.Equal(pkts[0].Buf, out) || (forwarded == 1) != (v == dataplane.WireForward) {
				t.Fatalf("batch: dart %d, %v, % x, %d forwarded; one frame: dart %d, %v, % x",
					pkts[0].Egress, pkts[0].Verdict, pkts[0].Buf, forwarded, eg, v, out)
			}
			if v != dataplane.WireForward {
				if eg != rotation.NoDart || !bytes.Equal(out, data) {
					t.Fatalf("%v: dart %d, bytes % x → % x", v, eg, data, out)
				}
				continue
			}
			if eg < 0 || int(eg) >= 2*x.g.NumLinks() || fails.Down(rotation.LinkOf(eg)) {
				t.Fatalf("forwarded on dart %d under %v", eg, fails)
			}
			rewritable, ttl := []int{1, 8, 10, 11}, 8 // TOS, TTL, checksum
			if data[0]>>4 == 6 {
				rewritable, ttl = []int{1, 2, 3, 7}, 7 // flow label, hop limit
				if out[1]&0xF0 != data[1]&0xF0 {
					t.Fatalf("traffic class changed: % x → % x", data[:4], out[:4])
				}
			} else if was, is := header.Checksum(data[:header.HeaderLen]), header.Checksum(out[:header.HeaderLen]); was != is {
				t.Fatalf("checksum residue %#04x → %#04x: % x → % x", was, is, data, out)
			} else if out[1]&0b11 != data[1]&0b11 {
				t.Fatalf("ECN bits changed: %#x → %#x", data[1], out[1])
			}
			rest := append([]byte(nil), out...)
			for _, i := range rewritable {
				rest[i] = data[i]
			}
			if !bytes.Equal(rest, data) {
				t.Fatalf("bytes outside the mark, TTL and checksum changed: % x → % x", data, out)
			}
			if out[ttl] != data[ttl]-1 {
				t.Fatalf("TTL %d → %d", data[ttl], out[ttl])
			}
		}
	})
}
