package dataplane_test

import (
	"bytes"
	"math/rand"
	"net/netip"
	"testing"

	"recycle/internal/core"
	"recycle/internal/dataplane"
	"recycle/internal/embedding"
	"recycle/internal/graph"
	"recycle/internal/header"
	"recycle/internal/rotation"
	"recycle/internal/route"
	"recycle/internal/topo"
)

// wireFixture compiles a FIB over a built-in topology with hop-count
// discriminators (the only kind the 3-bit DSCP DD field can carry).
func wireFixture(t testing.TB, name string) (*core.Protocol, *dataplane.FIB, *graph.Graph) {
	t.Helper()
	tp, err := topo.ByNameWeighted(name, topo.DistanceWeights)
	if err != nil {
		t.Fatal(err)
	}
	sys := tp.Embedding
	if sys == nil {
		sys, err = (embedding.Auto{Seed: 1}).Embed(tp.Graph)
		if err != nil {
			t.Fatal(err)
		}
	}
	p := buildProtocol(t, tp.Graph, sys, route.HopCount, core.Full)
	fib, err := dataplane.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	return p, fib, tp.Graph
}

// mkPacket marshals a fresh unmarked IPv4 packet between two plan
// addresses.
func mkPacket(t testing.TB, src, dst graph.NodeID, ttl uint8) []byte {
	t.Helper()
	h := header.IPv4{
		TotalLength: header.HeaderLen,
		ID:          42,
		TTL:         ttl,
		Protocol:    17,
		Src:         dataplane.NodeAddr(src),
		Dst:         dataplane.NodeAddr(dst),
	}
	buf, err := h.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

func TestNodeAddrRoundtrip(t *testing.T) {
	for _, n := range []graph.NodeID{0, 1, 255, 256, 65535} {
		if got := dataplane.NodeOfAddr(dataplane.NodeAddr(n)); got != n {
			t.Errorf("NodeOfAddr(NodeAddr(%d)) = %d", n, got)
		}
	}
	if got := dataplane.NodeOfAddr(dataplane.NodeAddr(0).Next()); got != 1 {
		t.Errorf("plan addresses must be dense: got %d", got)
	}
}

// TestForwardWireMatchesWalk drives real packet bytes hop by hop through
// the wire path under a failure and checks every decision — egress dart
// and re-encoded DSCP mark — against the core.Protocol.Walk transcript,
// with the checksum intact at every hop.
func TestForwardWireMatchesWalk(t *testing.T) {
	for _, name := range []string{"paper", "abilene", "geant"} {
		p, fib, g := wireFixture(t, name)
		fails := graph.NewFailureSet(0)
		if !graph.ConnectedUnder(g, fails) {
			t.Fatalf("%s: link 0 is a bridge", name)
		}
		st := dataplane.FromFailureSet(g.NumLinks(), fails)
		src := graph.NodeID(1)
		dst := graph.NodeID(g.NumNodes() - 1)
		want := p.Walk(src, dst, fails)
		if !want.Delivered() {
			t.Fatalf("%s: core walk not delivered: %v", name, want.Outcome)
		}

		buf := mkPacket(t, src, dst, 64)
		node := src
		ingress := rotation.NoDart
		for i, step := range want.Steps {
			if step.Event == core.EventDeliver {
				eg, v := fib.ForwardWire(node, ingress, st, buf)
				if v != dataplane.WireDeliver || eg != rotation.NoDart {
					t.Fatalf("%s step %d: verdict %v, want deliver", name, i, v)
				}
				break
			}
			eg, v := fib.ForwardWire(node, ingress, st, buf)
			if v != dataplane.WireForward {
				t.Fatalf("%s step %d at node %d: verdict %v", name, i, node, v)
			}
			if eg != step.Egress {
				t.Fatalf("%s step %d: egress %d, core walked %d", name, i, eg, step.Egress)
			}
			if header.Checksum(buf[:header.HeaderLen]) != 0 {
				t.Fatalf("%s step %d: checksum broken after rewrite", name, i)
			}
			var h header.IPv4
			if err := h.Unmarshal(buf); err != nil {
				t.Fatalf("%s step %d: rewritten header invalid: %v", name, i, err)
			}
			if h.TTL != 64-uint8(i+1) {
				t.Fatalf("%s step %d: TTL %d, want %d", name, i, h.TTL, 64-i-1)
			}
			wantHdr := step.Header
			if wantHdr.PR || h.DSCP&0b11 == 0b11 {
				mark, err := h.PRMark()
				if err != nil {
					t.Fatalf("%s step %d: mark decode: %v", name, i, err)
				}
				if mark.PR != wantHdr.PR || float64(mark.DD) != wantHdr.DD {
					t.Fatalf("%s step %d: wire mark %+v, core header %+v", name, i, mark, wantHdr)
				}
			}
			node = fib.Head(eg)
			ingress = eg
		}
	}
}

// TestForwardWireChecksumFuzz checks the incremental checksum repair
// against a full recompute over randomised headers and forwarding states.
func TestForwardWireChecksumFuzz(t *testing.T) {
	_, fib, g := wireFixture(t, "geant")
	rng := rand.New(rand.NewSource(7))
	st := dataplane.FromFailureSet(g.NumLinks(), graph.NewFailureSet(2))
	for i := 0; i < 2000; i++ {
		src := graph.NodeID(rng.Intn(g.NumNodes()))
		dst := graph.NodeID(rng.Intn(g.NumNodes()))
		h := header.IPv4{
			ECN:         uint8(rng.Intn(4)),
			TotalLength: uint16(header.HeaderLen + rng.Intn(1480)),
			ID:          uint16(rng.Int()),
			Flags:       0b010,
			TTL:         uint8(2 + rng.Intn(250)),
			Protocol:    uint8(rng.Intn(256)),
			Src:         dataplane.NodeAddr(src),
			Dst:         dataplane.NodeAddr(dst),
		}
		if rng.Intn(2) == 0 {
			h.DSCP = uint8(rng.Intn(8))<<2 | 0b11 // pre-marked pool-2 packet
		}
		buf, err := h.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		node := graph.NodeID(rng.Intn(g.NumNodes()))
		_, v := fib.ForwardWire(node, rotation.NoDart, st, buf)
		if v == dataplane.WireForward && header.Checksum(buf[:header.HeaderLen]) != 0 {
			t.Fatalf("iteration %d: incremental checksum diverged from recompute", i)
		}
	}
}

func TestForwardWireVerdicts(t *testing.T) {
	_, fib, g := wireFixture(t, "abilene")
	st := dataplane.FromFailureSet(g.NumLinks(), nil)

	buf := mkPacket(t, 0, 3, 64)
	buf[0] = 0x46 // IHL 6: options unsupported on the fast path
	if _, v := fib.ForwardWire(1, rotation.NoDart, st, buf); v != dataplane.WireDropNotIP {
		t.Errorf("options packet: verdict %v, want not-ip", v)
	}
	if _, v := fib.ForwardWire(1, rotation.NoDart, st, buf[:10]); v != dataplane.WireDropNotIP {
		t.Errorf("short packet: verdict %v, want not-ip", v)
	}
	if _, v := fib.ForwardWire(1, rotation.NoDart, st, nil); v != dataplane.WireDropNotIP {
		t.Errorf("empty packet: verdict %v, want not-ip", v)
	}
	buf = mkPacket(t, 0, 3, 64)
	buf[0] = 0x95 // version 9
	if _, v := fib.ForwardWire(1, rotation.NoDart, st, buf); v != dataplane.WireDropNotIP {
		t.Errorf("version-9 packet: verdict %v, want not-ip", v)
	}

	buf = mkPacket(t, 0, 3, 1)
	if _, v := fib.ForwardWire(1, rotation.NoDart, st, buf); v != dataplane.WireDropTTL {
		t.Errorf("TTL=1: verdict %v, want drop-ttl", v)
	}

	h := header.IPv4{TotalLength: header.HeaderLen, TTL: 64, Protocol: 17,
		Src: dataplane.NodeAddr(0), Dst: dataplane.NodeAddr(graph.NodeID(g.NumNodes()))}
	out, err := h.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, v := fib.ForwardWire(1, rotation.NoDart, st, out); v != dataplane.WireDropNotOurs {
		t.Errorf("node beyond topology: verdict %v, want not-ours", v)
	}

	// Isolate node 1: every incident link down means no usable egress.
	isolated := dataplane.FromFailureSet(g.NumLinks(), graph.FailNode(g, 1))
	buf = mkPacket(t, 0, 3, 64)
	if _, v := fib.ForwardWire(1, rotation.NoDart, isolated, buf); v != dataplane.WireDropNoRoute {
		t.Errorf("isolated router: verdict %v, want no-route", v)
	}

	if _, v := fib.ForwardWire(3, rotation.NoDart, st, mkPacket(t, 0, 3, 64)); v != dataplane.WireDeliver {
		t.Errorf("at destination: verdict %v, want deliver", v)
	}

	// A host-originated (no ingress) packet carrying a forged PR mark
	// must be refused, not crash the engine.
	h2 := header.IPv4{
		DSCP:        0b100011, // pool 2 with the PR bit set
		TotalLength: header.HeaderLen, TTL: 64, Protocol: 17,
		Src: dataplane.NodeAddr(0), Dst: dataplane.NodeAddr(3),
	}
	forged, err := h2.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, v := fib.ForwardWire(1, rotation.NoDart, st, forged); v != dataplane.WireDropBadMark {
		t.Errorf("forged PR mark with no ingress: verdict %v, want drop-bad-mark", v)
	}
	checkIngressEdges(t, fib, g, st, 4)
}

// checkIngressEdges runs ingressEdgeCases' frames of one family through
// ForwardWire at node 1 toward node 3: the PR-clear ones must all leave on
// the dart an origin-host frame leaves on, the PR-set ones draw their drop.
func checkIngressEdges(t *testing.T, fib *dataplane.FIB, g *graph.Graph, st *dataplane.LinkState, version byte) {
	t.Helper()
	sp, _ := fib.ForwardWire(1, rotation.NoDart, st, mkPacket(t, 1, 3, 64))
	for _, c := range ingressEdgeCases(t, g, 1, 3) {
		if c.buf[0]>>4 != version {
			continue
		}
		in := append([]byte(nil), c.buf...)
		eg, v := fib.ForwardWire(c.node, c.ingress, st, c.buf)
		if v != c.want || (v == dataplane.WireForward && eg != sp) || (v != dataplane.WireForward && (eg != rotation.NoDart || !bytes.Equal(c.buf, in))) {
			t.Errorf("%s: dart %d, %v; want %v (shortest-path dart %d)", c.name, eg, v, c.want, sp)
		}
	}
}

// mkPacket6 marshals a fresh unmarked IPv6 packet between two plan
// addresses.
func mkPacket6(t testing.TB, src, dst graph.NodeID, hops uint8) []byte {
	t.Helper()
	h := header.IPv6{
		HopLimit:   hops,
		NextHeader: 17,
		Src:        dataplane.NodeAddr6(src),
		Dst:        dataplane.NodeAddr6(dst),
	}
	buf, err := h.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// flowLabelFixture compiles a weight-sum FIB over geant: quantised ranks
// exceed DSCP's 3 bits there, so Compile must select the flow-label codec.
func flowLabelFixture(t testing.TB) (*core.Protocol, *dataplane.FIB, *graph.Graph) {
	t.Helper()
	tp, err := topo.ByNameWeighted("geant", topo.DistanceWeights)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := (embedding.Auto{Seed: 1}).Embed(tp.Graph)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.New(tp.Graph, sys, route.Build(tp.Graph, route.WeightSum),
		core.Config{Variant: core.Full, Quantise: true})
	if err != nil {
		t.Fatal(err)
	}
	fib, err := dataplane.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	if fib.Codec() != dataplane.CodecFlowLabel {
		t.Fatalf("geant/weight-sum codec = %v, want flow-label (dd bits %d)", fib.Codec(), fib.DDBits())
	}
	return p, fib, tp.Graph
}

// TestForwardWireCodecMismatch: on a flow-label-codec network, an IPv4
// packet whose forced mark exceeds DSCP's 3 DD bits is refused with an
// explicit family-mismatch verdict — the only residual width drop, and
// one that IPv6 traffic on the same network never hits.
func TestForwardWireCodecMismatch(t *testing.T) {
	p, fib, g := flowLabelFixture(t)
	tbl := p.Routes()
	// Find a (node, dst) whose shortest-path egress we can fail, forcing a
	// rank stamp too wide for DSCP.
	for node := 0; node < g.NumNodes(); node++ {
		for dst := 0; dst < g.NumNodes(); dst++ {
			nid, did := graph.NodeID(node), graph.NodeID(dst)
			link := tbl.NextLink(nid, did)
			if link == graph.NoLink {
				continue
			}
			rank, ok := fib.WireDD(nid, did)
			if !ok || rank <= header.MaxDD {
				continue
			}
			fs := graph.NewFailureSet(link)
			if !graph.ConnectedUnder(g, fs) {
				continue
			}
			st := dataplane.FromFailureSet(g.NumLinks(), fs)
			_, v := fib.ForwardWire(nid, rotation.NoDart, st, mkPacket(t, nid, did, 64))
			if v != dataplane.WireDropCodecMismatch {
				t.Fatalf("wide rank %d at %d→%d over IPv4: verdict %v, want codec-mismatch", rank, node, dst, v)
			}
			// The identical scenario over IPv6 forwards: the flow label
			// carries the rank the DSCP field could not.
			eg, v6 := fib.ForwardWire(nid, rotation.NoDart, st, mkPacket6(t, nid, did, 64))
			if v6 != dataplane.WireForward || eg == rotation.NoDart {
				t.Fatalf("same scenario over IPv6: verdict %v, want forward", v6)
			}
			return
		}
	}
	t.Fatal("no wide-rank pair found on geant/weight-sum")
}

// TestForwardWire6MatchesWalk drives real IPv6 bytes hop by hop through
// the wire path on a flow-label-codec network under a failure and checks
// every decision — egress dart and re-encoded flow-label mark — against
// the quantised core.Protocol.Walk transcript.
func TestForwardWire6MatchesWalk(t *testing.T) {
	p, fib, g := flowLabelFixture(t)
	fails := graph.NewFailureSet(0)
	if !graph.ConnectedUnder(g, fails) {
		t.Fatal("link 0 is a bridge")
	}
	st := dataplane.FromFailureSet(g.NumLinks(), fails)
	for dst := 0; dst < g.NumNodes(); dst++ {
		for src := 0; src < g.NumNodes(); src++ {
			if src == dst {
				continue
			}
			s, d := graph.NodeID(src), graph.NodeID(dst)
			want := p.Walk(s, d, fails)
			if !want.Delivered() {
				t.Fatalf("core walk %d→%d not delivered: %v", src, dst, want.Outcome)
			}
			buf := mkPacket6(t, s, d, 255)
			node := s
			ingress := rotation.NoDart
			for i, step := range want.Steps {
				if step.Event == core.EventDeliver {
					if _, v := fib.ForwardWire(node, ingress, st, buf); v != dataplane.WireDeliver {
						t.Fatalf("%d→%d step %d: verdict %v, want deliver", src, dst, i, v)
					}
					break
				}
				eg, v := fib.ForwardWire(node, ingress, st, buf)
				if v != dataplane.WireForward {
					t.Fatalf("%d→%d step %d at node %d: verdict %v", src, dst, i, node, v)
				}
				if eg != step.Egress {
					t.Fatalf("%d→%d step %d: egress %d, core walked %d", src, dst, i, eg, step.Egress)
				}
				var h header.IPv6
				if err := h.Unmarshal(buf); err != nil {
					t.Fatalf("%d→%d step %d: rewritten header invalid: %v", src, dst, i, err)
				}
				if h.HopLimit != 255-uint8(i+1) {
					t.Fatalf("%d→%d step %d: hop limit %d, want %d", src, dst, i, h.HopLimit, 255-i-1)
				}
				wantHdr := step.Header
				if wantHdr.PR || h.FlowLabel&0b11 == 0b11 {
					mark, err := h.PRMark()
					if err != nil {
						t.Fatalf("%d→%d step %d: mark decode: %v", src, dst, i, err)
					}
					// The quantised protocol's Header.DD is the rank the
					// wire carries, so the comparison is exact.
					if mark.PR != wantHdr.PR || float64(mark.DD) != wantHdr.DD {
						t.Fatalf("%d→%d step %d: wire mark %+v, core header %+v", src, dst, i, mark, wantHdr)
					}
				}
				node = fib.Head(eg)
				ingress = eg
			}
		}
	}
}

// TestForwardWire6Verdicts covers the IPv6-specific refusal paths.
func TestForwardWire6Verdicts(t *testing.T) {
	_, fib, g := wireFixture(t, "abilene")
	st := dataplane.FromFailureSet(g.NumLinks(), nil)

	if _, v := fib.ForwardWire(1, rotation.NoDart, st, mkPacket6(t, 0, 3, 64)[:39]); v != dataplane.WireDropNotIP {
		t.Errorf("short IPv6 packet: verdict %v, want not-ip", v)
	}
	if _, v := fib.ForwardWire(1, rotation.NoDart, st, mkPacket6(t, 0, 3, 1)); v != dataplane.WireDropTTL {
		t.Errorf("hop limit 1: verdict %v, want drop-ttl", v)
	}
	if _, v := fib.ForwardWire(3, rotation.NoDart, st, mkPacket6(t, 0, 3, 64)); v != dataplane.WireDeliver {
		t.Errorf("at destination: verdict %v, want deliver", v)
	}
	h := header.IPv6{HopLimit: 64, NextHeader: 17,
		Src: dataplane.NodeAddr6(0), Dst: dataplane.NodeAddr6(graph.NodeID(g.NumNodes()))}
	out, err := h.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, v := fib.ForwardWire(1, rotation.NoDart, st, out); v != dataplane.WireDropNotOurs {
		t.Errorf("node beyond topology: verdict %v, want not-ours", v)
	}
	alien := header.IPv6{HopLimit: 64, NextHeader: 17,
		Src: dataplane.NodeAddr6(0), Dst: mustParse(t, "2001:db8::1")}
	out, err = alien.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, v := fib.ForwardWire(1, rotation.NoDart, st, out); v != dataplane.WireDropNotOurs {
		t.Errorf("off-plan destination: verdict %v, want not-ours", v)
	}

	// A host-originated (no ingress) frame with a forged PR flow label
	// must be refused, not crash the engine.
	forged := header.IPv6{
		FlowLabel: 1<<19 | 0b11, // PR bit set, pool-2 marker
		HopLimit:  64, NextHeader: 17,
		Src: dataplane.NodeAddr6(0), Dst: dataplane.NodeAddr6(3),
	}
	out, err = forged.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, v := fib.ForwardWire(1, rotation.NoDart, st, out); v != dataplane.WireDropBadMark {
		t.Errorf("forged PR mark with no ingress: verdict %v, want drop-bad-mark", v)
	}

	// Isolated router: every incident link down.
	isolated := dataplane.FromFailureSet(g.NumLinks(), graph.FailNode(g, 1))
	if _, v := fib.ForwardWire(1, rotation.NoDart, isolated, mkPacket6(t, 0, 3, 64)); v != dataplane.WireDropNoRoute {
		t.Errorf("isolated router: verdict %v, want no-route", v)
	}
	checkIngressEdges(t, fib, g, st, 6)
}

// TestForwardWireZeroLinkFIB: the dart table of a FIB compiled from a graph
// with no links still holds its guard entry, so every frame for another
// node — any family, any mark, any ingress — reads "no dart" there and is
// dropped untouched instead of indexing an empty table, and a local one is
// delivered.
func TestForwardWireZeroLinkFIB(t *testing.T) {
	g := graph.New(3, 0)
	for _, name := range []string{"a", "b", "c"} {
		g.AddNode(name)
	}
	g.Freeze()
	fib, err := dataplane.Compile(buildProtocol(t, g, rotation.AdjacencyOrder(g), route.HopCount, core.Full))
	if err != nil {
		t.Fatal(err)
	}
	// Two dense 3×3 planes (4 + 4 bytes an entry) and the guard entry.
	if got := fib.MemBytes(); got != 9*8+4 {
		t.Errorf("MemBytes() = %d, want %d: the guard entry is resident", got, 9*8+4)
	}
	st := dataplane.FromFailureSet(0, nil)
	for _, local := range [][]byte{mkPacket(t, 0, 1, 64), mkPacket6(t, 0, 1, 64)} {
		if _, v := fib.ForwardWire(1, rotation.NoDart, st, local); v != dataplane.WireDeliver {
			t.Errorf("local frame: %v, want deliver", v)
		}
	}
	cases := append(ingressEdgeCases(t, g, 0, 1), ingressEdgeCases(t, g, 2, 0)...)
	pkts := make([]dataplane.WirePacket, len(cases))
	for i, c := range cases {
		pkts[i] = dataplane.WirePacket{Node: c.node, Ingress: c.ingress, Buf: append([]byte(nil), c.buf...)}
	}
	if forwarded := fib.ForwardWireBatch(pkts, st); forwarded != 0 {
		t.Errorf("%d frames forwarded on a network with no links", forwarded)
	}
	for i, p := range pkts {
		if !p.Verdict.Dropped() || p.Egress != rotation.NoDart || !bytes.Equal(p.Buf, cases[i].buf) {
			t.Errorf("%s: dart %d, %v, frame % x; want an untouched drop", cases[i].name, p.Egress, p.Verdict, p.Buf)
		}
	}
}

func mustParse(t *testing.T, s string) netip.Addr {
	t.Helper()
	return netip.MustParseAddr(s)
}

func TestNodeAddr6Roundtrip(t *testing.T) {
	for _, n := range []graph.NodeID{0, 1, 255, 256, 65535} {
		if got := dataplane.NodeOfAddr6(dataplane.NodeAddr6(n)); got != n {
			t.Errorf("NodeOfAddr6(NodeAddr6(%d)) = %d", n, got)
		}
	}
	if dataplane.NodeOfAddr6(mustParse(t, "2001:db8::1")) != graph.NoNode {
		t.Error("off-plan address resolved to a node")
	}
	if dataplane.NodeOfAddr6(dataplane.NodeAddr(3)) != graph.NoNode {
		t.Error("IPv4 plan address resolved through the IPv6 plan")
	}
}

var verdictSink dataplane.WireVerdict

// TestForwardWireZeroAllocs: the wire fast path must not allocate — on the
// IPv4 DSCP path and the IPv6 flow-label path both.
func TestForwardWireZeroAllocs(t *testing.T) {
	_, fib, g := wireFixture(t, "geant")
	st := dataplane.FromFailureSet(g.NumLinks(), graph.NewFailureSet(0))
	buf := mkPacket(t, 1, graph.NodeID(g.NumNodes()-1), 64)
	tmpl := append([]byte(nil), buf...)
	if allocs := testing.AllocsPerRun(200, func() {
		copy(buf, tmpl)
		_, verdictSink = fib.ForwardWire(1, rotation.NoDart, st, buf)
	}); allocs != 0 {
		t.Errorf("ForwardWire/ipv4 allocates %.1f per op, want 0", allocs)
	}

	_, fib6, g6 := flowLabelFixture(t)
	st6 := dataplane.FromFailureSet(g6.NumLinks(), graph.NewFailureSet(0))
	buf6 := mkPacket6(t, 1, graph.NodeID(g6.NumNodes()-1), 64)
	tmpl6 := append([]byte(nil), buf6...)
	if allocs := testing.AllocsPerRun(200, func() {
		copy(buf6, tmpl6)
		_, verdictSink = fib6.ForwardWire(1, rotation.NoDart, st6, buf6)
	}); allocs != 0 {
		t.Errorf("ForwardWire/ipv6 allocates %.1f per op, want 0", allocs)
	}

	// The batch, over both families and every verdict, drops included.
	x, fails, table := verdictTable(t)
	stT := dataplane.FromFailureSet(x.g.NumLinks(), fails)
	pkts := make([]dataplane.WirePacket, len(table))
	for i, c := range table {
		pkts[i] = dataplane.WirePacket{Node: c.node, Ingress: c.ingress, Buf: append([]byte(nil), c.buf...)}
	}
	if allocs := testing.AllocsPerRun(200, func() {
		for i := range pkts {
			copy(pkts[i].Buf, table[i].buf)
		}
		x.fib.ForwardWireBatch(pkts, stT)
	}); allocs != 0 {
		t.Errorf("ForwardWireBatch over the verdict table allocates %.1f per batch, want 0", allocs)
	}
	var seen [dataplane.WireDropBadMark + 1]bool
	for i := range pkts {
		seen[pkts[i].Verdict] = true
	}
	for v, ok := range seen {
		if !ok {
			t.Errorf("no frame of the measured batch drew %v", dataplane.WireVerdict(v))
		}
	}
}
