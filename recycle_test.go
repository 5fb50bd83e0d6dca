package recycle

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"recycle/internal/core"
	"recycle/internal/dataplane"
	"recycle/internal/rotation"
	"recycle/internal/telemetry"
	"recycle/internal/traffic"
)

func TestFromTopologyQuickstart(t *testing.T) {
	net, err := FromTopology("abilene")
	if err != nil {
		t.Fatal(err)
	}
	if net.Genus() != 0 {
		t.Fatalf("genus = %d; want 0 (Abilene is planar)", net.Genus())
	}
	if net.HeaderBits() != 4 {
		t.Fatalf("header bits = %d; want 4", net.HeaderBits())
	}
	fails := NewFailureSet(net.MustLinkBetween("Denver", "KansasCity"))
	res, err := net.Route("Seattle", "NewYork", fails)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered() {
		t.Fatalf("outcome = %v; want delivered", res.Outcome)
	}
	if res.Stretch < 1 {
		t.Fatalf("stretch = %v; want ≥ 1", res.Stretch)
	}
	if !strings.Contains(net.Describe(), "abilene") {
		t.Fatalf("Describe = %q", net.Describe())
	}
}

func TestFromTopologyUnknown(t *testing.T) {
	if _, err := FromTopology("arpanet"); err == nil {
		t.Fatal("unknown topology accepted")
	}
}

func TestPaperTopologyShipsEmbedding(t *testing.T) {
	net, err := FromTopology("paper")
	if err != nil {
		t.Fatal(err)
	}
	table, err := net.CycleTable("D")
	if err != nil {
		t.Fatal(err)
	}
	// The published Table 1 content must be present.
	for _, frag := range []string{"IBD", "IED", "IFD"} {
		if !strings.Contains(table, frag) {
			t.Fatalf("cycle table missing %q:\n%s", frag, table)
		}
	}
}

func TestNewNetworkCustomGraph(t *testing.T) {
	g := NewGraph(4, 4)
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	d := g.AddNode("d")
	g.MustAddLink(a, b, 1)
	g.MustAddLink(b, c, 1)
	g.MustAddLink(c, d, 1)
	g.MustAddLink(d, a, 1)

	net, err := NewNetwork(g, WithDiscriminator(WeightSum), WithVariant(Full))
	if err != nil {
		t.Fatal(err)
	}
	res := net.RouteIDs(a, c, NewFailureSet(0))
	if !res.Delivered() {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	// Ring detour: a→d→c costs 2; direct SP a→b→c also 2 → stretch 1.
	if res.Stretch != 1 {
		t.Fatalf("stretch = %v; want 1 on the symmetric ring", res.Stretch)
	}
}

func TestLoadNetwork(t *testing.T) {
	src := `# tiny
link a b 1
link b c 1
link c a 1
`
	net, err := LoadNetwork(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.Route("a", "c", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered() || res.Cost != 1 {
		t.Fatalf("route a→c = %+v", res)
	}
	if _, err := net.Route("a", "zzz", nil); err == nil {
		t.Fatal("unknown node accepted")
	}
	if _, err := LoadNetwork(strings.NewReader("junk\n")); err == nil {
		t.Fatal("bad topology accepted")
	}
}

func TestRouteBasicVariant(t *testing.T) {
	net, err := FromTopology("paper")
	if err != nil {
		t.Fatal(err)
	}
	a, _ := net.Node("A")
	f, _ := net.Node("F")
	fails := NewFailureSet(
		net.MustLinkBetween("D", "E"),
		net.MustLinkBetween("B", "C"),
	)
	// Figure 1(c): Full delivers, Basic loops.
	if res := net.RouteIDs(a, f, fails); !res.Delivered() {
		t.Fatalf("full variant outcome = %v", res.Outcome)
	}
	if res := net.RouteBasic(a, f, fails); res.Outcome != Looped {
		t.Fatalf("basic variant outcome = %v; want looped", res.Outcome)
	}
}

func TestWithEmbedding(t *testing.T) {
	g := NewGraph(3, 3)
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	g.MustAddLink(a, b, 1)
	g.MustAddLink(b, c, 1)
	g.MustAddLink(c, a, 1)
	net, err := NewNetwork(g)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild over the same graph, forcing the computed embedding.
	net2, err := NewNetwork(g, WithEmbedding(net.Embedding()))
	if err != nil {
		t.Fatal(err)
	}
	if net2.Genus() != 0 {
		t.Fatal("embedding not honoured")
	}
	// A system over a different graph instance must be rejected.
	other, err := FromTopology("abilene")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewNetwork(g, WithEmbedding(other.Embedding())); err == nil {
		t.Fatal("foreign embedding accepted")
	}
}

func TestBuiltinTopologies(t *testing.T) {
	names := BuiltinTopologies()
	if len(names) != 4 {
		t.Fatalf("topologies = %v; want 4", names)
	}
	for _, n := range names {
		if _, err := FromTopology(n); err != nil {
			t.Fatalf("%s: %v", n, err)
		}
	}
}

func TestRunFigureSmall(t *testing.T) {
	exp, err := RunFigure("2a")
	if err != nil {
		t.Fatal(err)
	}
	if exp.Scenarios != 14 {
		t.Fatalf("scenarios = %d; want 14", exp.Scenarios)
	}
	pr := exp.SeriesFor(PR)
	if pr == nil || pr.DeliveryRate() != 1 {
		t.Fatal("PR series missing or lossy")
	}
	if _, err := RunFigure("9z"); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestWriteFigureAndOverheads(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFigure(&buf, "2a"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Packet Re-cycling") {
		t.Fatal("figure output incomplete")
	}
	buf.Reset()
	if err := WriteOverheads(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "teleglobe") {
		t.Fatal("overhead output incomplete")
	}
}

func TestFailureHelpers(t *testing.T) {
	net, err := FromTopology("abilene")
	if err != nil {
		t.Fatal(err)
	}
	singles := SingleFailures(net.Graph())
	if len(singles) != 14 {
		t.Fatalf("single failures = %d; want 14", len(singles))
	}
	multi, err := SampleFailures(net.Graph(), 3, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(multi) != 10 {
		t.Fatalf("sampled = %d; want 10", len(multi))
	}
}

func TestCompileFacade(t *testing.T) {
	net, err := FromTopology("abilene")
	if err != nil {
		t.Fatal(err)
	}
	fib, err := net.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if fib.NumNodes() != net.Graph().NumNodes() || fib.NumLinks() != net.Graph().NumLinks() {
		t.Fatalf("FIB dimensions %dx%d do not match the graph", fib.NumNodes(), fib.NumLinks())
	}
	if fib.Variant() != Full {
		t.Fatalf("default compiled variant = %v; want Full", fib.Variant())
	}
	basic, err := net.CompileBasic()
	if err != nil {
		t.Fatal(err)
	}
	if basic.Variant() != Basic {
		t.Fatalf("CompileBasic variant = %v; want Basic", basic.Variant())
	}
	// Per-decision equivalence with the interpreted protocol is proven
	// exhaustively in internal/dataplane's differential tests.
}

// TestUpdateFacade drives the topology-churn API end to end: a weight
// cost-out, an addition and a removal through Network.Update, with the
// delta hot-swapped into a running engine.
func TestUpdateFacade(t *testing.T) {
	net, err := FromTopology("abilene")
	if err != nil {
		t.Fatal(err)
	}
	drained := net.MustLinkBetween("Denver", "KansasCity")
	n2, d, err := net.Update(SetWeight(drained, 1e6))
	if err != nil {
		t.Fatal(err)
	}
	if d.Structural || len(d.Dirty) == 0 {
		t.Fatalf("weight delta: %+v", d)
	}
	if n2.Graph().Weight(drained) != 1e6 || net.Graph().Weight(drained) == 1e6 {
		t.Fatal("Update must edit the copy, not the original")
	}
	// The drained link is off every shortest path of the new network.
	den, _ := net.Node("Denver")
	kc, _ := net.Node("KansasCity")
	res := n2.RouteIDs(den, kc, nil)
	if !res.Delivered() || res.Hops() < 2 {
		t.Fatalf("drained link still on the shortest path: %+v", res.Path())
	}

	// Hot-swap a running engine onto the delta and probe it.
	fib, err := net.Compile()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *dataplane.Batch, 1)
	eng := NewEngine(fib, EngineConfig{Shards: 1, OnDone: func(b *dataplane.Batch) { done <- b }})
	if err := eng.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	b := &dataplane.Batch{Pkts: []dataplane.Packet{{Node: den, Dst: kc, Ingress: NoDart}}}
	if !eng.Submit(b) {
		t.Fatal("Submit failed")
	}
	out := <-done
	if eng.Close() != 1 {
		t.Fatal("engine should have decided exactly one packet")
	}
	want := d.FIB.Decide(den, kc, NoDart, Header{}, LinkStateFrom(d.FIB, nil))
	if !out.Pkts[0].OK || out.Pkts[0].Egress != want.Egress {
		t.Fatalf("post-swap decision %+v; want egress %d", out.Pkts[0], want.Egress)
	}

	// Structural edits: add a bypass, then decommission the drained link.
	n3, d3, err := n2.Update(AddLink(den, kc, 2500), RemoveLink(drained))
	if err != nil {
		t.Fatal(err)
	}
	if !d3.Structural || !n3.Graph().Removed(drained) {
		t.Fatalf("structural delta: structural=%v removed=%v", d3.Structural, n3.Graph().RemovedLinks())
	}
	if n3.Graph().NumLinks() != n2.Graph().NumLinks()+1 {
		t.Fatalf("add+remove should append one link and keep the removed one, got %d links", n3.Graph().NumLinks())
	}
	if want := fmt.Sprintf("%d links (1 removed)", n2.Graph().NumLinks()); !strings.Contains(n3.Describe(), want) {
		t.Fatalf("Describe = %q; want %q", n3.Describe(), want)
	}
	if res := n3.RouteIDs(den, kc, nil); !res.Delivered() || res.Hops() != 1 {
		t.Fatalf("bypass link unused: %+v", res.Path())
	}

	// The documented no-op contract: an empty edit set — or one that
	// cancels out — returns the network itself with a nil delta.
	n4, d4, err := n3.Update()
	if err != nil || n4 != n3 || d4 != nil {
		t.Fatalf("empty Update = (%p, %v, %v); want (%p, nil, nil)", n4, d4, err, n3)
	}
	bypass := n3.Graph().FindLink(den, kc)
	n5, d5, err := n3.Update(SetWeight(bypass, 7), SetWeight(bypass, n3.Graph().Weight(bypass)))
	if err != nil || n5 != n3 || d5 != nil {
		t.Fatalf("cancelling Update = (%p, %v, %v); want the original network back", n5, d5, err)
	}
	// A link added and removed again in one set stays behind, removed.
	added := n3.Graph().AddTarget(den, NodeID(0))
	n6, d6, err := n3.Update(AddLink(den, NodeID(0), 10), RemoveLink(added))
	if err != nil || d6 == nil || !n6.Graph().Removed(added) {
		t.Fatalf("add+remove Update = (%p, %v, %v); want link %d left removed", n6, d6, err, added)
	}
}

// TestLinkStateFromHoldsRemovedLinkDown sweeps geant with every third
// link removed in turn by Update, under every single further failure and
// for all pairs, and pins that no FIB walk under a LinkStateFrom state
// crosses the removed link. The removed link's darts stay in the FIB's
// cycle tables, so a bare bitset of the failure set, which leaves the
// link up, does cross it on some walks: the sweep counts those too, to
// show it can see a crossing.
func TestLinkStateFromHoldsRemovedLinkDown(t *testing.T) {
	net, err := FromTopology("geant")
	if err != nil {
		t.Fatal(err)
	}
	crossings := func(fib *FIB, st *LinkState, removed LinkID) int {
		decide := func(node, dst NodeID, ingress DartID, hdr Header) core.Decision {
			return fib.Decide(node, dst, ingress, hdr, st)
		}
		n := 0
		for src := 0; src < fib.NumNodes(); src++ {
			for dst := 0; dst < fib.NumNodes(); dst++ {
				for _, s := range core.Walk(NodeID(src), NodeID(dst), fib.NumNodes(), fib.NumLinks(), decide, fib.Head).Steps {
					if s.Egress != NoDart && rotation.LinkOf(s.Egress) == removed {
						n++
					}
				}
			}
		}
		return n
	}
	bare := 0
	for l := LinkID(0); int(l) < net.Graph().NumLinks(); l += 3 {
		n2, _, err := net.Update(RemoveLink(l))
		if err != nil {
			t.Fatal(err)
		}
		fib, err := n2.Compile()
		if err != nil {
			t.Fatal(err)
		}
		for f := LinkID(0); int(f) < fib.NumLinks(); f++ {
			if f == l {
				continue
			}
			fs := NewFailureSet(f)
			if n := crossings(fib, LinkStateFrom(fib, fs), l); n != 0 {
				t.Fatalf("link %d removed, link %d failed: %d hops cross the removed link", l, f, n)
			}
			bare += crossings(fib, dataplane.FromFailureSet(fib.NumLinks(), fs), l)
		}
	}
	if bare == 0 {
		t.Fatal("no walk under a bare failure-set bitset crossed a removed link; the sweep cannot see a crossing")
	}
	t.Logf("hops over a removed link under a bare failure-set bitset: %d", bare)
}

func TestEngineFacade(t *testing.T) {
	net, err := FromTopology("abilene")
	if err != nil {
		t.Fatal(err)
	}
	fib, err := net.Compile()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *dataplane.Batch, 1)
	eng := NewEngine(fib, EngineConfig{Shards: 1, OnDone: func(b *dataplane.Batch) { done <- b }})
	src, _ := net.Node("Seattle")
	dst, _ := net.Node("NewYork")
	b := &dataplane.Batch{Pkts: []dataplane.Packet{{Node: src, Dst: dst, Ingress: rotation.NoDart}}}
	if !eng.Submit(b) {
		t.Fatal("Submit failed on an empty engine")
	}
	out := <-done
	if eng.Close() != 1 {
		t.Fatal("engine should have decided exactly one packet")
	}
	if !out.Pkts[0].OK || out.Pkts[0].Egress == rotation.NoDart {
		t.Fatalf("engine decision: %+v", out.Pkts[0])
	}
}

// TestGeneratedTopologyFacade: FromTopology accepts generator specs, and
// large-diameter networks report the flow-label codec with quantised
// header bits.
func TestGeneratedTopologyFacade(t *testing.T) {
	net, err := FromTopology("ring:24")
	if err != nil {
		t.Fatal(err)
	}
	if net.Genus() != 0 {
		t.Fatalf("ring genus = %d; want 0", net.Genus())
	}
	if net.WireCodec() != CodecFlowLabel {
		t.Fatalf("ring:24 codec = %v; want flow-label", net.WireCodec())
	}
	if net.HeaderBits() != 5 { // 1 PR + 4 DD bits for ranks ≤ 12
		t.Fatalf("header bits = %d; want 5", net.HeaderBits())
	}
	if q := net.Quantiser(); q == nil || q.MaxRank() != 12 {
		t.Fatalf("quantiser max rank wrong: %+v", q)
	}
	if !strings.Contains(net.Describe(), "flow-label") {
		t.Fatalf("Describe() misses the codec: %s", net.Describe())
	}
	fails := NewFailureSet(0)
	res := net.RouteIDs(0, 12, fails)
	if !res.Delivered() {
		t.Fatalf("ring:24 recovery outcome = %v", res.Outcome)
	}
	if _, err := FromTopology("ring:2"); err == nil {
		t.Fatal("bad generator spec accepted")
	}
}

// TestWireFacadeIPv6: the exported IPv6 codec, address plan and compiled
// wire path interoperate — one recovered hop on real IPv6 bytes.
func TestWireFacadeIPv6(t *testing.T) {
	net, err := FromTopology("ring:16")
	if err != nil {
		t.Fatal(err)
	}
	fib, err := net.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if fib.Codec() != CodecFlowLabel {
		t.Fatalf("codec = %v; want flow-label", fib.Codec())
	}
	h := IPv6{HopLimit: 64, NextHeader: 17, Src: NodeAddr6(0), Dst: NodeAddr6(8)}
	buf, err := h.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	st := LinkStateFrom(fib, NewFailureSet(0))
	eg, v := fib.ForwardWire(0, NoDart, st, buf)
	if v != WireForward || eg == NoDart {
		t.Fatalf("verdict %v egress %d; want forward", v, eg)
	}
	var back IPv6
	if err := back.Unmarshal(buf); err != nil {
		t.Fatal(err)
	}
	mark, err := back.PRMark()
	if err != nil {
		t.Fatalf("recovered packet carries no mark: %v", err)
	}
	if !mark.PR {
		t.Fatal("PR bit not set after recovery hop")
	}
	// A wire batch through the engine facade.
	done := make(chan *dataplane.Batch, 1)
	eng := NewEngine(fib, EngineConfig{Shards: 1, OnDone: func(b *dataplane.Batch) { done <- b }})
	h2 := IPv6{HopLimit: 64, NextHeader: 17, Src: NodeAddr6(1), Dst: NodeAddr6(5)}
	buf2, err := h2.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	wb := &dataplane.Batch{Wire: []WirePacket{{Node: 1, Ingress: NoDart, Buf: buf2}}}
	if !eng.Submit(wb) {
		t.Fatal("Submit failed")
	}
	out := <-done
	if eng.Close() != 1 {
		t.Fatal("engine should have decided exactly one frame")
	}
	if out.Wire[0].Verdict != WireForward {
		t.Fatalf("engine wire verdict: %v", out.Wire[0].Verdict)
	}
}

// TestTrafficFacade: the exported traffic types parse and validate
// through the facade alone, and a parsed source replays one flow
// deterministically through the generator every harness draws from.
func TestTrafficFacade(t *testing.T) {
	src, err := ParseTrafficSpec("mmpp:on=12150,off=0,dwell=20ms/80ms,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	if src.Name() != "mmpp" {
		t.Fatalf("source name = %q; want mmpp", src.Name())
	}
	gen, err := traffic.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	a, b := gen.Flow(0), gen.Flow(0)
	for i := 0; i < 100; i++ {
		ga, _ := gen.Next(&a)
		gb, _ := gen.Next(&b)
		if ga != gb || gen.Bits(&a) != gen.Bits(&b) {
			t.Fatalf("emission %d differs between two states of one flow", i)
		}
	}
	var pareto SizeDist = BoundedPareto{Alpha: 1.3, MinBits: 512, MaxBits: 96000}
	if err := pareto.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseTrafficSpec("poisson:rate=-1"); err == nil ||
		!strings.Contains(err.Error(), "non-positive rate") {
		t.Fatalf("bad spec error = %v; want descriptive rate error", err)
	}
	trace, err := ReadTrafficTrace(strings.NewReader("0.0 1000\n0.5 1000\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.Records) != 2 {
		t.Fatalf("trace records = %d; want 2", len(trace.Records))
	}
	var _ TrafficSource = FixedTraffic{Interval: 1}
	var _ TrafficSource = PoissonTraffic{Rate: 1}
	var _ TrafficSource = ReplayTraffic{}
}

// TestEgressFacade: an engine built purely from exported types runs the
// full ingest → decide → transmit pipeline, with per-dart pacing stats.
func TestEgressFacade(t *testing.T) {
	net, err := FromTopology("abilene")
	if err != nil {
		t.Fatal(err)
	}
	fib, err := net.Compile()
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	tx := NewTxQueue(fib, TxConfig{BandwidthBps: 1e12, Metrics: reg})
	done := make(chan *dataplane.Batch, 1)
	eng := NewEngine(fib, EngineConfig{
		Shards: 1,
		Egress: tx,
		OnDone: func(b *Batch) { done <- b },
	})
	b := &Batch{Pkts: []Packet{
		{Node: 0, Dst: 5, Ingress: NoDart, Bits: 8192},
		{Node: 2, Dst: 7, Ingress: NoDart, Bits: 4096},
	}}
	if !eng.Submit(b) {
		t.Fatal("Submit failed")
	}
	<-done
	eng.Close()
	st := reg.Snapshot()
	if st.Counter(dataplane.MetricTxSent) != 2 || st.Counter(dataplane.MetricTxSentBits) != 8192+4096 {
		t.Fatalf("egress stats = %+v; want 2 sent, 12288 bits", st.Counters)
	}
	if dataplane.TxDropped(st) != 0 {
		t.Fatalf("unexpected drops: %+v", st.Counters)
	}
	if TxSent.String() != "sent" || TxDropQueueFull.String() != "drop-queue-full" {
		t.Fatal("verdict names changed")
	}
}

// TestWriteTrafficLossFacade: the traffic-mix loss report runs through
// the facade on a small custom panel.
func TestWriteTrafficLossFacade(t *testing.T) {
	var buf bytes.Buffer
	panel := []TrafficSource{PoissonTraffic{Rate: 100, Seed: 1}}
	if err := WriteTrafficLoss(&buf, "abilene", panel); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "poisson") {
		t.Fatalf("report missing poisson row:\n%s", buf.String())
	}
}
