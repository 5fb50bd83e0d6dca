package sim

// Large-diameter end-to-end regression: on topologies whose quantised DD
// code needs more than DSCP pool-2's 3 bits, the seed dataplane *provably*
// dropped every packet whose recovery stamped a discriminator above 7
// (WireDropDDOverflow, a structural loss class). With rank quantisation
// and flow-label codec selection the wire path must now deliver everything
// the abstract protocol delivers — zero wire drops of any kind, live
// traffic, real packet bytes.

import (
	"testing"
	"time"

	"recycle/internal/core"
	"recycle/internal/dataplane"
	"recycle/internal/embedding"
	"recycle/internal/graph"
	"recycle/internal/header"
	"recycle/internal/rotation"
	"recycle/internal/route"
	"recycle/internal/telemetry"
	"recycle/internal/topo"
	"recycle/internal/traffic"
)

// WirePRScheme forwards *real packet bytes* through the FIB's wire fast
// path: each simulated packet owns a marshalled IPv4 or IPv6 frame —
// matching the codec Compile selected for the network — and every hop runs
// ForwardWire on it: mark decode, FIB decision, in-place rewrite.
// It is the end-to-end proof that the codec machinery (quantised DD codes,
// DSCP or flow-label marks, TTL, checksums) loses nothing the abstract
// protocol delivers *within the IP TTL budget*: frames start with the
// maximum TTL/hop limit of 255, so a recycled walk longer than 255 hops —
// possible only when the topology's worst-case recovery path exceeds it,
// e.g. a ring of several hundred nodes — drops as WireDropTTL where the
// abstract protocol (capped only by the simulator's 4×nodes budget) still
// delivers. No IP dataplane can do better; the divergence is visible, not
// silent: Verdicts tallies every wire outcome for assertions.
type WirePRScheme struct {
	FIB *dataplane.FIB
	// Verdicts counts ForwardWire outcomes, populated during the run.
	Verdicts map[dataplane.WireVerdict]int

	state *dataplane.LinkState
}

// Name implements Scheme.
func (w *WirePRScheme) Name() string {
	return "packet-recycling-wire-" + w.FIB.Variant().String() + "-" + w.FIB.Codec().String()
}

// Init implements Scheme.
func (w *WirePRScheme) Init(s *Simulator) {
	w.state = dataplane.FromFailureSet(s.Graph().NumLinks(), s.KnownFailures())
	w.Verdicts = make(map[dataplane.WireVerdict]int)
}

// Process implements Scheme: marshal the frame on first contact (in the
// codec's address family, full TTL budget — the simulator's own hop cap
// fires first on sane configurations), then let the wire path decide and
// rewrite it in place. The frame carries no decoded event, so every hop
// is labelled a route.
func (w *WirePRScheme) Process(s *Simulator, node graph.NodeID, pkt *Packet) (rotation.DartID, core.Event, bool) {
	buf, ok := pkt.State.([]byte)
	if !ok {
		var err error
		if buf, err = w.FIB.NewWireFrame(pkt.Src, pkt.Dst); err != nil {
			return rotation.NoDart, core.EventRoute, false
		}
		pkt.State = buf
	}
	egress, verdict := w.FIB.ForwardWire(node, pkt.Ingress, w.state, buf)
	w.Verdicts[verdict]++
	return egress, core.EventRoute, verdict == dataplane.WireForward
}

// TopologyChanged implements Scheme: mirror the detection into the
// compiled link-state bitset.
func (w *WirePRScheme) TopologyChanged(_ *Simulator, l graph.LinkID, down bool) {
	w.state.Set(l, down)
}

// Converge implements Scheme.
func (w *WirePRScheme) Converge(*Simulator) {}

// WireDrops sums the drop verdicts the wire path returned.
func (w *WirePRScheme) WireDrops() int {
	n := 0
	for v, c := range w.Verdicts {
		if v.Dropped() {
			n += c
		}
	}
	return n
}

// wireCase is one large-diameter scenario.
type wireCase struct {
	spec string
	disc route.Discriminator
}

// buildWireFIB compiles the topology's FIB and returns it with the graph.
func buildWireFIB(t *testing.T, tc wireCase) (*dataplane.FIB, *core.Protocol, *graph.Graph) {
	t.Helper()
	tp, err := topo.ByName(tc.spec)
	if err != nil {
		t.Fatal(err)
	}
	sys := tp.Embedding
	if sys == nil {
		if sys, err = (embedding.Auto{Seed: 1}).Embed(tp.Graph); err != nil {
			t.Fatal(err)
		}
	}
	tbl := route.Build(tp.Graph, tc.disc)
	p, err := core.New(tp.Graph, sys, tbl, core.Config{Variant: core.Full})
	if err != nil {
		t.Fatal(err)
	}
	fib, err := dataplane.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	return fib, p, tp.Graph
}

// TestWireSchemeLargeDiameterZeroDrops runs live traffic across a mid-run
// link failure on diameter-8..32 topologies and asserts the wire path
// loses only the physically unavoidable detection-window packets — never
// a discriminator-width drop.
func TestWireSchemeLargeDiameterZeroDrops(t *testing.T) {
	cases := []wireCase{
		{"ring:16", route.HopCount},     // diameter 8: smallest over-budget ring
		{"ring:24", route.HopCount},     // diameter 12
		{"ring:64", route.HopCount},     // diameter 32: top of the regression band
		{"grid:5x5", route.HopCount},    // diameter 8, meshier recovery cycles
		{"chain:8", route.HopCount},     // diameter 16, long thin cells
		{"wring:24@7", route.WeightSum}, // weighted: real bucketisation
	}
	for _, tc := range cases {
		t.Run(tc.spec+"/"+tc.disc.String(), func(t *testing.T) {
			fib, p, g := buildWireFIB(t, tc)

			// Precondition — this is exactly where the seed dataplane
			// dropped: the quantised code needs > 3 bits, so some recovery
			// stamp exceeds DSCP pool 2 and the seed wire path returned
			// WireDropDDOverflow for it.
			if fib.Codec() != dataplane.CodecFlowLabel {
				t.Fatalf("codec = %v; this case must exceed the DSCP budget", fib.Codec())
			}
			if bits := fib.DDBits(); bits <= header.DDBits {
				t.Fatalf("dd bits = %d; want > %d", bits, header.DDBits)
			}
			overBudget := false
			for node := 0; node < g.NumNodes() && !overBudget; node++ {
				for dst := 0; dst < g.NumNodes(); dst++ {
					if rank, ok := fib.WireDD(graph.NodeID(node), graph.NodeID(dst)); ok && rank > header.MaxDD {
						overBudget = true
						break
					}
				}
			}
			if !overBudget {
				t.Fatal("no over-budget discriminator: the seed would not have dropped here")
			}

			// A flow across the diameter; the first link of src's shortest
			// path fails mid-run, forcing recovery through marked packets.
			src := graph.NodeID(0)
			dst := graph.NodeID(g.NumNodes() / 2)
			failLink := p.Routes().NextLink(src, dst)
			if !graph.ConnectedUnder(g, graph.NewFailureSet(failLink)) {
				t.Fatalf("link %d is a bridge", failLink)
			}

			run := func(scheme Scheme) *telemetry.Snapshot {
				s, err := New(Config{
					Graph:          g,
					Scheme:         scheme,
					Flows:          []Flow{{Src: src, Dst: dst, Source: traffic.Fixed{Interval: time.Millisecond, Bits: 8192}}},
					Horizon:        2 * time.Second,
					DetectionDelay: 50 * time.Millisecond,
				})
				if err != nil {
					t.Fatal(err)
				}
				s.FailLinkAt(failLink, time.Second)
				return s.Run()
			}

			wire := &WirePRScheme{FIB: fib}
			wireStats := run(wire)
			compiledStats := run(&PRScheme{FIB: fib})

			if wireStats.Counter(MetricGenerated) == 0 {
				t.Fatal("no traffic generated")
			}
			// The wire path never refuses a packet: all losses are
			// blackholes inside the 50 ms detection window.
			if drops := wire.WireDrops(); drops != 0 {
				t.Fatalf("wire path dropped %d packets (%v); want 0", drops, wire.Verdicts)
			}
			if nr := wireStats.Counter(MetricDropNoRoute); nr != 0 {
				t.Fatalf("%d no-route drops; want 0", nr)
			}
			if ttl := wireStats.Counter(MetricDropTTL); ttl != 0 {
				t.Fatalf("%d TTL drops; want 0", ttl)
			}
			if wireStats.Counter(MetricDelivered)+wireStats.Counter(MetricDropBlackhole) != wireStats.Counter(MetricGenerated) {
				t.Fatalf("accounting broken: %d delivered + %d blackholed != %d generated",
					wireStats.Counter(MetricDelivered), wireStats.Counter(MetricDropBlackhole), wireStats.Counter(MetricGenerated))
			}
			// Differential oracle at the traffic level: byte-level
			// forwarding delivers exactly what the compiled abstract
			// protocol does.
			if wireStats.Counter(MetricDelivered) != compiledStats.Counter(MetricDelivered) {
				t.Fatalf("wire delivered %d, compiled protocol %d", wireStats.Counter(MetricDelivered), compiledStats.Counter(MetricDelivered))
			}
			if wire.Verdicts[dataplane.WireForward] == 0 {
				t.Fatal("wire path never forwarded — scheme not engaged")
			}
		})
	}
}

// TestWireSchemeDSCPParity: on a small-diameter backbone the codec stays
// DSCP/IPv4 and the wire scheme matches the compiled protocol's delivery
// as well — codec selection costs nothing where the seed already worked.
func TestWireSchemeDSCPParity(t *testing.T) {
	fib, p, g := buildWireFIB(t, wireCase{"abilene", route.HopCount})
	if fib.Codec() != dataplane.CodecDSCP {
		t.Fatalf("abilene codec = %v; want dscp", fib.Codec())
	}
	src := graph.NodeID(0)
	dst := graph.NodeID(g.NumNodes() - 1)
	failLink := p.Routes().NextLink(src, dst)
	run := func(scheme Scheme) *telemetry.Snapshot {
		s, err := New(Config{
			Graph:          g,
			Scheme:         scheme,
			Flows:          []Flow{{Src: src, Dst: dst, Source: traffic.Fixed{Interval: time.Millisecond, Bits: 8192}}},
			Horizon:        2 * time.Second,
			DetectionDelay: 50 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		s.FailLinkAt(failLink, time.Second)
		return s.Run()
	}
	wire := &WirePRScheme{FIB: fib}
	ws := run(wire)
	cs := run(&PRScheme{FIB: fib})
	if wire.WireDrops() != 0 {
		t.Fatalf("wire drops on abilene: %v", wire.Verdicts)
	}
	if ws.Counter(MetricDelivered) != cs.Counter(MetricDelivered) {
		t.Fatalf("wire delivered %d, compiled %d", ws.Counter(MetricDelivered), cs.Counter(MetricDelivered))
	}
}

// TestWireTTLBudgetEnvelope pins down the one place byte-level forwarding
// can diverge from the abstract protocol: the IP TTL/hop-limit field is 8
// bits, so a frame starts with at most 255 hops of budget, while the
// abstract walk is capped only by the simulator's 4×nodes allowance. On a
// 600-node ring a recycled route runs ~400 hops: the protocol delivers,
// the wire path burns its TTL and drops — classified as WireDropTTL, never
// silently. No IP dataplane can beat this envelope, which is why
// WirePRScheme's parity claim is scoped to walks of ≤ 255 hops.
func TestWireTTLBudgetEnvelope(t *testing.T) {
	fib, p, g := buildWireFIB(t, wireCase{"ring:600", route.HopCount})
	if fib.Codec() != dataplane.CodecFlowLabel {
		t.Fatalf("ring:600 codec = %v; want flow-label", fib.Codec())
	}
	src, dst := graph.NodeID(0), graph.NodeID(200)
	failLink := p.Routes().NextLink(src, dst)
	fails := graph.NewFailureSet(failLink)

	res := p.Walk(src, dst, fails)
	if res.Outcome != core.Delivered {
		t.Fatalf("abstract walk: %v; want delivered", res.Outcome)
	}
	if res.Hops() <= 255 {
		t.Fatalf("abstract walk took %d hops; need > 255 to exercise the envelope", res.Hops())
	}

	st := dataplane.FromFailureSet(g.NumLinks(), fails)
	buf, err := fib.NewWireFrame(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	node, ingress := src, rotation.NoDart
	forwards := 0
	for {
		egress, verdict := fib.ForwardWire(node, ingress, st, buf)
		switch verdict {
		case dataplane.WireForward:
			forwards++
			if forwards > 300 {
				t.Fatal("wire walk still forwarding past any possible TTL budget")
			}
			node, ingress = fib.Head(egress), egress
			continue
		case dataplane.WireDropTTL:
			if forwards != 254 {
				t.Fatalf("TTL drop after %d forwards; want 254 (255-hop budget)", forwards)
			}
			return
		default:
			t.Fatalf("wire walk ended with %v after %d forwards; want WireDropTTL", verdict, forwards)
		}
	}
}
