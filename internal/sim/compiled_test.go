package sim

import (
	"testing"
	"time"

	"recycle/internal/core"
	"recycle/internal/graph"
	"recycle/internal/rotation"
	"recycle/internal/telemetry"
	"recycle/internal/topo"
	"recycle/internal/traffic"
)

// protocolScheme forwards with core.Protocol itself: the reference the
// compiled PRScheme is held to.
type protocolScheme struct{ p *core.Protocol }

func (r protocolScheme) Name() string { return "packet-recycling-" + r.p.Variant().String() }

func (protocolScheme) Init(*Simulator) {}

func (r protocolScheme) Process(s *Simulator, node graph.NodeID, pkt *Packet) (rotation.DartID, core.Event, bool) {
	hdr, _ := pkt.State.(core.Header)
	d := r.p.Decide(node, pkt.Dst, pkt.Ingress, hdr, s.KnownFailures())
	if d.OK {
		pkt.State = d.Header
	}
	return d.Egress, d.Event, d.OK
}

func (protocolScheme) TopologyChanged(*Simulator, graph.LinkID, bool) {}

func (protocolScheme) Converge(*Simulator) {}

// TestCompiledSchemeMatchesInterpreted: the discrete-event simulator must
// produce identical outcomes whether PR runs on core.Protocol or on the
// compiled FIB — same deliveries, same drops, same latency distribution.
func TestCompiledSchemeMatchesInterpreted(t *testing.T) {
	tp := topo.Abilene(topo.DistanceWeights)
	g := tp.Graph
	prot := prProtocol(t, g, core.Full)
	interpreted := protocolScheme{prot}
	compiled := compiledScheme(t, prot)

	run := func(scheme Scheme) *telemetry.Snapshot {
		s, err := New(Config{
			Graph:          g,
			Scheme:         scheme,
			Flows:          []Flow{{Src: 0, Dst: 5, Source: traffic.Fixed{Interval: time.Millisecond}}, {Src: 3, Dst: 9, Source: traffic.Fixed{Interval: time.Millisecond}}},
			Horizon:        2 * time.Second,
			DetectionDelay: 40 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		// A failure mid-run and a repair near the end exercise both
		// directions of the link-state mirror.
		s.FailLinkAt(graph.LinkID(0), 500*time.Millisecond)
		s.FailLinkAt(graph.LinkID(4), 900*time.Millisecond)
		s.RepairLinkAt(graph.LinkID(0), 1400*time.Millisecond)
		return s.Run()
	}

	a := run(interpreted)
	b := run(compiled)
	if ta, tb := TotalsOf(a), TotalsOf(b); ta != tb {
		t.Fatalf("compiled scheme diverged: interpreted %+v, compiled %+v", ta, tb)
	}
	if MaxLatency(a) != MaxLatency(b) {
		t.Fatalf("compiled scheme diverged on max latency: %v vs %v", MaxLatency(a), MaxLatency(b))
	}
}
