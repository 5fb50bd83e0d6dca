package recycle_test

import (
	"bytes"
	"testing"
	"time"

	"recycle"
	"recycle/internal/core"
	"recycle/internal/graph"
	"recycle/internal/rotation"
	"recycle/internal/sim"
)

// TestWalkMatchesSimulator cross-validates the two execution engines: the
// combinatorial Walk and the discrete-event simulator must route a packet
// through the same node sequence when the simulator carries no competing
// traffic and failures are pre-detected.
func TestWalkMatchesSimulator(t *testing.T) {
	net, err := recycle.FromTopology("geant")
	if err != nil {
		t.Fatal(err)
	}
	g := net.Graph()
	fib, err := net.Compile()
	if err != nil {
		t.Fatal(err)
	}
	failSets, err := recycle.SampleFailures(g, 3, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, fs := range failSets {
		for srcI := 0; srcI < g.NumNodes(); srcI += 4 {
			for dstI := 0; dstI < g.NumNodes(); dstI += 3 {
				if srcI == dstI {
					continue
				}
				src, dst := recycle.NodeID(srcI), recycle.NodeID(dstI)
				walk := net.RouteIDs(src, dst, fs)

				s, err := sim.New(sim.Config{
					Graph:          g,
					Scheme:         &sim.PRScheme{FIB: fib},
					Horizon:        10 * time.Second,
					DetectionDelay: time.Microsecond,
					Flows: []sim.Flow{{
						Src: src, Dst: dst,
						Interval: time.Hour, // exactly one packet
						Start:    time.Second,
					}},
				})
				if err != nil {
					t.Fatal(err)
				}
				// Fail links at t=0 so detection completes long before the
				// packet launches at t=1s.
				for _, l := range fs.Links() {
					s.FailLinkAt(l, 0)
				}
				st := s.Run()
				if walk.Delivered() {
					if st.Counter(sim.MetricDelivered) != 1 {
						t.Fatalf("failures %v %d→%d: walk delivered but sim did not (%+v)",
							fs, srcI, dstI, st.Counters)
					}
					if hops := int(st.Counter(sim.MetricHops)); hops != walk.Hops() {
						t.Fatalf("failures %v %d→%d: sim hops %d != walk hops %d",
							fs, srcI, dstI, hops, walk.Hops())
					}
				} else if st.Counter(sim.MetricDelivered) != 0 {
					t.Fatalf("failures %v %d→%d: walk dropped but sim delivered", fs, srcI, dstI)
				}
			}
		}
	}
}

// TestEmbeddingSaveLoadRoundTrip: the §4.3 distribution artefact — the
// embedding computed offline, serialised, and reloaded — must reproduce
// identical forwarding.
func TestEmbeddingSaveLoadRoundTrip(t *testing.T) {
	net, err := recycle.FromTopology("abilene")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := net.SaveEmbedding(&buf); err != nil {
		t.Fatal(err)
	}
	sys, err := recycle.LoadEmbedding(&buf, net.Graph())
	if err != nil {
		t.Fatal(err)
	}
	net2, err := recycle.NewNetwork(net.Graph(), recycle.WithEmbedding(sys))
	if err != nil {
		t.Fatal(err)
	}
	if net2.Genus() != net.Genus() {
		t.Fatalf("genus changed across save/load: %d -> %d", net.Genus(), net2.Genus())
	}
	// Identical walks under identical failures.
	for _, fs := range recycle.SingleFailures(net.Graph()) {
		for src := 0; src < net.Graph().NumNodes(); src++ {
			for dst := 0; dst < net.Graph().NumNodes(); dst++ {
				if src == dst {
					continue
				}
				a := net.RouteIDs(recycle.NodeID(src), recycle.NodeID(dst), fs)
				b := net2.RouteIDs(recycle.NodeID(src), recycle.NodeID(dst), fs)
				if a.Outcome != b.Outcome || a.Cost != b.Cost || len(a.Steps) != len(b.Steps) {
					t.Fatalf("walk diverged after embedding reload: %d→%d under %v", src, dst, fs)
				}
			}
		}
	}
}

// TestPerHopDecideAgreesWithWalk: Decide applied step by step must replay
// Walk's transcript exactly (the contract package sim depends on).
func TestPerHopDecideAgreesWithWalk(t *testing.T) {
	net, err := recycle.FromTopology("teleglobe")
	if err != nil {
		t.Fatal(err)
	}
	g := net.Graph()
	p := net.Protocol()
	fs := graph.NewFailureSet(2, 9, 17)
	for src := 0; src < g.NumNodes(); src += 2 {
		for dst := 0; dst < g.NumNodes(); dst += 5 {
			if src == dst {
				continue
			}
			walk := p.Walk(recycle.NodeID(src), recycle.NodeID(dst), fs)
			if !walk.Delivered() {
				continue
			}
			node := recycle.NodeID(src)
			ingress := rotation.NoDart
			hdr := recycle.Header{}
			for i, step := range walk.Steps {
				if node != step.Node {
					t.Fatalf("%d→%d step %d: replay at node %d, walk at %d", src, dst, i, node, step.Node)
				}
				if i == len(walk.Steps)-1 {
					break // delivery step has no egress
				}
				d := p.Decide(node, recycle.NodeID(dst), ingress, hdr, fs)
				if !d.OK || d.Egress != step.Egress {
					t.Fatalf("%d→%d step %d: Decide egress %v, walk egress %v", src, dst, i, d.Egress, step.Egress)
				}
				if d.Header != step.Header {
					t.Fatalf("%d→%d step %d: Decide header %+v, walk header %+v", src, dst, i, d.Header, step.Header)
				}
				hdr = d.Header
				ingress = d.Egress
				node = g.Link(rotation.LinkOf(d.Egress)).Other(node)
			}
		}
	}
}

// TestTranscriptCarriesWireRank: the interpreted protocol, the compiled FIB
// and the wire hold the discriminator in one unit, the quantiser's rank,
// under both discriminators and across Update. Every hop of a recovered walk
// is the FIB's decision, header included, and every stamp is the rank
// FIB.WireDD reports for the detecting router.
func TestTranscriptCarriesWireRank(t *testing.T) {
	for _, disc := range []recycle.Discriminator{recycle.HopCount, recycle.WeightSum} {
		net, err := recycle.FromTopology("geant", recycle.WithDiscriminator(disc))
		if err != nil {
			t.Fatal(err)
		}
		updated, _, err := net.Update(recycle.SetWeight(3, 2*net.Graph().Weight(3)))
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []*recycle.Network{net, updated} {
			fib, err := n.Compile()
			if err != nil {
				t.Fatal(err)
			}
			g := n.Graph()
			fs := graph.NewFailureSet(0)
			st := recycle.LinkStateFrom(g.NumLinks(), fs)
			stamps := 0
			for src := 0; src < g.NumNodes(); src++ {
				dst := recycle.NodeID((src + 7) % g.NumNodes())
				walk := n.RouteIDs(recycle.NodeID(src), dst, fs)
				hdr := recycle.Header{}
				for i, step := range walk.Steps[:len(walk.Steps)-1] {
					d := fib.Decide(step.Node, dst, step.Ingress, hdr, st)
					if !d.OK || d.Egress != step.Egress || d.Event != step.Event || d.Header != step.Header {
						t.Fatalf("%v %d→%d step %d: FIB decides %+v, the walk took %+v", disc, src, dst, i, d, step)
					}
					if step.Event == core.EventDetect {
						rank, ok := fib.WireDD(step.Node, dst)
						if !ok || step.Header.DD != float64(rank) {
							t.Fatalf("%v %d→%d step %d: stamped %v, the wire carries rank %d", disc, src, dst, i, step.Header.DD, rank)
						}
						stamps++
					}
					hdr = step.Header
				}
			}
			if stamps == 0 {
				t.Fatalf("%v: no walk met the failure", disc)
			}
		}
	}
}
