package eval

import (
	"testing"

	"recycle/internal/core"
	"recycle/internal/dataplane"
	"recycle/internal/embedding"
	"recycle/internal/graph"
	"recycle/internal/rotation"
	"recycle/internal/route"
)

// TestBuildStackMatchesStanza: the one stack builder yields the FIB the
// stanza it replaced — embedding or Auto{Seed:1}, hop-count tables, the
// Full protocol, Compile — yielded at every site that wrote it out, for
// a topology that ships an embedding and for one that does not.
func TestBuildStackMatchesStanza(t *testing.T) {
	for _, name := range []string{"ring:8", "rand:24@7"} {
		tp := mustTopo(t, name)
		st, err := buildStack(tp, dataplane.CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		g, sys := tp.Graph, tp.Embedding
		if shipped := sys != nil; shipped != (name == "ring:8") || shipped && st.sys != sys {
			t.Fatalf("%s: shipped embedding %v, stack uses it %v", name, shipped, st.sys == sys)
		}
		if sys == nil {
			if sys, err = (embedding.Auto{Seed: 1}).Embed(g); err != nil {
				t.Fatal(err)
			}
		}
		prot, err := core.New(g, sys, route.Build(g, route.HopCount), core.Config{Variant: core.Full})
		if err != nil {
			t.Fatal(err)
		}
		want, err := dataplane.Compile(prot)
		if err != nil {
			t.Fatal(err)
		}
		got := st.fib
		if got.MemBytes() != want.MemBytes() || got.Codec() != want.Codec() || got.DDBits() != want.DDBits() {
			t.Fatalf("%s: FIB %d B %v %d bits; stanza %d B %v %d bits", name,
				got.MemBytes(), got.Codec(), got.DDBits(), want.MemBytes(), want.Codec(), want.DDBits())
		}
		// Sweep Decide with link 0 down: fresh packets and mid-recovery
		// ones arriving on every dart.
		links := dataplane.NewLinkState(g.NumLinks())
		links.Set(0, true)
		for n := graph.NodeID(0); int(n) < g.NumNodes(); n++ {
			ingresses := []rotation.DartID{rotation.NoDart}
			for _, nb := range g.Neighbors(n) {
				ingresses = append(ingresses, rotation.ReverseID(sys.OutgoingDart(n, nb.Link)))
			}
			for d := graph.NodeID(0); int(d) < g.NumNodes(); d++ {
				for _, in := range ingresses {
					for _, hdr := range []core.Header{{}, {PR: true, DD: 1}} {
						if a, b := got.Decide(n, d, in, hdr, links), want.Decide(n, d, in, hdr, links); a != b {
							t.Fatalf("%s: Decide(%d→%d, ingress %d, %+v) = %+v; stanza %+v", name, n, d, in, hdr, a, b)
						}
					}
				}
			}
		}
	}
}
