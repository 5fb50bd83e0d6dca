package certify

import (
	"reflect"
	"strings"
	"testing"

	"recycle/internal/core"
	"recycle/internal/dataplane"
	"recycle/internal/embedding"
	"recycle/internal/failure"
	"recycle/internal/graph"
	"recycle/internal/rotation"
	"recycle/internal/route"
	"recycle/internal/topo"
)

// mustTopo resolves a topology spec or fails the test.
func mustTopo(t *testing.T, name string) topo.Topology {
	t.Helper()
	tp, err := topo.ByName(name)
	if err != nil {
		t.Fatalf("topo %q: %v", name, err)
	}
	return tp
}

// prWalker compiles a FIB for the topology (Auto embedding, hop-count
// discriminators — the harness defaults) and wraps it for certification.
func prWalker(t *testing.T, tp topo.Topology, v core.Variant) *PRWalker {
	t.Helper()
	g := tp.Graph
	sys := tp.Embedding
	if sys == nil {
		var err error
		sys, err = (embedding.Auto{Seed: 1}).Embed(g)
		if err != nil {
			t.Fatalf("embedding %s: %v", tp.Name, err)
		}
	}
	p, err := core.New(g, sys, route.Build(g, route.HopCount), core.Config{Variant: v})
	if err != nil {
		t.Fatal(err)
	}
	fib, err := dataplane.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	return NewPRWalker(fib)
}

func keysOf(cert *Certificate) map[string]bool {
	out := make(map[string]bool, len(cert.Counterexamples))
	for _, v := range cert.Counterexamples {
		out[v.Key()] = true
	}
	return out
}

func TestPRWalkerMatchesProtocolWalk(t *testing.T) {
	// The certification walker runs core's walk loop on the compiled FIB,
	// the protocol runs it on core's rule: for every pair under assorted
	// failure sets they must agree on the outcome and on every step.
	// Basic and an arbitrary (non-genus-0) rotation system make some walks
	// loop, and the last set cuts node 0 off, so refused decisions are
	// compared too.
	tp := mustTopo(t, "rand:10@4")
	g := tp.Graph
	planar, err := (embedding.Auto{Seed: 1}).Embed(g)
	if err != nil {
		t.Fatal(err)
	}
	arbitrary := rotation.Random(g, 3)
	if arbitrary.Genus() == 0 {
		t.Fatal("rotation.Random(rand:10@4, 3) is planar; pick another seed")
	}
	isolate0 := graph.NewFailureSet()
	for _, nb := range g.Neighbors(0) {
		isolate0.Add(nb.Link)
	}
	sets := []*graph.FailureSet{
		nil,
		graph.NewFailureSet(0),
		graph.NewFailureSet(1, 5),
		graph.NewFailureSet(2, 3, 7),
		graph.NewFailureSet(0, 4, 8, 12),
		isolate0,
	}
	outcomes := make(map[core.Outcome]int)
	for _, in := range []struct {
		sys *rotation.System
		v   core.Variant
	}{{planar, core.Full}, {planar, core.Basic}, {arbitrary, core.Full}} {
		p, err := core.New(g, in.sys, route.Build(g, route.HopCount), core.Config{Variant: in.v})
		if err != nil {
			t.Fatal(err)
		}
		fib, err := dataplane.Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		w := NewPRWalker(fib)
		for _, fs := range sets {
			for src := 0; src < g.NumNodes(); src++ {
				for dst := 0; dst < g.NumNodes(); dst++ {
					s, d := graph.NodeID(src), graph.NodeID(dst)
					got, want := w.Walk(s, d, fs), p.Walk(s, d, fs)
					if got.Outcome != want.Outcome || !reflect.DeepEqual(got.Steps, want.Steps) {
						t.Fatalf("%v genus %d, %d→%d under %v: walker %v %+v, protocol %v %+v",
							in.v, in.sys.Genus(), src, dst, fs, got.Outcome, got.Steps, want.Outcome, want.Steps)
					}
					outcomes[got.Outcome]++
				}
			}
		}
	}
	for _, o := range []core.Outcome{core.Delivered, core.Looped, core.Isolated} {
		if outcomes[o] == 0 {
			t.Errorf("no %v walk among the inputs: %v", o, outcomes)
		}
	}
}

func TestExhaustiveCertifiesPR(t *testing.T) {
	tp := mustTopo(t, "ring:12")
	cert, err := Exhaustive(tp.Graph, prWalker(t, tp, core.Full), Config{K: 2, Label: tp.Name, Genus: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !cert.Certified || cert.Method != "exhaustive" {
		t.Fatalf("expected exhaustive certification, got %+v", cert.Headline())
	}
	if want := int64(12 + 66); cert.DistinctSets != want {
		t.Fatalf("DistinctSets = %d, want %d", cert.DistinctSets, want)
	}
	if !strings.Contains(cert.Headline(), "certificate: CERTIFIED k=2") {
		t.Fatalf("headline missing the CI gate string: %q", cert.Headline())
	}
	var sb strings.Builder
	if err := cert.Write(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "zero violations") {
		t.Fatalf("report missing verdict text:\n%s", sb.String())
	}
}

func TestExhaustiveReconvCounterexample(t *testing.T) {
	tp := mustTopo(t, "ring:12")
	w := NewReconvWalker(tp.Graph)
	cert, err := Exhaustive(tp.Graph, w, Config{K: 2, Label: tp.Name, Genus: GenusUnknown})
	if err != nil {
		t.Fatal(err)
	}
	if cert.Certified || len(cert.Counterexamples) == 0 {
		t.Fatal("the stale-table baseline must fail certification on a ring")
	}
	v := cert.Counterexamples[0]
	if len(v.Elements) != 1 {
		t.Fatalf("smallest reconvergence counterexample should be one link, got %s", v.SetString())
	}
	if !v.Refereed {
		t.Fatal("counterexample not refereed by the oracle")
	}
	if v.Walk.Delivered() || len(v.Walk.Steps) == 0 {
		t.Fatalf("counterexample must carry an undelivered transcript, got %+v", v.Walk)
	}
	fl := v.Flight()
	if fl.Delivered() || !strings.Contains(fl.Explain(), "verdict:") {
		t.Fatalf("flight transcript malformed:\n%s", fl.Explain())
	}
	if !strings.Contains(cert.Headline(), "certificate: COUNTEREXAMPLE k=2") {
		t.Fatalf("headline: %q", cert.Headline())
	}
	var sb strings.Builder
	if err := cert.Write(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "violating walk") {
		t.Fatalf("report missing the violating walk:\n%s", sb.String())
	}
}

// TestCounterexampleMinimality brute-forces the certificate's minimality
// claim: every proper subset of an emitted set must be violation-free
// (delivered, or excused by disconnection) for the counterexample's pair.
func TestCounterexampleMinimality(t *testing.T) {
	cases := []struct {
		topo string
		mk   func(tp topo.Topology) Walker
	}{
		{"rand:10@5", func(tp topo.Topology) Walker { return NewReconvWalker(tp.Graph) }},
		{"rand:10@5", func(tp topo.Topology) Walker { return prWalker(t, tp, core.Basic) }},
		{"grid:3x4", func(tp topo.Topology) Walker { return prWalker(t, tp, core.Basic) }},
	}
	for _, tc := range cases {
		tp := mustTopo(t, tc.topo)
		w := tc.mk(tp)
		cert, err := Exhaustive(tp.Graph, w, Config{K: 3, Label: tp.Name})
		if err != nil {
			t.Fatal(err)
		}
		if len(cert.Counterexamples) == 0 {
			t.Fatalf("%s/%s: expected counterexamples", tc.topo, w.Name())
		}
		for _, v := range cert.Counterexamples {
			n := len(v.Elements)
			for size := 1; size < n; size++ {
				failure.Subsets(n, size, func(pick []int) bool {
					sub := make([]failure.Element, len(pick))
					for i, j := range pick {
						sub[i] = v.Elements[j]
					}
					fs := failure.FailureSetOf(tp.Graph, sub)
					walk := w.Walk(v.Src, v.Dst, fs)
					if !walk.Delivered() && graph.ReachableUnder(tp.Graph, v.Dst, fs)[v.Src] {
						t.Errorf("%s/%s: %s is not minimal: proper subset %v also violates",
							tc.topo, w.Name(), v.Key(), sub)
						return false
					}
					return true
				})
			}
		}
	}
}

// TestSearchDeterminism re-runs both strategies sequentially and fanned
// out and demands bit-identical certificates — the property that makes a
// certificate a reproducible artefact rather than a lucky draw.
func TestSearchDeterminism(t *testing.T) {
	tp := mustTopo(t, "rand:12@9")
	w := prWalker(t, tp, core.Basic)
	run := func(strategy func(*graph.Graph, Walker, Config) (*Certificate, error), workers int) *Certificate {
		cert, err := strategy(tp.Graph, w, Config{K: 3, Label: tp.Name, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return cert
	}
	for _, strategy := range []func(*graph.Graph, Walker, Config) (*Certificate, error){Exhaustive, Guided} {
		a, b := run(strategy, 0), run(strategy, 1)
		if a.Headline() != b.Headline() {
			t.Fatalf("non-deterministic headline:\n%s\n%s", a.Headline(), b.Headline())
		}
		if !reflect.DeepEqual(keysOf(a), keysOf(b)) {
			t.Fatal("non-deterministic counterexample sets")
		}
		if !reflect.DeepEqual(a.Stats, b.Stats) {
			t.Fatalf("non-deterministic search stats:\n%+v\n%+v", a.Stats, b.Stats)
		}
	}
}

// TestCertifyAutoStrategy checks the size-based dispatch: small
// universes sweep exhaustively, large ones fall back to guided.
func TestCertifyAutoStrategy(t *testing.T) {
	small := mustTopo(t, "ring:8")
	cert, err := Certify(small.Graph, NewReconvWalker(small.Graph), Config{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if cert.Method != "exhaustive" {
		t.Fatalf("small universe should sweep exhaustively, got %s", cert.Method)
	}
	big := mustTopo(t, "grid:10x40")
	cert, err = Certify(big.Graph, NewReconvWalker(big.Graph), Config{
		K:     3,
		Pairs: []Pair{{Src: 0, Dst: graph.NodeID(big.Graph.NumNodes() - 1)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if cert.Method != "guided" {
		t.Fatalf("large universe should use the guided search, got %s", cert.Method)
	}
	if len(cert.Counterexamples) == 0 {
		t.Fatal("stale-table baseline must fail even under guided search")
	}
}

// TestNegativeKRejected: a negative K would quantify over zero failure
// sets and certify vacuously, so every entry point refuses it; K = 0
// still selects the default of 2.
func TestNegativeKRejected(t *testing.T) {
	tp := mustTopo(t, "ring:8")
	w := NewReconvWalker(tp.Graph)
	for name, search := range map[string]func(*graph.Graph, Walker, Config) (*Certificate, error){
		"Certify": Certify, "Exhaustive": Exhaustive, "Guided": Guided,
	} {
		if cert, err := search(tp.Graph, w, Config{K: -1}); err == nil {
			t.Errorf("%s accepted K = -1: %s", name, cert.Headline())
		}
		cert, err := search(tp.Graph, w, Config{})
		if err != nil {
			t.Fatalf("%s with K = 0: %v", name, err)
		}
		if cert.K != 2 {
			t.Errorf("%s: K = 0 resolved to %d, want the default 2", name, cert.K)
		}
	}
}

// TestGuidedCertifiesPR runs the guided search against the Full PR
// walker, past the exhaustive budget: grid:8x8 has 112 links, so K = 3
// is ~230k sets. It must certify, and every walk it spends must be a DFS
// state — there is no second search behind the DFS.
func TestGuidedCertifiesPR(t *testing.T) {
	tp := mustTopo(t, "grid:8x8")
	cert, err := Certify(tp.Graph, prWalker(t, tp, core.Full), Config{
		K:     3,
		Pairs: []Pair{{Src: 0, Dst: 63}, {Src: 63, Dst: 0}, {Src: 3, Dst: 32}},
		Label: tp.Name,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cert.Method != "guided" {
		t.Fatalf("grid:8x8 at k=3 should use the guided search, got %s", cert.Method)
	}
	if !strings.Contains(cert.Headline(), "certificate: CERTIFIED k=3") {
		t.Fatalf("PR failed guided certification: %s", cert.Headline())
	}
	if cert.Stats.Walks > cert.Stats.DFSStates {
		t.Fatalf("%d walks for %d DFS states: walks outside the DFS", cert.Stats.Walks, cert.Stats.DFSStates)
	}
}

// TestNodeFailureUniverse exercises the node-element mode: failing an
// articulation-adjacent node excuses pairs behind it, and PR still
// certifies on the ring where any single node failure leaves every
// other pair connected.
func TestNodeFailureUniverse(t *testing.T) {
	tp := mustTopo(t, "ring:10")
	cert, err := Exhaustive(tp.Graph, prWalker(t, tp, core.Full), Config{K: 1, Mode: failure.NodeFailures, Label: tp.Name, Genus: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !cert.Certified {
		t.Fatalf("PR must certify single node failures on a ring: %s", cert.Headline())
	}
	if cert.UniverseSize != 10 {
		t.Fatalf("universe = %d, want 10 nodes", cert.UniverseSize)
	}
	// The stale-table baseline loses packets routed through a dead node.
	bad, err := Exhaustive(tp.Graph, NewReconvWalker(tp.Graph), Config{K: 1, Mode: failure.NodeFailures, Label: tp.Name, Genus: GenusUnknown})
	if err != nil {
		t.Fatal(err)
	}
	if bad.Certified {
		t.Fatal("reconvergence must not certify node failures on a ring")
	}
	for _, v := range bad.Counterexamples {
		if !v.Elements[0].IsNode() {
			t.Fatalf("node-mode counterexample names a link: %s", v.Key())
		}
	}
}

// TestPinScenarios round-trips a counterexample through the failure
// machinery: the pinned scenario must reproduce exactly the violating
// link set at t=0 and referee as connected for the pair.
func TestPinScenarios(t *testing.T) {
	tp := mustTopo(t, "ring:8")
	cert, err := Exhaustive(tp.Graph, NewReconvWalker(tp.Graph), Config{K: 1, Label: tp.Name})
	if err != nil {
		t.Fatal(err)
	}
	pins := cert.PinScenarios()
	if len(pins) != len(cert.Counterexamples) {
		t.Fatalf("pins = %d, counterexamples = %d", len(pins), len(cert.Counterexamples))
	}
	for i, sc := range pins {
		o, err := failure.NewOracle(tp.Graph, sc)
		if err != nil {
			t.Fatal(err)
		}
		v := cert.Counterexamples[i]
		if !o.ConnectedAt(v.Src, v.Dst, 0) {
			t.Fatalf("pin %d: oracle rules pair disconnected", i)
		}
		got := o.FailuresAt(0)
		if got.String() != v.Links.String() {
			t.Fatalf("pin %d: scenario failures %s != violation links %s", i, got, v.Links)
		}
	}
}
