package dataplane_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"recycle/internal/core"
	"recycle/internal/dataplane"
	"recycle/internal/embedding"
	"recycle/internal/graph"
	"recycle/internal/header"
	"recycle/internal/rotation"
	"recycle/internal/route"
	"recycle/internal/telemetry"
	"recycle/internal/topo"
)

// buildProtocol assembles a core.Protocol over g with the given rotation
// system, discriminator and variant.
func buildProtocol(t testing.TB, g *graph.Graph, sys *rotation.System, disc route.Discriminator, v core.Variant) *core.Protocol {
	t.Helper()
	p, err := core.New(g, sys, route.Build(g, disc), core.Config{Variant: v})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// references returns the protocols a FIB compiled from p is held to. twin
// is the Config.Quantise protocol over p's graph, embedding and tables (p
// itself when it is one): the contract, Header included, on every input;
// core's invariant_test.go proves it step-identical to the raw protocol.
// raw is that raw protocol, non-nil for hop counts only: there the rank is
// the hop count, so the FIB must equal it too.
func references(t testing.TB, p *core.Protocol) (twin, raw *core.Protocol) {
	t.Helper()
	as := func(quantise bool) *core.Protocol {
		if quantise == (p.Quantiser() != nil) {
			return p
		}
		q, err := core.New(p.Graph(), p.System(), p.Routes(), core.Config{Variant: p.Variant(), Quantise: quantise})
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	twin = as(true)
	if p.Routes().DiscriminatorKind() == route.HopCount {
		raw = as(false)
	}
	return twin, raw
}

// ddProbes returns the header DD values worth testing toward dst: every
// rank any node holds (the only values real operation can stamp), plus
// off-by-half probes to hit both sides of the strict comparison, plus zero,
// plus three values only a forged header carries — below every rank, and at
// and above the float a narrowed RankUnreachable would read as.
func ddProbes(q *core.Quantiser, g *graph.Graph, dst graph.NodeID) []float64 {
	seen := map[float64]bool{0: true}
	out := []float64{0}
	for n := 0; n < g.NumNodes(); n++ {
		rank := q.Rank(graph.NodeID(n), dst)
		if rank == core.RankUnreachable {
			continue
		}
		for _, v := range []float64{float64(rank), float64(rank) + 0.5} {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return append(out, -1, 1<<32, math.Inf(1))
}

// checkBatches holds the batch entry points to Decide: probes, packed into
// batches, must come out of DecideBatch and DecideBatchTally exactly as
// Decide decides each packet alone. On the empty failure set every batch
// takes the all-up loop; otherwise three packings put both of the failed
// network's loops under every probe: probe order (long PR-set runs: the
// masked loop), shuffled (the same share in no order), and shuffled behind
// a head of PR-clear probes as long as the sample DecideBatch takes (the
// branch loop, which so meets the re-cycling packets and the failures too).
func checkBatches(t *testing.T, fib *dataplane.FIB, st *dataplane.LinkState, probes []dataplane.Packet, seed int64) {
	t.Helper()
	var tally [telemetry.TallySize]uint64
	entries := []struct {
		name   string
		decide func([]dataplane.Packet)
	}{
		{"DecideBatch", func(b []dataplane.Packet) { fib.DecideBatch(b, st) }},
		{"DecideBatchTally", func(b []dataplane.Packet) { fib.DecideBatchTally(b, st, &tally) }},
	}
	const batchLen, sample = 256, 32
	want, got := make([]dataplane.Packet, 0, batchLen), make([]dataplane.Packet, 0, batchLen)
	check := func(packing string, batch []dataplane.Packet) {
		want = append(want[:0], batch...)
		for i := range want {
			p := &want[i]
			d := fib.Decide(p.Node, p.Dst, p.Ingress, p.Hdr, st)
			p.Egress, p.Event, p.Hdr, p.OK = d.Egress, d.Event, d.Header, d.OK
		}
		for _, e := range entries {
			got = append(got[:0], batch...)
			e.decide(got)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s, %s, packet %d of %d (%d links down): %+v, Decide says %+v",
						e.name, packing, i, len(got), st.CountDown(), got[i], want[i])
				}
			}
		}
	}
	shuffled := append([]dataplane.Packet(nil), probes...)
	rand.New(rand.NewSource(seed)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for lo := 0; lo < len(probes); lo += batchLen {
		hi := min(lo+batchLen, len(probes))
		check("probe order", probes[lo:hi])
		check("shuffled", shuffled[lo:hi])
	}
	var behind []dataplane.Packet
	for _, p := range probes {
		if !p.Hdr.PR && len(behind) < sample {
			behind = append(behind, p)
		}
	}
	if len(behind) < sample {
		return
	}
	for lo := 0; lo < len(shuffled); lo += batchLen - sample {
		behind = append(behind[:sample], shuffled[lo:min(lo+batchLen-sample, len(shuffled))]...)
		check("behind a clear sample", behind)
	}
}

// diffProtocol exhaustively compares FIB.Decide against the Decide of
// p's references over every node, destination, ingress dart and header
// probe, under each failure set. Decisions must be bit-identical: same
// egress dart, same event, same output header, not-OK exits included. Each
// failure set's probes then go through the batch entry points as well
// (checkBatches).
func diffProtocol(t *testing.T, p *core.Protocol, failsets []*graph.FailureSet) {
	t.Helper()
	fib, err := dataplane.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	g := p.Graph()
	sys := p.System()
	tbl := p.Routes()
	twin, raw := references(t, p)
	reference := func(node, dst graph.NodeID, in rotation.DartID, hdr core.Header, fs *graph.FailureSet) core.Decision {
		want := twin.Decide(node, dst, in, hdr, fs)
		if raw != nil {
			if d := raw.Decide(node, dst, in, hdr, fs); d != want {
				t.Fatalf("%v: Decide(%d→%d, in=%d, hdr=%+v): raw protocol %+v, quantised twin %+v", fs, node, dst, in, hdr, d, want)
			}
		}
		return want
	}
	checked := 0
	var probes []dataplane.Packet
	for fi, fs := range failsets {
		st := dataplane.FromFailureSet(g.NumLinks(), fs)
		probes = probes[:0]
		for node := 0; node < g.NumNodes(); node++ {
			for dst := 0; dst < g.NumNodes(); dst++ {
				nid, did := graph.NodeID(node), graph.NodeID(dst)
				// PR-clear decisions; ingress is irrelevant to the rule.
				want := reference(nid, did, rotation.NoDart, core.Header{}, fs)
				got := fib.Decide(nid, did, rotation.NoDart, core.Header{}, st)
				if got != want {
					t.Fatalf("failset %d %v: Decide(%d→%d, clear) = %+v, core says %+v", fi, fs, node, dst, got, want)
				}
				probes = append(probes, dataplane.Packet{Node: nid, Dst: did, Ingress: rotation.NoDart})
				checked++
				if !tbl.Reachable(nid, did) {
					continue // the raw protocol's DD panics on unreachable pairs
				}
				// PR-set decisions from every ingress interface.
				for _, nb := range g.Neighbors(nid) {
					in := rotation.ReverseID(sys.OutgoingDart(nid, nb.Link))
					for _, dd := range ddProbes(twin.Quantiser(), g, did) {
						hdr := core.Header{PR: true, DD: dd}
						want := reference(nid, did, in, hdr, fs)
						got := fib.Decide(nid, did, in, hdr, st)
						if got != want {
							t.Fatalf("failset %d %v: Decide(%d→%d, in=%d, dd=%v) = %+v, core says %+v",
								fi, fs, node, dst, in, dd, got, want)
						}
						probes = append(probes, dataplane.Packet{Node: nid, Dst: did, Ingress: in, Hdr: hdr})
						checked++
					}
				}
			}
		}
		// Single-goroutine work the race detector only slows (5× on this
		// package): one failure set in eight under -race.
		if !raceEnabled || fi%8 == 0 {
			checkBatches(t, fib, st, probes, int64(fi)+1)
		}
	}
	if checked == 0 {
		t.Fatal("differential sweep compared nothing")
	}
}

// multiFailsets collects every connectivity-preserving single failure plus
// sampled multi-failure scenarios.
func multiFailsets(t testing.TB, g *graph.Graph, ks []int, perK int, seed int64) []*graph.FailureSet {
	t.Helper()
	out := graph.SingleFailureScenarios(g)
	for _, k := range ks {
		if k >= g.NumLinks() {
			continue
		}
		fss, err := graph.SampleFailureScenarios(g, k, perK, seed+int64(k))
		if err != nil {
			continue // graph too fragile for k failures; singles still cover it
		}
		out = append(out, fss...)
	}
	// The empty set exercises the pure fast path.
	out = append(out, graph.NewFailureSet())
	return out
}

// TestCompiledMatchesBuiltins proves FIB ≡ its references' Decide on all
// built-in topologies, both variants, both discriminators, under single
// and multi-failure scenarios.
func TestCompiledMatchesBuiltins(t *testing.T) {
	for _, name := range topo.Names() {
		tp, err := topo.ByName(name)
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
		failsets := multiFailsets(t, tp.Graph, []int{2, 4}, 4, 11)
		for _, v := range []core.Variant{core.Basic, core.Full} {
			for _, disc := range []route.Discriminator{route.HopCount, route.WeightSum} {
				t.Run(fmt.Sprintf("%s/%s/%s", name, v, disc), func(t *testing.T) {
					diffProtocol(t, buildProtocol(t, tp.Graph, sys, disc, v), failsets)
				})
			}
		}
	}
}

// TestCompiledMatchesRandomGraphs proves the equivalence on ≥ 50 random
// 2-edge-connected topologies under random rotation systems — PR must be
// correct (and the compiler faithful) under *any* embedding.
func TestCompiledMatchesRandomGraphs(t *testing.T) {
	const graphs = 60
	for seed := int64(1); seed <= graphs; seed++ {
		n := 6 + int(seed%9)     // 6..14 nodes
		m := n + 2 + int(seed)%n // sparse to moderately meshed
		g := graph.RandomTwoConnected(n, m, seed)
		sys := rotation.Random(g, seed*7)
		failsets := multiFailsets(t, g, []int{2, 3}, 3, seed)
		v := core.Full
		disc := route.HopCount
		if seed%2 == 0 {
			v = core.Basic
		}
		if seed%3 == 0 {
			disc = route.WeightSum
		}
		t.Run(fmt.Sprintf("seed%d-n%d-m%d-%s-%s", seed, n, m, v, disc), func(t *testing.T) {
			diffProtocol(t, buildProtocol(t, g, sys, disc, v), failsets)
		})
	}
}

// FuzzCompiledDecide cross-checks single decisions against core — the
// quantised twin, and the raw protocol it equals on hop counts — on fuzzed
// (graph, failure set, packet state) coordinates.
func FuzzCompiledDecide(f *testing.F) {
	f.Add(int64(3), uint8(1), uint8(2), uint8(4), uint8(0), false, float64(2))
	f.Add(int64(9), uint8(0), uint8(7), uint8(1), uint8(3), true, float64(3.5))
	f.Add(int64(9), uint8(0), uint8(7), uint8(1), uint8(3), true, float64(-1))
	f.Add(int64(5), uint8(2), uint8(6), uint8(0), uint8(1), true, float64(1<<32))
	f.Add(int64(5), uint8(2), uint8(6), uint8(0), uint8(1), true, math.Inf(1))
	f.Fuzz(func(t *testing.T, seed int64, nodeSel, dstSel, inSel, failSel uint8, pr bool, dd float64) {
		if seed < 0 {
			seed = -seed
		}
		n := 6 + int(seed%8)
		g := graph.RandomTwoConnected(n, n+3+int(seed%5), seed%64+1)
		sys := rotation.Random(g, seed%64+2)
		tbl := route.Build(g, route.HopCount)
		p, err := core.New(g, sys, tbl, core.Config{Variant: core.Variant(seed % 2)})
		if err != nil {
			t.Fatal(err)
		}
		fib, err := dataplane.Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		node := graph.NodeID(int(nodeSel) % g.NumNodes())
		dst := graph.NodeID(int(dstSel) % g.NumNodes())
		fs := graph.NewFailureSet(graph.LinkID(int(failSel) % g.NumLinks()))
		if !graph.ConnectedUnder(g, fs) {
			fs = graph.NewFailureSet()
		}
		st := dataplane.FromFailureSet(g.NumLinks(), fs)
		ingress := rotation.NoDart
		if pr {
			if dd != dd {
				dd = 1 // NaN is unequal to itself, so no Decision carrying it compares
			}
			nbrs := g.Neighbors(node)
			nb := nbrs[int(inSel)%len(nbrs)]
			ingress = rotation.ReverseID(sys.OutgoingDart(node, nb.Link))
		}
		hdr := core.Header{PR: pr, DD: dd}
		twin, raw := references(t, p)
		want := twin.Decide(node, dst, ingress, hdr, fs)
		if d := raw.Decide(node, dst, ingress, hdr, fs); d != want {
			t.Fatalf("Decide(%d→%d, in=%d, hdr=%+v, fails=%v): raw protocol %+v, quantised twin %+v",
				node, dst, ingress, hdr, fs, d, want)
		}
		got := fib.Decide(node, dst, ingress, hdr, st)
		if got != want {
			t.Fatalf("Decide(%d→%d, in=%d, hdr=%+v, fails=%v) = %+v, core says %+v",
				node, dst, ingress, hdr, fs, got, want)
		}
		checkBatches(t, fib, st, []dataplane.Packet{{Node: node, Dst: dst, Ingress: ingress, Hdr: hdr}}, seed)
	})
}

// TestDecideRefusesMarkedPacketWithoutIngress: core.Protocol panics on
// this caller-bug state, but the dataplane faces untrusted inputs and
// must refuse instead of crashing — through Decide and DecideBatch both.
func TestDecideRefusesMarkedPacketWithoutIngress(t *testing.T) {
	tp := topo.Abilene(topo.DistanceWeights)
	sys, err := (embedding.Auto{Seed: 1}).Embed(tp.Graph)
	if err != nil {
		t.Fatal(err)
	}
	fib, err := dataplane.Compile(buildProtocol(t, tp.Graph, sys, route.HopCount, core.Full))
	if err != nil {
		t.Fatal(err)
	}
	st := dataplane.FromFailureSet(tp.Graph.NumLinks(), nil)
	hdr := core.Header{PR: true, DD: 2}
	if d := fib.Decide(0, 5, rotation.NoDart, hdr, st); d.OK {
		t.Fatalf("Decide accepted a PR-marked packet with no ingress: %+v", d)
	}
	pkts := []dataplane.Packet{{Node: 0, Dst: 5, Ingress: rotation.NoDart, Hdr: hdr}}
	fib.DecideBatch(pkts, st)
	if pkts[0].OK {
		t.Fatalf("DecideBatch accepted a PR-marked packet with no ingress: %+v", pkts[0])
	}
}

var decisionSink core.Decision

// TestStateSizes pins the width of the per-packet state, which is what the
// 32-bit identifiers and the one-byte Event bought: a Packet and a
// WirePacket are 40 bytes, so a 65 536-packet pool is 2.6 MB, not 4.7. A
// Decision must stay within 32 bytes AND four fields: that is the
// compiler's limit (ssa.CanSSA: 4 words, 4 fields, each field likewise)
// for keeping a struct in registers, and a Decision past it is built in
// memory on every Decide return — 10 ns a decision instead of 3. The tree
// planes' 16 bytes a node are pinned by graph's TestBuilderAllocs; the
// last row pins a dense FIB entry.
func TestStateSizes(t *testing.T) {
	if got := unsafe.Sizeof(dataplane.Packet{}); got != 40 {
		t.Errorf("Packet is %d bytes; want 40", got)
	}
	if got := unsafe.Sizeof(dataplane.WirePacket{}); got != 40 {
		t.Errorf("WirePacket is %d bytes; want 40", got)
	}
	var canSSA func(ty reflect.Type) bool
	canSSA = func(ty reflect.Type) bool {
		if ty.Size() > 4*unsafe.Sizeof(uintptr(0)) {
			return false
		}
		if ty.Kind() != reflect.Struct {
			return true
		}
		for i := 0; i < ty.NumField(); i++ {
			if !canSSA(ty.Field(i).Type) {
				return false
			}
		}
		return ty.NumField() <= 4
	}
	if d := reflect.TypeOf(core.Decision{}); !canSSA(d) {
		t.Errorf("core.Decision is %d bytes in %d fields; the compiler keeps it in registers only up to 32 bytes and 4 fields",
			d.Size(), d.NumField())
	}
	// A dense FIB entry is a dart and a rank, 8 bytes per (node, dst): the
	// rank is the only discriminator stored. The rest of MemBytes is the
	// dart tables: faceGuard (2m+1), sigma and head (2m each), 4 bytes an
	// entry.
	tp := topo.Geant(topo.DistanceWeights)
	sys, err := (embedding.Auto{Seed: 1}).Embed(tp.Graph)
	if err != nil {
		t.Fatal(err)
	}
	fib, err := dataplane.Compile(buildProtocol(t, tp.Graph, sys, route.HopCount, core.Full))
	if err != nil {
		t.Fatal(err)
	}
	n, m := int64(tp.Graph.NumNodes()), int64(tp.Graph.NumLinks())
	if got := fib.MemBytes() - (6*m+1)*4; fib.SharedColumns() || got != n*n*8 {
		t.Errorf("geant FIB (shared=%v) holds %d bytes of columns; want %d, 8 per entry", fib.SharedColumns(), got, n*n*8)
	}
}

// TestDecideZeroAllocs pins the hot-path property the subsystem exists
// for: a compiled forwarding decision allocates nothing.
func TestDecideZeroAllocs(t *testing.T) {
	tp := topo.Geant(topo.DistanceWeights)
	sys, err := (embedding.Auto{Seed: 1}).Embed(tp.Graph)
	if err != nil {
		t.Fatal(err)
	}
	p := buildProtocol(t, tp.Graph, sys, route.HopCount, core.Full)
	fib, err := dataplane.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	st := dataplane.FromFailureSet(tp.Graph.NumLinks(), graph.NewFailureSet(0))
	ingress := rotation.DartID(4)
	node := tp.Graph.Link(rotation.LinkOf(ingress)).B
	dst := graph.NodeID(tp.Graph.NumNodes() - 1)
	cases := []core.Header{
		{},                  // shortest-path fast path
		{PR: true, DD: 3},   // cycle following
		{PR: true, DD: 0.5}, // termination test → resume
	}
	// The shared-column layout must stay on the allocation-free decide
	// path too: its accessors index page tables instead of dense planes,
	// but never allocate.
	shared, err := dataplane.CompileWithOptions(p, nil,
		dataplane.CompileOptions{Columns: dataplane.ColumnsShared})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []*dataplane.FIB{fib, shared} {
		f := f
		for _, hdr := range cases {
			hdr := hdr
			if allocs := testing.AllocsPerRun(200, func() {
				decisionSink = f.Decide(node, dst, ingress, hdr, st)
			}); allocs != 0 {
				t.Errorf("Decide(hdr=%+v, shared=%v) allocates %.1f per op, want 0",
					hdr, f.SharedColumns(), allocs)
			}
		}
	}
}

// TestCompileCodecSelection: Compile picks DSCP whenever the quantised
// code fits its 3 DD bits and the flow label otherwise — per network, the
// decision the paper leaves to the operator made mechanical.
func TestCompileCodecSelection(t *testing.T) {
	cases := []struct {
		name  string
		g     *graph.Graph
		disc  route.Discriminator
		codec dataplane.Codec
	}{
		{"abilene/hop", topo.Abilene(topo.DistanceWeights).Graph, route.HopCount, dataplane.CodecDSCP},
		{"geant/hop", topo.Geant(topo.DistanceWeights).Graph, route.HopCount, dataplane.CodecDSCP},
		{"geant/weight", topo.Geant(topo.DistanceWeights).Graph, route.WeightSum, dataplane.CodecFlowLabel},
		{"ring24/hop", graph.Ring(24), route.HopCount, dataplane.CodecFlowLabel},
		{"ring14/hop", graph.Ring(14), route.HopCount, dataplane.CodecDSCP},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := (embedding.Auto{Seed: 1}).Embed(tc.g)
			if err != nil {
				t.Fatal(err)
			}
			fib, err := dataplane.Compile(buildProtocol(t, tc.g, sys, tc.disc, core.Full))
			if err != nil {
				t.Fatal(err)
			}
			if fib.Codec() != tc.codec {
				t.Fatalf("codec = %v (dd bits %d); want %v", fib.Codec(), fib.DDBits(), tc.codec)
			}
			if tc.codec == dataplane.CodecDSCP && fib.DDBits() > header.DDBits {
				t.Fatalf("DSCP selected for %d-bit codes", fib.DDBits())
			}
			if tc.codec == dataplane.CodecFlowLabel && fib.DDBits() <= header.DDBits {
				t.Fatalf("flow label selected for %d-bit codes", fib.DDBits())
			}
		})
	}
}

// TestWireDDMatchesQuantiser: the FIB's wire discriminators are exactly
// the core quantiser's ranks, and every reachable pair has an encodable
// one — the structural claim behind removing the overflow drop class.
func TestWireDDMatchesQuantiser(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		n := 8 + int(seed%8)
		g := graph.RandomTwoConnected(n, n+4, seed)
		sys := rotation.Random(g, seed)
		disc := route.HopCount
		if seed%2 == 0 {
			disc = route.WeightSum
		}
		tbl := route.Build(g, disc)
		p, err := core.New(g, sys, tbl, core.Config{Variant: core.Full})
		if err != nil {
			t.Fatal(err)
		}
		fib, err := dataplane.Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		q := core.BuildQuantiser(tbl)
		maxEnc := uint32(1)<<fib.DDBits() - 1
		for node := 0; node < n; node++ {
			for dst := 0; dst < n; dst++ {
				nid, did := graph.NodeID(node), graph.NodeID(dst)
				rank, ok := fib.WireDD(nid, did)
				if ok != tbl.Reachable(nid, did) {
					t.Fatalf("seed %d: WireDD(%d,%d) ok=%v, reachable=%v", seed, node, dst, ok, tbl.Reachable(nid, did))
				}
				if !ok {
					continue
				}
				if rank != q.Rank(nid, did) {
					t.Fatalf("seed %d: WireDD(%d,%d) = %d, quantiser says %d", seed, node, dst, rank, q.Rank(nid, did))
				}
				if rank > maxEnc {
					t.Fatalf("seed %d: rank %d exceeds the %d-bit budget", seed, rank, fib.DDBits())
				}
			}
		}
	}
}

// TestCompiledMatchesQuantisedProtocol: compiling a Config.Quantise
// protocol must keep Decide bit-identical to it — the compiled dd table
// holds ranks, the same units the quantised protocol stamps into
// Header.DD — under both discriminators and random embeddings.
func TestCompiledMatchesQuantisedProtocol(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		n := 8 + int(seed%6)
		g := graph.RandomTwoConnected(n, n+4, seed)
		sys := rotation.Random(g, seed*3)
		disc := route.HopCount
		if seed%2 == 0 {
			disc = route.WeightSum
		}
		p, err := core.New(g, sys, route.Build(g, disc), core.Config{Variant: core.Full, Quantise: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Run(fmt.Sprintf("seed%d-%s", seed, disc), func(t *testing.T) {
			diffProtocol(t, p, multiFailsets(t, g, []int{2}, 3, seed))
		})
	}
}
