package dataplane_test

import (
	"fmt"
	"math/rand"
	"testing"

	"recycle/internal/core"
	"recycle/internal/dataplane"
	"recycle/internal/embedding"
	"recycle/internal/graph"
	"recycle/internal/rotation"
	"recycle/internal/route"
	"recycle/internal/telemetry"
	"recycle/internal/topo"
)

func benchFixture(b *testing.B, name string) (*dataplane.FIB, *graph.Graph, *rotation.System) {
	fib, _, g, sys := benchFixtureFull(b, name)
	return fib, g, sys
}

func benchFixtureFull(b *testing.B, name string) (*dataplane.FIB, *core.Protocol, *graph.Graph, *rotation.System) {
	b.Helper()
	tp, err := topo.ByNameWeighted(name, topo.DistanceWeights)
	if err != nil {
		b.Fatal(err)
	}
	sys := tp.Embedding
	if sys == nil {
		sys, err = (embedding.Auto{Seed: 1}).Embed(tp.Graph)
		if err != nil {
			b.Fatal(err)
		}
	}
	p := buildProtocol(b, tp.Graph, sys, route.HopCount, core.Full)
	fib, err := dataplane.Compile(p)
	if err != nil {
		b.Fatal(err)
	}
	return fib, p, tp.Graph, sys
}

// benchWorkload builds a reusable 256-packet forwarding mix: mostly
// shortest-path traffic, one in four packets cycle following, one link
// down. Every packet carries a concrete ingress dart so batches can be
// recycled regardless of what header the previous decision left behind.
func benchWorkload(g *graph.Graph, sys *rotation.System, seed int64) []dataplane.Packet {
	rng := rand.New(rand.NewSource(seed))
	pkts := make([]dataplane.Packet, 256)
	for i := range pkts {
		node := graph.NodeID(rng.Intn(g.NumNodes()))
		nbrs := g.Neighbors(node)
		nb := nbrs[rng.Intn(len(nbrs))]
		pkts[i] = dataplane.Packet{
			Node:    node,
			Dst:     graph.NodeID(rng.Intn(g.NumNodes())),
			Ingress: rotation.ReverseID(sys.OutgoingDart(node, nb.Link)),
			Hdr:     core.Header{PR: rng.Intn(4) == 0, DD: float64(rng.Intn(8))},
		}
	}
	return pkts
}

// BenchmarkCompiledDecide measures a single compiled forwarding decision
// during cycle following — the compiled counterpart of the repo's
// BenchmarkForwardDecision.
func BenchmarkCompiledDecide(b *testing.B) {
	for _, name := range []string{"abilene", "geant", "teleglobe"} {
		b.Run(name, func(b *testing.B) {
			fib, g, _ := benchFixture(b, name)
			st := dataplane.FromFailureSet(g.NumLinks(), graph.NewFailureSet(0))
			ingress := rotation.DartID(4)
			node := g.Link(rotation.LinkOf(ingress)).B
			dst := graph.NodeID(g.NumNodes() - 1)
			hdr := core.Header{PR: true, DD: 3}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				decisionSink = fib.Decide(node, dst, ingress, hdr, st)
			}
		})
	}
}

// decideBenchPool is a pool of 256-packet batches with the pristine copy
// to restore each from: a decision that meets a failure rewrites the
// packet's header, and the next pass must meet the same failure.
type decideBenchPool struct {
	batches, tmpl [][]dataplane.Packet
	prShare       float64 // of the packets, those that arrive with the PR bit set
}

// restore rewinds batch k and returns it.
func (w *decideBenchPool) restore(k int) []dataplane.Packet {
	copy(w.batches[k], w.tmpl[k])
	return w.batches[k]
}

// newDecideBenchPool is newWireBenchPool for the struct path: the input
// packet of every hop of every ordered pair's walk under fails, by the
// event core.Protocol decides it with, drawn into batches of the mix. A
// zero mix is the hops as walked, in whatever shares the failure set gives
// them. It returns nil when the walks do not yield the mix.
func newDecideBenchPool(p *core.Protocol, g *graph.Graph, fails *graph.FailureSet, mix [5]int, batches int) *decideBenchPool {
	var byEvent [5][]dataplane.Packet
	for s := 0; s < g.NumNodes(); s++ {
		for d := 0; d < g.NumNodes(); d++ {
			walk := p.Walk(graph.NodeID(s), graph.NodeID(d), fails)
			if s == d || !walk.Delivered() {
				continue
			}
			var hdr core.Header
			for _, step := range walk.Steps[:len(walk.Steps)-1] {
				byEvent[step.Event] = append(byEvent[step.Event],
					dataplane.Packet{Node: step.Node, Dst: graph.NodeID(d), Ingress: step.Ingress, Hdr: hdr})
				hdr = step.Header
			}
		}
	}
	if mix == ([5]int{}) {
		var all []dataplane.Packet
		for _, hops := range byEvent {
			all = append(all, hops...)
		}
		byEvent, mix = [5][]dataplane.Packet{all}, [5]int{256}
	}
	w := &decideBenchPool{tmpl: drawBenchBatches(byEvent, mix, batches, false)}
	if w.tmpl == nil {
		return nil
	}
	marked := 0
	for _, pkts := range w.tmpl {
		w.batches = append(w.batches, append([]dataplane.Packet(nil), pkts...))
		for i := range pkts {
			if pkts[i].Hdr.PR {
				marked++
			}
		}
	}
	w.prShare = float64(marked) / float64(batches*256)
	return w
}

// benchDecideBatches times decide over a rotating pool of 256 batches —
// 65 536 packets, prbench's pool; ONE replayed batch is memorised by the
// branch predictor and reads a branch on the PR bit as free — on three
// rows a topology, each reporting its share of PR-set packets. clean has
// nothing failed: DecideBatch's branch loop, unsampled. failed1 is one
// failed link, hops as walked — the first link that leaves under a tenth
// of the hops re-cycling, which is what a single failure mostly does
// (teleglobe's link 0 is on enough shortest paths to make it 28 %): the
// sample says so and the branch loop stays. failed4 is four failed links in
// wireBenchMix's shares (prbench's fwd_recycle): a third of the packets
// carry the PR bit in no order, the masked loop's side of the selection.
// Read the rows as a set: a change to either loop or to the rule that
// picks one shows as clean and failed1 moving against failed4. Restoring a
// batch is one copy, inside the timed loop on every row.
func benchDecideBatches(b *testing.B, decide func(*dataplane.FIB, *core.Protocol, *graph.FailureSet, *dataplane.LinkState, []dataplane.Packet)) {
	for _, name := range []string{"abilene", "geant", "teleglobe"} {
		fib, p, g, _ := benchFixtureFull(b, name)
		scenarios, err := graph.SampleFailureScenarios(g, 4, 64, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range []struct {
			name     string
			fails    []*graph.FailureSet
			mix      [5]int
			maxShare float64
		}{
			{"clean", []*graph.FailureSet{graph.NewFailureSet()}, [5]int{}, 0},
			{"failed1", graph.SingleFailureScenarios(g), [5]int{}, 0.1},
			{"failed4", scenarios, wireBenchMix, 1},
		} {
			// Built by the row's first run and kept across the b.N ramp:
			// restore rewinds whatever a pass leaves behind.
			var (
				pool  *decideBenchPool
				fails *graph.FailureSet
			)
			b.Run(name+"/"+row.name, func(b *testing.B) {
				for i := 0; pool == nil && i < len(row.fails); i++ {
					fails = row.fails[i]
					if pool = newDecideBenchPool(p, g, fails, row.mix, 256); pool != nil && pool.prShare > row.maxShare {
						pool = nil
					}
				}
				if pool == nil {
					b.Fatalf("none of %d failure sets yields the mix %v at a PR share of %v or less", len(row.fails), row.mix, row.maxShare)
				}
				st := dataplane.FromFailureSet(g.NumLinks(), fails)
				k := 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i += 256 {
					decide(fib, p, fails, st, pool.restore(k))
					if k++; k == len(pool.batches) {
						k = 0
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "decisions/s")
				b.ReportMetric(pool.prShare, "PR-share")
			})
		}
	}
}

// BenchmarkCompiledDecideBatch measures the engine's inner loop: batched
// decisions over a pool the size of prbench's, the per-decision number a
// forwarding worker actually achieves (see benchDecideBatches for the
// rows). Compare its decisions/s with BenchmarkInterpretedDecideBatch —
// the same pool through core.Protocol.Decide — for the compiled
// dataplane's speedup.
func BenchmarkCompiledDecideBatch(b *testing.B) {
	benchDecideBatches(b, func(fib *dataplane.FIB, _ *core.Protocol, _ *graph.FailureSet, st *dataplane.LinkState, pkts []dataplane.Packet) {
		fib.DecideBatch(pkts, st)
	})
}

// BenchmarkInterpretedDecideBatch is the baseline for
// BenchmarkCompiledDecideBatch: the identical pool decided by the
// interpreted core.Protocol (map-backed failure set, method dispatch per
// lookup).
func BenchmarkInterpretedDecideBatch(b *testing.B) {
	benchDecideBatches(b, func(_ *dataplane.FIB, p *core.Protocol, fails *graph.FailureSet, _ *dataplane.LinkState, pkts []dataplane.Packet) {
		for j := range pkts {
			pk := &pkts[j]
			d := p.Decide(pk.Node, pk.Dst, pk.Ingress, pk.Hdr, fails)
			pk.Egress, pk.Event, pk.Hdr, pk.OK = d.Egress, d.Event, d.Header, d.OK
		}
	})
}

// BenchmarkForwardWire measures the full wire fast path in both address
// families: mark decode, rank-space decide, mark re-encode, and (IPv4
// only) incremental checksum repair. Both paths must stay at 0 allocs/op.
func BenchmarkForwardWire(b *testing.B) {
	b.Run("ipv4-dscp", func(b *testing.B) {
		fib, g, _ := benchFixture(b, "geant")
		st := dataplane.FromFailureSet(g.NumLinks(), graph.NewFailureSet(0))
		buf := mkPacket(b, 1, graph.NodeID(g.NumNodes()-1), 64)
		tmpl := append([]byte(nil), buf...)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(buf, tmpl) // restore TTL/DSCP/checksum; ~1 ns of the loop
			_, verdictSink = fib.ForwardWire(1, rotation.NoDart, st, buf)
		}
	})
	b.Run("ipv6-flowlabel", func(b *testing.B) {
		_, fib, g := flowLabelFixture(b)
		st := dataplane.FromFailureSet(g.NumLinks(), graph.NewFailureSet(0))
		buf := mkPacket6(b, 1, graph.NodeID(g.NumNodes()-1), 64)
		tmpl := append([]byte(nil), buf...)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(buf, tmpl) // restore hop limit / flow label
			_, verdictSink = fib.ForwardWire(1, rotation.NoDart, st, buf)
		}
	})
}

// wireBenchMix is the composition of a failed4 batch by decision event, in
// frames of 256 — prbench's fwd_wire mix (630 route, 250 cycle, 50 detect,
// 50 resume, 20 continue per thousand).
var wireBenchMix = [5]int{core.EventRoute: 161, core.EventCycle: 64, core.EventDetect: 13, core.EventContinue: 5, core.EventResume: 13}

// wireBenchPool is a pool of 256-frame wire batches over one contiguous
// arena, with the pristine bytes to restore each batch from.
type wireBenchPool struct {
	batches     [][]dataplane.WirePacket
	arena, tmpl []byte
}

// restore rewinds batch k's frames and returns it.
func (w *wireBenchPool) restore(k int) []dataplane.WirePacket {
	size := len(w.arena) / len(w.batches)
	copy(w.arena[k*size:(k+1)*size], w.tmpl[k*size:])
	return w.batches[k]
}

// drawBenchBatches assembles batches of the given mix (hops per event in a
// batch of 256) from hops sorted by decision event, each batch drawn and
// shuffled on its own: no two put their PR-set hops in the same places,
// which is what keeps a branch predictor from learning the pool. With
// sorted set the very same hops go through the same shuffle and then the
// route hops move ahead of the cycle hops within the places the two classes
// hold. The hops that meet a failure stay where the shuffle put them, so
// the slow half mispredicts alike in both orders and the two pools differ
// in one thing only: whether the PR bit of a hop on an up link can be
// learnt. It returns nil when byEvent does not hold the mix.
func drawBenchBatches[T any](byEvent [5][]T, mix [5]int, batches int, sorted bool) [][]T {
	for ev, want := range mix {
		if len(byEvent[ev]) < want {
			return nil
		}
	}
	// Two streams, so that sorted and shuffled pools draw the same hops.
	draw, shuffle := rand.New(rand.NewSource(1)), rand.New(rand.NewSource(2))
	var out [][]T
	for k := 0; k < batches; k++ {
		var (
			pkts []T
			evs  []core.Event
		)
		for ev, want := range mix {
			from := byEvent[ev]
			for i := 0; i < want; i++ { // without replacement inside a batch
				j := i + draw.Intn(len(from)-i)
				from[i], from[j] = from[j], from[i]
				evs = append(evs, core.Event(ev))
			}
			pkts = append(pkts, from[:want]...)
		}
		shuffle.Shuffle(len(pkts), func(i, j int) { pkts[i], pkts[j], evs[i], evs[j] = pkts[j], pkts[i], evs[j], evs[i] })
		if sorted {
			var at []int
			var routes, cycles []T
			for i, ev := range evs {
				switch ev {
				case core.EventRoute:
					at, routes = append(at, i), append(routes, pkts[i])
				case core.EventCycle:
					at, cycles = append(at, i), append(cycles, pkts[i])
				}
			}
			for n, pk := range append(routes, cycles...) {
				pkts[at[n]] = pk
			}
		}
		out = append(out, pkts)
	}
	return out
}

// newWireBenchPool walks every ordered pair under fails on real frames (in
// the family of the FIB's codec), sorts the hops' input frames by the
// decision event core.Protocol's transcript gives them, and hands them to
// drawBenchBatches; the frames of the result move into one arena. It
// returns nil when the walks do not yield the mix.
func newWireBenchPool(b *testing.B, p *core.Protocol, fib *dataplane.FIB, g *graph.Graph, fails *graph.FailureSet, st *dataplane.LinkState, mix [5]int, batches int, sorted bool) *wireBenchPool {
	var byEvent [5][]dataplane.WirePacket
	for s := 0; s < g.NumNodes(); s++ {
		for d := 0; d < g.NumNodes(); d++ {
			walk := p.Walk(graph.NodeID(s), graph.NodeID(d), fails)
			if s == d || !walk.Delivered() {
				continue
			}
			frame, err := fib.NewWireFrame(graph.NodeID(s), graph.NodeID(d))
			if err != nil {
				b.Fatal(err)
			}
			for _, step := range walk.Steps[:len(walk.Steps)-1] {
				in := dataplane.WirePacket{Node: step.Node, Ingress: step.Ingress, Buf: append([]byte(nil), frame...)}
				if eg, v := fib.ForwardWire(step.Node, step.Ingress, st, frame); v != dataplane.WireForward || eg != step.Egress {
					b.Fatalf("%d→%d at node %d: %v on dart %d, core walked %d", s, d, step.Node, v, eg, step.Egress)
				}
				byEvent[step.Event] = append(byEvent[step.Event], in)
			}
		}
	}
	w := &wireBenchPool{batches: drawBenchBatches(byEvent, mix, batches, sorted)}
	if w.batches == nil {
		return nil
	}
	for _, pkts := range w.batches {
		for i := range pkts {
			w.tmpl = append(w.tmpl, pkts[i].Buf...)
		}
	}
	w.arena = append([]byte(nil), w.tmpl...)
	stride, at := len(w.arena)/(batches*len(w.batches[0])), 0
	for _, pkts := range w.batches {
		for i := range pkts {
			pkts[i].Buf = w.arena[at : at+stride : at+stride]
			at += stride
		}
	}
	return w
}

// BenchmarkForwardWireBatch measures the engine's byte-level inner loop,
// 256-frame wire batches forwarded under one snapshot, in both families.
// clean is geant with nothing failed, one batch replayed: every frame takes
// the mark-preserving case. failed4 is four failed links, frames recorded
// along walks so that detect, cycle, continue and resume are all present in
// wireBenchMix's proportions, rotating over 256 independently shuffled
// batches — 65 536 frames, prbench's fwd_wire pool; one replayed batch is
// memorised by the branch predictor and reads as if a branch on the PR bit
// were free. failed4-sorted is the same frames with each batch's route
// frames ahead of its cycle frames (see newWireBenchPool). The two rows
// agree while the mark-preserving head has no data-dependent branch; a
// reintroduced one pulls failed4 away from failed4-sorted. Restoring a
// batch is one copy over its part of the arena, inside the timed loop on
// every row.
func BenchmarkForwardWireBatch(b *testing.B) {
	for _, family := range []string{"ipv4-dscp", "ipv6-flowlabel"} {
		p, fib, g := wireFixture(b, "geant")
		if family == "ipv6-flowlabel" {
			p, fib, g = flowLabelFixture(b)
		}
		scenarios, err := graph.SampleFailureScenarios(g, 4, 64, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range []struct {
			name    string
			fails   []*graph.FailureSet
			mix     [5]int
			batches int
			sorted  bool
		}{
			{"clean", []*graph.FailureSet{graph.NewFailureSet()}, [5]int{core.EventRoute: 256}, 1, false},
			{"failed4", scenarios, wireBenchMix, 256, false},
			{"failed4-sorted", scenarios, wireBenchMix, 256, true},
		} {
			b.Run(family+"/"+row.name, func(b *testing.B) {
				var (
					pool *wireBenchPool
					st   *dataplane.LinkState
				)
				for _, fails := range row.fails {
					st = dataplane.FromFailureSet(g.NumLinks(), fails)
					if pool = newWireBenchPool(b, p, fib, g, fails, st, row.mix, row.batches, row.sorted); pool != nil {
						break
					}
				}
				if pool == nil {
					b.Fatalf("none of %d failure sets yields the mix %v", len(row.fails), row.mix)
				}
				const batchSize = 256
				forwarded, k := 0, 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i += batchSize {
					forwarded = fib.ForwardWireBatch(pool.restore(k), st)
					if k++; k == len(pool.batches) {
						k = 0
					}
				}
				b.StopTimer()
				if forwarded != batchSize {
					b.Fatalf("%d of %d frames forwarded", forwarded, batchSize)
				}
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "frames/s")
			})
		}
	}
}

// BenchmarkTxQueueSend measures the single-packet form of the egress
// path, uninstrumented: one lock, one clock read and one paced, bounded
// transmit per call. Must stay at 0 allocs/op.
func BenchmarkTxQueueSend(b *testing.B) {
	fib, g, _ := benchFixture(b, "geant")
	q := dataplane.NewTxQueue(fib, dataplane.TxConfig{BandwidthBps: 1e13})
	st := dataplane.FromFailureSet(g.NumLinks(), graph.NewFailureSet(0))
	numDarts := rotation.DartID(2 * g.NumLinks())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Send(rotation.DartID(i)%numDarts, 8192, st)
	}
	if n := testing.AllocsPerRun(100, func() { q.Send(2, 8192, st) }); n != 0 {
		b.Fatalf("Send allocates %v per op; want 0", n)
	}
}

// BenchmarkTxQueueTransmit measures the egress path as every real caller
// drives it: 256-packet batches on the wall clock with Metrics set, so
// the lock, the clock read and the counter and queue-wait flushes are
// all in the figure, amortised over the batch. The per-op time is per
// packet. Must stay at 0 allocs/op.
func BenchmarkTxQueueTransmit(b *testing.B) {
	const batchSize = 256
	fib, g, _ := benchFixture(b, "geant")
	q := dataplane.NewTxQueue(fib, dataplane.TxConfig{BandwidthBps: 1e13, Metrics: telemetry.NewRegistry()})
	st := dataplane.FromFailureSet(g.NumLinks(), graph.NewFailureSet(0))
	batch := &dataplane.Batch{Pkts: make([]dataplane.Packet, batchSize)}
	for i := range batch.Pkts {
		batch.Pkts[i] = dataplane.Packet{Egress: rotation.DartID(i % (2 * g.NumLinks())), OK: true, Bits: 8192}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batchSize {
		q.Transmit(batch, st)
	}
	if n := testing.AllocsPerRun(100, func() { q.Transmit(batch, st) }); n != 0 {
		b.Fatalf("Transmit allocates %v per op; want 0", n)
	}
}

// BenchmarkEngineEgress measures the full three-stage pipeline — ingest,
// decide, transmit through per-dart paced queues — per shard count. Its
// pps metric is the end-to-end counterpart of BenchmarkEngine's
// decide-only number; the delta is the egress cost.
func BenchmarkEngineEgress(b *testing.B) {
	const batchSize = 256
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("geant/shards-%d", shards), func(b *testing.B) {
			fib, g, sys := benchFixture(b, "geant")
			reg := telemetry.NewRegistry()
			tx := dataplane.NewTxQueue(fib, dataplane.TxConfig{
				// Links fast enough that pacing, not dropping, dominates:
				// the benchmark measures transmit cost, not drop cost.
				BandwidthBps: 1e13,
				Metrics:      reg,
			})
			free := make(chan *dataplane.Batch, 64)
			eng := dataplane.NewEngine(fib, dataplane.EngineConfig{
				Shards: shards,
				Egress: tx,
				OnDone: func(batch *dataplane.Batch) { free <- batch },
			})
			eng.SetLink(0, true)
			for i := 0; i < 4*shards; i++ {
				free <- &dataplane.Batch{Pkts: benchWorkload(g, sys, int64(i+1))[:batchSize]}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += batchSize {
				batch := <-free
				for !eng.Submit(batch) {
				}
			}
			decided := eng.Close()
			b.StopTimer()
			b.ReportMetric(float64(decided)/b.Elapsed().Seconds(), "decisions/s")
			sent := reg.Snapshot().Counter(dataplane.MetricTxSent)
			b.ReportMetric(float64(sent)/b.Elapsed().Seconds(), "tx/s")
		})
	}
}

// BenchmarkEngine measures sharded engine throughput per topology and
// shard count. The per-op time is per decision; the pps metric is
// decisions per second across all shards.
func BenchmarkEngine(b *testing.B) {
	const batchSize = 256
	for _, name := range []string{"abilene", "geant", "teleglobe"} {
		for _, shards := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/shards-%d", name, shards), func(b *testing.B) {
				fib, g, sys := benchFixture(b, name)
				free := make(chan *dataplane.Batch, 64)
				eng := dataplane.NewEngine(fib, dataplane.EngineConfig{
					Shards: shards,
					OnDone: func(batch *dataplane.Batch) { free <- batch },
				})
				eng.SetLink(0, true)
				// A small cache-resident pool keeps the measurement on
				// decision cost plus ring hand-off, not memory streaming.
				for i := 0; i < 4*shards; i++ {
					free <- &dataplane.Batch{Pkts: benchWorkload(g, sys, int64(i+1))[:batchSize]}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i += batchSize {
					batch := <-free
					for !eng.Submit(batch) {
					}
				}
				decided := eng.Close()
				b.StopTimer()
				b.ReportMetric(float64(decided)/b.Elapsed().Seconds(), "decisions/s")
			})
		}
	}
}

// BenchmarkFIBDecide is the CI-gated per-decision number (see the bench
// job in .github/workflows/ci.yml and BENCH_baseline.json): one compiled
// forwarding decision during cycle following on the geant backbone. It
// must stay at 0 allocs/op.
func BenchmarkFIBDecide(b *testing.B) {
	fib, g, _ := benchFixture(b, "geant")
	st := dataplane.FromFailureSet(g.NumLinks(), graph.NewFailureSet(0))
	ingress := rotation.DartID(4)
	node := g.Link(rotation.LinkOf(ingress)).B
	dst := graph.NodeID(g.NumNodes() - 1)
	hdr := core.Header{PR: true, DD: 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decisionSink = fib.Decide(node, dst, ingress, hdr, st)
	}
}

// churnBench builds the recompiler fixture for the delta benchmarks on
// the named topology; ring:64 is the maintenance scenario the README's
// churn table pins.
func churnBench(b testing.TB, spec string) (*dataplane.Recompiler, *graph.Graph) {
	b.Helper()
	tp, err := topo.ByName(spec)
	if err != nil {
		b.Fatal(err)
	}
	sys := tp.Embedding
	if sys == nil { // rand:N carries none
		if sys, err = (embedding.Auto{Seed: 1}).Embed(tp.Graph); err != nil {
			b.Fatal(err)
		}
	}
	tbl := route.Build(tp.Graph, route.HopCount)
	p, err := core.New(tp.Graph, sys, tbl, core.Config{Variant: core.Full})
	if err != nil {
		b.Fatal(err)
	}
	rec, err := dataplane.NewRecompiler(p, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	return rec, tp.Graph
}

// BenchmarkRecompileDelta measures one delta recompile of a single-link
// weight change (a metric tweak, 1↔2) on ring:64 — the control-plane
// latency of routine planned maintenance, gated in absolute ns/op and
// allocs/op by the CI bench job. Compare BenchmarkRecompileFull: about 2×
// here (3× before the tree builder stopped queueing two-link nodes, which
// is all a ring has), a ring being the delta's worst case (the tweak moves
// half of every tree); TestDeltaRecompileSpeedup reports it and pins ≥10×
// on grid:8x8.
func BenchmarkRecompileDelta(b *testing.B) {
	rec, _ := churnBench(b, "ring:64")
	weights := [2]float64{2, 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rec.Apply(graph.SetWeight(7, weights[i%2])); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecompileDeltaDrain is the heavy variant: costing a link out
// (1↔8) moves roughly half of every destination tree's distances and
// re-ranks most quantiser columns — the worst case for delta
// recompilation, and level with a full rebuild (≈ 160 against ≈ 175 µs,
// 1.1×; it was 1.4× while the rebuild queued every node of the ring).
func BenchmarkRecompileDeltaDrain(b *testing.B) {
	rec, _ := churnBench(b, "ring:64")
	weights := [2]float64{8, 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rec.Apply(graph.SetWeight(7, weights[i%2])); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecompileStructural measures one structural delta — a
// non-bridge link decommissioned, then commissioned again, one Apply per
// iteration — through the same incremental repairer and column patch as a
// weight edit. The re-addition revives the removed link's ID, so every
// round removes and re-adds the same link over the same rotation
// orders. rand:512's link 200 lies on 507 of the 512 trees with 18 nodes
// behind it on average, the typical case (link 7 has 190). Gated in
// absolute ns/op and allocs/op by the CI bench job.
func BenchmarkRecompileStructural(b *testing.B) {
	for _, c := range []struct {
		spec string
		link graph.LinkID
	}{{"grid:8x8", 7}, {"rand:512", 200}} {
		b.Run(c.spec, func(b *testing.B) {
			rec, g := churnBench(b, c.spec)
			link := g.Link(c.link)
			for _, br := range graph.Bridges(g) {
				if br == link.ID {
					b.Fatalf("link %d of %s is a bridge", link.ID, c.spec)
				}
			}
			round := [2]graph.Edit{graph.RemoveLinkEdit(link.ID), graph.AddLinkEdit(link.A, link.B, link.Weight)}
			for _, e := range round {
				if _, err := rec.Apply(e); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rec.Apply(round[i%2]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRecompileFull measures the same weight change through today's
// full rebuild: routing tables, quantiser, protocol and FIB from scratch.
func BenchmarkRecompileFull(b *testing.B) {
	rec, g := churnBench(b, "ring:64")
	sys := rec.System()
	weights := [2]float64{2, 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g2, err := graph.ApplyEdit(g, graph.SetWeight(7, weights[i%2]))
		if err != nil {
			b.Fatal(err)
		}
		orders := make([][]graph.LinkID, g2.NumNodes())
		for v := 0; v < g2.NumNodes(); v++ {
			orders[v] = sys.LinkOrder(graph.NodeID(v))
		}
		sys2, err := rotation.FromLinkOrders(g2, orders)
		if err != nil {
			b.Fatal(err)
		}
		tbl := route.Build(g2, route.HopCount)
		quant := core.BuildQuantiser(tbl)
		p, err := core.New(g2, sys2, tbl, core.Config{Variant: core.Full})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dataplane.CompileWith(p, quant); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompile is the CI-gated compile-path number: one full FIB
// compile of a generated scale topology through the parallel pipeline
// with the worker count pinned at 4, so ns/op and allocs/op are stable
// across differently-sized CI boxes. rand:512 and rand:2000 compile into
// the shared-column layout (ColumnsAuto engages at 512 nodes); the
// routing tables and quantiser are prebuilt outside the timer — this
// measures column fill plus page interning, the piece the shared layout
// changed. The tables themselves, most of a cold build, are timed by
// BenchmarkRouteBuild in internal/route, the quantiser by
// BenchmarkBuildQuantiser in internal/core.
func BenchmarkCompile(b *testing.B) {
	for _, spec := range []string{"rand:512", "rand:2000"} {
		b.Run(spec, func(b *testing.B) {
			tp, err := topo.Generated(spec)
			if err != nil {
				b.Fatal(err)
			}
			sys, err := (embedding.Auto{Seed: 1}).Embed(tp.Graph)
			if err != nil {
				b.Fatal(err)
			}
			tbl := route.BuildWorkers(tp.Graph, route.HopCount, 4)
			p, err := core.New(tp.Graph, sys, tbl, core.Config{Variant: core.Full, Quantise: true})
			if err != nil {
				b.Fatal(err)
			}
			quant := core.BuildQuantiserWorkers(tbl, 4)
			opts := dataplane.CompileOptions{Workers: 4}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fib, err := dataplane.CompileWithOptions(p, quant, opts)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(fib.MemBytes()), "fib-bytes")
				}
			}
		})
	}
}

// BenchmarkRecompileCoalesced measures a duplicate-target maintenance
// batch — three weight writes to the same ring:64 link — through Apply:
// the coalescer nets it to the last write before the delta machinery
// runs, so this should track BenchmarkRecompileDelta, not 3× it.
func BenchmarkRecompileCoalesced(b *testing.B) {
	rec, _ := churnBench(b, "ring:64")
	rec.SetWorkers(4)
	weights := [2]float64{2, 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rec.Apply(
			graph.SetWeight(7, 9),
			graph.SetWeight(7, 5),
			graph.SetWeight(7, weights[i%2]),
		); err != nil {
			b.Fatal(err)
		}
	}
}
