package dataplane_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"recycle/internal/core"
	"recycle/internal/dataplane"
	"recycle/internal/graph"
	"recycle/internal/rotation"
	"recycle/internal/route"
	"recycle/internal/telemetry"
	"recycle/internal/topo"
)

// swapFixture builds a ring network with a recompiler over it.
func swapFixture(t testing.TB, name string) (*dataplane.Recompiler, *graph.Graph) {
	t.Helper()
	tp, err := topo.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	sys := tp.Embedding
	if sys == nil {
		t.Fatalf("%s ships no embedding", name)
	}
	tbl := route.Build(tp.Graph, route.HopCount)
	p, err := core.New(tp.Graph, sys, tbl, core.Config{Variant: core.Full})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := dataplane.NewRecompiler(p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rec, tp.Graph
}

// TestEngineHotSwap pins the swap barrier and the zero-drop guarantee:
// traffic keeps flowing through the engine while ApplyDelta republishes
// recompiled FIBs; nothing is dropped, every batch is decided, and a
// probe submitted after a swap returns always decides on the new FIB
// (run with -race to exercise the publication ordering).
func TestEngineHotSwap(t *testing.T) {
	rec, g := swapFixture(t, "ring:16")
	fib := rec.FIB()
	n := g.NumNodes()

	var submitted, decided atomic.Uint64
	free := make(chan *dataplane.Batch, 64)
	probeDone := make(chan rotation.DartID, 1)
	eng := dataplane.NewEngine(fib, dataplane.EngineConfig{
		Shards: 2,
		OnDone: func(b *dataplane.Batch) {
			decided.Add(uint64(len(b.Pkts)))
			if len(b.Pkts) == 1 {
				probeDone <- b.Pkts[0].Egress
				return
			}
			free <- b
		},
	})
	for i := 0; i < 8; i++ {
		pkts := make([]dataplane.Packet, 64)
		for j := range pkts {
			pkts[j] = dataplane.Packet{Node: graph.NodeID(j % n), Dst: graph.NodeID((j + 3) % n), Ingress: rotation.NoDart}
		}
		free <- &dataplane.Batch{Pkts: pkts}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case b := <-free:
				for !eng.Submit(b) {
				}
				submitted.Add(uint64(len(b.Pkts)))
			}
		}
	}()

	// The probed decision: node 0 toward node 1. With the direct link
	// at weight 10 the shortest path flips to the long way around; at 1
	// it flips back.
	l := g.FindLink(0, 1)
	if l == graph.NoLink {
		t.Fatal("ring link 0-1 missing")
	}
	weights := []float64{10, 1}
	for swapN := 0; swapN < 40; swapN++ {
		d, err := rec.Apply(graph.SetWeight(l, weights[swapN%2]))
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
		want := d.FIB.Decide(0, 1, rotation.NoDart, core.Header{}, eng.Snapshot())
		probe := &dataplane.Batch{Pkts: []dataplane.Packet{{Node: 0, Dst: 1, Ingress: rotation.NoDart}}}
		for !eng.Submit(probe) {
		}
		submitted.Add(1)
		got := <-probeDone
		if got != want.Egress {
			t.Fatalf("swap %d: probe decided egress %d on a stale FIB; want %d", swapN, got, want.Egress)
		}
	}
	close(stop)
	wg.Wait()
	total := eng.Close()
	if total != submitted.Load() {
		t.Fatalf("decided %d of %d submitted — packets dropped across swaps", total, submitted.Load())
	}
	if decided.Load() != submitted.Load() {
		t.Fatalf("OnDone saw %d of %d submitted", decided.Load(), submitted.Load())
	}
	if eng.FIB() != rec.FIB() {
		t.Fatal("engine not on the latest FIB")
	}
}

// TestEngineSwapCarriesLinkState checks detected failures survive a swap,
// including across a structural renumbering.
func TestEngineSwapCarriesLinkState(t *testing.T) {
	rec, g := swapFixture(t, "ring:8")
	eng := dataplane.NewEngine(rec.FIB(), dataplane.EngineConfig{Shards: 1})
	defer eng.Close()
	eng.SetLink(5, true)
	eng.SetLink(2, true)

	// Weight-only swap: same link space, bits carried verbatim.
	d, err := rec.Apply(graph.SetWeight(1, 4))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	if !eng.Snapshot().Down(5) || !eng.Snapshot().Down(2) || eng.Snapshot().Down(1) {
		t.Fatal("weight swap lost link state")
	}

	// Structural swap: remove link 3 (non-bridge on a ring? removing any
	// ring link keeps it connected); IDs above shift down.
	d, err = rec.Apply(graph.AddLinkEdit(0, 4, 2), graph.RemoveLinkEdit(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	st := eng.Snapshot()
	if st.NumLinks() != g.NumLinks() { // -1 removed, +1 added
		t.Fatalf("swapped state sized %d; want %d", st.NumLinks(), g.NumLinks())
	}
	if !st.Down(d.LinkMap[5]) || !st.Down(d.LinkMap[2]) {
		t.Fatal("structural swap lost remapped link state")
	}
	if st.CountDown() != 2 {
		t.Fatalf("structural swap invented failures: %d down", st.CountDown())
	}
}

// rigidEgress is an Egress without RebindDarts: structural swaps must
// still be refused for it.
type rigidEgress struct{}

func (rigidEgress) Transmit(*dataplane.Batch, *dataplane.LinkState) {}

// TestEngineSwapRefusals covers the guarded error paths. A TxQueue
// egress rebinds across structural swaps (TestStructuralSwapRebindsEgress),
// so the egress refusal now applies only to egresses that cannot.
func TestEngineSwapRefusals(t *testing.T) {
	rec, _ := swapFixture(t, "ring:8")
	fib := rec.FIB()
	eng := dataplane.NewEngine(fib, dataplane.EngineConfig{Shards: 1, Egress: rigidEgress{}})
	defer eng.Close()

	if err := eng.SwapFIB(nil, nil); err == nil {
		t.Fatal("nil FIB accepted")
	}
	d, err := rec.Apply(graph.RemoveLinkEdit(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.ApplyDelta(d); err == nil {
		t.Fatal("structural swap accepted with a non-rebindable egress attached")
	}
	if err := eng.SwapFIB(d.FIB, nil); err == nil {
		t.Fatal("shrunk link space accepted without a map")
	}
	if err := eng.SwapFIB(d.FIB, make([]graph.LinkID, 3)); err == nil {
		t.Fatal("short link map accepted")
	}
	// A same-count structural delta (add + remove) renumbers darts too:
	// the egress queues' per-dart state would throttle the wrong links.
	d2, err := rec.Apply(graph.AddLinkEdit(0, 3, 2), graph.RemoveLinkEdit(1))
	if err != nil {
		t.Fatal(err)
	}
	if !d2.Structural {
		t.Fatal("add+remove delta not flagged structural")
	}
	if err := eng.ApplyDelta(d2); err == nil {
		t.Fatal("same-count structural swap accepted with a non-rebindable egress attached")
	}
}

// TestStructuralSwapRebindsEgress is the regression test for the dart-
// sizing bug: before TxQueue implemented DartRebinder, a structural
// ApplyDelta with an egress attached was refused outright, and a Send
// onto a dart added by the new FIB would have panicked on the
// construction-sized dart slice. Now the add-link delta swaps cleanly
// into a live engine, traffic decided on the new FIB transmits onto the
// new link's darts, and the counts are exact across the rebind: the
// queue keeps them itself, not per generation of the dart space.
func TestStructuralSwapRebindsEgress(t *testing.T) {
	rec, g := swapFixture(t, "ring:8")
	fib := rec.FIB()
	reg := telemetry.NewRegistry()
	tx := dataplane.NewTxQueue(fib, dataplane.TxConfig{BandwidthBps: 1e12, Metrics: reg})
	done := make(chan struct{}, 8)
	eng := dataplane.NewEngine(fib, dataplane.EngineConfig{
		Shards: 1,
		Egress: tx,
		OnDone: func(*dataplane.Batch) { done <- struct{}{} },
	})
	defer eng.Close()

	oldDarts := tx.NumDarts()
	submit := func() {
		b := &dataplane.Batch{Pkts: make([]dataplane.Packet, 0, g.NumNodes())}
		for n := 0; n < g.NumNodes(); n++ {
			b.Pkts = append(b.Pkts, dataplane.Packet{
				Node: graph.NodeID(n), Dst: graph.NodeID((n + 3) % g.NumNodes()),
				Ingress: rotation.NoDart,
			})
		}
		for !eng.Submit(b) {
		}
		<-done // decided and transmitted before we move on
	}
	submit()

	// Structural edit against the live engine: a chord 0–4 appears.
	d, err := rec.Apply(graph.AddLinkEdit(0, 4, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.ApplyDelta(d); err != nil {
		t.Fatalf("structural swap with a TxQueue egress refused: %v", err)
	}
	if got, want := tx.NumDarts(), 2*d.FIB.NumLinks(); got != want {
		t.Fatalf("egress rebound to %d darts; want %d", got, want)
	}
	if tx.NumDarts() <= oldDarts {
		t.Fatalf("dart space did not grow: %d → %d", oldDarts, tx.NumDarts())
	}
	before := reg.Snapshot().Counter(dataplane.MetricTxSent)

	// Send directly onto the new link's darts — the pre-fix code would
	// have panicked indexing the construction-sized slice.
	newLink := graph.LinkID(d.Graph.NumLinks() - 1)
	ab, ba := rotation.DartsOf(newLink)
	st := eng.Snapshot()
	if v := tx.Send(ab, 8192, st); v != dataplane.TxSent {
		t.Fatalf("send onto new dart %d: %v", ab, v)
	}
	if v := tx.Send(ba, 8192, st); v != dataplane.TxSent {
		t.Fatalf("send onto new dart %d: %v", ba, v)
	}
	// And drive whole batches through the swapped engine.
	submit()
	eng.Close()

	// Every node forwards its one packet, before the swap and after.
	perSubmit := uint64(g.NumNodes())
	if before != perSubmit {
		t.Fatalf("tx.sent = %d after the rebind; want the %d pre-swap transmits", before, perSubmit)
	}
	if after := reg.Snapshot().Counter(dataplane.MetricTxSent); after != before+2+perSubmit {
		t.Fatalf("tx.sent = %d after the structural swap; want %d", after, before+2+perSubmit)
	}

	// A dart beyond every generation is a counted drop, never a panic.
	if v := tx.Send(rotation.DartID(10_000), 8192, nil); v != dataplane.TxDropStaleDart {
		t.Fatalf("out-of-range dart: %v; want drop-stale-dart", v)
	}
	if got := reg.Snapshot().Counter(dataplane.MetricTxDropStaleDart); got != 1 {
		t.Fatalf("stale-dart drop not counted: %d", got)
	}
}

// TestStepAfterStructuralSwap: Step decides under the state current at
// the call, so after a structural ApplyDelta it reports the new FIB, and
// the TxQueue it transmits into has rebound to the new dart space.
func TestStepAfterStructuralSwap(t *testing.T) {
	rec, _ := swapFixture(t, "ring:8")
	fib := rec.FIB()
	reg := telemetry.NewRegistry()
	tx := dataplane.NewTxQueue(fib, dataplane.TxConfig{BandwidthBps: 1e12, Metrics: reg})
	eng := dataplane.NewEngine(fib, dataplane.EngineConfig{Shards: 1, Egress: tx})
	defer eng.Close()
	pkt := dataplane.Packet{Node: 0, Dst: 4, Ingress: rotation.NoDart}
	b := &dataplane.Batch{Pkts: []dataplane.Packet{pkt}}
	if got := eng.Step(b); got != fib {
		t.Fatal("Step before the swap reported a FIB other than the built one")
	}

	d, err := rec.Apply(graph.AddLinkEdit(0, 4, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	b.Pkts[0] = pkt
	if got := eng.Step(b); got != d.FIB {
		t.Fatal("Step after the structural swap did not decide on the new FIB")
	}
	if got, want := tx.NumDarts(), 2*d.FIB.NumLinks(); got != want {
		t.Fatalf("egress has %d darts after the swap; want %d", got, want)
	}
	// The chord is the 0→4 shortest path: the packet leaves on a dart
	// only the new dart space holds, and the egress sends it.
	chord := graph.LinkID(d.Graph.NumLinks() - 1)
	if p := b.Pkts[0]; !p.OK || rotation.LinkOf(p.Egress) != chord || d.FIB.Head(p.Egress) != 4 {
		t.Fatalf("0→4 decided %+v; want the chord, link %d", p, chord)
	}
	if got := reg.Snapshot().Counter(dataplane.MetricTxSent); got != 2 {
		t.Fatalf("tx.sent = %d; want one per Step", got)
	}
}
