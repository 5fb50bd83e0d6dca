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
// including a structural one, which adds the removed link's bit for good.
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

	// Structural swap: a chord is appended and link 3 removed (any ring
	// link can go with the chord in place); no ID moves.
	d, err = rec.Apply(graph.AddLinkEdit(0, 4, 2), graph.RemoveLinkEdit(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	st := eng.Snapshot()
	if st.NumLinks() != g.NumLinks()+1 { // +1 appended; the removed one stays
		t.Fatalf("swapped state sized %d; want %d", st.NumLinks(), g.NumLinks()+1)
	}
	if !st.Down(5) || !st.Down(2) || !st.Down(3) {
		t.Fatal("structural swap lost link state or left the removed link up")
	}
	if st.CountDown() != 3 {
		t.Fatalf("structural swap invented failures: %d down", st.CountDown())
	}
}

// rigidEgress is an Egress without RebindDarts: swaps that append links
// must still be refused for it.
type rigidEgress struct{}

func (rigidEgress) Transmit(*dataplane.Batch, *dataplane.LinkState) {}

// TestEngineSwapRefusals covers the guarded error paths. A TxQueue
// egress grows across swaps that append links
// (TestStructuralSwapRebindsEgress), so the egress refusal applies only
// to egresses that cannot; a removal moves no dart and needs none.
func TestEngineSwapRefusals(t *testing.T) {
	rec, _ := swapFixture(t, "ring:8")
	fib := rec.FIB()
	eng := dataplane.NewEngine(fib, dataplane.EngineConfig{Shards: 1, Egress: rigidEgress{}})
	defer eng.Close()

	if err := eng.SwapFIB(nil); err == nil {
		t.Fatal("nil FIB accepted")
	}
	d, err := rec.Apply(graph.RemoveLinkEdit(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.ApplyDelta(d); err != nil {
		t.Fatalf("removal refused with a rigid egress attached: %v", err)
	}
	d2, err := rec.Apply(graph.AddLinkEdit(0, 3, 2), graph.RemoveLinkEdit(1))
	if err != nil {
		t.Fatal(err)
	}
	if !d2.Structural {
		t.Fatal("add+remove delta not flagged structural")
	}
	if err := eng.ApplyDelta(d2); err == nil {
		t.Fatal("appended link accepted with a non-growable egress attached")
	}
	small, _ := swapFixture(t, "ring:6")
	if err := eng.SwapFIB(small.FIB()); err == nil {
		t.Fatal("shrunk link space accepted")
	}
}

// TestRemovalKeepsLinkIdentity: a removal moves no other link. On ring:8
// link 5 (5–6) fails, a 0–4 chord turns up, link 0 is decommissioned and
// link 5 heals: the repair lands on link 5 and the only link left down is
// the removed one. A packet the old FIB sent into cycle following, over a
// dart above the removed ID, carries on over the same link after the
// swap: the dart still ends where it did and the next hop is the one the
// old FIB would have taken.
func TestRemovalKeepsLinkIdentity(t *testing.T) {
	rec, _ := swapFixture(t, "ring:8")
	eng := dataplane.NewEngine(rec.FIB(), dataplane.EngineConfig{Shards: 1})
	defer eng.Close()
	eng.SetLink(5, true)
	d, err := rec.Apply(graph.AddLinkEdit(0, 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}

	// 5→6 meets the failed link 5 and recycles towards node 4.
	old, oldSt := eng.FIB(), eng.Snapshot()
	b := &dataplane.Batch{Pkts: []dataplane.Packet{{Node: 5, Dst: 6, Ingress: rotation.NoDart}}}
	eng.Step(b)
	sent := b.Pkts[0]
	if !sent.OK || !sent.Hdr.PR || rotation.LinkOf(sent.Egress) == 0 {
		t.Fatalf("5→6 decided %+v; want a recycled packet on a link above 0", sent)
	}
	at := old.Head(sent.Egress)
	want := old.Decide(at, 6, sent.Egress, sent.Hdr, oldSt)

	d, err = rec.Apply(graph.RemoveLinkEdit(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	if h := eng.FIB().Head(sent.Egress); h != at {
		t.Fatalf("dart %d in flight now ends at node %d; it ended at %d", sent.Egress, h, at)
	}
	b.Pkts[0] = dataplane.Packet{Node: at, Dst: 6, Ingress: sent.Egress, Hdr: sent.Hdr}
	eng.Step(b)
	if got := b.Pkts[0]; !got.OK || got.Egress != want.Egress || got.Hdr != want.Header {
		t.Fatalf("after the swap the packet at %d took dart %d (%+v); the old FIB took %d", at, got.Egress, got, want.Egress)
	}

	eng.SetLink(5, false)
	st := eng.Snapshot()
	if st.CountDown() != 1 || !st.Down(0) {
		down := []graph.LinkID{}
		for l := graph.LinkID(0); int(l) < st.NumLinks(); l++ {
			if st.Down(l) {
				down = append(down, l)
			}
		}
		t.Fatalf("after link 5 healed, links %v are down; want only the removed link 0", down)
	}
	if eng.SetLink(0, false); !eng.Snapshot().Down(0) {
		t.Fatal("a repair brought the removed link 0 back up")
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

	// A dart beyond the dart space has no link behind it: a counted
	// link-down drop, never a panic.
	if v := tx.Send(rotation.DartID(10_000), 8192, nil); v != dataplane.TxDropLinkDown {
		t.Fatalf("out-of-range dart: %v; want drop-link-down", v)
	}
	if got := reg.Snapshot().Counter(dataplane.MetricTxDropLinkDown); got != 1 {
		t.Fatalf("out-of-range drop not counted: %d", got)
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
