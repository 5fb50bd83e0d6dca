package dataplane_test

import (
	"net/netip"
	"sync"
	"testing"

	"recycle/internal/core"
	"recycle/internal/dataplane"
	"recycle/internal/embedding"
	"recycle/internal/graph"
	"recycle/internal/rotation"
	"recycle/internal/route"
	"recycle/internal/topo"
)

func engineFixture(t testing.TB) (*dataplane.FIB, *graph.Graph, *rotation.System) {
	t.Helper()
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
	return fib, tp.Graph, sys
}

// TestEngineMatchesDecide: every packet decided by the sharded engine must
// match a direct FIB.Decide against the same link state.
func TestEngineMatchesDecide(t *testing.T) {
	fib, g, sys := engineFixture(t)

	var mu sync.Mutex
	var done []*dataplane.Batch
	eng := dataplane.NewEngine(fib, dataplane.EngineConfig{
		Shards: 4,
		OnDone: func(b *dataplane.Batch) {
			mu.Lock()
			done = append(done, b)
			mu.Unlock()
		},
	})
	eng.SetLink(1, true)
	eng.SetLink(7, true)
	st := eng.Snapshot()

	// One packet per (node, dst) pair, plus cycle-following arrivals on
	// every ingress interface.
	var pkts []dataplane.Packet
	for node := 0; node < g.NumNodes(); node++ {
		for dst := 0; dst < g.NumNodes(); dst++ {
			pkts = append(pkts, dataplane.Packet{
				Node: graph.NodeID(node), Dst: graph.NodeID(dst), Ingress: rotation.NoDart,
			})
			for _, nb := range g.Neighbors(graph.NodeID(node)) {
				in := rotation.ReverseID(sys.OutgoingDart(graph.NodeID(node), nb.Link))
				pkts = append(pkts, dataplane.Packet{
					Node: graph.NodeID(node), Dst: graph.NodeID(dst), Ingress: in,
					Hdr: core.Header{PR: true, DD: 3},
				})
			}
		}
	}
	want := make([]core.Decision, len(pkts))
	for i, p := range pkts {
		want[i] = fib.Decide(p.Node, p.Dst, p.Ingress, p.Hdr, st)
	}

	const batchSize = 64
	submitted := 0
	for off := 0; off < len(pkts); off += batchSize {
		end := off + batchSize
		if end > len(pkts) {
			end = len(pkts)
		}
		b := &dataplane.Batch{Pkts: make([]dataplane.Packet, end-off)}
		copy(b.Pkts, pkts[off:end])
		for !eng.Submit(b) {
		}
		submitted += len(b.Pkts)
	}
	if got := eng.Close(); got != uint64(submitted) {
		t.Fatalf("engine decided %d packets, submitted %d", got, submitted)
	}

	checked := 0
	for _, b := range done {
		for _, p := range b.Pkts {
			w := want[indexOf(pkts, p)]
			got := core.Decision{Egress: p.Egress, Event: p.Event, Header: p.Hdr, OK: p.OK}
			if got != w {
				t.Fatalf("engine decision for %d→%d (in=%d) = %+v, want %+v", p.Node, p.Dst, p.Ingress, got, w)
			}
			checked++
		}
	}
	if checked != submitted {
		t.Fatalf("OnDone delivered %d packets, submitted %d", checked, submitted)
	}

	// Step decides on the caller's goroutine through the same path: its
	// decisions must be bit-identical to FIB.DecideBatch's.
	stepper := dataplane.NewEngine(fib, dataplane.EngineConfig{Shards: 1})
	stepper.SetLink(1, true)
	stepper.SetLink(7, true)
	ref := append([]dataplane.Packet(nil), pkts...)
	fib.DecideBatch(ref, st)
	b := &dataplane.Batch{Pkts: append([]dataplane.Packet(nil), pkts...)}
	if got := stepper.Step(b); got != fib {
		t.Fatal("Step reported a FIB other than the one it forwards on")
	}
	for i := range ref {
		if b.Pkts[i] != ref[i] {
			t.Fatalf("Step decided %+v; DecideBatch %+v", b.Pkts[i], ref[i])
		}
	}
	if got := stepper.Close(); got != uint64(len(pkts)) {
		t.Fatalf("Step counted %d decisions; want %d", got, len(pkts))
	}
}

// indexOf locates a decided packet's original by its immutable key fields.
func indexOf(pkts []dataplane.Packet, p dataplane.Packet) int {
	for i := range pkts {
		if pkts[i].Node == p.Node && pkts[i].Dst == p.Dst && pkts[i].Ingress == p.Ingress {
			return i
		}
	}
	return -1
}

// TestEngineConcurrentStateSwaps hammers SetLink from a writer while
// batches stream through: the run must stay race-free (go test -race) and
// account for every packet.
func TestEngineConcurrentStateSwaps(t *testing.T) {
	fib, g, _ := engineFixture(t)
	var doneCount int
	var mu sync.Mutex
	eng := dataplane.NewEngine(fib, dataplane.EngineConfig{
		Shards: 4,
		OnDone: func(b *dataplane.Batch) {
			mu.Lock()
			doneCount += len(b.Pkts)
			mu.Unlock()
		},
	})

	stop := make(chan struct{})
	var flapper sync.WaitGroup
	flapper.Add(1)
	go func() {
		defer flapper.Done()
		down := false
		for {
			select {
			case <-stop:
				return
			default:
			}
			down = !down
			eng.SetLink(graph.LinkID(0), down)
			eng.SetLink(graph.LinkID(3), !down)
		}
	}()

	const batches = 200
	submitted := 0
	for i := 0; i < batches; i++ {
		b := &dataplane.Batch{Pkts: make([]dataplane.Packet, 32)}
		for j := range b.Pkts {
			b.Pkts[j] = dataplane.Packet{
				Node: graph.NodeID((i + j) % g.NumNodes()),
				Dst:  graph.NodeID((i * 3) % g.NumNodes()),
			}
		}
		for !eng.Submit(b) {
		}
		submitted += 32
	}
	decided := eng.Close()
	close(stop)
	flapper.Wait()
	if decided != uint64(submitted) {
		t.Fatalf("decided %d, submitted %d", decided, submitted)
	}
	if doneCount != submitted {
		t.Fatalf("OnDone saw %d, submitted %d", doneCount, submitted)
	}
}

// TestEngineSubmitAfterClose: a closed engine refuses work.
func TestEngineSubmitAfterClose(t *testing.T) {
	fib, _, _ := engineFixture(t)
	eng := dataplane.NewEngine(fib, dataplane.EngineConfig{Shards: 1})
	eng.Close()
	if eng.Submit(&dataplane.Batch{Pkts: make([]dataplane.Packet, 1)}) {
		t.Fatal("Submit succeeded after Close")
	}
}

// TestEngineWireBatches: raw frames submitted through a batch's Wire plane
// are forwarded by the workers — verdicts match a direct ForwardWire on an
// identical frame, and the decision counter includes them.
func TestEngineWireBatches(t *testing.T) {
	fib, g, _ := engineFixture(t)

	var mu sync.Mutex
	var done []*dataplane.Batch
	eng := dataplane.NewEngine(fib, dataplane.EngineConfig{
		Shards: 2,
		OnDone: func(b *dataplane.Batch) {
			mu.Lock()
			done = append(done, b)
			mu.Unlock()
		},
	})

	const batches = 16
	const perBatch = 8
	for i := 0; i < batches; i++ {
		b := &dataplane.Batch{Wire: make([]dataplane.WirePacket, perBatch)}
		for j := range b.Wire {
			src := graph.NodeID((i + j) % g.NumNodes())
			dst := graph.NodeID((i + 3*j + 1) % g.NumNodes())
			b.Wire[j] = dataplane.WirePacket{
				Node:    src,
				Ingress: rotation.NoDart,
				Buf:     mkPacket(t, src, dst, 64),
			}
		}
		if !eng.Submit(b) {
			t.Fatal("submit refused")
		}
	}
	if got := eng.Close(); got != batches*perBatch {
		t.Fatalf("decided %d frames; want %d", got, batches*perBatch)
	}
	st := dataplane.FromFailureSet(g.NumLinks(), nil)
	checked := 0
	for _, b := range done {
		for _, w := range b.Wire {
			src := w.Node
			dst := dataplane.NodeOfAddr(netip.AddrFrom4([4]byte(w.Buf[16:20])))
			fresh := mkPacket(t, src, dst, 64)
			wantEg, wantV := fib.ForwardWire(src, rotation.NoDart, st, fresh)
			if w.Verdict != wantV || w.Egress != wantEg {
				t.Fatalf("frame %d→%d: engine verdict %v egress %d, direct %v %d",
					src, dst, w.Verdict, w.Egress, wantV, wantEg)
			}
			checked++
		}
	}
	if checked != batches*perBatch {
		t.Fatalf("checked %d frames; want %d", checked, batches*perBatch)
	}
}
