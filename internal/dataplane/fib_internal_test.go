package dataplane

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"recycle/internal/core"
	"recycle/internal/graph"
	"recycle/internal/rotation"
	"recycle/internal/route"
)

// popcount is what LinkState.down must equal: the set bits of the words.
func popcount(s *LinkState) int {
	n := 0
	for _, w := range s.bits {
		n += bits.OnesCount64(w)
	}
	return n
}

// TestLinkStateCountsDown: the failed-link count DecideBatch selects its
// loop on is the popcount of the bitset after any sequence of Set calls —
// most of them redundant (a down link set down again must not count twice)
// — and Clone, FromFailureSet and the engine's swaps carry it.
func TestLinkStateCountsDown(t *testing.T) {
	const links = 130 // three words, the last partly used
	rng := rand.New(rand.NewSource(23))
	s := NewLinkState(links)
	for step := 0; step < 4000; step++ {
		s.Set(graph.LinkID(rng.Intn(links)), rng.Intn(3) > 0)
		if s.down != popcount(s) || s.CountDown() != s.down {
			t.Fatalf("step %d: down = %d, CountDown = %d, popcount = %d", step, s.down, s.CountDown(), popcount(s))
		}
		if step%500 == 0 {
			c := s.Clone()
			c.Set(graph.LinkID(rng.Intn(links)), c.down < links/2)
			if c.down != popcount(c) || s.down != popcount(s) {
				t.Fatalf("step %d: clone counts %d of %d, original %d of %d", step, c.down, popcount(c), s.down, popcount(s))
			}
		}
	}
	if fs := FromFailureSet(links, graph.NewFailureSet(3, 64, 129, 3)); fs.down != 3 || popcount(fs) != 3 {
		t.Fatalf("FromFailureSet: down = %d, popcount = %d; want 3", fs.down, popcount(fs))
	}

	// The engine's snapshots: SetLink clones, a weight swap carries the
	// bits verbatim, a structural swap grows them and holds the removed
	// link down.
	g := graph.Ring(8)
	p, err := core.New(g, rotation.AdjacencyOrder(g), route.Build(g, route.HopCount), core.Config{Variant: core.Full})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := NewRecompiler(p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(rec.FIB(), EngineConfig{Shards: 1})
	defer eng.Close()
	for _, l := range []graph.LinkID{5, 2, 5, 7} {
		eng.SetLink(l, true)
	}
	eng.SetLink(7, false)
	eng.SetLink(6, false)
	for i, edits := range [][]graph.Edit{{graph.SetWeight(1, 4)}, {graph.AddLinkEdit(0, 4, 2), graph.RemoveLinkEdit(3)}} {
		d, err := rec.Apply(edits...)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
		if st, want := eng.Snapshot(), 2+i; st.down != want || popcount(st) != want {
			t.Fatalf("after %v: down = %d, popcount = %d; want %d", edits, st.down, popcount(st), want)
		}
	}
}

// TestDecideBatchMaskedEdges runs the inputs the masked loop could get
// wrong where the branch loop cannot — it loads both darts of every packet
// — through a batch forced onto it, then the batch lengths around the
// sample through DecideBatch itself. The all-up loops of both entry points
// (no link test) get every case's packet too, and the sweep. Every packet
// must come out as Decide decides it alone: a PR-set packet whose ingress
// names no dart is refused, never a panic, as
// TestDecideRefusesMarkedPacketWithoutIngress demands of the branch loop,
// and the tally counts Decide's events.
func TestDecideBatchMaskedEdges(t *testing.T) {
	// A triangle and a square, apart: pairs across them are unreachable.
	g := buildGraph(7, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 0}, [2]int{3, 4}, [2]int{4, 5}, [2]int{5, 6}, [2]int{6, 3})
	sys := rotation.AdjacencyOrder(g)
	p, err := core.New(g, sys, route.Build(g, route.HopCount), core.Config{Variant: core.Full})
	if err != nil {
		t.Fatal(err)
	}
	m := g.NumLinks()
	in := func(node graph.NodeID, l graph.LinkID) rotation.DartID {
		return rotation.ReverseID(sys.OutgoingDart(node, l))
	}
	pr := core.Header{PR: true, DD: 1}
	allUp := NewLinkState(m)
	oneDown := FromFailureSet(m, graph.NewFailureSet(4))      // 4–5, in the square
	node0Cut := FromFailureSet(m, graph.NewFailureSet(0, 2))  // every link of node 0
	squareCut := FromFailureSet(m, graph.NewFailureSet(3, 6)) // every link of node 3
	cases := []struct {
		name string
		st   *LinkState
		pkt  Packet
		ok   bool
	}{
		{"PR set, no ingress", oneDown, Packet{Node: 0, Dst: 2, Ingress: rotation.NoDart, Hdr: pr}, false},
		{"PR set, ingress -2", oneDown, Packet{Node: 0, Dst: 2, Ingress: -2, Hdr: pr}, false},
		{"PR set, ingress 2m", oneDown, Packet{Node: 0, Dst: 2, Ingress: rotation.DartID(2 * m), Hdr: pr}, false},
		{"PR set, ingress 2m+5", oneDown, Packet{Node: 0, Dst: 2, Ingress: rotation.DartID(2*m + 5), Hdr: pr}, false},
		{"PR set, ingress MaxInt32", oneDown, Packet{Node: 0, Dst: 2, Ingress: math.MaxInt32, Hdr: pr}, false},
		{"PR set, no ingress, unreachable", oneDown, Packet{Node: 0, Dst: 4, Ingress: rotation.NoDart, Hdr: pr}, false},
		{"dst == node", oneDown, Packet{Node: 4, Dst: 4, Ingress: rotation.NoDart}, false},
		{"dst == node, PR set", oneDown, Packet{Node: 1, Dst: 1, Ingress: in(1, 0), Hdr: pr}, true},
		{"unreachable", oneDown, Packet{Node: 0, Dst: 4, Ingress: rotation.NoDart}, false},
		{"unreachable, PR set", oneDown, Packet{Node: 1, Dst: 5, Ingress: in(1, 0), Hdr: pr}, true},
		{"detect", oneDown, Packet{Node: 4, Dst: 5, Ingress: rotation.NoDart}, true},
		{"PR set into the failure", oneDown, Packet{Node: 4, Dst: 6, Ingress: in(4, 3), Hdr: core.Header{PR: true, DD: 9}}, true},
		{"every link down", node0Cut, Packet{Node: 0, Dst: 1, Ingress: rotation.NoDart}, false},
		{"every link down, PR set", squareCut, Packet{Node: 3, Dst: 5, Ingress: in(3, 3), Hdr: core.Header{PR: true, DD: 9}}, false},
		{"forged PR, all up", allUp, Packet{Node: 4, Dst: 6, Ingress: in(4, 3), Hdr: pr}, true},
		{"forged PR, all up, no ingress", allUp, Packet{Node: 4, Dst: 6, Ingress: rotation.NoDart, Hdr: pr}, false},
		{"route, all up", allUp, Packet{Node: 4, Dst: 6, Ingress: rotation.NoDart}, true},
	}
	dense, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := CompileWithOptions(p, nil, CompileOptions{Columns: ColumnsShared})
	if err != nil {
		t.Fatal(err)
	}
	decided := func(f *FIB, st *LinkState, in Packet) Packet {
		d := f.Decide(in.Node, in.Dst, in.Ingress, in.Hdr, st)
		in.Egress, in.Event, in.Hdr, in.OK = d.Egress, d.Event, d.Header, d.OK
		return in
	}
	// entries runs a batch through both entry points; each must match
	// Decide packet by packet, and DecideBatchTally's counts Decide's events.
	entries := func(f *FIB, st *LinkState, batch []Packet, name string) {
		t.Helper()
		var want []Packet
		var wantTally [8]uint64
		for _, in := range batch {
			d := decided(f, st, in)
			want = append(want, d)
			if d.OK {
				wantTally[d.Event]++
			} else {
				wantTally[5]++
			}
		}
		bare, tallied := slices.Clone(batch), slices.Clone(batch)
		var tally [8]uint64
		f.DecideBatch(bare, st)
		f.DecideBatchTally(tallied, st, &tally)
		for i := range want {
			if bare[i] != want[i] || tallied[i] != want[i] {
				t.Errorf("%s (shared=%v, %d down), packet %d of %d: DecideBatch %+v, DecideBatchTally %+v, Decide %+v",
					name, f.SharedColumns(), st.CountDown(), i, len(batch), bare[i], tallied[i], want[i])
			}
		}
		if tally != wantTally {
			t.Errorf("%s (shared=%v, %d down), batch of %d: tally %v, Decide's events %v", name, f.SharedColumns(), st.CountDown(), len(batch), tally, wantTally)
		}
	}
	for _, f := range []*FIB{dense, shared} {
		for _, tc := range cases {
			want := decided(f, tc.st, tc.pkt)
			if want.OK != tc.ok {
				t.Fatalf("%s (shared=%v): Decide says OK=%v; the table expects %v", tc.name, f.SharedColumns(), want.OK, tc.ok)
			}
			// Alone, and between packets that take the fast path.
			filler := Packet{Node: 1, Dst: 2, Ingress: rotation.NoDart}
			for _, batch := range [][]Packet{{tc.pkt}, {filler, tc.pkt, filler}} {
				entries(f, allUp, batch, tc.name+", all up")
				f.decideBatchMasked(batch, tc.st)
				if got := batch[len(batch)/2]; got != want {
					t.Errorf("%s (shared=%v, batch of %d): masked loop %+v, Decide %+v", tc.name, f.SharedColumns(), len(batch), got, want)
				}
			}
		}

		// Batch lengths around the sample, at a re-cycling share on either
		// side of the threshold and with PR packets only beyond the sample.
		pool := make([]Packet, 0, len(cases))
		for _, tc := range cases {
			if tc.st == oneDown {
				pool = append(pool, tc.pkt)
			}
		}
		for _, n := range []int{0, 1, 31, 32, 33, 256} {
			for _, layout := range []string{"mixed", "clear", "PR beyond the sample"} {
				batch := make([]Packet, n)
				for i := range batch {
					batch[i] = pool[(i*7+n)%len(pool)]
					if layout == "clear" || layout == "PR beyond the sample" && i < prSample {
						batch[i].Hdr = core.Header{}
					}
				}
				for _, st := range []*LinkState{oneDown, allUp} {
					entries(f, st, batch, layout)
				}
			}
		}
	}

	// The selection rule itself: PR bits among the first prSample packets,
	// a fifth of them or more.
	marked := func(n int, pr ...int) []Packet {
		batch := make([]Packet, n)
		for _, i := range pr {
			batch[i].Hdr.PR = true
		}
		return batch
	}
	for _, tc := range []struct {
		name  string
		batch []Packet
		want  bool
	}{
		{"PR only beyond the sample", marked(64, 32, 33, 40, 41, 42, 50, 60, 63), false},
		{"6 of 32", marked(64, 0, 5, 10, 15, 20, 25, 40, 41, 42), false},
		{"7 of 32", marked(32, 0, 5, 10, 15, 20, 25, 31), true},
		{"1 of 5", marked(5, 4), true},
		{"1 of 6", marked(6, 0), false},
		{"1 of 1", marked(1, 0), true},
		{"0 of 1", marked(1), false},
	} {
		if got := recycling(tc.batch); got != tc.want {
			t.Errorf("recycling(%s) = %v; want %v", tc.name, got, tc.want)
		}
	}
}

// TestPageStoreInternsByContent: the full compare, not the hash, decides
// interning — under a constant hash distinct pages (a prefix of another
// among them) stay apart and equal pages intern once, into a copy — and
// the word hashes see every element: at each page length, changing any
// one element changes the hash, which covers both lanes and the tail.
func TestPageStoreInternsByContent(t *testing.T) {
	st := newPageStore(func([]int32) uint64 { return 7 })
	pages := [][]int32{{1, 2, 3, 4, 5}, {1, 2, 3, 4, 6}, {1, 2, 3, 4}, {-1, 2, 3, 4, 5}}
	var interned [][]int32
	for _, p := range pages {
		got := st.intern(append([]int32(nil), p...))
		if !slices.Equal(got, p) {
			t.Fatalf("intern(%v) = %v", p, got)
		}
		for _, prev := range interned {
			if &prev[0] == &got[0] {
				t.Fatalf("intern(%v) returned the page interned for %v", p, prev)
			}
		}
		interned = append(interned, got)
	}
	for i, p := range pages {
		in := append([]int32(nil), p...)
		if got := st.intern(in); &got[0] != &interned[i][0] || &got[0] == &in[0] {
			t.Fatalf("re-interning %v did not return its first copy", p)
		}
	}

	rng := rand.New(rand.NewSource(1))
	lengths := []int{128}
	for n := 1; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		p32, p16 := make([]int32, n), make([]uint16, n)
		for i := range p32 {
			p32[i], p16[i] = int32(rng.Uint32()), uint16(rng.Uint32())
		}
		h32, h16 := hashInt32s(p32), hashUint16s(p16)
		for i := 0; i < n; i++ {
			old32, old16 := p32[i], p16[i]
			p32[i] ^= int32(1 + rng.Intn(math.MaxInt32))
			p16[i] ^= uint16(1 + rng.Intn(math.MaxUint16))
			if hashInt32s(p32) == h32 {
				t.Fatalf("length %d: changing int32 element %d left the hash unchanged", n, i)
			}
			if hashUint16s(p16) == h16 {
				t.Fatalf("length %d: changing uint16 element %d left the hash unchanged", n, i)
			}
			p32[i], p16[i] = old32, old16
		}
	}
}
