package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"

	"recycle"
	"recycle/internal/core"
	"recycle/internal/dataplane"
	"recycle/internal/graph"
	"recycle/internal/header"
	"recycle/internal/rotation"
	"recycle/internal/telemetry"
)

// Replay pool for the fwd_* workloads. Set-up walks seeded packets hop by
// hop on the compiled FIB, checks every hop against the executable
// specification core.Protocol and records each hop's decision input with
// its expected output. The timed phase replays those records; it never
// walks, because a walking driver costs several times the decisions it
// drives.

const batchSize = 256

// numClasses is the number of decision events a FIB emits (core.EventRoute
// .. core.EventResume).
const numClasses = 5

// fwdSpec describes one fwd_* workload.
type fwdSpec struct {
	topo     string
	failures int  // failed links, drawn from the seed; the graph stays connected
	wire     bool // IPv4/IPv6 frames through ForwardWireBatch
	egress   bool // TxQueue attached
	// mix is the pool's composition by decision event, per thousand. The
	// natural share of recovery decisions swings with the failure set by a
	// factor of three, which would make the rate a function of the seed;
	// recorded hops are drawn class by class instead, so every seed
	// measures the same mix. Zero takes the hops as they come.
	mix [numClasses]int
	// segBatches is the fixed work of one timed segment, in batches.
	segBatches int
}

// hop is one recorded decision: input, and the output the specification
// demands.
type hop struct {
	node, dst graph.NodeID
	ingress   rotation.DartID
	hdr       core.Header
	want      core.Decision
	// Wire walks also keep the frame before and after the hop.
	frameIn, frameOut []byte
}

// slot is one pool batch with what it takes to restore and check it.
type slot struct {
	idx  int
	b    dataplane.Batch
	hops []hop
	// dirty lists the packets whose header the decision rewrites; only
	// those need restoring between passes.
	dirty []int32
	// arena backs every frame of a wire batch; tmpl is its pristine copy.
	arena, tmpl []byte
	classes     [numClasses]int64

	pass     int
	verify   bool // check outputs when this pass completes
	sampled  bool // time this pass from Submit to OnDone
	submitAt int64
	span     telemetry.Span // traced runs: the sampled pass, Submit to OnDone
}

type pool struct {
	fib     *recycle.FIB
	links   *dataplane.LinkState
	failed  []int
	slots   []*slot
	bySlot  map[*dataplane.Batch]*slot
	classes [numClasses]int64
	hash    uint64
	stretch float64 // mean hops walked ÷ hop-count shortest path in the surviving graph
}

func (p *pool) decisions() int { return len(p.slots) * batchSize }

// walker walks packets under one failure set and sorts the hops it
// records by decision event.
type walker struct {
	net     *recycle.Network
	fib     *recycle.FIB
	fs      *graph.FailureSet
	st      *dataplane.LinkState
	wire    bool
	byClass [numClasses][]hop
	walked  int
	hopsSum float64 // Σ hops walked ÷ shortest hop count
}

// walk sends one packet from src to dst. Every hop must agree with the
// specification, and the packet must arrive: the failure set leaves the
// graph connected, so §5 promises delivery.
func (w *walker) walk(src, dst graph.NodeID) error {
	g := w.net.Graph()
	spec := w.net.Protocol()
	maxHops := 4 * g.NumNodes()
	var (
		hdr     core.Header
		node    = src
		ingress = rotation.NoDart
		frame   []byte
		marked  bool
		hops    int
	)
	if w.wire {
		var err error
		if frame, err = w.fib.NewWireFrame(src, dst); err != nil {
			return err
		}
	}
	for node != dst {
		if hops >= maxHops {
			return fmt.Errorf("packet %d→%d under %v not delivered within %d hops", src, dst, w.fs, maxHops)
		}
		want := spec.Decide(node, dst, ingress, hdr, w.fs)
		if !want.OK {
			return fmt.Errorf("packet %d→%d under %v stranded at node %d", src, dst, w.fs, node)
		}
		h := hop{node: node, dst: dst, ingress: ingress, hdr: hdr, want: want}
		if w.wire {
			h.frameIn = append([]byte(nil), frame...)
			eg, verdict := w.fib.ForwardWire(node, ingress, w.st, frame)
			marked = marked || want.Header.PR
			if err := w.checkFrame(h, frame, eg, verdict, marked); err != nil {
				return err
			}
			h.frameOut = append([]byte(nil), frame...)
		} else if got := w.fib.Decide(node, dst, ingress, hdr, w.st); got != want {
			return fmt.Errorf("FIB.Decide at node %d toward %d: got %+v, specification says %+v", node, dst, got, want)
		}
		w.byClass[want.Event] = append(w.byClass[want.Event], h)
		hdr, ingress, node = want.Header, want.Egress, w.fib.Head(want.Egress)
		hops++
	}
	if hops > 0 {
		shortest := graph.HopDistances(g, src, w.fs)[dst]
		if shortest <= 0 {
			return fmt.Errorf("pair %d→%d is partitioned under %v", src, dst, w.fs)
		}
		w.walked++
		w.hopsSum += float64(hops) / float64(shortest)
	}
	return nil
}

// checkFrame holds a forwarded frame against the specification's decision:
// same egress, PR bit as decided, the node's rank stamped at detection,
// hop limit down by one and, on IPv4, a checksum that still sums to zero.
func (w *walker) checkFrame(h hop, frame []byte, eg rotation.DartID, verdict dataplane.WireVerdict, marked bool) error {
	if verdict != dataplane.WireForward || eg != h.want.Egress {
		return fmt.Errorf("ForwardWire at node %d toward %d: %v on dart %d, specification says forward on %d",
			h.node, h.dst, verdict, eg, h.want.Egress)
	}
	var (
		mark header.Mark
		err  error
		ttl  = 8
	)
	if w.fib.Codec() == dataplane.CodecDSCP {
		mark, err = header.DecodeDSCP(frame[1] >> 2)
		if header.Checksum(frame[:header.HeaderLen]) != 0 {
			return fmt.Errorf("ForwardWire at node %d: IPv4 checksum broken", h.node)
		}
	} else {
		mark, err = header.DecodeFlowLabel(uint32(frame[1]&0x0F)<<16 | uint32(frame[2])<<8 | uint32(frame[3]))
		ttl = 7
	}
	if frame[ttl] != h.frameIn[ttl]-1 {
		return fmt.Errorf("ForwardWire at node %d: hop limit %d → %d", h.node, h.frameIn[ttl], frame[ttl])
	}
	if !marked {
		return nil
	}
	if err != nil || mark.PR != h.want.Header.PR {
		return fmt.Errorf("ForwardWire at node %d: mark %+v (%v), specification says PR=%v", h.node, mark, err, h.want.Header.PR)
	}
	if h.want.Event == core.EventDetect {
		if rank := w.net.Quantiser().Rank(h.node, h.dst); mark.DD != rank {
			return fmt.Errorf("ForwardWire at node %d: stamped DD %d, rank is %d", h.node, mark.DD, rank)
		}
	}
	return nil
}

// buildPool is the whole set-up of a fwd_* workload: build the network
// through the facade, choose the failure set, walk, assemble the pool.
// extraFail and corrupt exist for the tests that check the checker.
func buildPool(spec fwdSpec, seed int64, batches int, extraFail []graph.LinkID, corrupt bool) (*pool, error) {
	net, err := recycle.FromTopology(spec.topo)
	if err != nil {
		return nil, err
	}
	fib, err := net.Compile()
	if err != nil {
		return nil, err
	}
	g := net.Graph()
	n := g.NumNodes()
	rng := rand.New(rand.NewSource(seed))

	candidates := []*graph.FailureSet{graph.NewFailureSet()}
	if spec.failures > 0 {
		if candidates, err = graph.SampleFailureScenarios(g, spec.failures, 64, seed); err != nil {
			return nil, err
		}
	}
	var w *walker
	for _, fs := range candidates {
		for _, l := range extraFail {
			fs.Add(l)
		}
		w = &walker{net: net, fib: fib, fs: fs, st: dataplane.FromFailureSet(g.NumLinks(), fs), wire: spec.wire}
		if n*n <= 4096 {
			// Small graph: every ordered pair, which is also the whole of
			// the delivery guarantee under this failure set.
			for s := 0; s < n; s++ {
				for d := 0; d < n; d++ {
					if err := w.walk(graph.NodeID(s), graph.NodeID(d)); err != nil {
						return nil, err
					}
				}
			}
		} else {
			for recorded := 0; recorded < batches*batchSize; {
				before := w.recorded()
				if err := w.walk(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))); err != nil {
					return nil, err
				}
				recorded += w.recorded() - before
			}
		}
		if w.covers(spec.mix) {
			break
		}
		w = nil
	}
	if w == nil {
		return nil, fmt.Errorf("none of %d failure sets drawn from seed %d produces every decision event of the mix", len(candidates), seed)
	}

	p := &pool{fib: fib, links: w.st, stretch: w.hopsSum / float64(w.walked),
		bySlot: make(map[*dataplane.Batch]*slot, batches)}
	for _, l := range w.fs.Links() {
		p.failed = append(p.failed, int(l))
	}
	hops := w.draw(spec.mix, batches*batchSize, rng)
	if corrupt {
		// One wrong expectation: replay must notice it.
		bad := &hops[rng.Intn(len(hops))]
		bad.want.Egress ^= 1
		if bad.frameOut != nil {
			bad.frameOut = append([]byte(nil), bad.frameOut...)
			bad.frameOut[len(bad.frameOut)-1] ^= 1
		}
	}
	for i := 0; i < batches; i++ {
		s := newSlot(i, hops[i*batchSize:(i+1)*batchSize], spec.wire)
		p.slots = append(p.slots, s)
		p.bySlot[&s.b] = s
		for c, k := range s.classes {
			p.classes[c] += k
		}
	}
	p.hash = hashHops(hops)
	return p, nil
}

func (w *walker) recorded() int {
	n := 0
	for _, c := range w.byClass {
		n += len(c)
	}
	return n
}

func (w *walker) covers(mix [numClasses]int) bool {
	for c, share := range mix {
		if share > 0 && len(w.byClass[c]) == 0 {
			return false
		}
	}
	return true
}

// draw fills the pool: with a mix, each class contributes its share, drawn
// with replacement from the hops recorded for it; without, the hops as
// walked. The result is shuffled across batches with the seed.
func (w *walker) draw(mix [numClasses]int, total int, rng *rand.Rand) []hop {
	out := make([]hop, 0, total)
	if mix == ([numClasses]int{}) {
		for _, c := range w.byClass {
			out = append(out, c...)
		}
		// The last walk may overshoot; a tiny graph may fall short.
		for len(out) < total {
			out = append(out, out[rng.Intn(len(out))])
		}
	} else {
		// Route decisions take what the other shares leave of the total.
		count := [numClasses]int{core.EventRoute: total}
		for c, share := range mix {
			if c != int(core.EventRoute) {
				count[c] = total * share / 1000
				count[core.EventRoute] -= count[c]
			}
		}
		for c, k := range count {
			for ; k > 0; k-- {
				out = append(out, w.byClass[c][rng.Intn(len(w.byClass[c]))])
			}
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out[:total]
}

func newSlot(idx int, hops []hop, wire bool) *slot {
	s := &slot{idx: idx, hops: hops}
	if wire {
		fl := len(hops[0].frameIn)
		s.arena = make([]byte, fl*len(hops))
		s.tmpl = make([]byte, fl*len(hops))
		s.b.Wire = make([]dataplane.WirePacket, len(hops))
		for i, h := range hops {
			copy(s.tmpl[i*fl:], h.frameIn)
			s.b.Wire[i] = dataplane.WirePacket{Node: h.node, Ingress: h.ingress, Buf: s.arena[i*fl : (i+1)*fl : (i+1)*fl]}
		}
		copy(s.arena, s.tmpl)
	} else {
		s.b.Pkts = make([]dataplane.Packet, len(hops))
		for i, h := range hops {
			s.b.Pkts[i] = dataplane.Packet{Node: h.node, Dst: h.dst, Ingress: h.ingress, Hdr: h.hdr}
			if h.want.Header != h.hdr {
				s.dirty = append(s.dirty, int32(i))
			}
		}
	}
	for _, h := range hops {
		s.classes[h.want.Event]++
	}
	return s
}

// restore puts the batch's inputs back after a pass. poison also wipes the
// outputs, so that a decision the engine skipped cannot pass the next
// check on the strength of the previous pass.
func (s *slot) restore(poison bool) {
	if s.b.Wire != nil {
		copy(s.arena, s.tmpl)
		if poison {
			for i := range s.b.Wire {
				s.b.Wire[i].Egress, s.b.Wire[i].Verdict = rotation.NoDart, dataplane.WireDropNotIP
			}
		}
		return
	}
	for _, i := range s.dirty {
		s.b.Pkts[i].Hdr = s.hops[i].hdr
	}
	if poison {
		for i := range s.b.Pkts {
			p := &s.b.Pkts[i]
			p.Egress, p.Event, p.OK = rotation.NoDart, core.EventDeliver, false
		}
	}
}

// check counts the outputs of the finished pass that differ from the
// recorded expectation.
func (s *slot) check() (bad int64) {
	if s.b.Wire != nil {
		fl := len(s.tmpl) / len(s.hops)
		for i := range s.b.Wire {
			p, h := &s.b.Wire[i], &s.hops[i]
			if p.Verdict != dataplane.WireForward || p.Egress != h.want.Egress || !bytes.Equal(s.arena[i*fl:(i+1)*fl], h.frameOut) {
				bad++
			}
		}
		return bad
	}
	for i := range s.b.Pkts {
		p, want := &s.b.Pkts[i], &s.hops[i].want
		if p.Egress != want.Egress || p.Event != want.Event || p.Hdr != want.Header || p.OK != want.OK {
			bad++
		}
	}
	return bad
}

// hasher is FNV-1a over 64-bit words.
type hasher struct {
	hash.Hash64
	buf [8]byte
}

func newHasher() *hasher { return &hasher{Hash64: fnv.New64a()} }

func (h *hasher) put(v uint64) {
	binary.LittleEndian.PutUint64(h.buf[:], v)
	h.Write(h.buf[:])
}

// hashHops fingerprints the pool: inputs and expected outputs in pool order.
func hashHops(hops []hop) uint64 {
	h := newHasher()
	put := h.put
	b2u := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	for i := range hops {
		x := &hops[i]
		put(uint64(x.node)<<32 | uint64(uint32(x.dst)))
		put(uint64(uint32(x.ingress))<<32 | uint64(uint32(x.want.Egress)))
		put(b2u(x.hdr.PR) | b2u(x.want.Header.PR)<<1 | uint64(x.want.Event)<<8)
		put(math.Float64bits(x.hdr.DD))
		put(math.Float64bits(x.want.Header.DD))
		h.Write(x.frameIn)
		h.Write(x.frameOut)
	}
	return h.Sum64()
}
