package dataplane

import (
	"fmt"
	"math"
	"time"

	"recycle/internal/core"
	"recycle/internal/graph"
	"recycle/internal/header"
	"recycle/internal/par"
	"recycle/internal/rotation"
	"recycle/internal/route"
	"recycle/internal/telemetry"
)

// MetricCompilePhaseNs is the shared-registry histogram of compile
// phase durations (quantiser build, column fill, dart fill) — one
// observation per phase per compile, 10µs…2.6s exponential buckets.
const MetricCompilePhaseNs = "compile.phase_ns"

// compilePhaseBuckets spans 10µs to ~2.6s.
func compilePhaseBuckets() []int64 { return telemetry.ExponentialBuckets(10_000, 4, 10) }

// Codec identifies the wire encoding a compiled network stamps its PR
// marks with, selected by Compile from the quantised DD bit budget.
type Codec uint8

const (
	// CodecDSCP: IPv4 DSCP pool 2, 3 DD bits — the paper's §6 proposal,
	// chosen when every quantised discriminator fits.
	CodecDSCP Codec = iota
	// CodecFlowLabel: IPv6 flow label, 17 DD bits — the escape hatch for
	// larger diameters and weight-sum discriminators.
	CodecFlowLabel
)

// String names the codec.
func (c Codec) String() string {
	switch c {
	case CodecDSCP:
		return "dscp"
	case CodecFlowLabel:
		return "flow-label"
	}
	return fmt.Sprintf("Codec(%d)", uint8(c))
}

// CodecFor returns the wire codec a b-bit quantised discriminator code
// compiles to — the single selection rule Compile, the facade and the
// reporting tools all share.
func CodecFor(bits int) Codec {
	if header.FitsDSCP(bits) {
		return CodecDSCP
	}
	return CodecFlowLabel
}

// FIB is the compiled forwarding state of one PR network: every lookup
// core.Protocol performs through route.Table and rotation.System methods
// flattened into dense arrays indexed by node, destination and dart. A
// decision is a handful of array indexings and allocates nothing. The rank
// (core.Quantiser) is the only discriminator unit the FIB holds, so Decide
// is bit-identical — Header included, on every float input — to the
// Decide of a core.Protocol built with Config.Quantise over the same
// tables; for hop counts the rank is the hop count and that is the raw
// protocol too (see the differential tests).
//
// A FIB is immutable after Compile and safe for concurrent use by any
// number of forwarding goroutines.
type FIB struct {
	variant  core.Variant
	numNodes int
	numLinks int

	// nextDart[node*numNodes+dst] is the shortest-path egress dart from
	// node toward dst, -1 at the destination or when unreachable.
	nextDart []int32
	// ddQ[node*numNodes+dst] is the discriminator, as its rank
	// (core.Quantiser): a dense order-preserving code the wire codecs can
	// always carry, core.RankUnreachable for unreachable pairs. §4.3 only
	// ever compares discriminators toward the same destination, where rank
	// comparison is exactly raw comparison, so one unit serves Decide, the
	// header it stamps and the wire mark.
	ddQ []uint32
	// pages is the shared-column page store when the FIB was compiled
	// with ColumnsShared (dense planes above are nil then): identical
	// page-sized runs of column content interned once and shared across
	// destinations, with uint16 ranks. See fibpages.go. Every read goes
	// through the ndAt/ddqAt accessors, which keep the dense fast path
	// inlined.
	pages *fibPages
	// ddBits is the bit budget of the largest rank; codec is the wire
	// encoding Compile selected from it.
	ddBits int
	codec  Codec
	// faceNext[d] is φ(d), the cycle-following successor of dart d. It is
	// the [1:] view of faceGuard, whose entry 0 is -1: the wire path reads
	// faceGuard[ingress+1] whether or not the frame has an ingress, and
	// rotation.NoDart lands on the guard. See newFaceTable.
	faceNext  []int32
	faceGuard []int32
	// sigma[d] is σ(d), the complementary-cycle egress for a failed dart.
	sigma []int32
	// head[d] is the node dart d points at.
	head []int32
	// removed lists, in ID order, the links the graph removed
	// (graph.Graph.Removed): their darts stay in the tables above, and
	// the state LinkState builds holds them down for good.
	removed []graph.LinkID
}

// ColumnMode selects the FIB's column representation.
type ColumnMode uint8

const (
	// ColumnsAuto picks shared pages at sharedAutoMinNodes nodes and up,
	// dense planes below.
	ColumnsAuto ColumnMode = iota
	// ColumnsDense forces the dense n×n planes.
	ColumnsDense
	// ColumnsShared forces the shared-column page representation.
	ColumnsShared
)

// CompileOptions tune how Compile lays out and builds the FIB. The zero
// value is the default: automatic worker fan-out, automatic column mode,
// default page size. Every combination produces a FIB whose decisions —
// and whose per-entry table contents, as read through the accessors —
// are bit-identical; the options trade compile latency and resident
// bytes only.
type CompileOptions struct {
	// Workers caps the per-destination compile fan-out: 0 uses the
	// automatic GOMAXPROCS-based count, 1 forces a sequential build.
	Workers int
	// Columns selects dense planes or shared pages.
	Columns ColumnMode
	// PageSize is the shared-page size in rows (rounded down to a power
	// of two; 0 means the default).
	PageSize int
	// Tracer receives the compile's span tree — a root "compile" span
	// with per-phase children (quantiser build, column fill with one
	// grandchild per fan-out worker, dart fill). Nil traces nothing and
	// costs nothing.
	Tracer *telemetry.Tracer
	// TraceParent parents the compile's root span (0 makes it a root).
	TraceParent telemetry.SpanID
	// Metrics, when set, receives per-phase durations into the
	// MetricCompilePhaseNs histogram.
	Metrics *telemetry.Registry
}

// Compile flattens a core.Protocol into a FIB and selects the wire codec:
// DSCP pool 2 when the rank-quantised discriminators fit its 3 DD bits,
// the IPv6 flow label otherwise. It is the offline step the paper assigns
// to the designated server (§4.3): run once per topology change, never at
// failure time.
func Compile(p *core.Protocol) (*FIB, error) { return CompileWith(p, nil) }

// CompileWith is Compile reusing a prebuilt quantiser over p.Routes()
// (nil builds one), sparing callers that already hold one — like the
// recycle façade — a second O(n² log n) pass and a second n² table.
func CompileWith(p *core.Protocol, quant *core.Quantiser) (*FIB, error) {
	return CompileWithOptions(p, quant, CompileOptions{})
}

// CompileWithOptions is CompileWith with explicit layout and parallelism
// choices. Destination columns are independent — each is a pure function
// of (routing table, rotation system, rank column) — so the fill fans
// out across workers over a static partition; output is bit-identical at
// any worker count.
func CompileWithOptions(p *core.Protocol, quant *core.Quantiser, opts CompileOptions) (*FIB, error) {
	if p == nil {
		return nil, fmt.Errorf("dataplane: nil protocol")
	}
	g := p.Graph()
	sys := p.System()
	tbl := p.Routes()
	n := g.NumNodes()
	m := g.NumLinks()
	tr := opts.Tracer
	var phaseHist *telemetry.Histogram
	if opts.Metrics != nil {
		phaseHist = opts.Metrics.Histogram(MetricCompilePhaseNs, compilePhaseBuckets())
	}
	root := tr.Start("compile", opts.TraceParent)
	root.SetAttr(telemetry.AttrNodes, int64(n))
	defer root.End()
	// A quantised protocol's own quantiser wins over the supplied one —
	// they are identical by construction, but the protocol's is the one its
	// walks actually stamp from.
	if pq := p.Quantiser(); pq != nil {
		quant = pq
	} else if quant == nil {
		sp, t0 := tr.Start("compile.quantise", root.ID()), time.Now()
		quant = core.BuildQuantiser(tbl)
		sp.End()
		if phaseHist != nil {
			phaseHist.Observe(int64(time.Since(t0)))
		}
	}
	f := &FIB{
		variant:  p.Variant(),
		numNodes: n,
		numLinks: m,
		ddBits:   quant.Bits(),
		sigma:    make([]int32, 2*m),
		head:     make([]int32, 2*m),
		removed:  g.RemovedLinks(),
	}
	f.faceGuard, f.faceNext = newFaceTable(m)
	if !header.FitsFlowLabel(f.ddBits) {
		// Unreachable for any graph the 65536-node address plan admits
		// (ranks are < numNodes); kept as a guard for exotic callers.
		return nil, fmt.Errorf("dataplane: quantised DD needs %d bits; flow label carries %d",
			f.ddBits, header.FlowLabelDDBits)
	}
	f.codec = CodecFor(f.ddBits)
	shared := opts.Columns == ColumnsShared ||
		(opts.Columns == ColumnsAuto && n >= sharedAutoMinNodes)
	if n >= 1<<16 {
		// The uint16 rank pages need ranks (< numNodes) below the
		// rank16Unreachable sentinel; beyond the address plan's 65536
		// nodes fall back to dense planes.
		shared = false
	}
	fillSpan, fillT0 := tr.Start("compile.fill", root.ID()), time.Now()
	obs := tr.RangeObserver("compile.fill.worker", fillSpan.ID())
	if shared {
		ps := opts.PageSize
		if ps <= 0 {
			ps = defaultPageSize
		}
		f.pages = newFIBPages(n, ps)
		st := newPageStores()
		par.ForObserved(n, opts.Workers, obs, func(_, lo, hi int) {
			sc := newColScratch(n)
			for dst := lo; dst < hi; dst++ {
				f.computeColumn(graph.NodeID(dst), tbl, quant, sc)
				f.pages.setColumn(dst, n, sc, st)
			}
		})
	} else {
		f.nextDart = make([]int32, n*n)
		f.ddQ = make([]uint32, n*n)
		par.ForObserved(n, opts.Workers, obs, func(_, lo, hi int) {
			for dst := lo; dst < hi; dst++ {
				f.fillDest(graph.NodeID(dst), tbl, sys, quant)
			}
		})
	}
	fillSpan.End()
	if phaseHist != nil {
		phaseHist.Observe(int64(time.Since(fillT0)))
	}
	dartSpan, dartT0 := tr.Start("compile.darts", root.ID()), time.Now()
	f.fillDarts(sys)
	dartSpan.End()
	if phaseHist != nil {
		phaseHist.Observe(int64(time.Since(dartT0)))
	}
	return f, nil
}

// fillDest writes destination dst's column of the dense planes. The column
// is a pure function of dst's shortest-path tree and rank column, which is
// what makes the recompiler's per-destination patching exact.
func (f *FIB) fillDest(dst graph.NodeID, tbl *route.Table, sys *rotation.System, quant *core.Quantiser) {
	n := f.numNodes
	for node := 0; node < n; node++ {
		idx := node*n + int(dst)
		link := tbl.NextLink(graph.NodeID(node), dst)
		if link == graph.NoLink {
			f.nextDart[idx] = -1
		} else {
			f.nextDart[idx] = int32(sys.OutgoingDart(graph.NodeID(node), link))
		}
		f.ddQ[idx] = quant.Rank(graph.NodeID(node), dst)
	}
}

// computeColumn writes destination dst's column into contiguous scratch
// buffers — the shared-column analogue of fillDest's strided writes,
// entry for entry the same values. The dart is formed inline: link l's
// darts are 2l from its A end and 2l+1 from its B end (rotation.DartsOf).
func (f *FIB) computeColumn(dst graph.NodeID, tbl *route.Table, quant *core.Quantiser, sc *colScratch) {
	links := tbl.Graph().Links()
	for node, link := range tbl.Tree(dst).NextLink {
		d := int32(-1)
		if link != graph.NoLink {
			d = 2 * int32(link)
			if links[link].A != graph.NodeID(node) {
				d++
			}
		}
		sc.nd[node] = d
		sc.ddq[node] = rank16(quant.Rank(graph.NodeID(node), dst))
	}
}

// fillDarts (re)writes the per-dart permutation tables from a rotation
// system.
func (f *FIB) fillDarts(sys *rotation.System) {
	for d := 0; d < 2*f.numLinks; d++ {
		id := rotation.DartID(d)
		f.faceNext[d] = int32(sys.FaceNext(id))
		f.sigma[d] = int32(sys.Complementary(id))
		f.head[d] = int32(sys.Dart(id).Head)
	}
}

// newFaceTable allocates the φ table of an m-link FIB: 2m+1 entries, a
// guard entry -1 in front and the 2m darts behind it as the second result.
// The table is never empty, so a zero-link FIB answers "no dart" from the
// guard like any other.
func newFaceTable(m int) (guarded, faceNext []int32) {
	guarded = make([]int32, 2*m+1)
	guarded[0] = -1
	return guarded, guarded[1:]
}

// cloneFor returns a copy of f sized for numLinks links for the delta
// recompiler to patch, copying only the planes that can change. The
// next-hop table is always deep-copied; the rank plane is shared when
// shareDD is set (no destination re-ranked, so it is bit-identical by
// construction); the dart tables are shared unless the link count grew —
// link IDs never move, so only an appended link changes the rotation
// system — and freshly allocated otherwise. The original stays
// immutable, which is what lets an Engine keep forwarding on it while
// the copy is being patched.
func (f *FIB) cloneFor(numLinks int, shareDD bool) *FIB {
	c := &FIB{
		variant:  f.variant,
		numNodes: f.numNodes,
		numLinks: numLinks,
		ddBits:   f.ddBits,
		codec:    f.codec,
		removed:  f.removed,
	}
	if f.pages != nil {
		// Shared columns: copy only the page pointer tables; the patch
		// paths give pages private copies on first write (CoW), so every
		// untouched page stays shared with f.
		c.pages = f.pages.clone(shareDD)
	} else {
		c.nextDart = append([]int32(nil), f.nextDart...)
		if shareDD {
			c.ddQ = f.ddQ
		} else {
			c.ddQ = append([]uint32(nil), f.ddQ...)
		}
	}
	if numLinks == f.numLinks {
		c.faceGuard, c.faceNext, c.sigma, c.head = f.faceGuard, f.faceNext, f.sigma, f.head
	} else {
		c.faceGuard, c.faceNext = newFaceTable(numLinks)
		c.sigma = make([]int32, 2*numLinks)
		c.head = make([]int32, 2*numLinks)
	}
	return c
}

// ndAt and ddqAt are the only reads of the column planes. Both layouts
// are inlined at every call site (-gcflags=-m shows the fibPages methods
// inlined too), so a decision pays one nil test to pick dense indexing
// or the shared-column page walk. ColumnsAuto pages
// from sharedAutoMinNodes up, so of the gated workloads the rand:512
// ones (fwd_clean, fwd_egress, ctl_churn) run paged and only geant
// (fwd_recycle, fwd_wire) runs dense. Neither path allocates.

// ndAt returns the shortest-path egress dart entry for (node, dst): -1
// at the destination or when unreachable.
func (f *FIB) ndAt(node, dst int) int32 {
	if f.nextDart != nil {
		return f.nextDart[node*f.numNodes+dst]
	}
	return f.pages.ndAt(node, dst)
}

// ddqAt returns the rank-quantised discriminator for (node, dst);
// core.RankUnreachable when unreachable.
func (f *FIB) ddqAt(node, dst int) uint32 {
	if f.ddQ != nil {
		return f.ddQ[node*f.numNodes+dst]
	}
	return f.pages.ddqAt(node, dst)
}

// Variant returns the compiled termination variant.
func (f *FIB) Variant() core.Variant { return f.variant }

// NumNodes returns the node count the FIB was compiled for.
func (f *FIB) NumNodes() int { return f.numNodes }

// NumLinks returns the link count the FIB was compiled for, removed links
// included.
func (f *FIB) NumLinks() int { return f.numLinks }

// LinkState compiles a failure set (nil allowed) into a state for f's
// link space with f's removed links down for good: their darts keep their
// places in the cycle tables, so a decision is only right under a state
// that holds them down, and Set never brings them up.
func (f *FIB) LinkState(fs *graph.FailureSet) *LinkState {
	st := FromFailureSet(f.numLinks, fs)
	for _, l := range f.removed {
		st.Set(l, true)
	}
	st.removed = f.removed
	return st
}

// Head returns the node dart d points at.
func (f *FIB) Head(d rotation.DartID) graph.NodeID { return graph.NodeID(f.head[d]) }

// Codec returns the wire encoding Compile selected for this network.
func (f *FIB) Codec() Codec { return f.codec }

// DDBits returns the bit budget of the quantised discriminator code.
func (f *FIB) DDBits() int { return f.ddBits }

// WireDD returns the quantised discriminator the wire path stamps for
// (node, dst), or ok=false for unreachable pairs. Unlike the raw
// discriminator it always fits the compiled codec.
func (f *FIB) WireDD(node, dst graph.NodeID) (uint32, bool) {
	q := f.ddqAt(int(node), int(dst))
	return q, q != core.RankUnreachable
}

// Decide performs one forwarding decision on the compiled tables, with
// zero allocations: bit-identical to the Decide of the Config.Quantise
// protocol over the same tables with the same arguments (st standing in
// for the failure set). Header.DD is a rank: stamped as one at detection,
// compared as one in the termination test, otherwise passed through
// untouched. It is the one slow half of the rule; the wire path calls it
// too, on every frame that misses commonEgress.
func (f *FIB) Decide(node, dst graph.NodeID, ingress rotation.DartID, hdr core.Header, st *LinkState) core.Decision {
	if hdr.PR {
		if ingress < 0 || int(ingress) >= len(f.faceNext) {
			// A PR-marked packet with no ingress interface is a protocol
			// impossibility (re-cycling starts at a failure, never at the
			// origin). core treats it as a caller bug and panics; the
			// dataplane faces untrusted wire bytes — and, across a
			// structural hot-swap, darts of a retired FIB — so it refuses
			// the packet instead of crashing the engine.
			return core.Decision{Egress: rotation.NoDart, Header: hdr}
		}
		// Cycle following: egress is φ(ingress).
		eg := f.faceNext[ingress]
		if !st.Down(graph.LinkID(eg >> 1)) {
			return core.Decision{Egress: rotation.DartID(eg), Event: core.EventCycle, Header: hdr, OK: true}
		}
		// Failure while cycle following: termination test.
		if f.variant == core.Basic || rankDD(f.ddqAt(int(node), int(dst))) < hdr.DD {
			hdr.PR = false
			d := f.decideSP(node, dst, hdr, st, true)
			if !d.OK {
				return core.Decision{Egress: rotation.NoDart, Header: hdr}
			}
			return d
		}
		if cand, ok := f.firstUp(eg, st); ok {
			return core.Decision{Egress: rotation.DartID(cand), Event: core.EventContinue, Header: hdr, OK: true}
		}
		return core.Decision{Egress: rotation.NoDart, Header: hdr}
	}
	return f.decideSP(node, dst, hdr, st, false)
}

// decideSP is the shortest-path half of the forwarding rule, shared by the
// fresh and resumed (PR bit just cleared) entry points.
func (f *FIB) decideSP(node, dst graph.NodeID, hdr core.Header, st *LinkState, resumed bool) core.Decision {
	nd := f.ndAt(int(node), int(dst))
	if nd < 0 {
		return core.Decision{Egress: rotation.NoDart, Header: hdr}
	}
	if !st.Down(graph.LinkID(nd >> 1)) {
		ev := core.EventRoute
		if resumed {
			ev = core.EventResume
		}
		return core.Decision{Egress: rotation.DartID(nd), Event: ev, Header: hdr, OK: true}
	}
	// Failure detected on the shortest-path egress: set the PR bit, stamp
	// this router's rank, take the complementary cycle.
	hdr.PR = true
	if f.variant == core.Full {
		hdr.DD = rankDD(f.ddqAt(int(node), int(dst)))
	}
	if eg, ok := f.firstUp(nd, st); ok {
		return core.Decision{Egress: rotation.DartID(eg), Event: core.EventDetect, Header: hdr, OK: true}
	}
	return core.Decision{Egress: rotation.NoDart, Header: hdr}
}

// rankDD is a rank as Header.DD carries it, the conversion core's
// quantised protocol makes: float64 holds every uint32 exactly, and
// RankUnreachable is +Inf, so that no forged header — however large — reads
// as farther than a node that cannot reach the destination at all.
func rankDD(r uint32) float64 {
	if r == core.RankUnreachable {
		return math.Inf(1)
	}
	return float64(r)
}

// commonEgress is the egress of the two common cases, picked as data:
// φ(ingress) when sel is all ones (the PR bit is set), the shortest-path
// dart nd when sel is 0. Go emits a branch, never a CMOV, for
// `if pr { eg = φ }`, and behind a failure the bit arrives in no learnable
// order; so both darts are loaded and one is kept by mask. It is the one
// text of that choice for the wire steps (forwardWire4/6) and the struct
// loop (decideBatchMasked). NoDart+1 indexes the guard entry, and an
// ingress outside [NoDart, 2m) reads -1 like it, behind a branch no packet
// of a real network takes.
func (f *FIB) commonEgress(nd int32, ingress rotation.DartID, sel int32) int32 {
	fn := int32(-1)
	if i := uint(ingress) + 1; i < uint(len(f.faceGuard)) {
		fn = f.faceGuard[i]
	}
	return nd ^ (nd^fn)&sel
}

// The rule DecideBatch picks its loop by, beside a failed link in the
// snapshot. The share is the measured crossover of the two loops (rand:512
// with one to four failed links: the masked loop loses 6–8 % at a 13–14 %
// re-cycling share and wins 5–10 % at 22 %). Reading 32 packets is ≈ 100
// cycles a batch, 1–4 % of a branch-loop batch on a failed network, and
// sits behind the link-down test so that a clean one never pays it.
const (
	prSample   = 32 // leading packets whose PR bits are counted
	prShareDen = 5  // masked loop from a share of 1/prShareDen up
)

// DecideBatch decides a whole batch in one call, writing each packet's
// Egress, Event, Hdr and OK in place. This is the engine's inner loop:
// the two overwhelmingly common cases — shortest-path forwarding on an up
// link, cycle following on an up link — are decided inline so the per-
// packet cost is a couple of dependent loads, and consecutive packets
// pipeline through the CPU; only failure-touching packets take the full
// Decide path.
//
// An all-up snapshot (st.CountDown() == 0) takes the first loop: no link
// test, which could only answer "up", so a fast case is the bare lookup —
// failure-free traffic pays nothing for recovery, the paper's premise. On
// a failed snapshot the next loop branches on the PR bit, the faster form
// while few packets re-cycle. When at least a fifth of the batch's first
// prSample packets carry the bit, the branch mispredicts often enough to
// cost more than the second load, and decideBatchMasked selects the dart by
// mask instead. Every loop hands every miss to Decide, so the choice moves
// speed only, never a decision.
func (f *FIB) DecideBatch(pkts []Packet, st *LinkState) {
	if st.down == 0 {
		for i := range pkts {
			p := &pkts[i]
			if p.Hdr.PR {
				if p.Ingress >= 0 && int(p.Ingress) < len(f.faceNext) {
					p.Egress, p.Event, p.OK = rotation.DartID(f.faceNext[p.Ingress]), core.EventCycle, true
					continue
				}
			} else if nd := f.ndAt(int(p.Node), int(p.Dst)); nd >= 0 {
				p.Egress, p.Event, p.OK = rotation.DartID(nd), core.EventRoute, true
				continue
			}
			d := f.Decide(p.Node, p.Dst, p.Ingress, p.Hdr, st)
			p.Egress, p.Event, p.Hdr, p.OK = d.Egress, d.Event, d.Header, d.OK
		}
		return
	}
	if recycling(pkts) {
		f.decideBatchMasked(pkts, st)
		return
	}
	for i := range pkts {
		p := &pkts[i]
		if p.Hdr.PR {
			if p.Ingress >= 0 && int(p.Ingress) < len(f.faceNext) {
				eg := f.faceNext[p.Ingress]
				if !st.Down(graph.LinkID(eg >> 1)) {
					p.Egress, p.Event, p.OK = rotation.DartID(eg), core.EventCycle, true
					continue
				}
			}
		} else {
			nd := f.ndAt(int(p.Node), int(p.Dst))
			if nd >= 0 && !st.Down(graph.LinkID(nd>>1)) {
				p.Egress, p.Event, p.OK = rotation.DartID(nd), core.EventRoute, true
				continue
			}
		}
		d := f.Decide(p.Node, p.Dst, p.Ingress, p.Hdr, st)
		p.Egress, p.Event, p.Hdr, p.OK = d.Egress, d.Event, d.Header, d.OK
	}
}

// prBit is a PR bit as 0 or 1; the compiler turns the pattern into a
// zero-extended byte, not a branch.
func prBit(pr bool) int32 {
	var b int32
	if pr {
		b = 1
	}
	return b
}

// recycling reports whether at least 1/prShareDen of the batch's first
// prSample packets carry the PR bit.
func recycling(pkts []Packet) bool {
	if len(pkts) > prSample {
		pkts = pkts[:prSample]
	}
	var n int32
	for i := range pkts {
		n += prBit(pkts[i].Hdr.PR)
	}
	return int(n)*prShareDen >= len(pkts)
}

// decideBatchMasked is DecideBatch's loop for a batch that is re-cycling:
// no branch on the PR bit (EventRoute is 0, so the event is a mask too). It
// reads the shortest-path entry of every packet, PR-set ones included, so
// Node and Dst must be in range for all.
func (f *FIB) decideBatchMasked(pkts []Packet, st *LinkState) {
	for i := range pkts {
		p := &pkts[i]
		sel := -prBit(p.Hdr.PR)
		eg := f.commonEgress(f.ndAt(int(p.Node), int(p.Dst)), p.Ingress, sel)
		if eg >= 0 && !st.Down(graph.LinkID(eg>>1)) {
			p.Egress, p.Event, p.OK = rotation.DartID(eg), core.EventCycle&core.Event(sel), true
			continue
		}
		d := f.Decide(p.Node, p.Dst, p.Ingress, p.Hdr, st)
		p.Egress, p.Event, p.Hdr, p.OK = d.Egress, d.Event, d.Header, d.OK
	}
}

// DecideBatchTally is DecideBatch with per-event accounting folded in.
// The batch is processed in chunks of two passes: a call-free fast-path
// pass that decides the common cases (counting cycle hits in a register
// and noting misses in a small stack buffer), then a slow pass that runs
// the full Decide only on the misses and tallies their events. Keeping
// the hot loop free of calls lets the counters live in registers — a
// loop-carried counter in DecideBatch's shape would be spilled to the
// stack on every iteration because of the Decide call — and the routed
// total falls out by subtraction, so the dominant path pays nothing.
// The metered engine calls this; the unmetered engine keeps the bare
// DecideBatch. Like DecideBatch, fastPass skips the link test on an all-up
// snapshot, so metering does not cost that snapshot the saving.
func (f *FIB) DecideBatchTally(pkts []Packet, st *LinkState, tally *[8]uint64) {
	const chunk = 64
	var miss [chunk]int32
	for base := 0; base < len(pkts); base += chunk {
		end := base + chunk
		if end > len(pkts) {
			end = len(pkts)
		}
		nMiss, nCycle := f.fastPass(pkts[base:end], st, &miss)
		for k := 0; k < nMiss; k++ {
			p := &pkts[base+int(miss[k])]
			d := f.Decide(p.Node, p.Dst, p.Ingress, p.Hdr, st)
			p.Egress, p.Event, p.Hdr, p.OK = d.Egress, d.Event, d.Header, d.OK
			if d.OK {
				// The FIB never emits EventDeliver, so the event is
				// always < 5; the mask only elides the bounds check.
				tally[int(d.Event)&7]++
			} else {
				tally[5]++
			}
		}
		tally[core.EventRoute] += uint64(end-base-nMiss) - nCycle
		tally[core.EventCycle] += nCycle
	}
}

// fastPass decides the call-free fast paths over one chunk, writing miss
// indexes (relative to the chunk) for the packets that need the full
// Decide. It deliberately lives in its own (non-inlined) function: its
// register set must not share the caller's tally pointer and chunk
// bookkeeping, or the counters spill to the stack on every iteration.
//
//go:noinline
func (f *FIB) fastPass(pkts []Packet, st *LinkState, miss *[64]int32) (nMiss int, nCycle uint64) {
	if st.down == 0 {
		for i := range pkts {
			p := &pkts[i]
			if p.Hdr.PR {
				if p.Ingress >= 0 && int(p.Ingress) < len(f.faceNext) {
					p.Egress, p.Event, p.OK = rotation.DartID(f.faceNext[p.Ingress]), core.EventCycle, true
					nCycle++
					continue
				}
			} else if nd := f.ndAt(int(p.Node), int(p.Dst)); nd >= 0 {
				p.Egress, p.Event, p.OK = rotation.DartID(nd), core.EventRoute, true
				continue
			}
			miss[nMiss] = int32(i)
			nMiss++
		}
		return nMiss, nCycle
	}
	for i := range pkts {
		p := &pkts[i]
		if p.Hdr.PR {
			if p.Ingress >= 0 && int(p.Ingress) < len(f.faceNext) {
				eg := f.faceNext[p.Ingress]
				if !st.Down(graph.LinkID(eg >> 1)) {
					p.Egress, p.Event, p.OK = rotation.DartID(eg), core.EventCycle, true
					nCycle++
					continue
				}
			}
		} else {
			nd := f.ndAt(int(p.Node), int(p.Dst))
			if nd >= 0 && !st.Down(graph.LinkID(nd>>1)) {
				p.Egress, p.Event, p.OK = rotation.DartID(nd), core.EventRoute, true
				continue
			}
		}
		miss[nMiss] = int32(i)
		nMiss++
	}
	return nMiss, nCycle
}

// firstUp walks σ(d), σ²(d), ... of a failed egress dart until an up link
// is found; ok is false when the rotation wraps with everything failed.
func (f *FIB) firstUp(failed int32, st *LinkState) (int32, bool) {
	for cand := f.sigma[failed]; cand != failed; cand = f.sigma[cand] {
		if !st.Down(graph.LinkID(cand >> 1)) {
			return cand, true
		}
	}
	return -1, false
}
