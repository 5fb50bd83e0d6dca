package dataplane

import (
	"fmt"
	"math"

	"recycle/internal/core"
	"recycle/internal/graph"
	"recycle/internal/header"
	"recycle/internal/par"
	"recycle/internal/rotation"
	"recycle/internal/route"
	"recycle/internal/telemetry"
)

// Recompiler performs incremental FIB recompilation for planned topology
// changes — maintenance weight shifts, link additions, link
// decommissions. A full Compile is the offline O(n²·log n) rebuild the
// paper assigns to the designated server; the recompiler instead takes
// every edit, of any kind, through one repair path: graph.SPTRepairer
// repairs each destination tree in place (a removal is a weight raised to
// +Inf, an addition one dropped from +Inf; only a tree whose set of
// reachable nodes changes is rebuilt), only the quantiser columns whose
// discriminators moved are re-ranked, and only the FIB entries whose next
// hop moved are rewritten, after a removal has renumbered the rest. The
// result is bit-identical to a from-scratch CompileWith over the same
// graph, rotation system and routing tables (proven by the differential
// harness in recompile_test.go), at a fraction of the latency — the
// control plane can push updates without stalling.
//
// A Recompiler is a single-writer control-plane object: Apply is not
// safe for concurrent use, but every artefact it produces (Delta's
// graph, tables, FIB, protocol) is immutable and safe to hand to
// concurrent readers, including a running Engine via ApplyDelta.
type Recompiler struct {
	variant core.Variant
	disc    route.Discriminator

	g     *graph.Graph
	sys   *rotation.System
	tbl   *route.Table
	quant *core.Quantiser
	fib   *FIB

	// reps is the per-worker repairer pool: SPTRepairer keeps scratch
	// state and is not safe for concurrent use, but each repair's result
	// is a canonical function of (graph, tree, edit), so any worker may
	// serve any destination; the static partition in Apply keeps the
	// dst→worker assignment deterministic anyway. Grown on demand, the
	// pool persists across applies so the scratch amortises like the old
	// single repairer did.
	reps []graph.SPTRepairer
	// workers pins the Apply fan-out; 0 = automatic (see SetWorkers).
	workers int
	stats   recompileCounters
	// tracer receives Apply's span tree (nil traces nothing): a root
	// "recompile.apply" with coalesce / per-edit repair / rebuild / patch
	// children, repairs and patches carrying per-worker grandchildren.
	tracer *telemetry.Tracer
}

// SetTracer arms span tracing on subsequent Applies (nil disarms).
func (r *Recompiler) SetTracer(t *telemetry.Tracer) { r.tracer = t }

// recompileCounters accumulates recompiler work; Register publishes the
// totals as the recompile.* snapshot names alongside the repairer pool's
// repair.* counters.
type recompileCounters struct {
	applies, edits int
	// dirtyDests sums affected destinations across applies; fullDests
	// counts the from-scratch per-destination Dijkstras among them: trees
	// whose reachable set an edit changed (a removed bridge, an addition
	// joining two components). Every other tree is repaired.
	dirtyDests, fullDests int64
	// coalescedEdits counts edits batch coalescing eliminated before
	// replay (net weight last-write-wins, add+remove cancellation).
	coalescedEdits int64
}

// SetWorkers pins the per-destination fan-out of subsequent Applies: 0
// restores the automatic GOMAXPROCS-based count, 1 forces sequential
// repairs. The differential harnesses use explicit counts to drive the
// parallel paths on graphs below the automatic fan-out floor.
func (r *Recompiler) SetWorkers(w int) { r.workers = w }

// pool returns at least `workers` repairers.
func (r *Recompiler) pool(workers int) []graph.SPTRepairer {
	for len(r.reps) < workers {
		r.reps = append(r.reps, graph.SPTRepairer{})
	}
	return r.reps
}

// Delta is the product of one Apply: the edited network's complete
// forwarding state, plus the bookkeeping an engine needs to hot-swap
// onto it.
type Delta struct {
	// Graph is the edited topology; System, Table, Quantiser and FIB are
	// its forwarding state, sharing every untouched per-destination
	// structure with the pre-edit versions.
	Graph     *graph.Graph
	System    *rotation.System
	Table     *route.Table
	Quantiser *core.Quantiser
	FIB       *FIB
	// Protocol is the interpreted protocol over the same state, built with
	// Config.Quantise over Quantiser whatever the source protocol was —
	// bit-identical decisions to FIB, for simulators and walks.
	Protocol *core.Protocol
	// LinkMap maps the pre-edit link IDs into the edited graph's
	// (graph.NoLink for removed links). Engine.ApplyDelta uses it to
	// carry detected failures across the swap.
	LinkMap []graph.LinkID
	// Dirty lists the destinations some edit of the set changed the tree
	// of (a distance, a parent or a hop count; a tree a removal only
	// renumbered is not dirty).
	Dirty []graph.NodeID
	// Structural reports whether the link set (and dart space) changed.
	Structural bool
}

// NewRecompiler builds a recompiler over a compiled network's state. The
// quantiser and FIB may be nil, in which case they are built here
// (CompileWith rules: a quantised protocol's own quantiser wins).
func NewRecompiler(p *core.Protocol, quant *core.Quantiser, fib *FIB) (*Recompiler, error) {
	if p == nil {
		return nil, fmt.Errorf("dataplane: nil protocol")
	}
	if p.Quantiser() != nil {
		quant = p.Quantiser()
	} else if quant == nil {
		quant = core.BuildQuantiser(p.Routes())
	}
	if fib == nil {
		var err error
		if fib, err = CompileWith(p, quant); err != nil {
			return nil, err
		}
	}
	if fib.NumNodes() != p.Graph().NumNodes() || fib.NumLinks() != p.Graph().NumLinks() {
		return nil, fmt.Errorf("dataplane: FIB sized %d/%d for a %d-node %d-link graph",
			fib.NumNodes(), fib.NumLinks(), p.Graph().NumNodes(), p.Graph().NumLinks())
	}
	if fib.Variant() != p.Variant() {
		return nil, fmt.Errorf("dataplane: FIB variant %v ≠ protocol variant %v", fib.Variant(), p.Variant())
	}
	return &Recompiler{
		variant: p.Variant(),
		disc:    p.Routes().DiscriminatorKind(),
		g:       p.Graph(),
		sys:     p.System(),
		tbl:     p.Routes(),
		quant:   quant,
		fib:     fib,
	}, nil
}

// Graph returns the current (post-latest-Apply) topology.
func (r *Recompiler) Graph() *graph.Graph { return r.g }

// FIB returns the current compiled FIB.
func (r *Recompiler) FIB() *FIB { return r.fib }

// Table returns the current routing table.
func (r *Recompiler) Table() *route.Table { return r.tbl }

// System returns the current rotation system.
func (r *Recompiler) System() *rotation.System { return r.sys }

// Quantiser returns the current rank quantiser.
func (r *Recompiler) Quantiser() *core.Quantiser { return r.quant }

// Recompiler and shortest-path-repair metric names.
const (
	MetricRecompileApplies    = "recompile.applies"
	MetricRecompileEdits      = "recompile.edits"
	MetricRecompileDirtyDests = "recompile.dirty_dests"
	// MetricRecompileFullDests counts destination trees rebuilt from
	// scratch because an edit changed which nodes reach them; every other
	// dirty tree, whatever the edit kind, counts in MetricRepairRepaired.
	MetricRecompileFullDests = "recompile.full_dests"
	MetricRecompileCoalesced = "recompile.coalesced_edits"
	MetricRepairRepaired     = "repair.repaired"
	MetricRepairUnchanged    = "repair.unchanged"
	MetricRepairFullFallback = "repair.full_fallback"
	MetricRepairNodesTouched = "repair.nodes_touched"
)

// Register publishes the recompiler's counters into reg as the
// recompile.* and repair.* names, sampled at snapshot time — the
// control plane's contribution to the unified telemetry surface. Apply
// is single-writer, so snapshot-time collection reads a settled state
// between applies. Repair counters are the sum over the worker pool —
// per-destination contributions are the same whatever the partition, so
// the totals are deterministic.
func (r *Recompiler) Register(reg *telemetry.Registry) {
	reg.RegisterCollector(telemetry.CollectorFunc(func(s *telemetry.Snapshot) {
		s.AddCounter(MetricRecompileApplies, uint64(r.stats.applies))
		s.AddCounter(MetricRecompileEdits, uint64(r.stats.edits))
		s.AddCounter(MetricRecompileDirtyDests, uint64(r.stats.dirtyDests))
		s.AddCounter(MetricRecompileFullDests, uint64(r.stats.fullDests))
		s.AddCounter(MetricRecompileCoalesced, uint64(r.stats.coalescedEdits))
		var repaired, unchanged, fullFallback, nodesTouched int64
		for i := range r.reps {
			a, b, c, d := r.reps[i].Counters()
			repaired, unchanged, fullFallback, nodesTouched = repaired+a, unchanged+b, fullFallback+c, nodesTouched+d
		}
		s.AddCounter(MetricRepairRepaired, uint64(repaired))
		s.AddCounter(MetricRepairUnchanged, uint64(unchanged))
		s.AddCounter(MetricRepairFullFallback, uint64(fullFallback))
		s.AddCounter(MetricRepairNodesTouched, uint64(nodesTouched))
	}))
}

// Apply recompiles the network state through an edit set. Edits apply in
// order, each seeing the effect of the ones before it (link references
// follow graph.ApplyEdits semantics). On success the recompiler advances
// to the new state, so successive Applies chain; on error it is
// unchanged.
//
// An empty edit set — or a batch whose net effect is nothing, like an
// add immediately removed — is a no-op: Apply returns a nil Delta and
// nil error without cloning anything, and the recompiler state is
// unchanged. Callers must treat a nil Delta as "nothing to swap".
//
// Batches of two or more edits are first coalesced to their net effect
// (weight last-write-wins, add+remove cancellation) when the reduction
// is provably replay-equivalent — see coalesceEdits; otherwise the
// batch replays edit by edit. Per-destination work (tree repair, column
// patching) fans out across workers either way.
func (r *Recompiler) Apply(edits ...graph.Edit) (*Delta, error) {
	if len(edits) == 0 {
		return nil, nil
	}
	root := r.tracer.Start("recompile.apply", 0)
	root.SetAttr(telemetry.AttrCount, int64(len(edits)))
	defer root.End()
	origEdits := len(edits)
	coalesced := 0
	coalesceSpan := r.tracer.Start("recompile.coalesce", root.ID())
	if net, ok := coalesceEdits(r.g, edits); ok {
		coalesced = origEdits - len(net)
		if len(net) == 0 {
			coalesceSpan.End()
			r.stats.applies++
			r.stats.edits += origEdits
			r.stats.coalescedEdits += int64(coalesced)
			return nil, nil
		}
		edits = net
	}
	coalesceSpan.End()
	n := r.g.NumNodes()
	curG := r.g
	trees := make([]*graph.SPTree, n)
	for d := 0; d < n; d++ {
		trees[d] = r.tbl.Tree(graph.NodeID(d))
	}
	// Rotation orders are only materialised when a structural edit
	// actually changes the link set; weight-only applies rebind the
	// existing system for free. Weight edits never touch the orders, so
	// initialising them lazily at the first structural edit is exact.
	var orders [][]graph.LinkID
	ensureOrders := func() {
		if orders != nil {
			return
		}
		orders = make([][]graph.LinkID, n)
		for v := 0; v < n; v++ {
			orders[v] = r.sys.LinkOrder(graph.NodeID(v))
		}
	}
	composed := make([]graph.LinkID, curG.NumLinks())
	for i := range composed {
		composed[i] = graph.LinkID(i)
	}
	dirty := make([]bool, n)
	structural, renumbered := false, false
	// Per-destination work inside each edit writes only that
	// destination's slots (trees[d], dirty[d]) and each repair result is
	// canonical in (graph, tree, edit), so the loop fans out over a static
	// partition with bit-identical results at any worker count.
	workers := r.workers
	if workers <= 0 {
		workers = par.Workers(n)
	}
	reps := r.pool(workers)
	rebuilt := make([]int64, workers) // per worker: trees whose reachable set changed

	for _, e := range edits {
		nextG, m, err := graph.ApplyEdit(curG, e)
		if err != nil {
			return nil, err
		}
		// Every edit kind is one incremental repair per destination: a
		// removal raises the link to +Inf, an addition drops it from +Inf.
		editSpan := r.tracer.Start("recompile.repair", root.ID())
		obs := r.tracer.RangeObserver("recompile.repair.worker", editSpan.ID())
		var was graph.Link // the target of a weight edit or removal, as it was
		if e.Kind != graph.EditAddLink {
			was = curG.Link(e.Link)
		}
		added := graph.LinkID(nextG.NumLinks() - 1)
		par.ForObserved(n, workers, obs, func(w, lo, hi int) {
			rep := &reps[w]
			for d := lo; d < hi; d++ {
				var changed, full bool
				switch e.Kind {
				case graph.EditWeight:
					trees[d], changed = rep.WeightChange(nextG, trees[d], e.Link, was.Weight)
				case graph.EditAddLink:
					trees[d], changed, full = rep.LinkAdded(nextG, trees[d], added)
				case graph.EditRemoveLink:
					trees[d], changed, full = rep.LinkRemoved(nextG, trees[d], was.A, was.B, e.Link, m)
				}
				if changed {
					dirty[d] = true
				}
				if full {
					rebuilt[w]++
				}
			}
		})
		switch e.Kind {
		case graph.EditAddLink:
			structural = true
			ensureOrders()
			orders[e.A] = append(orders[e.A], added)
			orders[e.B] = append(orders[e.B], added)
		case graph.EditRemoveLink:
			structural, renumbered = true, true
			ensureOrders()
			for v := 0; v < n; v++ {
				kept := orders[v][:0]
				for _, l := range orders[v] {
					if nl := m[l]; nl != graph.NoLink {
						kept = append(kept, nl)
					}
				}
				orders[v] = kept
			}
		}
		for i, old := range composed {
			if old != graph.NoLink {
				composed[i] = m[old]
			}
		}
		curG = nextG
		editSpan.End()
	}

	rebuildSpan := r.tracer.Start("recompile.rebuild", root.ID())
	var sys *rotation.System
	var err error
	if structural {
		sys, err = rotation.FromLinkOrders(curG, orders)
	} else {
		sys, err = r.sys.Rebind(curG)
	}
	if err != nil {
		return nil, fmt.Errorf("dataplane: recompiled rotation invalid: %w", err)
	}
	tbl, err := route.NewFromTrees(curG, r.disc, trees)
	if err != nil {
		return nil, err
	}

	// Re-rank only destinations whose discriminator column moved: a
	// repaired tree with identical hop counts (or path costs, for
	// weight-sum discriminators) keeps its exact rank column.
	var dirtyList, rerank []graph.NodeID
	reranked := make([]bool, n)
	for d := 0; d < n; d++ {
		if !dirty[d] {
			continue
		}
		dst := graph.NodeID(d)
		dirtyList = append(dirtyList, dst)
		if r.ddColumnChanged(r.tbl.Tree(dst), trees[d]) {
			rerank = append(rerank, dst)
			reranked[d] = true
		}
	}
	quant := r.quant.Rebuild(tbl, rerank)
	if !header.FitsFlowLabel(quant.Bits()) {
		return nil, fmt.Errorf("dataplane: quantised DD needs %d bits; flow label carries %d",
			quant.Bits(), header.FlowLabelDDBits)
	}
	rebuildSpan.End()

	patchSpan := r.tracer.Start("recompile.patch", root.ID())
	patchSpan.SetAttr(telemetry.AttrCount, int64(len(dirtyList)))
	fib := r.fib.cloneFor(curG.NumLinks(), structural, len(rerank) == 0)
	if structural {
		fib.fillDarts(sys)
	}
	// A removal renumbered the darts: every column moves into the new
	// numbering, and old next hops compare through the composed map.
	var linkMap []graph.LinkID
	if renumbered {
		linkMap = composed
		fib.remapDarts(linkMap)
	}
	fib.ddBits = quant.Bits()
	fib.codec = CodecFor(fib.ddBits)
	// Dirty columns are disjoint (one pointer-table stripe or dense
	// stride per destination), so the patch pass fans out too.
	par.ForObserved(len(dirtyList), workers, r.tracer.RangeObserver("recompile.patch.worker", patchSpan.ID()), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			dst := dirtyList[i]
			fib.patchNextDarts(dst, r.tbl.Tree(dst), trees[dst], sys, linkMap)
			// An unchanged discriminator column's ranks are bit-identical
			// already.
			if reranked[dst] {
				fib.fillDDColumn(dst, quant)
			}
		}
	})
	patchSpan.End()

	p, err := core.NewWithQuantiser(curG, sys, tbl, core.Config{Variant: r.variant, Quantise: true}, quant)
	if err != nil {
		return nil, err
	}

	r.stats.applies++
	r.stats.edits += origEdits
	r.stats.coalescedEdits += int64(coalesced)
	r.stats.dirtyDests += int64(len(dirtyList))
	for _, k := range rebuilt {
		r.stats.fullDests += k
	}
	r.g, r.sys, r.tbl, r.quant, r.fib = curG, sys, tbl, quant, fib
	return &Delta{
		Graph:      curG,
		System:     sys,
		Table:      tbl,
		Quantiser:  quant,
		FIB:        fib,
		Protocol:   p,
		LinkMap:    composed,
		Dirty:      dirtyList,
		Structural: structural,
	}, nil
}

// ddColumnChanged reports whether a repaired tree's discriminator column
// differs from the old tree's — hop counts for HopCount tables, path
// costs (bit-compared) for WeightSum.
func (r *Recompiler) ddColumnChanged(old, nt *graph.SPTree) bool {
	if old == nt {
		return false
	}
	if r.disc == route.HopCount {
		if graph.SharedHops(old, nt) {
			return false
		}
		for v := range nt.Hops {
			if nt.Hops[v] != old.Hops[v] {
				return true
			}
		}
		return false
	}
	if graph.SharedDist(old, nt) {
		return false
	}
	for v := range nt.Dist {
		if math.Float64bits(nt.Dist[v]) != math.Float64bits(old.Dist[v]) {
			return true
		}
	}
	return false
}

// patchNextDarts rewrites only the nextDart entries a repaired tree
// actually moved. old is the pre-edit tree; when a removal renumbered the
// links, linkMap takes its link IDs into nt's and the column has already
// been through remapDarts, otherwise linkMap is nil. In shared-column mode
// this is the copy-on-write seam: only the pages containing moved entries
// get private copies; every other page of the column stays shared with the
// pre-edit FIB.
func (f *FIB) patchNextDarts(dst graph.NodeID, old, nt *graph.SPTree, sys *rotation.System, linkMap []graph.LinkID) {
	if graph.SharedNextLink(old, nt) {
		return
	}
	n := f.numNodes
	pg := f.pages
	var private []bool
	if pg != nil {
		private = make([]bool, pg.perCol)
	}
	for node := 0; node < n; node++ {
		was := old.NextLink[node]
		if linkMap != nil && was != graph.NoLink {
			was = linkMap[was]
		}
		link := nt.NextLink[node]
		if was == link {
			continue
		}
		dart := int32(-1)
		if link != graph.NoLink {
			dart = int32(sys.OutgoingDart(graph.NodeID(node), link))
		}
		if pg == nil {
			f.nextDart[node*n+int(dst)] = dart
			continue
		}
		pi := node >> pg.pageBits
		slot := int(dst)*pg.perCol + pi
		if !private[pi] {
			pg.nd[slot] = append([]int32(nil), pg.nd[slot]...)
			private[pi] = true
		}
		pg.nd[slot][node&pg.pageMask] = dart
	}
}

// fillDDColumn rewrites destination dst's rank entries from the re-ranked
// quantiser column — the delta form of fillDest's discriminator half,
// paired with patchNextDarts. In shared-column mode the column becomes
// fresh private pages.
func (f *FIB) fillDDColumn(dst graph.NodeID, quant *core.Quantiser) {
	n := f.numNodes
	if pg := f.pages; pg != nil {
		ddq := make([]uint16, n)
		for node := 0; node < n; node++ {
			ddq[node] = rank16(quant.Rank(graph.NodeID(node), dst))
		}
		pg.adoptRanks(int(dst), n, ddq)
		return
	}
	for node := 0; node < n; node++ {
		f.ddQ[node*n+int(dst)] = quant.Rank(graph.NodeID(node), dst)
	}
}

// remapDarts rewrites every nextDart entry through a link-ID mapping after
// a removal renumbered the dart space; an entry over a removed link
// becomes -1 until patchNextDarts gives its (dirty) column the new next
// hop. In shared-column mode each distinct page is remapped once and the
// result re-shared across every slot that pointed at it, so the
// renumbered FIB keeps the original's dedup factor; pages the map leaves
// untouched keep aliasing the pre-edit FIB's pages.
func (f *FIB) remapDarts(linkMap []graph.LinkID) {
	if pg := f.pages; pg != nil {
		seen := make(map[*int32][]int32)
		for slot, old := range pg.nd {
			if len(old) == 0 {
				continue
			}
			np, ok := seen[&old[0]]
			if !ok {
				np = remapDartPage(old, linkMap)
				seen[&old[0]] = np
			}
			pg.nd[slot] = np
		}
		return
	}
	for idx, d := range f.nextDart {
		if d < 0 {
			continue
		}
		if nl := linkMap[d>>1]; nl == graph.NoLink {
			f.nextDart[idx] = -1
		} else {
			f.nextDart[idx] = int32(nl)<<1 | d&1
		}
	}
}

// remapDartPage maps one next-dart page through a link renumbering,
// returning the original page untouched (preserving sharing with the
// pre-edit FIB) when no entry changes.
func remapDartPage(page []int32, linkMap []graph.LinkID) []int32 {
	np := page
	copied := false
	for i, d := range page {
		if d < 0 {
			continue
		}
		v := int32(-1)
		if nl := linkMap[d>>1]; nl != graph.NoLink {
			v = int32(nl)<<1 | d&1
		}
		if v != d {
			if !copied {
				np = append([]int32(nil), page...)
				copied = true
			}
			np[i] = v
		}
	}
	return np
}
