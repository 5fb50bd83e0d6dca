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
// hop moved are rewritten. No link ID ever moves: a removed link stays in
// the graph and the rotation system as a tombstone, down for good
// (graph.Graph.Removed), so only an appended link touches the dart
// tables. The result is bit-identical to a from-scratch CompileWith over
// the same graph, rotation system and routing tables (proven by the
// differential harness in recompile_test.go), at a fraction of the
// latency — the control plane can push updates without stalling.
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
	// replay (weight last-write-wins, writes of the current weight).
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
	// Dirty lists the destinations some edit of the set changed the tree
	// of (a distance, a parent or a hop count).
	Dirty []graph.NodeID
	// Structural reports whether the live link set changed: a link was
	// removed, revived or appended. Only an appended one grows the dart
	// space.
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
// order, each seeing the effect of the ones before it (graph.ApplyEdit
// semantics: link IDs never move, so a link added and removed again in
// one set stays behind as a tombstone). On success the recompiler
// advances to the new state, so successive Applies chain; on error it is
// unchanged.
//
// An empty edit set — or a batch whose net effect is nothing, like a
// weight set and then set back — is a no-op: Apply returns a nil Delta
// and nil error without cloning anything, and the recompiler state is
// unchanged. Callers must treat a nil Delta as "nothing to swap".
//
// A batch of weight edits is first netted to the last write per link
// (see coalesceEdits). Per-destination work (tree repair, column
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
	// Rotation orders are only materialised when a link is appended: a
	// removal or a revival keeps every dart where it was, so those and
	// weight edits rebind the existing system for free.
	var orders [][]graph.LinkID
	dirty := make([]bool, n)
	structural := false
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
		nextG, err := graph.ApplyEdit(curG, e)
		if err != nil {
			return nil, err
		}
		// Every edit kind is one incremental repair per destination: a
		// removal raises the link to +Inf, an addition drops it from +Inf.
		editSpan := r.tracer.Start("recompile.repair", root.ID())
		obs := r.tracer.RangeObserver("recompile.repair.worker", editSpan.ID())
		l := e.Link
		if e.Kind == graph.EditAddLink {
			l = curG.AddTarget(e.A, e.B)
		}
		var oldW float64
		if e.Kind == graph.EditWeight {
			oldW = curG.Weight(l)
		}
		par.ForObserved(n, workers, obs, func(w, lo, hi int) {
			rep := &reps[w]
			for d := lo; d < hi; d++ {
				var changed, full bool
				switch e.Kind {
				case graph.EditWeight:
					trees[d], changed = rep.WeightChange(nextG, trees[d], l, oldW)
				case graph.EditAddLink:
					trees[d], changed, full = rep.LinkAdded(nextG, trees[d], l)
				case graph.EditRemoveLink:
					trees[d], changed, full = rep.LinkRemoved(nextG, trees[d], l)
				}
				if changed {
					dirty[d] = true
				}
				if full {
					rebuilt[w]++
				}
			}
		})
		if e.Kind == graph.EditAddLink && int(l) == curG.NumLinks() {
			if orders == nil {
				orders = make([][]graph.LinkID, n)
				for v := 0; v < n; v++ {
					orders[v] = r.sys.LinkOrder(graph.NodeID(v))
				}
			}
			orders[e.A] = append(orders[e.A], l)
			orders[e.B] = append(orders[e.B], l)
		}
		structural = structural || e.Structural()
		curG = nextG
		editSpan.End()
	}

	rebuildSpan := r.tracer.Start("recompile.rebuild", root.ID())
	var sys *rotation.System
	var err error
	if orders != nil {
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
	fib := r.fib.cloneFor(curG.NumLinks(), len(rerank) == 0)
	if orders != nil {
		fib.fillDarts(sys)
	}
	if structural {
		fib.removed = curG.RemovedLinks()
	}
	fib.ddBits = quant.Bits()
	fib.codec = CodecFor(fib.ddBits)
	// Dirty columns are disjoint (one pointer-table stripe or dense
	// stride per destination), so the patch pass fans out too.
	par.ForObserved(len(dirtyList), workers, r.tracer.RangeObserver("recompile.patch.worker", patchSpan.ID()), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			dst := dirtyList[i]
			fib.patchNextDarts(dst, r.tbl.Tree(dst), trees[dst], sys)
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
// actually moved; old is the pre-edit tree. In shared-column mode this is
// the copy-on-write seam: only the pages containing moved entries get
// private copies; every other page of the column stays shared with the
// pre-edit FIB.
func (f *FIB) patchNextDarts(dst graph.NodeID, old, nt *graph.SPTree, sys *rotation.System) {
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
