package certify

import (
	"sort"

	"recycle/internal/graph"
	"recycle/internal/par"
	"recycle/internal/telemetry"
)

// Guided hunts counterexamples without enumerating the whole ≤K universe
// by walk-guided DFS — greedy cut-targeting made rigorous. From the empty
// set, each state walks the pair and branches only on elements the walk
// consulted (links incident to deciding routers). This is COMPLETE for
// subset-minimal counterexamples: let F (|F| ≤ K) be minimal violating
// and S ⊊ F reachable. The pair is connected under F, hence under S
// (fewer failures), so S is not excused; S is not violating (F is
// minimal), so the walk under S delivers. If that walk consulted no
// element of F∖S it would be the identical walk under F — contradicting
// F violating — so it consults some e ∈ F∖S, and the DFS explores S∪{e}.
// By induction from S = ∅, F is reached. Branching is therefore bounded
// by the walk's footprint, not the graph: the search only ever attacks
// links the compiled FIB's current walk actually traverses or inspects.
//
// A clean guided run therefore certifies — and the differential gate in
// the tests holds it to exactly that promise against the exhaustive
// sweep.
func Guided(g *graph.Graph, w Walker, cfg Config) (*Certificate, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	sp := newSpace(g, cfg.Mode)
	dsts, srcs := pairsByDst(g, cfg.Pairs)

	root := cfg.Tracer.Start("certify.guided", cfg.TraceParent)
	root.SetAttr(telemetry.AttrNodes, int64(g.NumNodes()))
	root.SetAttr(telemetry.AttrCount, int64(len(dsts)))
	defer root.End()

	stats := make([]SearchStats, len(dsts))
	viols := make([][]Violation, len(dsts))
	obs := cfg.Tracer.RangeObserver("certify.dfs.worker", root.ID())
	par.ForObserved(len(dsts), cfg.Workers, obs, func(_, lo, hi int) {
		for di := lo; di < hi; di++ {
			for _, src := range srcs[di] {
				viols[di] = append(viols[di], dfsPair(g, w, sp, cfg, src, dsts[di], &stats[di])...)
			}
		}
	})

	var all []Violation
	var total SearchStats
	for i := range viols {
		all = append(all, viols[i]...)
		total.merge(stats[i])
	}
	return buildCertificate(g, w, sp, cfg, "guided", all, total)
}

// dfsPair runs the walk-guided DFS for one pair.
func dfsPair(g *graph.Graph, w Walker, sp *space, cfg Config, src, dst graph.NodeID, st *SearchStats) []Violation {
	visited := make(map[string]bool)
	minimal := &found{}
	var out []Violation

	var rec func(idx []int)
	rec = func(idx []int) {
		key := setKey(idx)
		if visited[key] {
			return
		}
		visited[key] = true
		st.DFSStates++
		st.Sets++
		if minimal.dominated(idx) {
			st.PrunedDominated++
			return
		}
		fs := sp.fsOf(idx)
		walk := w.Walk(src, dst, fs)
		st.Walks++
		if !walk.Delivered() {
			if !graph.ReachableUnder(g, dst, fs)[src] {
				// Excused — and every superset keeps the pair disconnected,
				// so this branch is closed.
				st.Excused++
				return
			}
			st.ViolationsFound++
			minimal.add(idx)
			out = append(out, newViolation(sp, src, dst, idx, walk))
			return // supersets of a violating set are never minimal
		}
		if len(idx) >= cfg.K {
			return
		}
		for _, e := range sp.consulted(walk) {
			if contains(idx, e) {
				continue
			}
			rec(insertSorted(idx, e))
		}
	}
	rec(nil)
	return out
}

// contains reports membership in a sorted index set.
func contains(idx []int, e int) bool {
	i := sort.SearchInts(idx, e)
	return i < len(idx) && idx[i] == e
}

// insertSorted returns a fresh sorted set with e added.
func insertSorted(idx []int, e int) []int {
	out := make([]int, 0, len(idx)+1)
	i := sort.SearchInts(idx, e)
	out = append(out, idx[:i]...)
	out = append(out, e)
	out = append(out, idx[i:]...)
	return out
}
