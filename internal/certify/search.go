package certify

import (
	"fmt"
	"sort"

	"recycle/internal/core"
	"recycle/internal/failure"
	"recycle/internal/graph"
	"recycle/internal/par"
	"recycle/internal/telemetry"
)

// GenusUnknown marks a certificate whose scheme has no embedding (the
// reconvergence baseline) — the genus column is then omitted.
const GenusUnknown = -1

// Pair is one ordered (src, dst) flow under certification.
type Pair struct {
	Src, Dst graph.NodeID
}

// Config parameterises a certification search.
type Config struct {
	// K is the maximum number of simultaneous element failures (0 selects
	// the default of 2; negative is an error).
	K int
	// Mode selects the element universe (default LinkFailures).
	Mode failure.ElementMode
	// Pairs restricts the sweep to specific flows; nil certifies every
	// ordered pair.
	Pairs []Pair
	// Workers bounds the par fan-out across destinations (0 = automatic,
	// 1 = sequential).
	Workers int
	// Label names the topology in the certificate.
	Label string
	// Genus is the embedding genus to stamp into the certificate (certify
	// does not compute embeddings); GenusUnknown omits it. The §5
	// guarantee is conditioned on genus 0, so a certificate on a higher
	// genus measures an embedder, not the paper's claim.
	Genus int
	// Metrics optionally receives the search-progress counters
	// (certify.* names); nil records nothing.
	Metrics *telemetry.Registry
	// Tracer, when non-nil, receives the search's span tree: a root
	// "certify.exhaustive" or "certify.guided" span with per-worker
	// sweep/DFS children. TraceParent parents the root (0 makes it a
	// root).
	Tracer      *telemetry.Tracer
	TraceParent telemetry.SpanID
}

// withDefaults resolves K: 0 selects 2, and a negative K — which would
// certify vacuously over zero failure sets — is an error.
func (c Config) withDefaults() (Config, error) {
	if c.K < 0 {
		return c, fmt.Errorf("certify: K must be ≥ 0 (got %d)", c.K)
	}
	if c.K == 0 {
		c.K = 2
	}
	return c, nil
}

// SearchStats counts the work a search did — the telemetry of the hunt.
type SearchStats struct {
	// Sets is the number of distinct failure sets examined.
	Sets uint64
	// Walks is the number of walks executed.
	Walks uint64
	// PrunedUnaffected counts (set, pair) combinations skipped because
	// the pair's failure-free walk consults no failed element (it walks
	// identically and delivers — the locality property).
	PrunedUnaffected uint64
	// PrunedDominated counts combinations skipped because the set
	// contains an already-found violating subset for the pair (it cannot
	// be minimal).
	PrunedDominated uint64
	// Excused counts undelivered walks excused by disconnection.
	Excused uint64
	// ViolationsFound counts violations recorded before minimisation and
	// dedup.
	ViolationsFound uint64
	// DFSStates counts the distinct sets the guided DFS visited.
	DFSStates uint64
}

func (s *SearchStats) merge(o SearchStats) {
	s.Sets += o.Sets
	s.Walks += o.Walks
	s.PrunedUnaffected += o.PrunedUnaffected
	s.PrunedDominated += o.PrunedDominated
	s.Excused += o.Excused
	s.ViolationsFound += o.ViolationsFound
	s.DFSStates += o.DFSStates
}

// Metric names of the search-progress counters.
const (
	MetricSets             = "certify.sets"
	MetricWalks            = "certify.walks"
	MetricPrunedUnaffected = "certify.pruned_unaffected"
	MetricPrunedDominated  = "certify.pruned_dominated"
	MetricExcused          = "certify.excused"
	MetricViolations       = "certify.violations"
	MetricDFSStates        = "certify.dfs_states"
)

// publish records the final stats into a registry (nil-tolerant).
func (s SearchStats) publish(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.Counter(MetricSets).Add(s.Sets)
	reg.Counter(MetricWalks).Add(s.Walks)
	reg.Counter(MetricPrunedUnaffected).Add(s.PrunedUnaffected)
	reg.Counter(MetricPrunedDominated).Add(s.PrunedDominated)
	reg.Counter(MetricExcused).Add(s.Excused)
	reg.Counter(MetricViolations).Add(s.ViolationsFound)
	reg.Counter(MetricDFSStates).Add(s.DFSStates)
}

// pairsByDst groups the configured pairs by destination: dsts lists the
// destinations in ascending order, srcs[i] the sources toward dsts[i].
func pairsByDst(g *graph.Graph, pairs []Pair) (dsts []graph.NodeID, srcs [][]graph.NodeID) {
	byDst := make(map[graph.NodeID][]graph.NodeID)
	if len(pairs) == 0 {
		for d := 0; d < g.NumNodes(); d++ {
			for s := 0; s < g.NumNodes(); s++ {
				if s != d {
					byDst[graph.NodeID(d)] = append(byDst[graph.NodeID(d)], graph.NodeID(s))
				}
			}
		}
	} else {
		for _, p := range pairs {
			if p.Src != p.Dst {
				byDst[p.Dst] = append(byDst[p.Dst], p.Src)
			}
		}
	}
	for d := range byDst {
		dsts = append(dsts, d)
	}
	sort.Slice(dsts, func(i, j int) bool { return dsts[i] < dsts[j] })
	srcs = make([][]graph.NodeID, len(dsts))
	for i, d := range dsts {
		ss := byDst[d]
		sort.Slice(ss, func(a, b int) bool { return ss[a] < ss[b] })
		srcs[i] = ss
	}
	return dsts, srcs
}

// found is the per-pair record of minimal violating sets discovered so
// far, used for domination pruning during a sweep.
type found struct {
	sets [][]int
}

// dominated reports whether idx contains any recorded set.
func (f *found) dominated(idx []int) bool {
	for _, s := range f.sets {
		if containsAll(idx, s) {
			return true
		}
	}
	return false
}

// add records a new set, dropping any recorded superset of it.
func (f *found) add(idx []int) {
	kept := f.sets[:0]
	for _, s := range f.sets {
		if !containsAll(s, idx) {
			kept = append(kept, s)
		}
	}
	f.sets = append(kept, append([]int(nil), idx...))
}

// containsAll reports whether sorted set a contains every member of
// sorted set b.
func containsAll(a, b []int) bool {
	i := 0
	for _, want := range b {
		for i < len(a) && a[i] < want {
			i++
		}
		if i >= len(a) || a[i] != want {
			return false
		}
		i++
	}
	return true
}

// Exhaustive enumerates every failure set of 1..K elements against every
// configured pair and returns the complete certificate: CERTIFIED when no
// violation exists, otherwise every subset-minimal counterexample with
// its refereed violating walk. Sizes sweep in ascending order, so a
// recorded counterexample's proper subsets have all been proven
// violation-free — minimality is a consequence of the sweep, and is
// re-verified per emitted set anyway (Minimise).
//
// Pruning never loses a violation:
//   - unaffected pairs (failure-free walk consults no failed element)
//     walk identically under the set and deliver;
//   - sets containing an already-found violating subset for the pair
//     cannot be subset-minimal for it;
//   - sets disconnecting the pair are excused by the Oracle's own rule.
func Exhaustive(g *graph.Graph, w Walker, cfg Config) (*Certificate, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	sp := newSpace(g, cfg.Mode)
	dsts, srcs := pairsByDst(g, cfg.Pairs)

	root := cfg.Tracer.Start("certify.exhaustive", cfg.TraceParent)
	root.SetAttr(telemetry.AttrNodes, int64(g.NumNodes()))
	root.SetAttr(telemetry.AttrCount, int64(len(dsts)))
	defer root.End()

	stats := make([]SearchStats, len(dsts))
	viols := make([][]Violation, len(dsts))
	obs := cfg.Tracer.RangeObserver("certify.sweep.worker", root.ID())
	par.ForObserved(len(dsts), cfg.Workers, obs, func(_, lo, hi int) {
		for di := lo; di < hi; di++ {
			viols[di] = sweepDst(g, w, sp, cfg, dsts[di], srcs[di], &stats[di])
		}
	})

	var total SearchStats
	for i := range stats {
		total.merge(stats[i])
	}
	var all []Violation
	for _, vs := range viols {
		all = append(all, vs...)
	}
	return buildCertificate(g, w, sp, cfg, "exhaustive", all, total)
}

// sweepDst runs the exhaustive enumeration for one destination: sizes
// ascending, sets in lexicographic order, sources ascending — fully
// deterministic, so the par fan-out is bit-identical to sequential.
func sweepDst(g *graph.Graph, w Walker, sp *space, cfg Config, dst graph.NodeID, sources []graph.NodeID, st *SearchStats) []Violation {
	// Failure-free walks per source: the consulted footprint is the
	// affectedness test — if no failed element is consulted, the walk
	// under the set is the same walk.
	baseConsulted := make(map[graph.NodeID][]int, len(sources))
	for _, src := range sources {
		base := w.Walk(src, dst, nil)
		st.Walks++
		if base.Delivered() {
			baseConsulted[src] = sp.consulted(base)
		}
		// A scheme failing with zero failures is broken in a way this
		// sweep does not certify; leave the pair out (nothing to attack).
	}

	minimal := make(map[graph.NodeID]*found, len(sources))
	for _, src := range sources {
		minimal[src] = &found{}
	}

	var out []Violation
	inSet := make([]bool, sp.size())
	for size := 1; size <= cfg.K; size++ {
		failure.Subsets(sp.size(), size, func(idx []int) bool {
			st.Sets++
			for _, i := range idx {
				inSet[i] = true
			}
			var fs *graph.FailureSet // built lazily: most pairs prune
			var reach []bool
			for _, src := range sources {
				cons, ok := baseConsulted[src]
				if !ok {
					continue
				}
				if !touches(cons, inSet) {
					st.PrunedUnaffected++
					continue
				}
				if minimal[src].dominated(idx) {
					st.PrunedDominated++
					continue
				}
				if fs == nil {
					fs = sp.fsOf(idx)
				}
				walk := w.Walk(src, dst, fs)
				st.Walks++
				if walk.Delivered() {
					continue
				}
				if reach == nil {
					reach = graph.ReachableUnder(g, dst, fs)
				}
				if !reach[src] {
					st.Excused++
					continue
				}
				st.ViolationsFound++
				minimal[src].add(idx)
				out = append(out, newViolation(sp, src, dst, idx, walk))
			}
			for _, i := range idx {
				inSet[i] = false
			}
			return true
		})
	}
	return out
}

// touches reports whether any consulted index is in the current set.
func touches(consulted []int, inSet []bool) bool {
	for _, i := range consulted {
		if inSet[i] {
			return true
		}
	}
	return false
}

// newViolation packages the violating walk of the pair under idx.
func newViolation(sp *space, src, dst graph.NodeID, idx []int, walk core.Result) Violation {
	return Violation{
		Src:      src,
		Dst:      dst,
		Elements: sp.elemsOf(idx),
		Links:    sp.fsOf(idx),
		Walk:     walk,
		indices:  append([]int(nil), idx...),
	}
}

// Certify picks the strategy by universe size: the exhaustive sweep when
// the number of ≤K-subsets is within budget, the guided search beyond it.
func Certify(g *graph.Graph, w Walker, cfg Config) (*Certificate, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	sp := newSpace(g, cfg.Mode)
	var sets int64
	for k := 1; k <= cfg.K; k++ {
		sets += failure.CountSubsets(sp.size(), k)
		if sets > exhaustiveBudget {
			return Guided(g, w, cfg)
		}
	}
	return Exhaustive(g, w, cfg)
}

// exhaustiveBudget is the set-count ceiling beyond which Certify switches
// to the guided search (~the k=2 sweep of a few-hundred-link graph).
const exhaustiveBudget = 200_000

// violationLess orders violations for deterministic output: smallest set
// first, then source, destination and set contents.
func violationLess(a, b Violation) bool {
	if len(a.indices) != len(b.indices) {
		return len(a.indices) < len(b.indices)
	}
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	if a.Dst != b.Dst {
		return a.Dst < b.Dst
	}
	for i := range a.indices {
		if a.indices[i] != b.indices[i] {
			return a.indices[i] < b.indices[i]
		}
	}
	return false
}

// dedupViolations sorts and removes duplicate (pair, set) records and
// drops non-minimal sets dominated by another record of the same pair.
func dedupViolations(in []Violation) []Violation {
	sort.Slice(in, func(i, j int) bool { return violationLess(in[i], in[j]) })
	seen := make(map[string]bool, len(in))
	perPair := make(map[Pair]*found)
	var out []Violation
	for _, v := range in {
		key := fmt.Sprintf("%d>%d:%s", v.Src, v.Dst, setKey(v.indices))
		if seen[key] {
			continue
		}
		seen[key] = true
		p := Pair{Src: v.Src, Dst: v.Dst}
		f := perPair[p]
		if f == nil {
			f = &found{}
			perPair[p] = f
		}
		// Sorted by ascending size, so subsets precede supersets.
		if f.dominated(v.indices) {
			continue
		}
		f.add(v.indices)
		out = append(out, v)
	}
	return out
}
