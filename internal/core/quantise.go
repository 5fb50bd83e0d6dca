package core

import (
	"math"
	"slices"
	"sort"

	"recycle/internal/graph"
	"recycle/internal/par"
	"recycle/internal/route"
)

// RankUnreachable is the Quantiser's sentinel for pairs with no route.
const RankUnreachable = ^uint32(0)

// Quantiser is the bucketisation pass that makes arbitrary distance
// discriminators wire-encodable: it maps each raw discriminator
// DD(node, dst) — a hop count or an unbounded weight sum — onto its *rank*
// among the distinct discriminator values that occur toward dst, a dense
// integer code needing ⌈log2 r⌉ bits for r distinct values (≤ the node
// count, so ≤ 16 bits on the dataplane's 65536-node address plan).
//
// Why rank coding preserves the §4.3 proof: the protocol only ever compares
// discriminators of two routers *toward the same destination* — the header
// DD stamped by one router against the local DD of another. For a fixed
// destination, rank assignment is a strictly monotone map of the raw
// values, so
//
//	DD(a, dst) < DD(b, dst)  ⟺  Rank(a, dst) < Rank(b, dst)
//
// and every strict-decrease chain of raw discriminators along a recycling
// path maps to a strict-decrease chain of ranks. The quantised protocol
// therefore takes *bit-identical decisions* to the raw protocol — not
// merely equivalent delivery — which the differential harness in
// invariant_test.go exercises over hundreds of random topologies.
//
// A Quantiser is immutable after Build and safe for concurrent use.
type Quantiser struct {
	n int
	// rank[dst][node]; -1 when no route, which converts to RankUnreachable.
	// One slice per destination, so a delta rebuild (Rebuild) shares
	// untouched columns. A hop-count column is the tree's Hops plane
	// itself, not a copy: trees are copy-on-write, so it never changes.
	rank    [][]int32
	maxRank uint32
	// dstMax[dst] is the largest rank in dst's column, so a delta rebuild
	// (Rebuild) can recompute the global max from per-column maxima.
	dstMax []uint32
}

// BuildQuantiser computes the per-destination rank tables of a routing
// table. Cost is O(n² log n) — offline work for the paper's designated
// server, never paid at failure time. Rank assignment is independent per
// destination (each column writes its own slice of rank plus its own
// dstMax slot), so columns fan out across GOMAXPROCS workers with
// per-worker sort scratch; the output is bit-identical to a sequential
// build at any worker count.
func BuildQuantiser(tbl *route.Table) *Quantiser {
	return BuildQuantiserWorkers(tbl, 0)
}

// BuildQuantiserWorkers is BuildQuantiser with an explicit worker count:
// 0 picks the automatic fan-out, 1 forces the sequential build.
func BuildQuantiserWorkers(tbl *route.Table, workers int) *Quantiser {
	n := tbl.Graph().NumNodes()
	q := &Quantiser{n: n, rank: make([][]int32, n), dstMax: make([]uint32, n)}
	var plane []int32 // weight-sum columns only: hop counts need no copy
	if tbl.DiscriminatorKind() != route.HopCount {
		plane = make([]int32, n*n)
	}
	par.For(n, workers, func(_, lo, hi int) {
		var vals []float64
		for dst := lo; dst < hi; dst++ {
			if plane != nil {
				q.rank[dst] = plane[dst*n : (dst+1)*n : (dst+1)*n]
			}
			vals = q.rankColumn(tbl, graph.NodeID(dst), vals)
		}
	})
	q.refreshMax()
	return q
}

// rankColumn recomputes destination dst's rank column and per-column max
// from tbl, reusing vals as scratch. A hop-count column is aliased from
// the tree; a weight-sum column is written into q.rank[dst], which the
// caller allocated. It is the per-destination unit both BuildQuantiser
// and the delta path's Rebuild share.
func (q *Quantiser) rankColumn(tbl *route.Table, dst graph.NodeID, vals []float64) []float64 {
	if tbl.DiscriminatorKind() == route.HopCount {
		// Hop counts toward a destination are dense: every node's parent
		// is exactly one hop closer, so each value 0..max occurs and the
		// rank of hop count h among the distinct values is h itself. The
		// column is the tree's Hops plane, -1 included.
		col := tbl.Tree(dst).Hops
		top := int32(0)
		for _, h := range col {
			top = max(top, h)
		}
		q.rank[dst], q.dstMax[dst] = col, uint32(top)
		return vals
	}
	n, col := q.n, q.rank[dst]
	vals = slices.Grow(vals[:0], n)
	for node := 0; node < n; node++ {
		if tbl.Reachable(graph.NodeID(node), dst) {
			vals = append(vals, tbl.DD(graph.NodeID(node), dst))
		}
	}
	sort.Float64s(vals)
	// Dedupe in place: ranks must be equal for equal raw values, or the
	// ≥ branch of the termination test would diverge from the raw rule.
	distinct := vals[:0]
	for i, v := range vals {
		if i == 0 || v != vals[i-1] {
			distinct = append(distinct, v)
		}
	}
	q.dstMax[dst] = 0
	for node := 0; node < n; node++ {
		if !tbl.Reachable(graph.NodeID(node), dst) {
			col[node] = -1
			continue
		}
		dd := tbl.DD(graph.NodeID(node), dst)
		r := sort.SearchFloat64s(distinct, dd)
		col[node] = int32(r)
		q.dstMax[dst] = max(q.dstMax[dst], uint32(r))
	}
	return vals
}

// refreshMax recomputes the global max rank from the per-column maxima.
func (q *Quantiser) refreshMax() {
	q.maxRank = 0
	for _, m := range q.dstMax {
		if m > q.maxRank {
			q.maxRank = m
		}
	}
}

// Rebuild returns a quantiser for tbl that recomputes only the given
// destinations' rank columns and shares every other column with q — the
// delta-recompilation hook. Rank assignment is independent per
// destination (the §4.3 termination test only ever compares
// discriminators toward one destination), so columns whose DD values a
// topology edit did not touch stay exact. q itself is not modified.
func (q *Quantiser) Rebuild(tbl *route.Table, dirty []graph.NodeID) *Quantiser {
	if len(dirty) == 0 {
		return q
	}
	nq := &Quantiser{
		n:      q.n,
		rank:   append([][]int32(nil), q.rank...),
		dstMax: append([]uint32(nil), q.dstMax...),
	}
	hops := tbl.DiscriminatorKind() == route.HopCount
	// Dirty columns are disjoint slices, so re-rank them in parallel
	// like BuildQuantiser does (small dirty sets stay sequential under
	// the fan-out floor).
	par.For(len(dirty), 0, func(_, lo, hi int) {
		var vals []float64
		for i := lo; i < hi; i++ {
			if !hops {
				nq.rank[dirty[i]] = make([]int32, q.n)
			}
			vals = nq.rankColumn(tbl, dirty[i], vals)
		}
	})
	nq.refreshMax()
	return nq
}

// Rank returns the quantised discriminator of node toward dst, or
// RankUnreachable when no route exists.
func (q *Quantiser) Rank(node, dst graph.NodeID) uint32 {
	return uint32(q.rank[dst][node])
}

// MaxRank returns the largest rank assigned to any reachable pair.
func (q *Quantiser) MaxRank() uint32 { return q.maxRank }

// Bits returns the number of bits needed to carry any rank: the smallest b
// with 2^b > MaxRank (minimum 1). For hop-count discriminators ranks equal
// hop counts, so this matches route.Table.DDBits; for weight sums it is the
// paper's "order of log2(d) bits" where the raw bit count would grow with
// the weight magnitudes instead.
func (q *Quantiser) Bits() int {
	bits := 1
	for uint64(1)<<bits <= uint64(q.maxRank) {
		bits++
	}
	return bits
}

// VerifyOrderPreserved checks the quantisation invariant the §4.3 proof
// needs — for every destination and every pair of reachable nodes, rank
// comparison agrees with raw discriminator comparison — and returns false
// on the first violation. It exists for the property harness and as a
// Compile-time self-check; a correct Build can never fail it.
func (q *Quantiser) VerifyOrderPreserved(tbl *route.Table) bool {
	n := q.n
	for dst := 0; dst < n; dst++ {
		for a := 0; a < n; a++ {
			ra := q.rank[dst][a]
			if ra < 0 {
				continue
			}
			dda := tbl.DD(graph.NodeID(a), graph.NodeID(dst))
			for b := a + 1; b < n; b++ {
				rb := q.rank[dst][b]
				if rb < 0 {
					continue
				}
				ddb := tbl.DD(graph.NodeID(b), graph.NodeID(dst))
				if (dda < ddb) != (ra < rb) || (dda == ddb) != (ra == rb) {
					return false
				}
			}
		}
	}
	return true
}

// quantDD returns the rank as the float the Header carries. Ranks are ≤
// 2^32−1 and float64 represents every integer below 2^53 exactly, so rank
// comparisons through Header.DD stay exact.
func quantDD(r uint32) float64 {
	if r == RankUnreachable {
		return math.Inf(1)
	}
	return float64(r)
}
