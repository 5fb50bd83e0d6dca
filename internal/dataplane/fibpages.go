package dataplane

import (
	"slices"
	"sync"

	"recycle/internal/core"
)

// Shared-column FIB storage.
//
// Whole destination columns can never be deduplicated on a connected
// graph: the column toward dst holds the sentinel entries (-1 next dart,
// rank 0) at row dst itself, so two equal columns would claim some other
// destination cannot be reached from dst — a contradiction. What *does*
// repeat on sparse topologies is column *content away from the
// destination*: long stretches of nodes route toward faraway
// destinations through the same egress darts with the same rank pattern.
// The shared representation therefore splits every column into fixed
// power-of-two pages of rows, content-hashes each page and interns it in
// a per-plane slab store shared by all columns; the per-(dst, page)
// pointer table is what a column "is". The recompiler copies a clone's
// pointer tables (cheap) and gives a page a private copy only when it
// actually writes into it, so a patched FIB shares every untouched page
// with the generation the engine is still forwarding on.
//
// One further compression, exact: ranks are stored as uint16 (ranks are
// < numNodes, and shared columns are only used below 2^16 nodes), halving
// the ddq plane.
type fibPages struct {
	pageBits uint // log2 of the page size in rows
	pageMask int  // page size − 1
	perCol   int  // pages per destination column: ceil(numNodes / pageSize)

	// Pointer tables, indexed dst*perCol + node>>pageBits. Entries alias
	// interned slab segments or private copy-on-write pages.
	nd  [][]int32
	ddq [][]uint16
}

// rank16Unreachable is core.RankUnreachable narrowed to the uint16 rank
// pages. Ranks are < numNodes < 2^16 in shared mode, so the sentinel
// cannot collide with a real rank.
const rank16Unreachable = ^uint16(0)

const (
	// defaultPageSize balances dedup hit rate (smaller pages match more
	// often) against pointer-table overhead (24 bytes per table entry).
	defaultPageSize = 128
	// sharedAutoMinNodes is where ColumnsAuto switches to shared pages:
	// below it the dense planes are at most a few MB and the extra
	// indirection buys nothing.
	sharedAutoMinNodes = 512
)

func rank16(r uint32) uint16 {
	if r == core.RankUnreachable {
		return rank16Unreachable
	}
	return uint16(r)
}

func newFIBPages(numNodes, pageSize int) *fibPages {
	bits := uint(0)
	for 1<<(bits+1) <= pageSize {
		bits++
	}
	size := 1 << bits
	perCol := (numNodes + size - 1) / size
	return &fibPages{
		pageBits: bits,
		pageMask: size - 1,
		perCol:   perCol,
		nd:       make([][]int32, numNodes*perCol),
		ddq:      make([][]uint16, numNodes*perCol),
	}
}

// ndAt/ddqAt are the paged halves of the FIB accessors.

func (p *fibPages) ndAt(node, dst int) int32 {
	return p.nd[dst*p.perCol+node>>p.pageBits][node&p.pageMask]
}

func (p *fibPages) ddqAt(node, dst int) uint32 {
	q := p.ddq[dst*p.perCol+node>>p.pageBits][node&p.pageMask]
	if q == rank16Unreachable {
		return core.RankUnreachable
	}
	return uint32(q)
}

// pageSpan returns the row range [lo, hi) page pi of a column covers.
func (p *fibPages) pageSpan(pi, numNodes int) (lo, hi int) {
	lo = pi << p.pageBits
	hi = lo + p.pageMask + 1
	if hi > numNodes {
		hi = numNodes
	}
	return lo, hi
}

// clone copies the pointer tables (the CoW unit). shareDD additionally
// aliases the rank table itself — no destination will be re-ranked, so
// not even its entries can change.
func (p *fibPages) clone(shareDD bool) *fibPages {
	c := &fibPages{pageBits: p.pageBits, pageMask: p.pageMask, perCol: p.perCol}
	c.nd = append([][]int32(nil), p.nd...)
	if shareDD {
		c.ddq = p.ddq
	} else {
		c.ddq = append([][]uint16(nil), p.ddq...)
	}
	return c
}

// pageStore interns pages of one plane type: content-hash to candidate
// list, full compare to rule out collisions, copy into the shared slab on
// first sight. Safe for concurrent intern calls from compile workers.
type pageStore[T int32 | uint16] struct {
	mu   sync.Mutex
	hash func([]T) uint64
	m    map[uint64][][]T
	slab []T
}

// slabChunk is the slab growth quantum in elements.
const slabChunk = 1 << 16

func newPageStore[T int32 | uint16](hash func([]T) uint64) *pageStore[T] {
	return &pageStore[T]{hash: hash, m: make(map[uint64][][]T)}
}

func (s *pageStore[T]) intern(page []T) []T {
	h := s.hash(page)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, cand := range s.m[h] {
		if slices.Equal(cand, page) {
			return cand
		}
	}
	if cap(s.slab)-len(s.slab) < len(page) {
		n := slabChunk
		if len(page) > n {
			n = len(page)
		}
		s.slab = make([]T, 0, n)
	}
	off := len(s.slab)
	s.slab = append(s.slab, page...)
	cp := s.slab[off:len(s.slab):len(s.slab)]
	s.m[h] = append(s.m[h], cp)
	return cp
}

// Page hashes: FNV-style xor-multiply over 64-bit words, two elements of
// an int32 page or four of a uint16 page to a word, two words at a time
// on independent lanes, then the leftover elements one by one. Each step
// is a bijection of the lane (xor, then multiply by an odd constant), so
// changing any one element changes the hash; the interner's full compare
// decides equality either way.

const (
	hashBasis = 1469598103934665603
	hashPrime = 1099511628211
)

func hashInt32s(p []int32) uint64 {
	a, b := uint64(hashBasis), uint64(hashBasis)
	for ; len(p) >= 4; p = p[4:] {
		a = (a ^ (uint64(uint32(p[0])) | uint64(uint32(p[1]))<<32)) * hashPrime
		b = (b ^ (uint64(uint32(p[2])) | uint64(uint32(p[3]))<<32)) * hashPrime
	}
	h := a ^ b*hashPrime
	for _, v := range p {
		h = (h ^ uint64(uint32(v))) * hashPrime
	}
	return h
}

func hashUint16s(p []uint16) uint64 {
	a, b := uint64(hashBasis), uint64(hashBasis)
	for ; len(p) >= 8; p = p[8:] {
		a = (a ^ (uint64(p[0]) | uint64(p[1])<<16 | uint64(p[2])<<32 | uint64(p[3])<<48)) * hashPrime
		b = (b ^ (uint64(p[4]) | uint64(p[5])<<16 | uint64(p[6])<<32 | uint64(p[7])<<48)) * hashPrime
	}
	h := a ^ b*hashPrime
	for _, v := range p {
		h = (h ^ uint64(v)) * hashPrime
	}
	return h
}

// pageStores bundles the two per-plane interners of one compile.
type pageStores struct {
	nd  *pageStore[int32]
	ddq *pageStore[uint16]
}

func newPageStores() *pageStores {
	return &pageStores{
		nd:  newPageStore(hashInt32s),
		ddq: newPageStore(hashUint16s),
	}
}

// colScratch is one compile worker's reusable column buffer.
type colScratch struct {
	nd  []int32
	ddq []uint16
}

func newColScratch(numNodes int) *colScratch {
	return &colScratch{
		nd:  make([]int32, numNodes),
		ddq: make([]uint16, numNodes),
	}
}

// setColumn interns a computed column's pages into the stores and points
// the dst column at them. The scratch stays owned by the caller.
func (p *fibPages) setColumn(dst, numNodes int, sc *colScratch, st *pageStores) {
	for pi := 0; pi < p.perCol; pi++ {
		lo, hi := p.pageSpan(pi, numNodes)
		slot := dst*p.perCol + pi
		p.nd[slot] = st.nd.intern(sc.nd[lo:hi])
		p.ddq[slot] = st.ddq.intern(sc.ddq[lo:hi])
	}
}

// adoptRanks points the dst column's rank pages at pages sliced straight
// out of a freshly allocated buffer — the recompiler's private-column
// fill: no interning (a patched column rarely repeats) and no copying.
func (p *fibPages) adoptRanks(dst, numNodes int, ddq []uint16) {
	for pi := 0; pi < p.perCol; pi++ {
		lo, hi := p.pageSpan(pi, numNodes)
		p.ddq[dst*p.perCol+pi] = ddq[lo:hi:hi]
	}
}

// MemBytes reports the FIB's resident footprint in bytes: payload bytes
// of every distinct page (shared pages counted once) plus pointer-table
// headers, or the dense planes verbatim, plus the dart permutation
// tables either way. It walks the pointer tables, so call it at compile
// and swap time, not per packet.
func (f *FIB) MemBytes() int64 {
	const sliceHeader = 24
	total := int64(len(f.faceGuard)+len(f.sigma)+len(f.head)+len(f.removed)) * 4 // faceGuard: the guard entry counts
	if f.pages == nil {
		return total + int64(len(f.nextDart))*4 + int64(len(f.ddQ))*4
	}
	pg := f.pages
	total += int64(len(pg.nd)+len(pg.ddq)) * sliceHeader
	seenND := make(map[*int32]struct{}, len(pg.nd))
	for _, p := range pg.nd {
		if len(p) == 0 {
			continue
		}
		if _, ok := seenND[&p[0]]; !ok {
			seenND[&p[0]] = struct{}{}
			total += int64(len(p)) * 4
		}
	}
	seenQ := make(map[*uint16]struct{}, len(pg.ddq))
	for _, p := range pg.ddq {
		if len(p) == 0 {
			continue
		}
		if _, ok := seenQ[&p[0]]; !ok {
			seenQ[&p[0]] = struct{}{}
			total += int64(len(p)) * 2
		}
	}
	return total
}

// SharedColumns reports whether the FIB uses the shared-column page
// representation (false: dense planes).
func (f *FIB) SharedColumns() bool { return f.pages != nil }
