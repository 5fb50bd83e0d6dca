// Package dataplane is the compiled forwarding fast path of the Packet
// Re-cycling reproduction.
//
// The paper's central performance claim (§4, §6) is that PR needs zero
// recomputation at failure time: every table is built offline and the
// per-hop decision is a constant number of table lookups. core.Protocol
// reproduces those semantics faithfully but pays interface dispatch, map
// lookups and per-packet map allocations on every hop — fine for
// experiments, far from "as fast as the hardware allows". This package
// closes that gap in three layers:
//
//   - FIB (fib.go): an offline compiler that flattens a core.Protocol —
//     its route.Table, rotation.System and variant — into dense flat
//     arrays: per-(node,destination) next-hop darts, per-dart
//     cycle-successor (φ) and complementary (σ) darts, and per-pair
//     distance discriminators in one unit, the rank of core.Quantiser,
//     which is what the wire carries. A forwarding decision is then a
//     handful of array indexings with zero allocations, bit-identical to
//     the Decide of the Config.Quantise protocol over the same tables
//     (for hop counts, the raw protocol's too: rank = hop count).
//     Compile also selects the wire codec from the quantised bit budget:
//     IPv4 DSCP pool 2 when 3 DD bits suffice, the IPv6 flow label (17
//     DD bits) for larger diameters and weight-sum discriminators.
//
//   - Wire path (wire.go): forwards real IPv4 and IPv6 packet bytes. The
//     PR mark is decoded from the DSCP pool-2 field or the flow label
//     (package header), FIB.Decide decides on it (Header.DD is the rank
//     the mark carries), the mark is re-encoded in place, and the IPv4
//     header checksum is fixed incrementally (RFC 1624) instead of being
//     recomputed.
//
//   - Engine (engine.go): a sharded forwarding engine — N worker
//     goroutines draining per-shard batch rings, all reading an
//     atomically swapped interface-state snapshot (RCU style), so local
//     failure detection never takes a lock on the hot path.
//
//   - Egress (egress.go): the pipeline's transmit stage. TxQueue gives
//     every dart (link direction) a bounded, link-rate-paced transmit
//     queue mirroring the simulator's linkFree serialisation model, so
//     engine throughput numbers are end-to-end ingest → decide →
//     transmit, with overload surfacing as counted queue drops instead
//     of free pps.
//
// Interface state is a LinkState bitset rather than core's map-backed
// graph.FailureSet: membership tests become single AND instructions and
// snapshots are cheap to copy-on-write.
package dataplane

import (
	"slices"

	"recycle/internal/graph"
)

// LinkState is a bitset of failed links, the dataplane's compiled form of
// graph.FailureSet: Down is one shift-and-mask, and the whole state is
// small enough to copy-on-write for RCU snapshots. The zero value is not
// usable. A FIB decides right only under the state its LinkState builds,
// which holds the graph's removed links down; NewLinkState and
// FromFailureSet build one that knows of no removed link, for a graph
// that has none.
type LinkState struct {
	bits     []uint64
	numLinks int
	down     int // failed links: the popcount of bits, kept by Set
	// removed are the links removed from the graph (FIB.LinkState): down
	// whatever Set is told. This state is the one place that rule lives.
	removed []graph.LinkID
}

// NewLinkState returns an all-up state for a graph with numLinks links.
func NewLinkState(numLinks int) *LinkState {
	return &LinkState{bits: make([]uint64, (numLinks+63)/64), numLinks: numLinks}
}

// FromFailureSet compiles a graph.FailureSet (nil allowed) into a bitset.
func FromFailureSet(numLinks int, f *graph.FailureSet) *LinkState {
	s := NewLinkState(numLinks)
	if f != nil {
		for _, l := range f.Links() {
			s.Set(l, true)
		}
	}
	return s
}

// Down reports whether link l is failed.
func (s *LinkState) Down(l graph.LinkID) bool {
	i := uint32(l) // zero-extends for free; uint(l) would sign-extend first
	return s.bits[i>>6]&(1<<(i&63)) != 0
}

// Set marks link l down or up; only a flip moves the failed-link count. A
// removed link stays down.
func (s *LinkState) Set(l graph.LinkID, down bool) {
	if !down && s.isRemoved(l) {
		return
	}
	w, bit := &s.bits[uint(l)>>6], uint64(1)<<(uint(l)&63)
	if (*w&bit != 0) == down {
		return
	}
	*w ^= bit
	if down {
		s.down++
	} else {
		s.down--
	}
}

// isRemoved reports whether l is a link the graph removed.
func (s *LinkState) isRemoved(l graph.LinkID) bool { return slices.Contains(s.removed, l) }

// NumLinks returns the link-space size the state was built for.
func (s *LinkState) NumLinks() int { return s.numLinks }

// CountDown returns the number of failed links.
func (s *LinkState) CountDown() int { return s.down }

// Clone returns an independent copy, the unit of RCU copy-on-write.
func (s *LinkState) Clone() *LinkState {
	c := &LinkState{bits: make([]uint64, len(s.bits)), numLinks: s.numLinks, down: s.down, removed: s.removed}
	copy(c.bits, s.bits)
	return c
}
