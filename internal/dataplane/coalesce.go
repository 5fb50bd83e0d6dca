package dataplane

import "recycle/internal/graph"

// coalesceEdits nets a batch of weight edits over g: the last write to a
// link wins, and a write that leaves its weight as g has it drops out.
// The recompiled state is a canonical function of the final graph and
// rotation orders alone — trees are canonical Dijkstra, ranks and FIB
// columns are derived from them — and weight edits on different links
// commute, so the net batch recompiles bit-identically to the replay;
// intermediate weights can flip tie-breaks only during the batch, never
// in its result.
//
// It returns ok=false — the caller replays the original batch — when the
// batch is too small to shrink, nets to no reduction, holds a structural
// edit (a link added and removed again leaves a tombstone behind, which
// only the replay lays down) or an edit that does not validate (replay
// surfaces the identical error). ok=true with an empty net means the
// batch cancels out entirely: the caller's state is already the final
// state.
func coalesceEdits(g *graph.Graph, edits []graph.Edit) (net []graph.Edit, ok bool) {
	if len(edits) < 2 {
		return nil, false
	}
	at := make(map[graph.LinkID]int, len(edits)) // a link's slot in net
	for _, e := range edits {
		if e.Kind != graph.EditWeight || e.Validate(g) != nil {
			return nil, false
		}
		if i, seen := at[e.Link]; seen {
			net[i].Weight = e.Weight
			continue
		}
		at[e.Link] = len(net)
		net = append(net, e)
	}
	kept := net[:0]
	for _, e := range net {
		if e.Weight != g.Weight(e.Link) {
			kept = append(kept, e)
		}
	}
	if len(kept) == len(edits) {
		return nil, false
	}
	return kept, true
}
