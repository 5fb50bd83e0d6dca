package graph

import "fmt"

// EditKind discriminates topology edits.
type EditKind int

const (
	// EditWeight changes the weight of an existing link.
	EditWeight EditKind = iota
	// EditAddLink adds a link between two existing nodes: it revives a
	// removed link joining them, else appends a new ID.
	EditAddLink
	// EditRemoveLink removes a live link. The link keeps its ID as a
	// tombstone (Graph.Removed): no other ID moves, and a failure that
	// never heals is what the rest of the system sees.
	EditRemoveLink
)

// String names the edit kind.
func (k EditKind) String() string {
	switch k {
	case EditWeight:
		return "weight"
	case EditAddLink:
		return "add"
	case EditRemoveLink:
		return "remove"
	}
	return fmt.Sprintf("EditKind(%d)", int(k))
}

// Edit is one planned topology change — the unit of maintenance the
// incremental recompiler consumes. Link IDs never move, so a reference
// means the same link before and after any edit.
type Edit struct {
	Kind EditKind
	// Link is the target of EditWeight / EditRemoveLink.
	Link LinkID
	// A, B are the endpoints of EditAddLink.
	A, B NodeID
	// Weight is the new weight for EditWeight / EditAddLink.
	Weight float64
}

// SetWeight returns the edit changing link l's weight to w.
func SetWeight(l LinkID, w float64) Edit { return Edit{Kind: EditWeight, Link: l, Weight: w} }

// AddLinkEdit returns the edit adding an a–b link of weight w.
func AddLinkEdit(a, b NodeID, w float64) Edit {
	return Edit{Kind: EditAddLink, A: a, B: b, Weight: w}
}

// RemoveLinkEdit returns the edit removing link l.
func RemoveLinkEdit(l LinkID) Edit { return Edit{Kind: EditRemoveLink, Link: l} }

// String renders the edit for logs.
func (e Edit) String() string {
	switch e.Kind {
	case EditWeight:
		return fmt.Sprintf("weight(link %d → %g)", e.Link, e.Weight)
	case EditAddLink:
		return fmt.Sprintf("add(%d–%d @ %g)", e.A, e.B, e.Weight)
	case EditRemoveLink:
		return fmt.Sprintf("remove(link %d)", e.Link)
	}
	return fmt.Sprintf("edit(kind %d)", int(e.Kind))
}

// Structural reports whether the edit changes the link set (and therefore
// the dart space and the embedding), as opposed to only link weights.
func (e Edit) Structural() bool { return e.Kind != EditWeight }

// Validate checks one edit against the graph it will be applied to: the
// error ApplyEdit would return, without the edit.
func (e Edit) Validate(g *Graph) error {
	switch e.Kind {
	case EditWeight, EditRemoveLink:
		if e.Link < 0 || int(e.Link) >= g.NumLinks() {
			return fmt.Errorf("graph: edit %v references unknown link", e)
		}
		if e.Kind == EditWeight && e.Weight <= 0 {
			return fmt.Errorf("graph: edit %v has non-positive weight", e)
		}
		if e.Kind == EditRemoveLink && g.Removed(e.Link) {
			return fmt.Errorf("graph: edit %v targets a link already removed", e)
		}
	case EditAddLink:
		if !g.validNode(e.A) || !g.validNode(e.B) {
			return fmt.Errorf("graph: edit %v references unknown node", e)
		}
		if e.A == e.B {
			return fmt.Errorf("graph: edit %v is a self-loop", e)
		}
		if e.Weight <= 0 {
			return fmt.Errorf("graph: edit %v has non-positive weight", e)
		}
	default:
		return fmt.Errorf("graph: unknown edit kind %d", int(e.Kind))
	}
	return nil
}

// ApplyEdit applies a single edit to a frozen graph and returns the edited
// frozen clone. No link ID moves: a removal leaves its link in the link
// table as a tombstone, out of the adjacency; an addition between the
// endpoints of a tombstone revives the lowest such ID, with its endpoints'
// order and the new weight; any other addition appends ID NumLinks().
// A weight edit on a tombstone only records the weight.
func ApplyEdit(g *Graph, e Edit) (*Graph, error) {
	if err := e.Validate(g); err != nil {
		return nil, err
	}
	links := append([]Link(nil), g.links...)
	if e.Kind == EditWeight && g.Frozen() {
		// Weight-only fast path: adjacency, names and the through-arc
		// table are weight-free, so the edited graph shares them and
		// clones just the link table and the arcs that carry the weight
		// inline — the delta recompiler applies thousands of these.
		links[e.Link].Weight = e.Weight
		arcs := append([]arc(nil), g.arcs...)
		for _, u := range [2]NodeID{links[e.Link].A, links[e.Link].B} {
			for i := g.arcStart[u]; i < g.arcStart[u+1]; i++ {
				if arcs[i].link == int32(e.Link) {
					arcs[i].w = e.Weight
				}
			}
		}
		return &Graph{names: g.names, links: links, removed: g.removed, adj: g.adj, frozen: true,
			arcStart: g.arcStart, arcs: arcs, thru: g.thru}, nil
	}
	removed := append([]bool(nil), g.removed...)
	switch e.Kind {
	case EditWeight:
		links[e.Link].Weight = e.Weight
	case EditRemoveLink:
		if removed == nil {
			removed = make([]bool, len(links))
		}
		removed[e.Link] = true
	case EditAddLink:
		l := g.AddTarget(e.A, e.B)
		if int(l) < len(links) {
			links[l].Weight = e.Weight
			removed[l] = false
			break
		}
		if err := CheckSize(0, len(links)+1); err != nil {
			return nil, err
		}
		links = append(links, Link{ID: l, A: e.A, B: e.B, Weight: e.Weight})
		if removed != nil {
			removed = append(removed, false)
		}
	}
	out := &Graph{names: g.names, links: links, removed: removed, adj: make([][]Neighbor, len(g.names))}
	for _, l := range links {
		if !out.Removed(l.ID) {
			out.adj[l.A] = append(out.adj[l.A], Neighbor{Node: l.B, Link: l.ID})
			out.adj[l.B] = append(out.adj[l.B], Neighbor{Node: l.A, Link: l.ID})
		}
	}
	return out.Freeze(), nil
}
