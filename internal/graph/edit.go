package graph

import "fmt"

// EditKind discriminates topology edits.
type EditKind int

const (
	// EditWeight changes the weight of an existing link.
	EditWeight EditKind = iota
	// EditAddLink adds a new link between two existing nodes.
	EditAddLink
	// EditRemoveLink removes an existing link. Link IDs above the removed
	// one shift down by one (IDs stay dense); ApplyEdits returns the
	// mapping.
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
// incremental recompiler consumes. Link references are in the ID space of
// the graph the edit set is applied to; edits within one ApplyEdits batch
// all reference that original space.
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

// validate checks one edit against the graph it will be applied to.
func (e Edit) validate(g *Graph) error {
	switch e.Kind {
	case EditWeight, EditRemoveLink:
		if e.Link < 0 || int(e.Link) >= g.NumLinks() {
			return fmt.Errorf("graph: edit %v references unknown link", e)
		}
		if e.Kind == EditWeight && e.Weight <= 0 {
			return fmt.Errorf("graph: edit %v has non-positive weight", e)
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
// frozen clone plus the link-ID mapping from g's space to the new graph's
// (NoLink for a removed link). Weight changes and additions keep every
// existing ID; a removal shifts the IDs above it down by one.
func ApplyEdit(g *Graph, e Edit) (*Graph, []LinkID, error) {
	if err := e.validate(g); err != nil {
		return nil, nil, err
	}
	linkMap := make([]LinkID, g.NumLinks())
	for i := range linkMap {
		linkMap[i] = LinkID(i)
	}
	if e.Kind == EditWeight && g.Frozen() {
		// Weight-only fast path: adjacency, names and the through-arc
		// table are weight-free, so the edited graph shares them and
		// clones just the link table and the arcs that carry the weight
		// inline — the delta recompiler applies thousands of these.
		links := append([]Link(nil), g.links...)
		links[e.Link].Weight = e.Weight
		arcs := append([]arc(nil), g.arcs...)
		for _, u := range [2]NodeID{links[e.Link].A, links[e.Link].B} {
			for i := g.arcStart[u]; i < g.arcStart[u+1]; i++ {
				if arcs[i].link == int32(e.Link) {
					arcs[i].w = e.Weight
				}
			}
		}
		return &Graph{names: g.names, links: links, adj: g.adj, frozen: true,
			arcStart: g.arcStart, arcs: arcs, thru: g.thru}, linkMap, nil
	}
	out := New(g.NumNodes(), g.NumLinks()+1)
	for n := 0; n < g.NumNodes(); n++ {
		out.AddNode(g.Name(NodeID(n)))
	}
	for _, l := range g.Links() {
		if e.Kind == EditRemoveLink && l.ID == e.Link {
			linkMap[l.ID] = NoLink
			continue
		}
		w := l.Weight
		if e.Kind == EditWeight && l.ID == e.Link {
			w = e.Weight
		}
		linkMap[l.ID] = out.MustAddLink(l.A, l.B, w)
	}
	if e.Kind == EditAddLink {
		if _, err := out.AddLink(e.A, e.B, e.Weight); err != nil {
			return nil, nil, err
		}
	}
	return out.Freeze(), linkMap, nil
}

// ApplyEdits applies a sequence of edits (each referencing the ID space of
// the graph before it, i.e. edits see the effect of earlier edits in the
// batch) and returns the final graph plus the composed link-ID mapping
// from g's original space (NoLink for links removed anywhere in the
// batch).
func ApplyEdits(g *Graph, edits []Edit) (*Graph, []LinkID, error) {
	cur := g
	composed := make([]LinkID, g.NumLinks())
	for i := range composed {
		composed[i] = LinkID(i)
	}
	for _, e := range edits {
		next, m, err := ApplyEdit(cur, e)
		if err != nil {
			return nil, nil, err
		}
		for i, old := range composed {
			if old != NoLink {
				composed[i] = m[old]
			}
		}
		cur = next
	}
	return cur, composed, nil
}
