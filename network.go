package recycle

import (
	"fmt"
	"io"
	"sync"

	"recycle/internal/core"
	"recycle/internal/dataplane"
	"recycle/internal/embedding"
	"recycle/internal/graph"
	"recycle/internal/rotation"
	"recycle/internal/route"
	"recycle/internal/topo"
)

// Network is a PR-enabled network: a topology, its offline cellular
// embedding, the conventional routing tables, and the PR forwarding engine.
// Networks are immutable after construction and safe for concurrent use;
// Update derives an edited network rather than mutating this one.
type Network struct {
	g        *Graph
	sys      *RotationSystem
	tbl      *route.Table
	quant    *core.Quantiser
	protocol *core.Protocol
	basic    *core.Protocol
	name     string

	// compiled caches the full-variant FIB: shared by Compile and the
	// delta path of Update, built at most once (a FIB is immutable).
	compileOnce sync.Once
	compiled    *FIB
	compileErr  error
}

// Option customises NewNetwork.
type Option func(*options)

type options struct {
	disc    Discriminator
	variant Variant
	system  *RotationSystem
}

// WithEmbedding forces a specific rotation system (e.g. one loaded from a
// file or the paper example's published embedding).
func WithEmbedding(s *RotationSystem) Option { return func(o *options) { o.system = s } }

// WithDiscriminator selects the DD function (default HopCount).
func WithDiscriminator(d Discriminator) Option { return func(o *options) { o.disc = d } }

// WithVariant selects the default protocol variant for Route (default
// Full). RouteBasic always uses the Basic variant regardless.
func WithVariant(v Variant) Option { return func(o *options) { o.variant = v } }

// NewNetwork builds a PR network over a frozen graph.
func NewNetwork(g *Graph, opts ...Option) (*Network, error) {
	return buildNetwork(Topology{Name: "custom", Graph: g}, opts...)
}

// FromTopology builds a PR network over a built-in topology — "paper",
// "abilene", "geant" or "teleglobe" — or a generator spec such as
// "ring:24", "wring:16@7", "grid:4x8" or "chain:12" (large-diameter
// regression families; these ship canonical genus-0 embeddings).
func FromTopology(name string, opts ...Option) (*Network, error) {
	tp, err := topo.ByName(name)
	if err != nil {
		return nil, err
	}
	return buildNetwork(tp, opts...)
}

// LoadNetwork parses an edge-list topology (see the graph format in
// README.md) and builds a PR network over it.
func LoadNetwork(r io.Reader, opts ...Option) (*Network, error) {
	g, err := graph.Parse(r)
	if err != nil {
		return nil, err
	}
	return buildNetwork(Topology{Name: "loaded", Graph: g}, opts...)
}

func buildNetwork(tp Topology, opts ...Option) (*Network, error) {
	o := options{disc: HopCount, variant: Full}
	for _, opt := range opts {
		opt(&o)
	}
	g := tp.Graph
	if g == nil {
		return nil, fmt.Errorf("recycle: nil graph")
	}
	if !g.Frozen() {
		g.Freeze()
	}
	sys := o.system
	if sys != nil && sys.Graph() != g {
		return nil, fmt.Errorf("recycle: WithEmbedding system was built over a different graph instance")
	}
	if sys == nil {
		sys = tp.Embedding
	}
	if sys == nil {
		var err error
		sys, err = embedding.Auto{Seed: 1}.Embed(g)
		if err != nil {
			return nil, fmt.Errorf("recycle: embedding failed: %w", err)
		}
	}
	if err := sys.Validate(); err != nil {
		return nil, fmt.Errorf("recycle: invalid embedding: %w", err)
	}
	tbl := route.Build(g, o.disc)
	// Both protocols stamp the quantiser's ranks — the unit the compiled
	// FIB holds and the wire carries — so Protocol(), Compile() and a
	// frame's mark agree under either discriminator. For hop counts the
	// rank is the hop count.
	quant := core.BuildQuantiser(tbl)
	full, err := core.NewWithQuantiser(g, sys, tbl, core.Config{Variant: o.variant, Quantise: true}, quant)
	if err != nil {
		return nil, err
	}
	basic, err := core.NewWithQuantiser(g, sys, tbl, core.Config{Variant: Basic, Quantise: true}, quant)
	if err != nil {
		return nil, err
	}
	return &Network{g: g, sys: sys, tbl: tbl, quant: quant,
		protocol: full, basic: basic, name: tp.Name}, nil
}

// Name returns the topology name.
func (n *Network) Name() string { return n.name }

// Graph returns the underlying graph.
func (n *Network) Graph() *Graph { return n.g }

// Embedding returns the rotation system in use.
func (n *Network) Embedding() *RotationSystem { return n.sys }

// Genus returns the genus of the embedding's surface (0 = sphere). The §5
// delivery guarantee holds on genus-0 embeddings; see EXPERIMENTS.md for
// what arbitrary embeddings cost.
func (n *Network) Genus() int { return n.sys.Genus() }

// Protocol exposes the underlying PR forwarding engine for advanced use
// (per-hop decisions, event-driven simulation). Its Header.DD carries the
// Quantiser's ranks, the unit Compile's FIB and the wire use.
func (n *Network) Protocol() *core.Protocol { return n.protocol }

// Compile flattens the network's forwarding state (routing tables,
// rotation system, variant) into a dataplane FIB: dense arrays on which a
// per-hop decision is a handful of indexings with zero allocations,
// bit-identical to Protocol().Decide, the header's rank-quantised
// discriminator included. This is the offline step the paper
// assigns to the designated server — run once, never at failure time.
// The FIB is immutable, built once and shared by every caller (and by
// Update's delta path).
func (n *Network) Compile() (*FIB, error) {
	n.compileOnce.Do(func() {
		n.compiled, n.compileErr = dataplane.CompileWith(n.protocol, n.quant)
	})
	return n.compiled, n.compileErr
}

// Update derives the network that results from a planned topology edit
// set — link weight changes, link additions, link removals — by delta
// recompilation: only the destination trees, quantiser columns and FIB
// columns the edits touch are recomputed; everything else is shared with
// this network. The returned delta carries the patched FIB and the
// dirty-destination list; hand it to Engine.ApplyDelta to hot-swap a
// running dataplane without dropping a packet. The result is
// bit-identical to rebuilding the network from scratch over the edited
// graph (differential-tested in internal/dataplane).
//
// n itself is unchanged and remains fully usable.
//
// An edit set with no net effect — empty, or one that cancels out, like
// a weight set and then set back — returns (n, nil, nil): the network is
// its own result and there is nothing to swap.
func (n *Network) Update(edits ...Edit) (*Network, *TopologyDelta, error) {
	fib, err := n.Compile()
	if err != nil {
		return nil, nil, err
	}
	rec, err := dataplane.NewRecompiler(n.protocol, n.quant, fib)
	if err != nil {
		return nil, nil, err
	}
	d, err := rec.Apply(edits...)
	if err != nil {
		return nil, nil, err
	}
	if d == nil {
		return n, nil, nil
	}
	basic, err := core.NewWithQuantiser(d.Graph, d.System, d.Table, core.Config{Variant: Basic, Quantise: true}, d.Quantiser)
	if err != nil {
		return nil, nil, err
	}
	nn := &Network{g: d.Graph, sys: d.System, tbl: d.Table, quant: d.Quantiser,
		protocol: d.Protocol, basic: basic, name: n.name}
	nn.compileOnce.Do(func() { nn.compiled = d.FIB })
	return nn, d, nil
}

// Recompiler returns a fresh incremental recompiler over this network's
// compiled state, for control planes that chain many edit sets and want
// the recompiler to carry its scratch (and stats) across them.
func (n *Network) Recompiler() (*dataplane.Recompiler, error) {
	fib, err := n.Compile()
	if err != nil {
		return nil, err
	}
	return dataplane.NewRecompiler(n.protocol, n.quant, fib)
}

// CompileBasic compiles the Basic (§4.2) variant's FIB.
func (n *Network) CompileBasic() (*FIB, error) { return dataplane.CompileWith(n.basic, n.quant) }

// Node resolves a node name, returning an error for unknown names.
func (n *Network) Node(name string) (NodeID, error) {
	id := n.g.NodeByName(name)
	if id == graph.NoNode {
		return id, fmt.Errorf("recycle: unknown node %q", name)
	}
	return id, nil
}

// MustLinkBetween returns the link joining two named nodes, panicking when
// absent — intended for examples and tests over known topologies.
func (n *Network) MustLinkBetween(a, b string) LinkID {
	na, err := n.Node(a)
	if err != nil {
		panic(err)
	}
	nb, err := n.Node(b)
	if err != nil {
		panic(err)
	}
	l := n.g.FindLink(na, nb)
	if l == graph.NoLink {
		panic(fmt.Sprintf("recycle: no link %s-%s", a, b))
	}
	return l
}

// Route walks one packet from src to dst under the failure set (nil = no
// failures) using the network's default variant and returns the full
// transcript. Node arguments are names.
func (n *Network) Route(src, dst string, failures *FailureSet) (Result, error) {
	s, err := n.Node(src)
	if err != nil {
		return Result{}, err
	}
	d, err := n.Node(dst)
	if err != nil {
		return Result{}, err
	}
	return n.protocol.Walk(s, d, failures), nil
}

// RouteIDs is Route for resolved node IDs.
func (n *Network) RouteIDs(src, dst NodeID, failures *FailureSet) Result {
	return n.protocol.Walk(src, dst, failures)
}

// RouteBasic walks a packet under the Basic (§4.2) variant, regardless of
// the network's configured default.
func (n *Network) RouteBasic(src, dst NodeID, failures *FailureSet) Result {
	return n.basic.Walk(src, dst, failures)
}

// CycleTable renders a node's cycle-following table in the paper's
// Table 1 format.
func (n *Network) CycleTable(nodeName string) (string, error) {
	id, err := n.Node(nodeName)
	if err != nil {
		return "", err
	}
	return n.protocol.FormatCycleTable(id), nil
}

// HeaderBits returns the PR header cost for this network: 1 PR bit plus
// the DD bits needed for its rank-quantised discriminator codes. With
// hop-count discriminators this equals the paper's ⌈log2 d⌉ for diameter
// d; with weight sums it is what quantisation saves over raw values.
func (n *Network) HeaderBits() int { return 1 + n.quant.Bits() }

// Quantiser returns the network's rank quantiser: the order-preserving
// bucketisation Compile stamps on the wire.
func (n *Network) Quantiser() *Quantiser { return n.quant }

// WireCodec returns the wire encoding Compile will select for this
// network: CodecDSCP when the quantised code fits 3 bits, CodecFlowLabel
// otherwise.
func (n *Network) WireCodec() WireCodec { return dataplane.CodecFor(n.quant.Bits()) }

// Describe summarises the network for logs. The link count is of live
// links; the links an Update removed are counted apart.
func (n *Network) Describe() string {
	links := fmt.Sprintf("%d links", n.g.NumLinks())
	if removed := len(n.g.RemovedLinks()); removed > 0 {
		links = fmt.Sprintf("%d links (%d removed)", n.g.NumLinks()-removed, removed)
	}
	return fmt.Sprintf("%s: %d nodes, %s, genus %d, %d header bits, %s codec",
		n.name, n.g.NumNodes(), links, n.Genus(), n.HeaderBits(), n.WireCodec())
}

// SaveEmbedding serialises the network's rotation system in the textual
// rotation format, the artefact the paper's offline embedding server ships
// to routers (§4.3).
func (n *Network) SaveEmbedding(w io.Writer) error {
	return rotation.Write(w, n.sys)
}

// LoadEmbedding parses a rotation system in the textual rotation format
// for the given graph, for use with WithEmbedding.
func LoadEmbedding(r io.Reader, g *Graph) (*RotationSystem, error) {
	return rotation.Read(r, g)
}
