package topo

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"recycle/internal/graph"
	"recycle/internal/rotation"
)

// Generated large-diameter topologies. The paper evaluates on backbones of
// hop diameter ≤ 6, where the DSCP pool-2 codec's 3 DD bits suffice; these
// generators produce the regression workloads beyond that budget —
// diameters 8..32 and weighted links — that force the flow-label codec.
// Each ships its canonical genus-0 embedding (built directly from the
// planar drawing via rotation.MustFromLinkOrders, like the paper example)
// so construction never runs a planarity embedder.

// Ring returns the n-cycle as a topology: hop diameter ⌊n/2⌋, the
// smallest graph family that scales diameter linearly. A cycle's rotation
// system is forced (degree 2 everywhere), so the adjacency order is
// already the genus-0 embedding.
func Ring(n int) Topology {
	g := graph.Ring(n)
	return Topology{
		Name:      fmt.Sprintf("ring:%d", n),
		Graph:     g,
		Embedding: rotation.AdjacencyOrder(g),
	}
}

// WeightedRing is Ring with deterministic pseudo-random link weights in
// [1, 10): hop-count and weight-sum discriminators diverge on it, so the
// rank quantiser has real bucketisation to do.
func WeightedRing(n int, seed int64) Topology {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n, n)
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("r%d", i))
	}
	for i := 0; i < n; i++ {
		g.MustAddLink(graph.NodeID(i), graph.NodeID((i+1)%n), 1+9*rng.Float64())
	}
	g.Freeze()
	return Topology{
		Name:      fmt.Sprintf("wring:%d@%d", n, seed),
		Graph:     g,
		Embedding: rotation.AdjacencyOrder(g),
	}
}

// Grid returns the rows×cols grid as a topology with its canonical planar
// embedding: at every node the incident links in clockwise geometric
// order (north, east, south, west). Hop diameter rows+cols−2.
func Grid(rows, cols int) Topology {
	g := graph.Grid(rows, cols)
	id := func(r, c int) graph.NodeID { return graph.NodeID(r*cols + c) }
	orders := make([][]graph.LinkID, g.NumNodes())
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			var order []graph.LinkID
			if r > 0 {
				order = append(order, g.FindLink(id(r, c), id(r-1, c)))
			}
			if c+1 < cols {
				order = append(order, g.FindLink(id(r, c), id(r, c+1)))
			}
			if r+1 < rows {
				order = append(order, g.FindLink(id(r, c), id(r+1, c)))
			}
			if c > 0 {
				order = append(order, g.FindLink(id(r, c), id(r, c-1)))
			}
			orders[id(r, c)] = order
		}
	}
	return Topology{
		Name:      fmt.Sprintf("grid:%dx%d", rows, cols),
		Graph:     g,
		Embedding: rotation.MustFromLinkOrders(g, orders),
	}
}

// Chain returns a chain of k diamond cells: joints u_0..u_k with each
// consecutive pair bridged by a top and a bottom node, giving hop diameter
// 2k while staying 2-edge-connected (every cell is a 4-cycle). It models
// long thin provider backbones — strings of PoP pairs — where the paper's
// 3-bit budget runs out fastest.
func Chain(k int) Topology {
	if k < 1 {
		panic("topo: chain needs at least one cell")
	}
	g := graph.New(3*k+1, 4*k)
	joints := make([]graph.NodeID, k+1)
	tops := make([]graph.NodeID, k)
	bots := make([]graph.NodeID, k)
	joints[0] = g.AddNode("u0")
	for i := 0; i < k; i++ {
		tops[i] = g.AddNode(fmt.Sprintf("t%d", i))
		bots[i] = g.AddNode(fmt.Sprintf("b%d", i))
		joints[i+1] = g.AddNode(fmt.Sprintf("u%d", i+1))
		g.MustAddLink(joints[i], tops[i], 1)
		g.MustAddLink(joints[i], bots[i], 1)
		g.MustAddLink(tops[i], joints[i+1], 1)
		g.MustAddLink(bots[i], joints[i+1], 1)
	}
	g.Freeze()
	// Canonical planar embedding from the drawing (tops above the joint
	// axis, bottoms below): clockwise at an interior joint u_i the links go
	// previous-top, next-top, next-bottom, previous-bottom; degree-2 nodes
	// have a forced order.
	orders := make([][]graph.LinkID, g.NumNodes())
	for i := 0; i <= k; i++ {
		var order []graph.LinkID
		if i > 0 {
			order = append(order, g.FindLink(joints[i], tops[i-1]))
		}
		if i < k {
			order = append(order, g.FindLink(joints[i], tops[i]))
			order = append(order, g.FindLink(joints[i], bots[i]))
		}
		if i > 0 {
			order = append(order, g.FindLink(joints[i], bots[i-1]))
		}
		orders[joints[i]] = order
	}
	for i := 0; i < k; i++ {
		orders[tops[i]] = []graph.LinkID{
			g.FindLink(tops[i], joints[i]),
			g.FindLink(tops[i], joints[i+1]),
		}
		orders[bots[i]] = []graph.LinkID{
			g.FindLink(bots[i], joints[i]),
			g.FindLink(bots[i], joints[i+1]),
		}
	}
	return Topology{
		Name:      fmt.Sprintf("chain:%d", k),
		Graph:     g,
		Embedding: rotation.MustFromLinkOrders(g, orders),
	}
}

// Rand returns a random planar 2-edge-connected topology: the n-cycle
// plus non-crossing random chords drawn inside the disc, with
// deterministic pseudo-random link weights in [1, 10). Planarity is by
// construction (nested chords never cross), so the Auto embedder finds a
// genus-0 embedding and the §5 delivery guarantee applies — which makes
// the family the "random" leg of the resilience harness: unlike ring and
// grid it has irregular degree, asymmetric redundancy and weight-diverse
// shortest paths, while staying inside the guarantee's preconditions.
func Rand(n int, seed int64) Topology {
	if n < 4 {
		panic("topo: rand needs ≥ 4 nodes")
	}
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n, 2*n)
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("x%d", i))
	}
	weight := func() float64 { return 1 + 9*rng.Float64() }
	for i := 0; i < n; i++ {
		g.MustAddLink(graph.NodeID(i), graph.NodeID((i+1)%n), weight())
	}
	// Draw chords (a, b), a < b, rejecting any that would cross an
	// accepted one: two chords inside the disc cross iff their endpoints
	// strictly interleave around the cycle. Aim for n/2 chords; give up
	// after a bounded number of rejections so dense small cases terminate.
	type chord struct{ a, b int }
	var chords []chord
	crosses := func(c chord) bool {
		for _, d := range chords {
			if (d.a < c.a && c.a < d.b && d.b < c.b) ||
				(c.a < d.a && d.a < c.b && c.b < d.b) {
				return true
			}
		}
		return false
	}
	for tries := 8 * n; tries > 0 && len(chords) < n/2; tries-- {
		a, b := rng.Intn(n), rng.Intn(n)
		if a > b {
			a, b = b, a
		}
		c := chord{a, b}
		if b-a < 2 || (a == 0 && b == n-1) || g.HasLink(graph.NodeID(a), graph.NodeID(b)) || crosses(c) {
			continue
		}
		chords = append(chords, c)
		g.MustAddLink(graph.NodeID(a), graph.NodeID(b), weight())
	}
	return Topology{Name: fmt.Sprintf("rand:%d@%d", n, seed), Graph: g.Freeze()}
}

// Generated parses a generator spec — "ring:24", "wring:16@7",
// "grid:4x8", "chain:12", "rand:24@7" — and returns the topology. The
// seed after '@' is optional (default 1). A size that would pass
// graph.MaxNodes or graph.MaxLinks is an error, found before anything is
// built.
func Generated(spec string) (Topology, error) {
	kind, arg, ok := strings.Cut(spec, ":")
	if !ok {
		return Topology{}, fmt.Errorf("topo: %q is not a generator spec (want kind:args)", spec)
	}
	bad := func(err error) (Topology, error) {
		return Topology{}, fmt.Errorf("topo: bad %s spec %q: %v", kind, spec, err)
	}
	// No generator makes more than 3k+1 nodes or 4k links of a size k, so
	// a quarter of graph.MaxLinks a parameter keeps every count in range;
	// grid checks its product.
	size := func(s string) (int, error) {
		n, err := strconv.Atoi(s)
		if err == nil && n > graph.MaxLinks/4 {
			err = fmt.Errorf("size %d exceeds the 32-bit identifier space", n)
		}
		return n, err
	}
	switch kind {
	case "ring":
		n, err := size(arg)
		if err != nil {
			return bad(err)
		}
		if n < 3 {
			return bad(fmt.Errorf("ring needs ≥ 3 nodes"))
		}
		return Ring(n), nil
	case "wring":
		sizeStr, seedStr, hasSeed := strings.Cut(arg, "@")
		n, err := size(sizeStr)
		if err != nil {
			return bad(err)
		}
		if n < 3 {
			return bad(fmt.Errorf("ring needs ≥ 3 nodes"))
		}
		seed := int64(1)
		if hasSeed {
			seed, err = strconv.ParseInt(seedStr, 10, 64)
			if err != nil {
				return bad(err)
			}
		}
		return WeightedRing(n, seed), nil
	case "grid":
		rStr, cStr, ok := strings.Cut(arg, "x")
		if !ok {
			return bad(fmt.Errorf("want grid:RxC"))
		}
		rows, err := size(rStr)
		if err != nil {
			return bad(err)
		}
		cols, err := size(cStr)
		if err != nil {
			return bad(err)
		}
		if rows < 2 || cols < 2 {
			return bad(fmt.Errorf("grid needs rows, cols ≥ 2"))
		}
		if rows > graph.MaxLinks/2/cols {
			return bad(fmt.Errorf("%d×%d nodes exceed the 32-bit identifier space", rows, cols))
		}
		return Grid(rows, cols), nil
	case "chain":
		k, err := size(arg)
		if err != nil {
			return bad(err)
		}
		if k < 1 {
			return bad(fmt.Errorf("chain needs ≥ 1 cell"))
		}
		return Chain(k), nil
	case "rand":
		sizeStr, seedStr, hasSeed := strings.Cut(arg, "@")
		n, err := size(sizeStr)
		if err != nil {
			return bad(err)
		}
		if n < 4 {
			return bad(fmt.Errorf("rand needs ≥ 4 nodes"))
		}
		seed := int64(1)
		if hasSeed {
			seed, err = strconv.ParseInt(seedStr, 10, 64)
			if err != nil {
				return bad(err)
			}
		}
		return Rand(n, seed), nil
	case "isp":
		return LoadMeasured(arg)
	}
	return Topology{}, fmt.Errorf("topo: unknown generator %q (want ring, wring, grid, chain, rand or isp:<path>)", kind)
}
