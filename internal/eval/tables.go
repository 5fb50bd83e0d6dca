package eval

import (
	"fmt"
	"io"

	"recycle/internal/core"
	"recycle/internal/dataplane"
	"recycle/internal/graph"
	"recycle/internal/rotation"
	"recycle/internal/route"
	"recycle/internal/topo"
)

// TablesConfig parameterises WriteTablesReport. The report runs on the
// panel's first topology.
type TablesConfig struct {
	Panel
	// Node narrows the tables to one router, by name ("" prints every
	// router's).
	Node string
	// Faces prints the embedding's cycle system instead of the tables.
	Faces bool
	// DOT writes the embedding as Graphviz DOT instead of the tables.
	DOT bool
	// Discriminator fills the routing table's DD column.
	Discriminator route.Discriminator
}

// WriteTablesReport prints the PR state a router holds: the cycle
// following table of the embedding (paper Table 1) and the routing table
// with the distance-discriminator column (§4.3), under a header naming the
// header bits and wire codec the topology compiles to.
func WriteTablesReport(w io.Writer, cfg TablesConfig) error {
	tp, err := cfg.first()
	if err != nil {
		return err
	}
	g := tp.Graph
	nodes := make([]graph.NodeID, g.NumNodes())
	for i := range nodes {
		nodes[i] = graph.NodeID(i)
	}
	if cfg.Node != "" {
		id := g.NodeByName(cfg.Node)
		if id == graph.NoNode {
			return fmt.Errorf("unknown -node %q in %s", cfg.Node, tp.Name)
		}
		nodes = []graph.NodeID{id}
	}
	sys, err := embed(tp)
	if err != nil {
		return err
	}
	if cfg.DOT {
		return rotation.WriteDOT(w, sys)
	}
	tbl := route.Build(g, cfg.Discriminator)
	prot, err := core.New(g, sys, tbl, core.Config{Variant: core.Full})
	if err != nil {
		return err
	}
	bits := core.BuildQuantiser(tbl).Bits()
	fmt.Fprintf(w, "topology %s: %d nodes, %d links, genus %d, PR header %d bits (1 PR + %d DD, raw %d), %s codec\n\n",
		tp.Name, g.NumNodes(), g.NumLinks(), sys.Genus(), 1+bits, bits, tbl.DDBits(), dataplane.CodecFor(bits))
	if cfg.Faces {
		fs := sys.Faces()
		fmt.Fprintf(w, "cycle system: %d oriented faces\n", len(fs.Faces))
		for _, f := range fs.Faces {
			fmt.Fprintf(w, "  c%-3d (%d darts):", f.Index+1, f.Len())
			for _, d := range f.Darts {
				dart := sys.Dart(d)
				fmt.Fprintf(w, " %s→%s", g.Name(dart.Tail), g.Name(dart.Head))
			}
			fmt.Fprintln(w)
		}
		return nil
	}
	for _, n := range nodes {
		fmt.Fprintln(w, prot.FormatCycleTable(n))
		fmt.Fprintf(w, "Routing table at node %s (with DD column, %s)\n", g.Name(n), cfg.Discriminator)
		fmt.Fprintf(w, "%-14s %-14s %-8s\n", "Destination", "NextHop", "DD")
		for dst := graph.NodeID(0); int(dst) < g.NumNodes(); dst++ {
			if dst != n && tbl.Reachable(n, dst) {
				fmt.Fprintf(w, "%-14s %-14s %-8g\n", g.Name(dst), g.Name(tbl.NextNode(n, dst)), tbl.DD(n, dst))
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}

// WriteTopoReport writes the named topology in the graph edge-list format
// (graph.Write), an ISP topology's links weighted as weights says.
func WriteTopoReport(w io.Writer, name string, weights topo.Weighting) error {
	tp, err := topo.ByNameWeighted(name, weights)
	if err != nil {
		return err
	}
	return graph.Write(w, tp.Graph)
}
