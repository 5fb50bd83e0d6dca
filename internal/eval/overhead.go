package eval

import (
	"fmt"
	"io"

	"recycle/internal/dataplane"
	"recycle/internal/fcp"
	"recycle/internal/graph"
	"recycle/internal/topo"
)

// Overhead quantifies the §6 comparison for one topology: what each scheme
// costs in header bits, per-router memory and failure-time computation.
type Overhead struct {
	Topology string
	Nodes    int
	Links    int
	// HopDiameter is d in the paper's "order of log2(d) DD bits".
	HopDiameter int

	// PRHeaderBits = 1 PR bit + quantised DD bits (core.Quantiser ranks;
	// identical to raw ⌈log2 d⌉ for hop counts).
	PRHeaderBits int
	// PRFitsDSCPPool2 reports whether the header fits in the 4 free bits
	// of DSCP pool 2 (xxxx11 code points, RFC 2474) the paper proposes;
	// when false the dataplane compiles the IPv6 flow-label codec instead.
	PRFitsDSCPPool2 bool
	// PRWireCodec names the codec dataplane.Compile selects.
	PRWireCodec string
	// PRCycleEntriesPerRouter is the mean cycle-following table size
	// (2 entries per interface).
	PRCycleEntriesPerRouter float64
	// PRDDEntriesPerRouter is the extra routing-table column size.
	PRDDEntriesPerRouter int
	// PREmbeddingGenus is the genus of the offline embedding used.
	PREmbeddingGenus int

	// FCPMaxHeaderBits is the worst-case FCP header across all single
	// failures (it grows further with more failures).
	FCPMaxHeaderBits int
	// FCPMaxRecomputations is the worst per-packet count of on-demand SPF
	// runs across all single-failure walks.
	FCPMaxRecomputations int

	// ReconvFloodMessages is the per-failure LSA flood cost (2·links,
	// both directions).
	ReconvFloodMessages int
}

// MeasureOverhead computes the overhead table for one topology using single
// link failures (the paper's common case).
func MeasureOverhead(tp topo.Topology) (Overhead, error) {
	g := tp.Graph
	o := Overhead{
		Topology:    tp.Name,
		Nodes:       g.NumNodes(),
		Links:       g.NumLinks(),
		HopDiameter: graph.HopDiameter(g),
	}

	st, err := buildStack(tp, dataplane.CompileOptions{})
	if err != nil {
		return o, err
	}
	o.PREmbeddingGenus = st.sys.Genus()
	o.PRHeaderBits = 1 + st.fib.DDBits()
	o.PRFitsDSCPPool2 = st.fib.Codec() == dataplane.CodecDSCP
	o.PRWireCodec = st.fib.Codec().String()
	totalEntries := 0
	for n := 0; n < g.NumNodes(); n++ {
		totalEntries += 2 * g.Degree(graph.NodeID(n))
	}
	o.PRCycleEntriesPerRouter = float64(totalEntries) / float64(g.NumNodes())
	o.PRDDEntriesPerRouter = g.NumNodes() - 1

	f := fcp.New(g)
	for _, fs := range graph.SingleFailureScenarios(g) {
		for src := 0; src < g.NumNodes(); src++ {
			for dst := 0; dst < g.NumNodes(); dst++ {
				if src == dst {
					continue
				}
				r := f.Walk(graph.NodeID(src), graph.NodeID(dst), fs)
				if bits := fcp.HeaderBits(g, r.CarriedFailures); bits > o.FCPMaxHeaderBits {
					o.FCPMaxHeaderBits = bits
				}
				if r.Recomputations > o.FCPMaxRecomputations {
					o.FCPMaxRecomputations = r.Recomputations
				}
			}
		}
	}
	o.ReconvFloodMessages = 2 * g.NumLinks()
	return o, nil
}

// WriteOverheadReport renders the §6 comparison for the given topologies.
func WriteOverheadReport(w io.Writer, names []string) error {
	fmt.Fprintf(w, "%-10s %-5s %-5s %-4s | %-7s %-10s %-9s %-6s | %-8s %-7s | %-7s\n",
		"topology", "nodes", "links", "diam",
		"PRbits", "codec", "cyc/rtr", "genus",
		"FCPbits", "FCPspf", "LSAmsgs")
	for _, name := range names {
		tp, err := topo.ByName(name)
		if err != nil {
			return err
		}
		o, err := MeasureOverhead(tp)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-10s %-5d %-5d %-4d | %-7d %-10s %-9.1f %-6d | %-8d %-7d | %-7d\n",
			o.Topology, o.Nodes, o.Links, o.HopDiameter,
			o.PRHeaderBits, o.PRWireCodec, o.PRCycleEntriesPerRouter, o.PREmbeddingGenus,
			o.FCPMaxHeaderBits, o.FCPMaxRecomputations, o.ReconvFloodMessages)
	}
	return nil
}
