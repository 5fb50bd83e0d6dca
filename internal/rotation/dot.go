package rotation

import (
	"bufio"
	"fmt"
	"io"

	"recycle/internal/graph"
)

// WriteDOT renders the embedded graph in Graphviz DOT format. Each
// undirected link is annotated with the two oriented faces it separates
// ("c<i>|c<j>"), making the cycle system visible: the paper's Figure 1(a)
// can be regenerated directly from `prsim tables -dot` piped through
// Graphviz. Links whose two darts lie on a single face — the configuration
// that breaks PR's delivery guarantee — are drawn red and bold so embedding
// defects are visually obvious.
func WriteDOT(w io.Writer, s *System) error {
	g := s.Graph()
	fs := s.Faces()
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "graph embedding {")
	fmt.Fprintln(bw, "  layout=neato;")
	fmt.Fprintln(bw, "  node [shape=circle];")
	for n := 0; n < g.NumNodes(); n++ {
		fmt.Fprintf(bw, "  n%d [label=%q];\n", n, g.Name(graph.NodeID(n)))
	}
	for _, l := range g.Links() {
		ab, ba := DartsOf(l.ID)
		fa, fb := fs.FaceIndexOf(ab), fs.FaceIndexOf(ba)
		attrs := fmt.Sprintf("label=\"c%d|c%d\"", fa+1, fb+1)
		if fa == fb {
			attrs += ", color=red, penwidth=2" // guarantee-breaking link
		}
		fmt.Fprintf(bw, "  n%d -- n%d [%s];\n", l.A, l.B, attrs)
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}
