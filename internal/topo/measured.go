package topo

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"recycle/internal/graph"
)

// ParseMeasured reads an ISP-measured topology in the simple text format
// of Rocketfuel-style PoP exports:
//
//	# comment (blank lines ignored)
//	node <name> [lat lon]
//	link <a> <b> [weight]
//
// Nodes may carry coordinates; a link without an explicit weight gets the
// great-circle kilometres between its endpoints when both have
// coordinates, and weight 1 otherwise — the same convention the built-in
// ISP topologies use. Node names may be any whitespace-free token
// (Rocketfuel exports use "city,CC" PoP labels). Node IDs follow
// declaration order, so the numbering is reproducible run to run. name
// labels the resulting Topology in reports.
func ParseMeasured(name string, r io.Reader) (Topology, error) {
	type nodeRec struct {
		c      city
		placed bool
	}
	nodes := map[string]*nodeRec{}
	var nodeOrder []string
	type linkRec struct {
		a, b string
		w    float64
		expl bool
		line int
	}
	var links []linkRec
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		bad := func(msg string) (Topology, error) {
			return Topology{}, fmt.Errorf("topo: %s line %d: %s", name, lineNo, msg)
		}
		switch f[0] {
		case "node":
			if len(f) != 2 && len(f) != 4 {
				return bad("want: node <name> [lat lon]")
			}
			if _, dup := nodes[f[1]]; dup {
				return bad(fmt.Sprintf("duplicate node %q", f[1]))
			}
			rec := &nodeRec{c: city{name: f[1]}}
			if len(f) == 4 {
				lat, err1 := strconv.ParseFloat(f[2], 64)
				lon, err2 := strconv.ParseFloat(f[3], 64)
				if err1 != nil || err2 != nil {
					return bad("bad coordinates")
				}
				rec.c.lat, rec.c.lon, rec.placed = lat, lon, true
			}
			nodes[f[1]] = rec
			nodeOrder = append(nodeOrder, f[1])
		case "link":
			if len(f) != 3 && len(f) != 4 {
				return bad("want: link <a> <b> [weight]")
			}
			l := linkRec{a: f[1], b: f[2], line: lineNo}
			if len(f) == 4 {
				w, err := strconv.ParseFloat(f[3], 64)
				if err != nil || w <= 0 {
					return bad("bad weight")
				}
				l.w, l.expl = w, true
			}
			links = append(links, l)
		default:
			return bad(fmt.Sprintf("unknown directive %q (want node or link)", f[0]))
		}
	}
	if err := sc.Err(); err != nil {
		return Topology{}, fmt.Errorf("topo: %s: %w", name, err)
	}
	if len(nodes) == 0 {
		return Topology{}, fmt.Errorf("topo: %s: no nodes", name)
	}
	if err := graph.CheckSize(len(nodes), len(links)); err != nil {
		return Topology{}, fmt.Errorf("topo: %s: %v", name, err)
	}
	g := graph.New(len(nodes), len(links))
	ids := make(map[string]graph.NodeID, len(nodes))
	for _, n := range nodeOrder {
		ids[n] = g.AddNode(n)
	}
	for _, l := range links {
		a, okA := ids[l.a]
		b, okB := ids[l.b]
		if !okA || !okB {
			missing := l.a
			if okA {
				missing = l.b
			}
			return Topology{}, fmt.Errorf("topo: %s line %d: link references undeclared node %q", name, l.line, missing)
		}
		w := l.w
		if !l.expl {
			w = 1
			ra, rb := nodes[l.a], nodes[l.b]
			if ra.placed && rb.placed {
				w = greatCircleKM(ra.c, rb.c)
				if w < 1 {
					w = 1 // co-located PoPs still cost something
				}
			}
		}
		if _, err := g.AddLink(a, b, w); err != nil {
			return Topology{}, fmt.Errorf("topo: %s line %d: %v", name, l.line, err)
		}
	}
	return Topology{Name: name, Graph: g.Freeze()}, nil
}

// LoadMeasured reads a measured topology file (see ParseMeasured); the
// topology is named after the file's base name. The "isp:<path>" spec
// accepted by ByName and every -topo flag routes here.
func LoadMeasured(path string) (Topology, error) {
	f, err := os.Open(path)
	if err != nil {
		return Topology{}, fmt.Errorf("topo: %w", err)
	}
	defer f.Close()
	name := path
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	name = strings.TrimSuffix(name, ".topo")
	return ParseMeasured(name, f)
}
