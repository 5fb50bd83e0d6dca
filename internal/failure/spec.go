package failure

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"recycle/internal/graph"
)

// ParseScenario parses a command-line failure process specification:
//
//	mtbf:up=10s,down=200ms           independent per-link exponential up/down
//	mtbf:up=10s,down=200ms,links=0-3 restricted to links 0..3
//	flap:link=3,at=1s,flaps=10,period=20ms
//	srlg:links=3-7;9,at=1s,down=500ms
//	node:id=4,at=1s,down=500ms
//	region:center=12,radius=2,at=1s,down=500ms
//
// Link lists are ';'-separated items, each a single ID or an inclusive
// A-B range ("3-7;9"). Times (at=, up=, down=, period=) are Go durations.
// Omitting at= starts an outage at t=0; omitting down= on srlg/node/
// region leaves the element broken for the rest of the run. Processes
// compose with '+' into one correlated scenario:
//
//	mtbf:up=4s,down=300ms+srlg:links=0;1,at=1s,down=500ms
//
// The returned Process is validated (graph-dependent bounds — link and
// node IDs — are checked at Generate time, against the actual topology).
func ParseScenario(spec string) (Process, error) {
	parts := strings.Split(spec, "+")
	if len(parts) == 1 {
		return parseOne(parts[0])
	}
	m := Multi{}
	for _, part := range parts {
		p, err := parseOne(part)
		if err != nil {
			return nil, err
		}
		m.Processes = append(m.Processes, p)
	}
	return m, nil
}

// ParseScript parses a scripted scenario file: one ParseScenario spec per
// line, '#' comments and blank lines ignored, all lines composed into one
// process (exactly like joining them with '+').
func ParseScript(r io.Reader) (Process, error) {
	var m Multi
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		p, err := ParseScenario(line)
		if err != nil {
			return nil, fmt.Errorf("failure: script line %d: %w", lineNo, err)
		}
		m.Processes = append(m.Processes, p)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("failure: reading script: %w", err)
	}
	if len(m.Processes) == 0 {
		return nil, fmt.Errorf("failure: script contains no scenario specs")
	}
	if len(m.Processes) == 1 {
		return m.Processes[0], nil
	}
	return m, nil
}

// scenarioKeys lists the options each spec kind accepts; anything else is
// rejected rather than silently ignored, so a mistyped spec never runs a
// different experiment than asked.
var scenarioKeys = map[string]map[string]bool{
	"mtbf":   {"up": true, "down": true, "links": true},
	"flap":   {"link": true, "at": true, "flaps": true, "period": true},
	"srlg":   {"links": true, "at": true, "down": true},
	"node":   {"id": true, "at": true, "down": true},
	"region": {"center": true, "radius": true, "at": true, "down": true},
}

// scenarioOpts are the parsed key=value options of one spec.
type scenarioOpts struct {
	kind   string
	up     time.Duration
	down   time.Duration
	at     time.Duration
	period time.Duration
	links  []graph.LinkID
	link   graph.LinkID
	node   graph.NodeID
	center graph.NodeID
	radius int
	flaps  int
	set    map[string]bool
}

func (o *scenarioOpts) has(key string) bool { return o.set[key] }

func parseOne(spec string) (Process, error) {
	kind, rest, _ := strings.Cut(strings.TrimSpace(spec), ":")
	keys, known := scenarioKeys[kind]
	if !known {
		return nil, fmt.Errorf("failure: unknown scenario kind %q (want mtbf, flap, srlg, node or region)", kind)
	}
	o := &scenarioOpts{kind: kind, set: map[string]bool{}}
	if rest != "" {
		for _, item := range strings.Split(rest, ",") {
			key, val, found := strings.Cut(item, "=")
			if !found || val == "" {
				return nil, fmt.Errorf("failure: %s spec: want key=value, got %q", kind, item)
			}
			if !keys[key] {
				for _, other := range scenarioKeys {
					if other[key] {
						return nil, fmt.Errorf("failure: %s spec: option %q does not apply to %s scenarios", kind, key, kind)
					}
				}
				return nil, fmt.Errorf("failure: %s spec: unknown option %q", kind, key)
			}
			var err error
			switch key {
			case "up":
				o.up, err = time.ParseDuration(val)
			case "down":
				o.down, err = time.ParseDuration(val)
			case "at":
				o.at, err = time.ParseDuration(val)
			case "period":
				o.period, err = time.ParseDuration(val)
			case "links":
				o.links, err = parseLinkList(val)
			case "link":
				var id int
				id, err = parseID(val)
				o.link = graph.LinkID(id)
			case "id":
				var id int
				id, err = parseID(val)
				o.node = graph.NodeID(id)
			case "center":
				var id int
				id, err = parseID(val)
				o.center = graph.NodeID(id)
			case "radius":
				o.radius, err = strconv.Atoi(val)
			case "flaps":
				o.flaps, err = strconv.Atoi(val)
			}
			if err != nil {
				return nil, fmt.Errorf("failure: %s spec: bad %s %q: %w", kind, key, val, err)
			}
			o.set[key] = true
		}
	}
	return buildProcess(o)
}

func buildProcess(o *scenarioOpts) (Process, error) {
	var p Process
	switch o.kind {
	case "mtbf":
		if !o.has("up") || !o.has("down") {
			return nil, fmt.Errorf("failure: mtbf spec needs up=<duration> and down=<duration>")
		}
		p = MTBF{MeanUp: o.up, MeanDown: o.down, Links: o.links}
	case "flap":
		if !o.has("link") {
			return nil, fmt.Errorf("failure: flap spec needs link=<id>")
		}
		flaps, period := o.flaps, o.period
		if !o.has("flaps") {
			flaps = 10
		}
		if !o.has("period") {
			period = 100 * time.Millisecond
		}
		p = Flap{Link: o.link, At: o.at, Flaps: flaps, Period: period}
	case "srlg":
		if !o.has("links") {
			return nil, fmt.Errorf("failure: srlg spec needs links=<list> (e.g. links=3-7;9)")
		}
		p = SRLG{Links: o.links, At: o.at, Down: o.down}
	case "node":
		if !o.has("id") {
			return nil, fmt.Errorf("failure: node spec needs id=<node>")
		}
		p = NodeOutage{Node: o.node, At: o.at, Down: o.down}
	case "region":
		if !o.has("center") {
			return nil, fmt.Errorf("failure: region spec needs center=<node>")
		}
		p = Regional{Center: o.center, Radius: o.radius, At: o.at, Down: o.down}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// parseID parses a node or link ID, refusing what the 32-bit identifier
// types would wrap instead of leaving it to fail the range check.
func parseID(val string) (int, error) {
	id, err := strconv.ParseInt(val, 10, 32)
	return int(id), err
}

// parseLinkList parses a ';'-separated list of link IDs and inclusive
// A-B ranges: "3-7;9" → [3 4 5 6 7 9].
func parseLinkList(val string) ([]graph.LinkID, error) {
	var out []graph.LinkID
	for _, item := range strings.Split(val, ";") {
		lo, hi, isRange := strings.Cut(item, "-")
		a, err := parseID(lo)
		if err != nil {
			return nil, fmt.Errorf("link list item %q: %w", item, err)
		}
		b := a
		if isRange {
			if b, err = parseID(hi); err != nil {
				return nil, fmt.Errorf("link list item %q: %w", item, err)
			}
		}
		if a < 0 || b < a {
			return nil, fmt.Errorf("link list item %q: want <id> or <lo>-<hi> with 0 ≤ lo ≤ hi", item)
		}
		if b-a >= 1<<20 {
			return nil, fmt.Errorf("link list item %q: range of %d links is implausibly large", item, b-a+1)
		}
		for l := a; l <= b; l++ {
			out = append(out, graph.LinkID(l))
		}
	}
	return out, nil
}
