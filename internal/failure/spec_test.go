package failure

import (
	"strings"
	"testing"
	"time"

	"recycle/internal/graph"
)

func TestParseScenarioKinds(t *testing.T) {
	cases := []struct {
		spec string
		want Process
	}{
		{"mtbf:up=10s,down=200ms", MTBF{MeanUp: 10 * time.Second, MeanDown: 200 * time.Millisecond}},
		{"mtbf:up=4s,down=1s,links=0-2;5", MTBF{MeanUp: 4 * time.Second, MeanDown: time.Second,
			Links: []graph.LinkID{0, 1, 2, 5}}},
		{"flap:link=3,at=1s,flaps=10,period=20ms", Flap{Link: 3, At: time.Second, Flaps: 10, Period: 20 * time.Millisecond}},
		{"flap:link=3", Flap{Link: 3, Flaps: 10, Period: 100 * time.Millisecond}},
		{"srlg:links=3-7;9,at=1s,down=500ms", SRLG{Links: []graph.LinkID{3, 4, 5, 6, 7, 9},
			At: time.Second, Down: 500 * time.Millisecond}},
		{"node:id=4,at=1s,down=500ms", NodeOutage{Node: 4, At: time.Second, Down: 500 * time.Millisecond}},
		{"region:center=12,radius=2,at=1s", Regional{Center: 12, Radius: 2, At: time.Second}},
	}
	for _, c := range cases {
		p, err := ParseScenario(c.spec)
		if err != nil {
			t.Fatalf("ParseScenario(%q): %v", c.spec, err)
		}
		if got, want := asComparable(t, p), asComparable(t, c.want); got != want {
			t.Fatalf("ParseScenario(%q) = %#v; want %#v", c.spec, p, c.want)
		}
	}
}

// asComparable renders a process for equality checks (MTBF carries a
// slice, so direct == does not apply).
func asComparable(t *testing.T, p Process) string {
	t.Helper()
	switch v := p.(type) {
	case MTBF:
		return "mtbf" + v.MeanUp.String() + v.MeanDown.String() + linkStr(v.Links)
	case Flap:
		return "flap" + v.At.String() + v.Period.String() + string(rune(v.Link)) + string(rune(v.Flaps))
	case SRLG:
		return "srlg" + v.At.String() + v.Down.String() + linkStr(v.Links)
	case NodeOutage:
		return "node" + v.At.String() + v.Down.String() + string(rune(v.Node))
	case Regional:
		return "region" + v.At.String() + v.Down.String() + string(rune(v.Center)) + string(rune(v.Radius))
	}
	t.Fatalf("unexpected process type %T", p)
	return ""
}

func linkStr(links []graph.LinkID) string {
	var b strings.Builder
	for _, l := range links {
		b.WriteRune(rune(l))
	}
	return b.String()
}

func TestParseScenarioMulti(t *testing.T) {
	p, err := ParseScenario("mtbf:up=4s,down=300ms+srlg:links=0;1,at=1s,down=500ms")
	if err != nil {
		t.Fatal(err)
	}
	m, ok := p.(Multi)
	if !ok {
		t.Fatalf("composed spec parsed to %T; want Multi", p)
	}
	if len(m.Processes) != 2 {
		t.Fatalf("Multi has %d members; want 2", len(m.Processes))
	}
	if m.Name() != "mtbf+srlg" {
		t.Fatalf("Multi.Name() = %q; want mtbf+srlg", m.Name())
	}
}

func TestParseScenarioErrors(t *testing.T) {
	cases := []struct {
		spec string
		want string // substring of the error
	}{
		{"", "unknown scenario kind"},
		{"quake:mag=9", "unknown scenario kind"},
		{"mtbf", "needs up=<duration> and down=<duration>"},
		{"mtbf:up=10s", "needs up=<duration> and down=<duration>"},
		{"mtbf:up=bogus,down=1s", "bad up"},
		{"mtbf:up=10s,down=200ms,bogus=1", "unknown option"},
		{"mtbf:up=10s,down=200ms,center=3", `option "center" does not apply to mtbf`},
		{"mtbf:up", "want key=value"},
		{"mtbf:up=", "want key=value"},
		{"mtbf:up=-4s,down=1s", "non-positive mean up"},
		{"mtbf:up=4s,down=-1s", "non-positive mean down"},
		{"flap:at=1s", "needs link=<id>"},
		{"flap:link=-2", "negative link"},
		{"flap:link=2,flaps=0", "at least one flap"},
		{"flap:link=2,period=-5ms", "non-positive period"},
		{"srlg:at=1s", "needs links=<list>"},
		{"srlg:links=9-3", "want <id> or <lo>-<hi>"},
		{"srlg:links=x", "link list item"},
		{"srlg:links=0-9999999", "implausibly large"},
		{"srlg:links=0;1,at=-1s", "negative cut time"},
		{"node:at=1s", "needs id=<node>"},
		{"node:id=-1", "negative node"},
		{"node:id=1,down=-1s", "negative duration"},
		{"region:radius=2", "needs center=<node>"},
		{"region:center=0,radius=-1", "negative radius"},
		{"mtbf:up=1s,down=1s+flap", "needs link"},
		// IDs past int32 must not wrap to a small valid one (2³² → link 0).
		{"flap:link=4294967296", "bad link"},
		{"node:id=2147483648", "bad id"},
		{"region:center=4294967297", "bad center"},
		{"srlg:links=4294967296", "link list item"},
		{"srlg:links=0-4294967297", "link list item"},
	}
	for _, c := range cases {
		_, err := ParseScenario(c.spec)
		if err == nil {
			t.Fatalf("ParseScenario(%q) = nil error; want error containing %q", c.spec, c.want)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("ParseScenario(%q) error %q does not contain %q", c.spec, err, c.want)
		}
	}
}

func TestParseScript(t *testing.T) {
	script := `
# background noise
mtbf:up=4s,down=300ms

srlg:links=0;1,at=1s,down=500ms  # the correlated cut
node:id=2,at=2s,down=100ms
`
	p, err := ParseScript(strings.NewReader(script))
	if err != nil {
		t.Fatal(err)
	}
	m, ok := p.(Multi)
	if !ok {
		t.Fatalf("script parsed to %T; want Multi", p)
	}
	if got, want := m.Name(), "mtbf+srlg+node"; got != want {
		t.Fatalf("script process name = %q; want %q", got, want)
	}

	// A single-spec script unwraps to the bare process.
	p, err = ParseScript(strings.NewReader("flap:link=0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.(Flap); !ok {
		t.Fatalf("single-line script parsed to %T; want Flap", p)
	}

	// Errors carry the line number; empty scripts are rejected.
	_, err = ParseScript(strings.NewReader("mtbf:up=1s,down=1s\nbogus:x=1\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("script error %v does not name line 2", err)
	}
	_, err = ParseScript(strings.NewReader("# nothing\n\n"))
	if err == nil || !strings.Contains(err.Error(), "no scenario specs") {
		t.Fatalf("empty script error = %v; want 'no scenario specs'", err)
	}
}

func TestSpecRoundTripGenerates(t *testing.T) {
	// Every documented example spec must parse AND generate on a real
	// topology — the grammar in the package comment stays honest.
	g := graph.Ring(16)
	for _, spec := range []string{
		"mtbf:up=10s,down=200ms",
		"flap:link=3,at=1s,flaps=10,period=20ms",
		"srlg:links=3-7;9,at=1s,down=500ms",
		"node:id=4,at=1s,down=500ms",
		"region:center=12,radius=2,at=1s,down=500ms",
		"mtbf:up=4s,down=300ms+srlg:links=0;1,at=1s,down=500ms",
	} {
		p, err := ParseScenario(spec)
		if err != nil {
			t.Fatalf("ParseScenario(%q): %v", spec, err)
		}
		sc, err := p.Generate(g, 4*time.Second, 1)
		if err != nil {
			t.Fatalf("Generate(%q): %v", spec, err)
		}
		if err := sc.Validate(g); err != nil {
			t.Fatalf("generated scenario of %q invalid: %v", spec, err)
		}
	}
}
