package failure

import (
	"reflect"
	"testing"
	"time"

	"recycle/internal/graph"
)

func setsTestGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New(4, 5)
	for i := 0; i < 4; i++ {
		g.AddNode("")
	}
	// A 4-cycle plus one chord.
	g.MustAddLink(0, 1, 1)
	g.MustAddLink(1, 2, 1)
	g.MustAddLink(2, 3, 1)
	g.MustAddLink(3, 0, 1)
	g.MustAddLink(0, 2, 1)
	return g.Freeze()
}

func TestUniverse(t *testing.T) {
	g := setsTestGraph(t)
	links := Universe(g, LinkFailures)
	if len(links) != 5 || links[0].IsNode() || links[4].Link != 4 {
		t.Fatalf("link universe wrong: %v", links)
	}
	nodes := Universe(g, NodeFailures)
	if len(nodes) != 4 || !nodes[0].IsNode() {
		t.Fatalf("node universe wrong: %v", nodes)
	}
	both := Universe(g, LinkAndNodeFailures)
	if len(both) != 9 || both[4].IsNode() || !both[5].IsNode() {
		t.Fatalf("combined universe wrong: %v", both)
	}
}

func TestFailureSetOfExpandsNodes(t *testing.T) {
	g := setsTestGraph(t)
	fs := FailureSetOf(g, []Element{NodeElement(0), LinkElement(1)})
	// Node 0 is incident to links 0, 3, 4.
	want := []graph.LinkID{0, 1, 3, 4}
	if got := fs.Links(); !reflect.DeepEqual(got, want) {
		t.Fatalf("expanded set = %v, want %v", got, want)
	}
}

func TestStaticScenarioReplaysThroughOracle(t *testing.T) {
	g := setsTestGraph(t)
	sc := StaticScenario("pin", []Element{LinkElement(2), NodeElement(1)})
	o, err := NewOracle(g, sc)
	if err != nil {
		t.Fatal(err)
	}
	fs := o.FailuresAt(0)
	want := FailureSetOf(g, []Element{LinkElement(2), NodeElement(1)})
	if fs.String() != want.String() {
		t.Fatalf("oracle failures %s != expansion %s", fs, want)
	}
	if o.FailuresAt(time.Hour).String() != want.String() {
		t.Fatal("a static scenario must never repair")
	}
}

func TestSubsetsEnumeratesExactly(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{5, 0}, {5, 1}, {5, 3}, {6, 6}, {4, 5}, {0, 0}} {
		var got [][]int
		complete := Subsets(tc.n, tc.k, func(idx []int) bool {
			got = append(got, append([]int(nil), idx...))
			return true
		})
		if !complete {
			t.Fatalf("Subsets(%d,%d) reported early stop", tc.n, tc.k)
		}
		if int64(len(got)) != CountSubsets(tc.n, tc.k) {
			t.Fatalf("Subsets(%d,%d) yielded %d sets, CountSubsets says %d",
				tc.n, tc.k, len(got), CountSubsets(tc.n, tc.k))
		}
		seen := map[string]bool{}
		for i, s := range got {
			if len(s) != tc.k {
				t.Fatalf("set %v has size %d, want %d", s, len(s), tc.k)
			}
			for j := 1; j < len(s); j++ {
				if s[j] <= s[j-1] {
					t.Fatalf("set %v not strictly increasing", s)
				}
			}
			if tc.k > 0 && s[len(s)-1] >= tc.n {
				t.Fatalf("set %v outside [0,%d)", s, tc.n)
			}
			key := setString(s)
			if seen[key] {
				t.Fatalf("duplicate set %v at position %d", s, i)
			}
			seen[key] = true
		}
	}
	// Early stop is honoured.
	calls := 0
	if Subsets(5, 2, func([]int) bool { calls++; return calls < 3 }) {
		t.Fatal("expected early-stop report")
	}
	if calls != 3 {
		t.Fatalf("stop after 3 calls, got %d", calls)
	}
}

func setString(s []int) string {
	out := ""
	for _, v := range s {
		out += string(rune('a'+v)) + ","
	}
	return out
}

func TestCountSubsets(t *testing.T) {
	cases := map[[2]int]int64{
		{5, 2}:  10,
		{52, 2}: 1326,
		{52, 3}: 22100,
		{10, 0}: 1,
		{3, 4}:  0,
		{0, 0}:  1,
	}
	for in, want := range cases {
		if got := CountSubsets(in[0], in[1]); got != want {
			t.Fatalf("CountSubsets(%d,%d) = %d, want %d", in[0], in[1], got, want)
		}
	}
	if got := CountSubsets(500, 250); got <= 0 {
		t.Fatalf("saturating count must stay positive, got %d", got)
	}
}
