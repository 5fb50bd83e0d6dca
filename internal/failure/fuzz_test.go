package failure

import (
	"strings"
	"testing"
	"time"

	"recycle/internal/graph"
)

// FuzzParseScenario asserts the spec parser never panics, that every
// error is descriptive (non-empty, prefixed with the package name so a
// CLI user knows who is complaining), and that anything that parses also
// survives Validate and Generate on a small topology — the full path a
// prsim -scenario flag exercises.
func FuzzParseScenario(f *testing.F) {
	for _, seed := range []string{
		"mtbf:up=10s,down=200ms",
		"mtbf:up=10s,down=200ms,links=0-3",
		"flap:link=3,at=1s,flaps=10,period=20ms",
		"srlg:links=3-7;9,at=1s,down=500ms",
		"node:id=4,at=1s,down=500ms",
		"region:center=12,radius=2,at=1s,down=500ms",
		"mtbf:up=4s,down=300ms+srlg:links=0;1,at=1s,down=500ms",
		"mtbf:up=,down=200ms",
		"srlg:links=9-3",
		"region:center=-1",
		"quake:mag=9",
		"mtbf:up=10s,down=200ms,up=20s",
		"+++",
		"node:id=99999999999999999999",
	} {
		f.Add(seed)
	}
	g := graph.Ring(8)
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParseScenario(spec)
		if err != nil {
			if err.Error() == "" {
				t.Fatalf("ParseScenario(%q): empty error message", spec)
			}
			if !strings.Contains(err.Error(), "failure:") && !strings.Contains(err.Error(), "link list item") {
				t.Fatalf("ParseScenario(%q): error %q lacks the failure: prefix", spec, err)
			}
			return
		}
		if p == nil {
			t.Fatalf("ParseScenario(%q) returned nil process and nil error", spec)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("ParseScenario(%q) returned a process its own Validate rejects: %v", spec, err)
		}
		// Generation and normalisation may fail (graph-dependent bounds,
		// outage caps, duration overflow on extreme at=/period= values)
		// but must not panic, and their errors must say something.
		sc, err := p.Generate(g, 2*time.Second, 1)
		if err != nil {
			if err.Error() == "" {
				t.Fatalf("ParseScenario(%q): Generate failed with an empty error", spec)
			}
			return
		}
		if _, err := sc.Events(g); err != nil && err.Error() == "" {
			t.Fatalf("ParseScenario(%q): Events failed with an empty error", spec)
		}
	})
}

// FuzzParseScript mirrors FuzzParseScenario for scripted scenario files.
func FuzzParseScript(f *testing.F) {
	f.Add("# background\nmtbf:up=4s,down=300ms\nsrlg:links=0;1,at=1s\n")
	f.Add("")
	f.Add("flap:link=0")
	f.Add("bogus\n")
	f.Fuzz(func(t *testing.T, script string) {
		p, err := ParseScript(strings.NewReader(script))
		if err != nil {
			if err.Error() == "" {
				t.Fatalf("ParseScript(%q): empty error message", script)
			}
			return
		}
		if p == nil {
			t.Fatalf("ParseScript(%q) returned nil process and nil error", script)
		}
	})
}

// FuzzSubsets cross-checks the lexicographic enumerator against the
// closed-form count and the per-set invariants the sweeps rely on.
func FuzzSubsets(f *testing.F) {
	f.Add(5, 2)
	f.Add(16, 0)
	f.Add(16, 16)
	f.Add(3, 5)
	f.Fuzz(func(t *testing.T, n, k int) {
		if n < 0 || n > 18 || k < 0 || k > 6 {
			t.Skip()
		}
		var count int64
		var prev []int
		complete := Subsets(n, k, func(idx []int) bool {
			count++
			if len(idx) != k {
				t.Fatalf("set %v has size %d, want %d", idx, len(idx), k)
			}
			for i, v := range idx {
				if v < 0 || v >= n {
					t.Fatalf("set %v outside [0,%d)", idx, n)
				}
				if i > 0 && idx[i] <= idx[i-1] {
					t.Fatalf("set %v not strictly increasing", idx)
				}
			}
			if prev != nil && !lexLess(prev, idx) {
				t.Fatalf("enumeration not lexicographic: %v before %v", prev, idx)
			}
			prev = append(prev[:0], idx...)
			return true
		})
		if !complete {
			t.Fatal("unconditional yield must complete")
		}
		if want := CountSubsets(n, k); count != want {
			t.Fatalf("Subsets(%d,%d) yielded %d sets, CountSubsets says %d", n, k, count, want)
		}
	})
}

// lexLess reports a < b in lexicographic order (equal lengths).
func lexLess(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
