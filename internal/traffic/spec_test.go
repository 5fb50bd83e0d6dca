package traffic

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestParseSpec(t *testing.T) {
	cases := []struct {
		spec string
		want Source
	}{
		{"fixed:rate=1000", Fixed{Interval: time.Millisecond}},
		{"fixed:interval=2ms,bits=4096", Fixed{Interval: 2 * time.Millisecond, Bits: 4096}},
		{"poisson:rate=2430", Poisson{Rate: 2430, Seed: 1}},
		{"poisson:rate=100,bits=512,seed=9", Poisson{Rate: 100, Sizes: FixedSize{Bits: 512}, Seed: 9}},
		{"poisson:rate=100,pareto=1.3/512/96000", Poisson{Rate: 100, Sizes: BoundedPareto{Alpha: 1.3, MinBits: 512, MaxBits: 96000}, Seed: 1}},
		{"mmpp:on=5000,off=0,dwell=10ms/90ms", MMPP{RateOn: 5000, MeanOn: 10 * time.Millisecond, MeanOff: 90 * time.Millisecond, Seed: 1}},
		{"mmpp:on=5000,off=100,dwell=10ms/90ms,seed=3", MMPP{RateOn: 5000, RateOff: 100, MeanOn: 10 * time.Millisecond, MeanOff: 90 * time.Millisecond, Seed: 3}},
	}
	for _, c := range cases {
		got, err := ParseSpec(c.spec)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", c.spec, err)
		}
		if got != c.want {
			t.Fatalf("ParseSpec(%q) = %#v; want %#v", c.spec, got, c.want)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := []struct{ spec, want string }{
		{"warp:rate=1", "unknown source kind"},
		{"fixed:", "needs rate"},
		{"fixed:rate=0", "non-positive rate"},
		{"fixed:rate=1,interval=1ms", "not both"},
		{"fixed:rate=1,pareto=1.3/1/2", "does not apply to fixed sources"},
		{"poisson:rate=1,dwell=1ms/2ms", "does not apply to poisson sources"},
		{"mmpp:on=100,dwell=1ms/2ms,interval=5ms", "does not apply to mmpp sources"},
		{"fixed:bogus=1", "unknown option"},
		{"fixed:rate", "want key=value"},
		{"poisson:bits=100", "needs rate"},
		{"poisson:rate=-5", "non-positive rate"},
		{"poisson:rate=abc", "bad rate"},
		{"poisson:rate=1e-300", "too low"},
		{"fixed:rate=1e-12", "interval overflows time.Duration"},
		{"mmpp:on=1e-12,dwell=10ms/10ms", "too low"},
		{"mmpp:on=100", "needs on=<pps> and dwell"},
		{"mmpp:on=100,dwell=10ms", "dwell wants <on>/<off>"},
		{"mmpp:on=100,dwell=10ms/0s", "zero or negative off-state dwell"},
		{"poisson:rate=1,pareto=1.3/512", "pareto wants alpha/minbits/maxbits"},
		{"replay:", "needs a trace path"},
		{"replay:/definitely/not/a/file", "no such file"},
	}
	for _, c := range cases {
		if _, err := ParseSpec(c.spec); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("ParseSpec(%q) error = %v; want containing %q", c.spec, err, c.want)
		}
	}
}

func TestParseSpecReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.txt")
	if err := os.WriteFile(path, []byte("0.0 100\n0.5 200\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := ParseSpec("replay:" + path)
	if err != nil {
		t.Fatal(err)
	}
	r, ok := src.(Replay)
	if !ok || len(r.Records) != 2 {
		t.Fatalf("got %#v; want a 2-record Replay", src)
	}
	if r.Records[1].At != 500*time.Millisecond || r.Records[1].Bits != 1600 {
		t.Fatalf("record 1 = %+v; want {500ms 1600}", r.Records[1])
	}
}

// TestParseSpecSeeded: a global CLI seed reaches stochastic specs that
// do not pin their own, and never overrides an explicit seed=.
func TestParseSpecSeeded(t *testing.T) {
	src, err := ParseSpecSeeded("poisson:rate=100", 9)
	if err != nil {
		t.Fatal(err)
	}
	if got := src.(Poisson).Seed; got != 9 {
		t.Fatalf("default seed not applied: got %d; want 9", got)
	}
	src, err = ParseSpecSeeded("poisson:rate=100,seed=3", 9)
	if err != nil {
		t.Fatal(err)
	}
	if got := src.(Poisson).Seed; got != 3 {
		t.Fatalf("explicit seed overridden: got %d; want 3", got)
	}
	if src, err = ParseSpecSeeded("mmpp:on=5000,dwell=10ms/90ms", 4); err != nil {
		t.Fatal(err)
	}
	if got := src.(MMPP).Seed; got != 4 {
		t.Fatalf("mmpp default seed not applied: got %d; want 4", got)
	}
}
