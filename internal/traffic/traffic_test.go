package traffic

import (
	"math"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// compile compiles src, failing the test on an error.
func compile(t *testing.T, src Source) *Process {
	t.Helper()
	p, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// drain pulls n emissions from flow 0 of src, returning gaps and sizes.
func drain(t *testing.T, src Source, n int) (gaps []time.Duration, bits []int) {
	t.Helper()
	p := compile(t, src)
	st := p.Flow(0)
	for i := 0; i < n; i++ {
		g, ok := p.Next(&st)
		if !ok {
			t.Fatalf("flow ended after %d emissions; want %d", i, n)
		}
		gaps = append(gaps, g)
		bits = append(bits, p.Bits(&st))
	}
	return gaps, bits
}

// TestStateSize pins the per-flow state: a soak holds one per flow, and
// its soakFlow (state, next instant, endpoints) is 40 bytes only while
// the state stays within 24.
func TestStateSize(t *testing.T) {
	if got := unsafe.Sizeof(State{}); got > 24 {
		t.Errorf("State is %d bytes; want ≤ 24", got)
	}
}

func TestFixedStream(t *testing.T) {
	f := Fixed{Interval: 5 * time.Millisecond, Bits: 4096}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	gaps, bits := drain(t, f, 4)
	// The first gap is zero (emit at flow start, the legacy behaviour),
	// then the fixed interval forever.
	want := []time.Duration{0, 5 * time.Millisecond, 5 * time.Millisecond, 5 * time.Millisecond}
	for i := range want {
		if gaps[i] != want[i] {
			t.Fatalf("gap[%d] = %v; want %v", i, gaps[i], want[i])
		}
		if bits[i] != 4096 {
			t.Fatalf("bits[%d] = %d; want 4096", i, bits[i])
		}
	}
	// Zero bits defaults to DefaultBits.
	_, bits = drain(t, Fixed{Interval: time.Millisecond}, 1)
	if bits[0] != DefaultBits {
		t.Fatalf("default bits = %d; want %d", bits[0], DefaultBits)
	}
}

func TestValidationErrors(t *testing.T) {
	cases := []struct {
		src  Source
		want string
	}{
		{Fixed{Interval: 0}, "non-positive interval"},
		{Fixed{Interval: time.Millisecond, Bits: -1}, "negative bits"},
		{Poisson{Rate: 0}, "non-positive rate"},
		{Poisson{Rate: -3}, "non-positive rate"},
		{Poisson{Rate: 100, Sizes: BoundedPareto{Alpha: 0, MinBits: 1, MaxBits: 2}}, "non-positive alpha"},
		{MMPP{RateOn: 0, MeanOn: time.Second, MeanOff: time.Second}, "non-positive on-state rate"},
		{MMPP{RateOn: 10, RateOff: -1, MeanOn: time.Second, MeanOff: time.Second}, "negative off-state rate"},
		{MMPP{RateOn: 10, MeanOn: 0, MeanOff: time.Second}, "burst length must be positive"},
		{MMPP{RateOn: 10, MeanOn: time.Second, MeanOff: -time.Second}, "negative off-state dwell"},
		{Replay{Records: []Record{{At: time.Second, Bits: 100}, {At: 0, Bits: 100}}}, "time-sorted"},
		{Replay{Records: []Record{{At: 0, Bits: 0}}}, "non-positive size"},
		// A draw past MaxInt64 ns once wrapped to a negative gap.
		{Poisson{Rate: 1e-12}, "poisson rate 1e-12 pps is too low"},
		{Poisson{Rate: 1e-300}, "overflows time.Duration"},
		{MMPP{RateOn: 1e-12, MeanOn: 10 * time.Millisecond, MeanOff: 10 * time.Millisecond}, "on-state rate 1e-12 pps is too low"},
		{MMPP{RateOn: 10, RateOff: 1e-9, MeanOn: time.Second, MeanOff: time.Second}, "off-state rate 1e-09 pps is too low"},
		{MMPP{RateOn: 10, MeanOn: math.MaxInt64 / 30, MeanOff: time.Second}, "on-state dwell"},
		{MMPP{RateOn: 10, MeanOn: time.Second, MeanOff: math.MaxInt64 / 30}, "off-state dwell"},
	}
	for _, c := range cases {
		err := c.src.Validate()
		if err == nil {
			t.Fatalf("%s %+v: Validate() = nil; want error containing %q", c.src.Name(), c.src, c.want)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: error %q does not contain %q", c.src.Name(), err, c.want)
		}
	}
}

// TestStreamsAreDeterministic: two states of one flow of one source
// replay identical sequences — the property that lets one Source drive
// many scheme-comparison runs fairly.
func TestStreamsAreDeterministic(t *testing.T) {
	sources := []Source{
		Poisson{Rate: 1000, Seed: 7},
		Poisson{Rate: 500, Sizes: BoundedPareto{Alpha: 1.3, MinBits: 512, MaxBits: 96000}, Seed: 3},
		MMPP{RateOn: 5000, MeanOn: 10 * time.Millisecond, MeanOff: 40 * time.Millisecond, Seed: 9},
	}
	for _, src := range sources {
		p := compile(t, src)
		a, b := p.Flow(3), p.Flow(3)
		for i := 0; i < 500; i++ {
			ga, _ := p.Next(&a)
			gb, _ := p.Next(&b)
			ba, bb := p.Bits(&a), p.Bits(&b)
			if ga != gb || ba != bb {
				t.Fatalf("%s: emission %d differs between streams: (%v,%d) vs (%v,%d)",
					src.Name(), i, ga, ba, gb, bb)
			}
		}
	}
}

// TestNeighbourFlowsShareNoDraw: flows k and k+1 of one source draw
// unrelated sequences. Seeding flow k at seed + k·γ, with γ the
// generator's own increment, made flow k+1's j-th draw flow k's
// (j+1)-th: every flow a one-draw-shifted copy of its neighbour.
func TestNeighbourFlowsShareNoDraw(t *testing.T) {
	const draws, maxLag = 1000, 64
	p := compile(t, Poisson{Rate: 1, Seed: 1})
	for k := 0; k < 8; k++ {
		a, b := p.Flow(k), p.Flow(k+1)
		seen := map[uint64]int{}
		for i := 0; i < draws; i++ {
			seen[a.draw()] = i
		}
		for j := 0; j < draws; j++ {
			if i, ok := seen[b.draw()]; ok && j-i <= maxLag && i-j <= maxLag {
				t.Fatalf("flow %d's draw %d is flow %d's draw %d", k+1, j, k, i)
			}
		}
	}
}

// TestPoissonStatistics: with a fixed seed, the empirical mean and
// variance of inter-arrival gaps match the exponential distribution
// (mean 1/λ, variance 1/λ²) within a few percent, and counts in windows
// have dispersion index ≈ 1 (the Poisson signature).
func TestPoissonStatistics(t *testing.T) {
	const rate = 2000.0
	const n = 200_000
	gaps, _ := drain(t, Poisson{Rate: rate, Seed: 42}, n)

	var sum, sumSq float64
	for _, g := range gaps {
		s := g.Seconds()
		sum += s
		sumSq += s * s
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-1/rate)/(1/rate) > 0.02 {
		t.Fatalf("mean gap = %g s; want ≈ %g (±2%%)", mean, 1/rate)
	}
	wantVar := 1 / (rate * rate)
	if math.Abs(variance-wantVar)/wantVar > 0.05 {
		t.Fatalf("gap variance = %g; want ≈ %g (±5%%)", variance, wantVar)
	}

	// Dispersion index of counts in 50 ms windows: ≈1 for Poisson.
	counts := windowCounts(gaps, 50*time.Millisecond)
	d := dispersion(counts)
	if d < 0.9 || d > 1.1 {
		t.Fatalf("dispersion index = %g; want ≈ 1 for Poisson", d)
	}
}

// TestMMPPStatistics: the empirical mean rate matches the dwell-weighted
// analytic rate, the traffic is overdispersed relative to Poisson (the
// point of using MMPP), and with a silent off state the long silences
// have mean ≈ MeanOff — the state dwell time surfacing in the gap
// sequence.
func TestMMPPStatistics(t *testing.T) {
	src := MMPP{
		RateOn:  10_000,
		RateOff: 0,
		MeanOn:  20 * time.Millisecond,
		MeanOff: 80 * time.Millisecond,
		Seed:    11,
	}
	// The rate estimator's error is governed by the number of on/off
	// cycles observed (~one per 100 ms), not the packet count, so the run
	// must be long in cycles: 400k packets ≈ 200 s ≈ 2000 cycles.
	const n = 400_000
	gaps, _ := drain(t, src, n)

	var total time.Duration
	for _, g := range gaps {
		total += g
	}
	rate := float64(n) / total.Seconds()
	want := compile(t, src).MeanRate() // 10000 * 20/(20+80) = 2000 pps
	if math.Abs(rate-want)/want > 0.05 {
		t.Fatalf("empirical rate = %g pps; want ≈ %g (±5%%)", rate, want)
	}

	// Burstiness: counts in windows must be far overdispersed vs Poisson.
	counts := windowCounts(gaps, 50*time.Millisecond)
	if d := dispersion(counts); d < 2 {
		t.Fatalf("dispersion index = %g; want ≫ 1 for on/off bursts", d)
	}

	// Off-state dwells: with RateOff = 0 every silence longer than a few
	// on-state gaps is an off dwell plus one on-state arrival gap.
	// E[silence] ≈ MeanOff + 1/RateOn. The threshold (10× the mean
	// on-state gap) misclassifies a vanishing fraction of on-gaps.
	threshold := 10 * time.Duration(float64(time.Second)/src.RateOn)
	var silence time.Duration
	silences := 0
	for _, g := range gaps {
		if g > threshold {
			silence += g
			silences++
		}
	}
	if silences == 0 {
		t.Fatal("no off-state silences observed")
	}
	meanSilence := (silence / time.Duration(silences)).Seconds()
	wantSilence := src.MeanOff.Seconds() + 1/src.RateOn
	if math.Abs(meanSilence-wantSilence)/wantSilence > 0.10 {
		t.Fatalf("mean off-state silence = %gs; want ≈ %gs (±10%%)", meanSilence, wantSilence)
	}
}

// TestBoundedParetoStatistics: samples respect the bounds and the
// empirical mean matches the analytic mean.
func TestBoundedParetoStatistics(t *testing.T) {
	dist := BoundedPareto{Alpha: 1.3, MinBits: 512, MaxBits: 12_000_000}
	if err := dist.Validate(); err != nil {
		t.Fatal(err)
	}
	p := compile(t, Poisson{Rate: 1, Sizes: dist, Seed: 5})
	st := p.Flow(0)
	const n = 500_000
	var sum float64
	for i := 0; i < n; i++ {
		b := p.Bits(&st)
		if b < dist.MinBits || b > dist.MaxBits {
			t.Fatalf("sample %d outside [%d, %d]", b, dist.MinBits, dist.MaxBits)
		}
		sum += float64(b)
	}
	mean := sum / n
	want := paretoMean(dist)
	if math.Abs(mean-want)/want > 0.05 {
		t.Fatalf("empirical mean = %g bits; want ≈ %g (±5%%)", mean, want)
	}
}

func TestReplayStream(t *testing.T) {
	trace := `
# time(s)  bytes
0.000  1000
0.010  500
0.010  500
0.035  1500
`
	r, err := ReadTrace(strings.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	p := compile(t, r)
	st := p.Flow(0)
	wantGap := []time.Duration{0, 10 * time.Millisecond, 0, 25 * time.Millisecond}
	wantBits := []int{8000, 4000, 4000, 12000}
	for i := range wantGap {
		g, ok := p.Next(&st)
		if !ok {
			t.Fatalf("flow ended at %d", i)
		}
		if b := p.Bits(&st); g != wantGap[i] || b != wantBits[i] {
			t.Fatalf("emission %d = (%v, %d); want (%v, %d)", i, g, b, wantGap[i], wantBits[i])
		}
	}
	if _, ok := p.Next(&st); ok {
		t.Fatal("flow did not end after the trace ran out")
	}
	// A second Next after exhaustion stays false.
	if _, ok := p.Next(&st); ok {
		t.Fatal("exhausted flow restarted")
	}
}

func TestReadTraceErrors(t *testing.T) {
	cases := []struct{ in, want string }{
		{"0.1 100 extra", "want `<seconds> <bytes>`"},
		{"abc 100", "bad timestamp"},
		{"0.1 xyz", "bad size"},
		{"-1 100", "negative timestamp"},
		{"1.0 100\n0.5 100", "time-sorted"},
	}
	for _, c := range cases {
		if _, err := ReadTrace(strings.NewReader(c.in)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("ReadTrace(%q) error = %v; want containing %q", c.in, err, c.want)
		}
	}
}

// windowCounts bins a gap sequence into fixed windows and returns the
// per-window arrival counts.
func windowCounts(gaps []time.Duration, window time.Duration) []int {
	var counts []int
	var now, edge time.Duration
	edge = window
	count := 0
	for _, g := range gaps {
		now += g
		for now >= edge {
			counts = append(counts, count)
			count = 0
			edge += window
		}
		count++
	}
	return counts
}

// dispersion returns variance/mean of the counts (1 for Poisson).
func dispersion(counts []int) float64 {
	var sum, sumSq float64
	for _, c := range counts {
		f := float64(c)
		sum += f
		sumSq += f * f
	}
	n := float64(len(counts))
	mean := sum / n
	return (sumSq/n - mean*mean) / mean
}

// paretoMean returns the analytic mean of a bounded Pareto distribution.
func paretoMean(b BoundedPareto) float64 {
	l, h := float64(b.MinBits), float64(b.MaxBits)
	a := b.Alpha
	if b.MinBits == b.MaxBits {
		return l
	}
	if a == 1 {
		return l * h / (h - l) * math.Log(h/l)
	}
	return math.Pow(l, a) / (1 - math.Pow(l/h, a)) * a / (a - 1) *
		(1/math.Pow(l, a-1) - 1/math.Pow(h, a-1))
}
