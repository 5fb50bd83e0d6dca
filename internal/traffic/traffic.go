// Package traffic is the one packet arrival generator: the simulator,
// the soak and the throughput report all draw from it. The paper's
// evaluation (and this repo's §1 loss-window experiment) originally
// offered only fixed-interval flows; a zero-loss claim is only as
// credible as the traffic it was measured under, so this package adds
// the processes the related work evaluates against — Poisson arrivals,
// on/off Markov-modulated bursts (MMPP), heavy-tailed bounded-Pareto
// packet sizes, and trace replay.
//
// A Source is an immutable description of one flow's arrival process.
// Compile turns it into a Process, the parameters every flow of the
// source shares; a flow's own state is a State of 24 bytes with no
// pointer, so hundreds of thousands of flows fit in a few megabytes.
// Flow k of a source is seeded from (the source's Seed, k) and nothing
// else feeds the generator: one source and one k replay the same
// emissions bit for bit, in every harness.
package traffic

import (
	"cmp"
	"fmt"
	"math"
	"time"
)

// DefaultBits is the packet size used when none is configured: 8192 bits
// (1 kB), the paper's average packet size.
const DefaultBits = 8192

// Source is an immutable description of one flow's arrival process:
// Fixed, Poisson, MMPP or Replay. Validate reports configuration errors
// (negative rates, zero dwell times, inverted size bounds, rates so low
// a gap overflows time.Duration) descriptively, before any packet is
// generated; Compile refuses a Source whose Validate fails.
type Source interface {
	// Name identifies the process kind in reports ("fixed", "poisson", …).
	Name() string
	// Validate checks the parameters, returning a descriptive error for
	// unusable configurations.
	Validate() error
	// process returns the compiled parameters of a valid source.
	process() Process
}

// SizeDist draws packet sizes, composable with any arrival process that
// has a Sizes field.
type SizeDist interface {
	// Name identifies the distribution in reports.
	Name() string
	// Validate checks the parameters.
	Validate() error
	// SampleBits maps one uniform draw u in (0, 1] to a packet size in
	// bits.
	SampleBits(u float64) int
}

// FixedSize is the degenerate size distribution: every packet is Bits
// bits (0 = DefaultBits).
type FixedSize struct {
	Bits int
}

// Name implements SizeDist.
func (f FixedSize) Name() string { return "fixed-size" }

// Validate implements SizeDist.
func (f FixedSize) Validate() error {
	if f.Bits < 0 {
		return fmt.Errorf("traffic: fixed size has negative bits %d", f.Bits)
	}
	return nil
}

// SampleBits implements SizeDist.
func (f FixedSize) SampleBits(float64) int {
	if f.Bits == 0 {
		return DefaultBits
	}
	return f.Bits
}

// maxDrawMeans is the largest exponential draw in units of its mean:
// the generator's uniforms are never below 2⁻⁵³, so no draw exceeds
// −ln 2⁻⁵³ = 53·ln 2 ≈ 36.7 means.
const maxDrawMeans = 53 * math.Ln2

// checkRate refuses a positive rate (events per second) whose largest
// exponential draw would not fit in a time.Duration, where it would wrap
// to a negative gap. what formats the offending parameter, arg.
func checkRate(rate float64, what string, arg any) error {
	if rate > 0 && maxDrawMeans/rate*float64(time.Second) >= math.MaxInt64 {
		return fmt.Errorf("traffic: "+what+": its largest draw (%.1f means) overflows time.Duration", arg, maxDrawMeans)
	}
	return nil
}

// Fixed emits fixed-size packets at a fixed interval, the first at the
// flow's start instant (first gap zero).
type Fixed struct {
	// Interval between packets.
	Interval time.Duration
	// Bits per packet (0 = DefaultBits).
	Bits int
}

// Name implements Source.
func (f Fixed) Name() string { return "fixed" }

// Validate implements Source.
func (f Fixed) Validate() error {
	if f.Interval <= 0 {
		return fmt.Errorf("traffic: fixed source has non-positive interval %v", f.Interval)
	}
	return FixedSize{Bits: f.Bits}.Validate()
}

func (f Fixed) process() Process {
	return Process{kind: kindFixed, interval: f.Interval, sizes: FixedSize{Bits: f.Bits},
		meanRate: float64(time.Second) / float64(f.Interval)}
}

// Poisson emits packets with exponentially distributed inter-arrival
// times at a mean rate of Rate packets per second — the classic memoryless
// arrival process.
type Poisson struct {
	// Rate is the mean emission rate in packets per second.
	Rate float64
	// Sizes draws packet sizes (nil = DefaultBits fixed).
	Sizes SizeDist
	// Seed drives the flows' generators.
	Seed int64
}

// Name implements Source.
func (p Poisson) Name() string { return "poisson" }

// Validate implements Source.
func (p Poisson) Validate() error {
	if p.Rate <= 0 {
		return fmt.Errorf("traffic: poisson source has non-positive rate %g pps", p.Rate)
	}
	return cmp.Or(checkRate(p.Rate, "poisson rate %g pps is too low", p.Rate), validateSizes(p.Sizes))
}

func (p Poisson) process() Process {
	return Process{kind: kindPoisson, rate: [2]float64{1: p.Rate}, sizes: p.Sizes, seed: p.Seed, meanRate: p.Rate}
}

// MMPP is a two-state (on/off) Markov-modulated Poisson process: the flow
// alternates between an on state emitting at RateOn and an off state
// emitting at RateOff (usually 0), with exponentially distributed state
// dwell times of mean MeanOn and MeanOff. It models the bursty,
// correlated traffic a fixed-interval or pure-Poisson generator cannot:
// trains of back-to-back packets separated by silences.
type MMPP struct {
	// RateOn is the emission rate in the on state, packets per second.
	RateOn float64
	// RateOff is the emission rate in the off state (0 = silent bursts).
	RateOff float64
	// MeanOn is the mean dwell time in the on state.
	MeanOn time.Duration
	// MeanOff is the mean dwell time in the off state.
	MeanOff time.Duration
	// Sizes draws packet sizes (nil = DefaultBits fixed).
	Sizes SizeDist
	// Seed drives the flows' generators.
	Seed int64
}

// Name implements Source.
func (m MMPP) Name() string { return "mmpp" }

// Validate implements Source.
func (m MMPP) Validate() error {
	switch {
	case m.RateOn <= 0:
		return fmt.Errorf("traffic: mmpp source has non-positive on-state rate %g pps", m.RateOn)
	case m.RateOff < 0:
		return fmt.Errorf("traffic: mmpp source has negative off-state rate %g pps", m.RateOff)
	case m.MeanOn <= 0:
		return fmt.Errorf("traffic: mmpp source has zero or negative on-state dwell %v (burst length must be positive)", m.MeanOn)
	case m.MeanOff <= 0:
		return fmt.Errorf("traffic: mmpp source has zero or negative off-state dwell %v", m.MeanOff)
	}
	return cmp.Or(
		checkRate(m.RateOn, "mmpp on-state rate %g pps is too low", m.RateOn),
		checkRate(m.RateOff, "mmpp off-state rate %g pps is too low", m.RateOff),
		checkRate(1/m.MeanOn.Seconds(), "mmpp on-state dwell %v is too long", m.MeanOn),
		checkRate(1/m.MeanOff.Seconds(), "mmpp off-state dwell %v is too long", m.MeanOff),
		validateSizes(m.Sizes))
}

func (m MMPP) process() Process {
	on, off := m.MeanOn.Seconds(), m.MeanOff.Seconds()
	return Process{kind: kindMMPP, rate: [2]float64{m.RateOff, m.RateOn}, leave: [2]float64{1 / off, 1 / on},
		sizes: m.Sizes, seed: m.Seed, meanRate: (m.RateOn*on + m.RateOff*off) / (on + off)}
}

// validateSizes validates an optional size distribution.
func validateSizes(d SizeDist) error {
	if d == nil {
		return nil
	}
	return d.Validate()
}

type kind uint8

const (
	kindFixed kind = iota
	kindPoisson
	kindMMPP
	kindReplay
)

// Process is a Source compiled into the parameters its flows share. It
// is read-only once built, so one Process drives any number of flows.
type Process struct {
	kind     kind
	interval time.Duration // fixed
	// rate is the emission rate by mmpp state, off then on (poisson's
	// in the on slot); leave is the rate of leaving each mmpp state, one
	// over its mean dwell. All are per second.
	rate, leave [2]float64
	records     []Record // replay
	sizes       SizeDist // nil: every packet is DefaultBits (replay: its record's)
	seed        int64
	meanRate    float64
}

// Compile validates src and compiles it into the parameters its flows
// share.
func Compile(src Source) (*Process, error) {
	if err := src.Validate(); err != nil {
		return nil, err
	}
	p := src.process()
	return &p, nil
}

// MeanRate returns the long-run mean emission rate of one flow, in
// packets per second: for an MMPP the dwell-weighted average of its two
// state rates, and 0 for a replay, whose trace has no long run.
func (p *Process) MeanRate() float64 { return p.meanRate }

// State is one flow's generator state: 24 bytes, no pointer.
type State struct {
	word  uint64        // splitmix64 state
	dwell time.Duration // mmpp: time left in the current state
	idx   int32         // fixed: 1 once started; replay: the next record
	on    uint8         // mmpp: 1 in the on state (poisson's always)
}

// golden is splitmix64's increment, 2⁶⁴ over the golden ratio.
const golden = 0x9E3779B97F4A7C15

// draw steps splitmix64 and returns its next output.
func (s *State) draw() uint64 {
	s.word += golden
	z := s.word
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ z>>31
}

// unit draws a uniform in (0, 1].
func (s *State) unit() float64 { return (float64(s.draw()>>11) + 1) / (1 << 53) }

// exp draws an exponential wait for an event of the given rate (per
// second).
func (s *State) exp(rate float64) time.Duration {
	return time.Duration(-math.Log(s.unit()) / rate * float64(time.Second))
}

// Flow returns flow k's initial state. Its splitmix64 word is draw k of
// splitmix64 seeded with the source's Seed, so no flow's draws are a
// shift of another's. An MMPP flow opens in the on state.
func (p *Process) Flow(k int) State {
	seed := State{word: uint64(p.seed) + uint64(k)*golden}
	st := State{word: seed.draw(), on: 1}
	if p.kind == kindMMPP {
		st.dwell = st.exp(p.leave[1])
	}
	return st
}

// Next advances st to its next emission and returns the gap since the
// previous one — since the flow's origin for the first, which for a
// fixed flow is zero. ok=false ends a replay whose trace ran out; once
// false, Next stays false.
func (p *Process) Next(st *State) (gap time.Duration, ok bool) {
	switch p.kind {
	case kindFixed:
		if st.idx == 0 {
			st.idx = 1
			return 0, true
		}
		return p.interval, true
	case kindPoisson:
		return st.exp(p.rate[1]), true
	case kindReplay:
		if int(st.idx) >= len(p.records) {
			return 0, false
		}
		gap = p.records[st.idx].At
		if st.idx > 0 {
			gap -= p.records[st.idx-1].At
		}
		st.idx++
		return gap, true
	}
	for { // mmpp
		// A candidate arrival within the current state; the exponential
		// is memoryless, so redrawing after a state change is exact.
		if r := p.rate[st.on]; r > 0 {
			if d := st.exp(r); d < st.dwell {
				st.dwell -= d
				return gap + d, true
			}
		}
		gap += st.dwell
		st.on ^= 1
		st.dwell = st.exp(p.leave[st.on])
	}
}

// Bits returns the size of the packet Next last scheduled: its record's
// for a replay, otherwise a sample of the source's size distribution on
// a uniform drawn from the flow's own generator. Call it once per
// emission.
func (p *Process) Bits(st *State) int {
	switch {
	case p.kind == kindReplay:
		return p.records[st.idx-1].Bits
	case p.sizes == nil:
		return DefaultBits
	}
	return p.sizes.SampleBits(st.unit())
}
