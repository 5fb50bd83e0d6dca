// Package traffic generates packet arrival processes for the simulator
// and the dataplane engine. The paper's evaluation (and this repo's §1
// loss-window experiment) originally offered only fixed-interval flows;
// a zero-loss claim is only as credible as the traffic it was measured
// under, so this package adds the processes the related work evaluates
// against — Poisson arrivals, on/off Markov-modulated bursts (MMPP),
// heavy-tailed bounded-Pareto packet sizes, and trace replay — behind
// one small interface.
//
// A Source is an immutable description of one flow's arrival process;
// Stream() mints a fresh deterministic iterator, so the same Source can
// drive many runs (one per scheme under comparison) with bit-identical
// emissions. All randomness flows from the Source's explicit seed.
package traffic

import (
	"fmt"
	"math/rand"
	"time"
)

// DefaultBits is the packet size used when none is configured: 8192 bits
// (1 kB), the paper's average packet size.
const DefaultBits = 8192

// Source is an immutable description of one flow's arrival process.
// Stream mints a fresh deterministic iterator; calling it again replays
// the identical emission sequence. Validate reports configuration errors
// (negative rates, zero dwell times, inverted size bounds) descriptively,
// before any packet is generated; Stream may panic on a Source whose
// Validate returns non-nil.
type Source interface {
	// Name identifies the process kind in reports ("fixed", "poisson", …).
	Name() string
	// Validate checks the parameters, returning a descriptive error for
	// unusable configurations.
	Validate() error
	// Stream returns a fresh deterministic emission iterator.
	Stream() Stream
}

// Stream yields one flow's successive packet emissions. Next returns the
// inter-arrival gap from the previous emission (measured from the flow's
// start time for the first call — a zero first gap emits a packet at the
// start instant itself) and the emitted packet's size in bits. ok=false
// ends the flow; once false, Next stays false.
type Stream interface {
	Next() (gap time.Duration, bits int, ok bool)
}

// SizeDist draws packet sizes, composable with any arrival process that
// has a Sizes field. Implementations must be deterministic given the rng.
type SizeDist interface {
	// Name identifies the distribution in reports.
	Name() string
	// Validate checks the parameters.
	Validate() error
	// SampleBits draws one packet size in bits.
	SampleBits(rng *rand.Rand) int
}

// sampleSize draws from d, defaulting nil to DefaultBits fixed.
func sampleSize(d SizeDist, rng *rand.Rand) int {
	if d == nil {
		return DefaultBits
	}
	return d.SampleBits(rng)
}

// validateSizes validates an optional size distribution.
func validateSizes(d SizeDist) error {
	if d == nil {
		return nil
	}
	return d.Validate()
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
func (f FixedSize) SampleBits(*rand.Rand) int {
	if f.Bits == 0 {
		return DefaultBits
	}
	return f.Bits
}

// ---------------------------------------------------------------------------
// Fixed-interval arrivals (a sim.Flow with no Source)
// ---------------------------------------------------------------------------

// Fixed emits fixed-size packets at a fixed interval, the first at the
// flow's start instant (first gap zero). It is the process a sim.Flow
// without a Source runs.
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
	if f.Bits < 0 {
		return fmt.Errorf("traffic: fixed source has negative bits %d", f.Bits)
	}
	return nil
}

// Stream implements Source.
func (f Fixed) Stream() Stream {
	bits := f.Bits
	if bits == 0 {
		bits = DefaultBits
	}
	return &fixedStream{interval: f.Interval, bits: bits}
}

type fixedStream struct {
	interval time.Duration
	bits     int
	started  bool
}

func (s *fixedStream) Next() (time.Duration, int, bool) {
	if !s.started {
		s.started = true
		return 0, s.bits, true
	}
	return s.interval, s.bits, true
}

// ---------------------------------------------------------------------------
// Poisson arrivals
// ---------------------------------------------------------------------------

// Poisson emits packets with exponentially distributed inter-arrival
// times at a mean rate of Rate packets per second — the classic memoryless
// arrival process.
type Poisson struct {
	// Rate is the mean emission rate in packets per second.
	Rate float64
	// Sizes draws packet sizes (nil = DefaultBits fixed).
	Sizes SizeDist
	// Seed drives the deterministic RNG.
	Seed int64
}

// Name implements Source.
func (p Poisson) Name() string { return "poisson" }

// Validate implements Source.
func (p Poisson) Validate() error {
	if p.Rate <= 0 {
		return fmt.Errorf("traffic: poisson source has non-positive rate %g pps", p.Rate)
	}
	return validateSizes(p.Sizes)
}

// Stream implements Source.
func (p Poisson) Stream() Stream {
	return &poissonStream{rate: p.Rate, sizes: p.Sizes, rng: rand.New(rand.NewSource(p.Seed))}
}

type poissonStream struct {
	rate  float64
	sizes SizeDist
	rng   *rand.Rand
}

func (s *poissonStream) Next() (time.Duration, int, bool) {
	gap := time.Duration(s.rng.ExpFloat64() / s.rate * float64(time.Second))
	return gap, sampleSize(s.sizes, s.rng), true
}

// ---------------------------------------------------------------------------
// Markov-modulated Poisson arrivals (on/off bursts)
// ---------------------------------------------------------------------------

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
	// Seed drives the deterministic RNG.
	Seed int64
}

// Name implements Source.
func (m MMPP) Name() string { return "mmpp" }

// Validate implements Source.
func (m MMPP) Validate() error {
	if m.RateOn <= 0 {
		return fmt.Errorf("traffic: mmpp source has non-positive on-state rate %g pps", m.RateOn)
	}
	if m.RateOff < 0 {
		return fmt.Errorf("traffic: mmpp source has negative off-state rate %g pps", m.RateOff)
	}
	if m.MeanOn <= 0 {
		return fmt.Errorf("traffic: mmpp source has zero or negative on-state dwell %v (burst length must be positive)", m.MeanOn)
	}
	if m.MeanOff <= 0 {
		return fmt.Errorf("traffic: mmpp source has zero or negative off-state dwell %v", m.MeanOff)
	}
	return validateSizes(m.Sizes)
}

// MeanRate returns the long-run mean emission rate in packets per second:
// the dwell-weighted average of the two state rates.
func (m MMPP) MeanRate() float64 {
	on, off := m.MeanOn.Seconds(), m.MeanOff.Seconds()
	return (m.RateOn*on + m.RateOff*off) / (on + off)
}

// Stream implements Source.
func (m MMPP) Stream() Stream {
	rng := rand.New(rand.NewSource(m.Seed))
	s := &mmppStream{cfg: m, rng: rng, on: true}
	s.dwell = s.sampleDwell()
	return s
}

type mmppStream struct {
	cfg   MMPP
	rng   *rand.Rand
	on    bool
	dwell time.Duration // time left in the current state
}

// sampleDwell draws an exponential dwell for the current state.
func (s *mmppStream) sampleDwell() time.Duration {
	mean := s.cfg.MeanOn
	if !s.on {
		mean = s.cfg.MeanOff
	}
	return time.Duration(s.rng.ExpFloat64() * float64(mean))
}

// rate returns the emission rate of the current state.
func (s *mmppStream) rate() float64 {
	if s.on {
		return s.cfg.RateOn
	}
	return s.cfg.RateOff
}

func (s *mmppStream) Next() (time.Duration, int, bool) {
	var gap time.Duration
	for {
		r := s.rate()
		if r > 0 {
			// Candidate arrival within the current state; the exponential
			// is memoryless, so redrawing after a state change is exact.
			d := time.Duration(s.rng.ExpFloat64() / r * float64(time.Second))
			if d < s.dwell {
				s.dwell -= d
				gap += d
				return gap, sampleSize(s.cfg.Sizes, s.rng), true
			}
		}
		// No arrival before the state expires: consume the dwell, switch.
		gap += s.dwell
		s.on = !s.on
		s.dwell = s.sampleDwell()
	}
}
