package traffic

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"
)

// ParseSpec parses a command-line traffic source specification:
//
//	fixed:rate=1000                  fixed-interval, 1000 pps
//	fixed:interval=2ms,bits=4096     fixed-interval by period
//	poisson:rate=2430                Poisson arrivals
//	poisson:rate=2430,pareto=1.3/4096/96000,seed=7
//	mmpp:on=5000,off=0,dwell=10ms/90ms
//	replay:path/to/trace.txt         recorded trace (seconds + bytes per line)
//
// Common options: bits=N (fixed packet size), pareto=alpha/minbits/maxbits
// (heavy-tailed sizes; overrides bits), seed=S (RNG seed, default 1).
// The returned Source is validated.
func ParseSpec(spec string) (Source, error) { return ParseSpecSeeded(spec, 1) }

// ParseSpecSeeded is ParseSpec with a caller-supplied default seed: a
// spec that names seed= explicitly keeps it, any other stochastic spec
// draws from defaultSeed. It is how a CLI's single global -seed flag
// reaches traffic sources without forbidding per-spec overrides.
func ParseSpecSeeded(spec string, defaultSeed int64) (Source, error) {
	kind, rest, _ := strings.Cut(spec, ":")
	switch kind {
	case "fixed", "poisson", "mmpp":
		opts, err := parseOpts(kind, rest)
		if err != nil {
			return nil, err
		}
		if !opts.has("seed") {
			opts.seed = defaultSeed
		}
		return buildSource(kind, opts)
	case "replay":
		if rest == "" {
			return nil, fmt.Errorf("traffic: replay spec needs a trace path (replay:<path>)")
		}
		f, err := os.Open(rest)
		if err != nil {
			return nil, fmt.Errorf("traffic: replay spec: %w", err)
		}
		defer f.Close()
		return ReadTrace(f)
	}
	return nil, fmt.Errorf("traffic: unknown source kind %q (want fixed, poisson, mmpp or replay)", kind)
}

// specOpts are the parsed key=value options of one spec.
type specOpts struct {
	rate     float64
	interval time.Duration
	on, off  float64
	dwellOn  time.Duration
	dwellOff time.Duration
	bits     int
	pareto   *BoundedPareto
	seed     int64

	set map[string]bool
}

func (o *specOpts) has(key string) bool { return o.set[key] }

// specKeys lists the options each spec kind accepts; anything else is
// rejected rather than silently ignored, so a mistyped spec never runs a
// different experiment than asked.
var specKeys = map[string]map[string]bool{
	"fixed":   {"rate": true, "interval": true, "bits": true},
	"poisson": {"rate": true, "bits": true, "pareto": true, "seed": true},
	"mmpp":    {"on": true, "off": true, "dwell": true, "bits": true, "pareto": true, "seed": true},
}

func parseOpts(kind, rest string) (*specOpts, error) {
	o := &specOpts{set: map[string]bool{}}
	if rest == "" {
		return o, nil
	}
	for _, item := range strings.Split(rest, ",") {
		key, val, found := strings.Cut(item, "=")
		if !found || val == "" {
			return nil, fmt.Errorf("traffic: %s spec: want key=value, got %q", kind, item)
		}
		if !specKeys[kind][key] {
			for _, keys := range specKeys {
				if keys[key] {
					return nil, fmt.Errorf("traffic: %s spec: option %q does not apply to %s sources", kind, key, kind)
				}
			}
			return nil, fmt.Errorf("traffic: %s spec: unknown option %q", kind, key)
		}
		var err error
		switch key {
		case "rate":
			o.rate, err = strconv.ParseFloat(val, 64)
		case "interval":
			o.interval, err = time.ParseDuration(val)
		case "on":
			o.on, err = strconv.ParseFloat(val, 64)
		case "off":
			o.off, err = strconv.ParseFloat(val, 64)
		case "dwell":
			onS, offS, ok := strings.Cut(val, "/")
			if !ok {
				return nil, fmt.Errorf("traffic: %s spec: dwell wants <on>/<off> durations, got %q", kind, val)
			}
			if o.dwellOn, err = time.ParseDuration(onS); err == nil {
				o.dwellOff, err = time.ParseDuration(offS)
			}
		case "bits":
			o.bits, err = strconv.Atoi(val)
		case "pareto":
			parts := strings.Split(val, "/")
			if len(parts) != 3 {
				return nil, fmt.Errorf("traffic: %s spec: pareto wants alpha/minbits/maxbits, got %q", kind, val)
			}
			p := &BoundedPareto{}
			if p.Alpha, err = strconv.ParseFloat(parts[0], 64); err == nil {
				if p.MinBits, err = strconv.Atoi(parts[1]); err == nil {
					p.MaxBits, err = strconv.Atoi(parts[2])
				}
			}
			o.pareto = p
		case "seed":
			o.seed, err = strconv.ParseInt(val, 10, 64)
		}
		if err != nil {
			return nil, fmt.Errorf("traffic: %s spec: bad %s %q: %w", kind, key, val, err)
		}
		o.set[key] = true
	}
	return o, nil
}

// sizes resolves the spec's size options into a SizeDist (nil = default).
func (o *specOpts) sizes() SizeDist {
	if o.pareto != nil {
		return *o.pareto
	}
	if o.bits != 0 {
		return FixedSize{Bits: o.bits}
	}
	return nil
}

func buildSource(kind string, o *specOpts) (Source, error) {
	var src Source
	switch kind {
	case "fixed":
		iv := o.interval
		switch {
		case o.has("interval") && o.has("rate"):
			return nil, fmt.Errorf("traffic: fixed spec: give rate or interval, not both")
		case o.has("rate"):
			if o.rate <= 0 {
				return nil, fmt.Errorf("traffic: fixed spec has non-positive rate %g pps", o.rate)
			}
			if float64(time.Second)/o.rate >= math.MaxInt64 {
				return nil, fmt.Errorf("traffic: fixed spec rate %g pps is too low: its interval overflows time.Duration", o.rate)
			}
			iv = time.Duration(float64(time.Second) / o.rate)
		case !o.has("interval"):
			return nil, fmt.Errorf("traffic: fixed spec needs rate=<pps> or interval=<duration>")
		}
		src = Fixed{Interval: iv, Bits: o.bits}
	case "poisson":
		if !o.has("rate") {
			return nil, fmt.Errorf("traffic: poisson spec needs rate=<pps>")
		}
		src = Poisson{Rate: o.rate, Sizes: o.sizes(), Seed: o.seed}
	case "mmpp":
		if !o.has("on") || !o.has("dwell") {
			return nil, fmt.Errorf("traffic: mmpp spec needs on=<pps> and dwell=<on>/<off>")
		}
		src = MMPP{RateOn: o.on, RateOff: o.off,
			MeanOn: o.dwellOn, MeanOff: o.dwellOff,
			Sizes: o.sizes(), Seed: o.seed}
	}
	if err := src.Validate(); err != nil {
		return nil, err
	}
	return src, nil
}
