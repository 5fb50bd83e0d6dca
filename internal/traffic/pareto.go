package traffic

import (
	"fmt"
	"math"
)

// BoundedPareto draws packet sizes from a bounded Pareto distribution —
// the standard heavy-tailed model for flow and packet sizes (most packets
// small, a fat tail of large ones), truncated to [MinBits, MaxBits] so no
// sample exceeds a link MTU or underflows a header. Shape Alpha controls
// the tail: smaller alpha, heavier tail (internet flow sizes are commonly
// fitted with alpha ≈ 1.1–1.5).
type BoundedPareto struct {
	// Alpha is the tail index (must be positive; ≈1.1–1.5 for internet
	// traffic).
	Alpha float64
	// MinBits and MaxBits bound the sampled sizes.
	MinBits, MaxBits int
}

// Name implements SizeDist.
func (b BoundedPareto) Name() string { return "bounded-pareto" }

// Validate implements SizeDist.
func (b BoundedPareto) Validate() error {
	if b.Alpha <= 0 {
		return fmt.Errorf("traffic: bounded-pareto sizes have non-positive alpha %g", b.Alpha)
	}
	if b.MinBits <= 0 {
		return fmt.Errorf("traffic: bounded-pareto sizes have non-positive minimum %d bits", b.MinBits)
	}
	if b.MaxBits < b.MinBits {
		return fmt.Errorf("traffic: bounded-pareto sizes have max %d bits below min %d", b.MaxBits, b.MinBits)
	}
	return nil
}

// SampleBits implements SizeDist by inverse-CDF sampling:
// x = L / (1 - u·(1-(L/H)^α))^(1/α).
func (b BoundedPareto) SampleBits(u float64) int {
	l, h := float64(b.MinBits), float64(b.MaxBits)
	if b.MinBits == b.MaxBits {
		return b.MinBits
	}
	x := l / math.Pow(1-u*(1-math.Pow(l/h, b.Alpha)), 1/b.Alpha)
	if x > h {
		x = h // guard numeric drift at u = 1
	}
	return int(x)
}
