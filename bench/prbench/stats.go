package main

import (
	"math"
	"sort"
)

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile interpolates linearly between order statistics, like Python's
// statistics.quantiles(method="inclusive"); 0 for an empty sample.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quartiles returns Q1 and Q3 as Python's statistics.quantiles(v, n=4)
// gives them (the exclusive method), which is what the acceptance check
// uses.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		pos := float64(k*(n+1)) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(m)
}

// quietQuantile is where a run's segments are read: a hundredth from the
// fast end. The benchmark's box is a few virtual CPUs of a shared host, and
// what the neighbours do to a busy core (half its issue slots, for seconds
// at a time) is larger than any change a pull request is likely to make.
// They only ever slow a segment down, so the fast end of many short
// segments is the program's own speed; the extreme itself is left to the
// odd turbo burst.
const quietQuantile = 0.99

// quietRate reads rates, one per segment of equal work, at the fast end.
func quietRate(rates []float64) float64 { return quantile(rates, quietQuantile) }

// quietTime reads times, one per repetition of the same work, at the fast end.
func quietTime(times []float64) float64 { return quantile(times, 1-quietQuantile) }
