package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles a tail may be reported at.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.5, 99.9}

// tailPercentile returns the highest ladder percentile that leaves at
// least ten of n samples beyond it, or 0 when n is too small for any.
// The benchmark passes the unit count of one repetition, which is fixed
// by the workload, so the percentile never changes with host speed;
// the pooled sample of a run holds at least one repetition.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if float64(n)*(100-p) >= 1000-1e-6 { // n*(1-p/100) >= 10, robust to rounding
			best = p
		}
	}
	return best
}

// quantile returns the p-th percentile of xs by linear interpolation
// between closest ranks. xs need not be sorted; it is not modified.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 50) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload does not
// reach).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
