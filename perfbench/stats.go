package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minSamples is how many samples a q-quantile needs: at least ten samples
// must lie beyond it, so a p99 needs 1000 and a p90 needs 100. Quantiles at
// or below the median need one sample.
func minSamples(q float64) int {
	if q <= 0.5 {
		return 1
	}
	return int(math.Ceil(10/(1-q) - 1e-9))
}

// percentile returns the nearest-rank q-quantile of xs. ok is false when xs
// holds too few samples for that quantile (see minSamples); the value is
// then withheld rather than reported from a handful of outliers.
func percentile(xs []float64, q float64) (v float64, ok bool) {
	if len(xs) == 0 || len(xs) < minSamples(q) {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], true
}
