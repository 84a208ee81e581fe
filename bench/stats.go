package main

import (
	"math"
	"sort"
)

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (its default "exclusive" method),
// because that is what the acceptance check computes over ten runs; -repeat
// must agree with it to the digit. It needs at least two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	const n = 4
	ld := len(data)
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		return (data[j-1]*(n-delta) + data[j]*delta) / n
	}
	return cut(1), cut(2), cut(3)
}

// median of a non-empty sample (mean of the two middle values when even).
func median(values []float64) float64 {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	mid := len(data) / 2
	if len(data)%2 == 1 {
		return data[mid]
	}
	return (data[mid-1] + data[mid]) / 2
}

// spread is the run-to-run noise figure the bounds are judged against: the
// distance between the first and third quartile as a share of the median.
func spread(values []float64) float64 {
	q1, _, q3 := quartiles(values)
	return (q3 - q1) / median(values)
}

// percentile is the nearest-rank p-th percentile (0 < p ≤ 100) of an
// ascending-sorted sample.
func percentile(sorted []float64, p float64) float64 {
	return sorted[percentileRank(len(sorted), p)-1]
}

func percentileRank(n int, p float64) int {
	// The small slack keeps 99.9% of 10000 at rank 9990, not 9991.
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank
}

// percentileLadder is searched top down by tailPercentile.
var percentileLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile picks the highest percentile of the ladder that still has
// at least ten samples beyond it: a tail estimate resting on fewer is one
// or two outliers, not a percentile. Below twenty samples only the median
// is left.
func tailPercentile(n int) float64 {
	for _, p := range percentileLadder {
		if n-percentileRank(n, p) >= 10 {
			return p
		}
	}
	return 50
}
