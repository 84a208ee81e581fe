package main

import (
	"math"
	"testing"
)

// The quartile cut points must be Python's statistics.quantiles(v, n=4):
// the acceptance check is computed with it.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 1.25, 3.5, 5.75},
		{[]float64{10, 20}, 7.5, 15, 22.5},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.in)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := median([]float64{4, 1, 3}); got != 3 {
		t.Errorf("median of odd sample = %v, want 3", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{50: 50, 99: 99, 99.9: 100, 100: 100, 0.5: 1} {
		if got := percentile(sorted, p); got != want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", p, got, want)
		}
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it.
func TestTailPercentile(t *testing.T) {
	for n, want := range map[int]float64{
		19:    50,   // p50 has rank 10, nine beyond
		20:    50,   // ten beyond the median, none of the higher rungs qualifies
		40:    75,   // rank 30, ten beyond
		200:   95,   // rank 190, ten beyond
		999:   95,   // p99 has rank 990, nine beyond
		1000:  99,   // rank 990, ten beyond
		1200:  99,   // the smallest run the workloads are sized for
		9999:  99,   // p99.9 has rank 9990, nine beyond
		10000: 99.9, // rank 9990, ten beyond
	} {
		got := tailPercentile(n)
		if got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
		if beyond := n - percentileRank(n, got); got != 50 && beyond < 10 {
			t.Errorf("tailPercentile(%d) = %v leaves %d samples beyond it", n, got, beyond)
		}
	}
	if math.IsNaN(tailPercentile(1)) {
		t.Error("tailPercentile(1) is NaN")
	}
}
