package flow

import (
	"testing"

	"panda/internal/bitset"
	"panda/internal/query"
)

// benchMaximinCycle solves the polymatroid bound of the k-cycle under
// |R| ≤ 100 per edge (log₂ 100 carries the 2³⁰ denominator of query.LogOf):
// one elemental skeleton, one LP build, one exact solve, one witness.
func benchMaximinCycle(b *testing.B, k int) {
	var dcs []DC
	for i := 0; i < k; i++ {
		dcs = append(dcs, DC{Y: bitset.Of(i, (i+1)%k), LogN: query.LogOf(100)})
	}
	targets := []bitset.Set{bitset.Full(k)}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := MaximinBound(k, dcs, targets); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMaximinC4 carries CI's allocs/op ceiling: the all-big.Rat tableau
// spent 22,440 allocations here (and 104,227 on a cold 4-cycle prepare), the
// word-sized one a few hundred, none of them per tableau cell.
func BenchmarkMaximinC4(b *testing.B) { benchMaximinCycle(b, 4) }

func BenchmarkMaximinC5(b *testing.B) { benchMaximinCycle(b, 5) }
