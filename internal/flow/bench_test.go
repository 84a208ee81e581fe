package flow

import (
	"fmt"
	"testing"

	"panda/internal/bitset"
	"panda/internal/query"
)

// cycleDCs is the k-cycle under |R| ≤ 100 per edge (log₂ 100 carries the 2³⁰
// denominator of query.LogOf).
func cycleDCs(k int) []DC {
	var dcs []DC
	for i := 0; i < k; i++ {
		dcs = append(dcs, DC{Y: bitset.Of(i, (i+1)%k), LogN: query.LogOf(100)})
	}
	return dcs
}

// benchMaximinCycle solves the polymatroid bound of the k-cycle under
// |R| ≤ 100 per edge: one elemental skeleton, one LP build, one exact solve,
// one witness.
func benchMaximinCycle(b *testing.B, k int) {
	dcs := cycleDCs(k)
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

// benchConstruct times construct on the maximin witness of the k-cycle under
// |R| ≤ 100 per edge, the proof a full k-cycle plan is built from.
func benchConstruct(b *testing.B, construct func(lambda, delta Vec, w *Witness) (ProofSequence, error)) {
	for _, k := range []int{4, 5} {
		res, err := MaximinBound(k, cycleDCs(k), []bitset.Set{bitset.Full(k)})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("c%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := construct(res.Lambda, res.Delta, res.Witness); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkConstructProof carries CI's allocs/op ceiling on c4. Each
// iteration scans the few δ, σ and µ terms that decide it; the loop that
// rebuilt inflow(Z) for every Z and re-sorted δ, σ and µ per iteration
// (BenchmarkConstructProofReference) spends twice the allocations or more.
func BenchmarkConstructProof(b *testing.B) { benchConstruct(b, ConstructProof) }

// BenchmarkConstructProofReference times the reference copy the differential
// tests hold ConstructProof to.
func BenchmarkConstructProofReference(b *testing.B) { benchConstruct(b, refConstructProof) }
