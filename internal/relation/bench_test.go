package relation

import (
	"math/rand"
	"testing"

	"panda/internal/bitset"
)

func randomRelation(rng *rand.Rand, attrs bitset.Set, n, dom int) *Relation {
	r := New("B", attrs)
	k := attrs.Card()
	row := make([]Value, k)
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = Value(rng.Intn(dom))
		}
		r.Insert(row)
	}
	return r
}

func BenchmarkHashJoin(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	r := randomRelation(rng, bitset.Of(0, 1), 5000, 200)
	s := randomRelation(rng, bitset.Of(1, 2), 5000, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Join(s)
	}
}

func BenchmarkSemijoin(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	r := randomRelation(rng, bitset.Of(0, 1), 10000, 500)
	s := randomRelation(rng, bitset.Of(1, 2), 10000, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Semijoin(s)
	}
}

func BenchmarkProject(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	r := randomRelation(rng, bitset.Of(0, 1, 2), 20000, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Project(bitset.Of(0, 2))
	}
}

func BenchmarkPartitionByDegree(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	r := New("R", bitset.Of(0, 1))
	// Zipf-ish skew to exercise multiple buckets.
	for i := 0; i < 20000; i++ {
		x := rng.Intn(100)
		if rng.Intn(4) == 0 {
			x = 0
		}
		r.Insert([]Value{Value(x), Value(rng.Intn(5000))})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.PartitionByDegree(bitset.Of(0, 1), bitset.Of(0))
	}
}

// BenchmarkUnionFold is stepDecomposition's shape: 32 overlapping 2k-row
// tables of one target folded into an accumulator — one Union to get a
// relation the fold owns, InsertAll from then on.
func BenchmarkUnionFold(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	tables := make([]*Relation, 32)
	for i := range tables {
		tables[i] = randomRelation(rng, bitset.Of(0, 1, 2), 2000, 30)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := tables[0].Union(tables[1])
		for _, t := range tables[2:] {
			acc.InsertAll(t)
		}
	}
}

// BenchmarkAllSorted reads a 2-column, 20k-row relation out in value order:
// "first" orders it (a fresh snapshot per iteration, so nothing is
// memoized), "again" is a later pass over the same unwritten relation — the
// permutation is there, and the pass allocates the row buffer and nothing
// that grows with the rows.
func BenchmarkAllSorted(b *testing.B) {
	r := randomRelation(rand.New(rand.NewSource(6)), bitset.Of(0, 1), 20000, 400)
	scan := func(b *testing.B, r *Relation) {
		n := 0
		for range r.AllSorted() {
			n++
		}
		if n != r.Size() {
			b.Fatalf("%d rows yielded, want %d", n, r.Size())
		}
	}
	b.Run("first", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			scan(b, r.Snapshot("S"))
		}
	})
	b.Run("again", func(b *testing.B) {
		scan(b, r)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			scan(b, r)
		}
	})
}
