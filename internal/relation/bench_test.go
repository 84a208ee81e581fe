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

// BenchmarkSemijoin: "one" reduces a 2-column table by one side; "multi" is
// the Corollary 7.10 reduction's shape — one 3-column table against four
// 2-column sides, every row probed against each side's memoized index until
// one misses, the survivors gathered once; "drop-last" passes the side that
// drops nine rows in ten last, behind three that keep every row — the sieve
// tries it first from the first dropped row on.
func BenchmarkSemijoin(b *testing.B) {
	b.Run("one", func(b *testing.B) {
		rng := rand.New(rand.NewSource(2))
		r := randomRelation(rng, bitset.Of(0, 1), 10000, 500)
		s := randomRelation(rng, bitset.Of(1, 2), 10000, 500)
		b.ReportAllocs()
		for b.Loop() {
			r.Semijoin(s)
		}
	})
	b.Run("multi", func(b *testing.B) {
		rng := rand.New(rand.NewSource(7))
		r := randomRelation(rng, bitset.Of(0, 1, 2), 20000, 60)
		sides := []*Relation{
			randomRelation(rng, bitset.Of(0, 1), 3000, 60),
			randomRelation(rng, bitset.Of(1, 2), 3000, 60),
			randomRelation(rng, bitset.Of(2, 3), 3000, 60),
			randomRelation(rng, bitset.Of(0, 3), 3000, 60),
		}
		b.ReportAllocs()
		for b.Loop() {
			r.Semijoin(sides...)
		}
	})
	b.Run("drop-last", func(b *testing.B) {
		rng := rand.New(rand.NewSource(8))
		r := randomRelation(rng, bitset.Of(0, 1, 2), 20000, 60)
		sides := []*Relation{
			fullPairs(bitset.Of(0, 1), 60, 60),
			fullPairs(bitset.Of(1, 2), 60, 60),
			fullPairs(bitset.Of(0, 2), 60, 60),
			fullPairs(bitset.Of(2, 3), 6, 60), // A2 < 6: keeps one row in ten
		}
		b.ReportAllocs()
		for b.Loop() {
			r.Semijoin(sides...)
		}
	})
}

// fullPairs returns the relation over the two attributes of attrs holding
// every pair in [n]×[m].
func fullPairs(attrs bitset.Set, n, m int) *Relation {
	r := New("F", attrs)
	for x := 0; x < n; x++ {
		for y := 0; y < m; y++ {
			r.Insert([]Value{Value(x), Value(y)})
		}
	}
	return r
}

// BenchmarkReduce is the executor's per-bag reduce: eight overlapping
// 3-column tables of one bag, from as many rule runs, against the four
// inputs, one of which drops about half the rows. Only the survivors are
// counted, written and hashed into the result's dedup table; allocs/op counts
// slices, not rows — CI holds it to a ceiling.
func BenchmarkReduce(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	parts := make([]*Relation, 8)
	for k := range parts {
		parts[k] = randomRelation(rng, bitset.Of(0, 1, 2), 2000, 30)
	}
	sides := []*Relation{
		fullPairs(bitset.Of(0, 1), 30, 30),
		fullPairs(bitset.Of(1, 2), 30, 30),
		fullPairs(bitset.Of(2, 3), 30, 30),
		fullPairs(bitset.Of(0, 3), 15, 30), // A0 < 15: keeps half the rows
	}
	b.ReportAllocs()
	for b.Loop() {
		Reduce(bitset.Of(0, 1, 2), parts, sides...)
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

// BenchmarkUnionFold is the engine's fold: 32 overlapping 2k-row tables of
// one target reach the top of a rule execution as four decompositions' lists
// of eight, concatenated on the way up without touching a row, and are
// unioned there once.
func BenchmarkUnionFold(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	groups := make([][]*Relation, 4)
	for g := range groups {
		for i := 0; i < 8; i++ {
			groups[g] = append(groups[g], randomRelation(rng, bitset.Of(0, 1, 2), 2000, 30))
		}
	}
	b.ReportAllocs()
	for b.Loop() {
		var list []*Relation
		for _, g := range groups {
			list = append(list, g...)
		}
		list[0].Union(list[1:]...)
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
