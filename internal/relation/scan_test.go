package relation

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"panda/internal/bitset"
)

// refSortedPerm is sortedPerm as it was before the ranked and radix sorts: a
// comparison sort of the row indices that decodes both rows on every
// comparison. Rows are unique, so the order is total and any correct sort
// must produce exactly this permutation.
func refSortedPerm(r *Relation) []int32 {
	perm := make([]int32, r.nrows)
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.Slice(perm, func(a, b int) bool {
		i, j := int(perm[a]), int(perm[b])
		for c := range r.data {
			vi, vj := r.in.ValueOf(r.data[c][i]), r.in.ValueOf(r.data[c][j])
			if vi != vj {
				return vi < vj
			}
		}
		return false
	})
	return perm
}

// descendingInterner interns [lo, hi] from the top down, so that a larger
// value always has the smaller id.
func descendingInterner(lo, hi Value) *Interner {
	in := NewInterner()
	for v := hi; v >= lo; v-- {
		in.Intern(v)
	}
	return in
}

func TestAllSortedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for arity := 0; arity <= 5; arity++ {
		for _, n := range []int{0, 1, 2, 7, 300} {
			for _, dom := range []int{1, 3, 40, 5000} {
				r := New("R", bitset.Full(arity))
				r.in = descendingInterner(Value(-dom), Value(dom))
				row := make([]Value, arity)
				for i := 0; i < n; i++ {
					for j := range row {
						row[j] = Value(rng.Intn(2*dom+1) - dom)
					}
					r.Insert(row)
				}
				want := refSortedPerm(r)
				if got := r.sortedPerm(); !slices.Equal(got, want) {
					t.Fatalf("arity %d, %d rows over ±%d: permutation differs from the reference comparator\n got %v\nwant %v",
						arity, r.Size(), dom, got, want)
				}
				var rows [][]Value
				for _, i := range want {
					buf := make([]Value, arity)
					r.decodeInto(buf, int(i))
					rows = append(rows, buf)
				}
				if got := sortedRows(r); !reflect.DeepEqual(got, rows) {
					t.Fatalf("arity %d, %d rows over ±%d: AllSorted yields %v, want %v", arity, r.Size(), dom, got, rows)
				}
			}
		}
	}
	t.Run("key-bytes", testAllSortedKeyBytes)
}

// testAllSortedKeyBytes runs the radix sort over values chosen for their
// bytes: the ends of int64 and the values around zero, where the sign bit
// flips; values that differ only in their top byte, or only in byte 3; a
// constant column between two varying ones; and a relation of thousands of
// rows over values spread across all of int64. Every key byte is the one
// that varies somewhere, and somewhere every byte of a column is shared.
func testAllSortedKeyBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	ends := []Value{math.MinInt64, math.MinInt64 + 1, -1 << 32, -256, -1, 0, 1, 255, 1 << 32, math.MaxInt64 - 1, math.MaxInt64}
	top := []Value{5, 0x01<<56 | 5, 0x02<<56 | 5, 0x7f<<56 | 5, math.MinInt64 | 5, -1<<56 | 5}
	byte3 := []Value{0x11, 0x01<<24 | 0x11, 0x80<<24 | 0x11, 0xff<<24 | 0x11}
	spread := make([]Value, 4000)
	for i := range spread {
		spread[i] = Value(rng.Uint64())
		if i%4 == 0 {
			spread[i] = Value(rng.Intn(512) - 256)
		}
	}
	for _, tc := range []struct {
		name  string
		pools [][]Value // per column; a one-value pool is a constant column
		n     int
	}{
		{"ends", [][]Value{ends, ends}, 100},
		{"ends-3", [][]Value{ends, ends, ends}, 1000},
		{"top-byte", [][]Value{top, top}, 30},
		{"byte-3", [][]Value{byte3, top}, 24},
		{"constant-middle", [][]Value{ends, {math.MinInt64}, byte3}, 40},
		{"constant-middle-zero", [][]Value{top, {0}, ends}, 60},
		{"all-constant", [][]Value{{-1}, {7}}, 1},
		{"thousands", [][]Value{spread, spread}, 5000},
		{"thousands-narrow", [][]Value{spread[:40], {3}, spread[:200]}, 4000},
	} {
		r := New("R", bitset.Full(len(tc.pools)))
		r.in = NewInterner()
		var all []Value
		for _, pool := range tc.pools {
			all = append(all, pool...)
		}
		slices.Sort(all)
		for i := len(all) - 1; i >= 0; i-- { // larger values get smaller ids
			r.in.Intern(all[i])
		}
		row := make([]Value, len(tc.pools))
		for tries := 0; r.Size() < tc.n && tries < 100*tc.n; tries++ {
			for c, pool := range tc.pools {
				row[c] = pool[rng.Intn(len(pool))]
			}
			r.Insert(row)
		}
		if r.Size() < min(tc.n, 2) {
			t.Fatalf("%s: only %d rows drawn", tc.name, r.Size())
		}
		if got, want := r.sortedPerm(), refSortedPerm(r); !slices.Equal(got, want) {
			t.Fatalf("%s, %d rows: permutation differs from the reference comparator\n got %v\nwant %v", tc.name, r.Size(), got, want)
		}
	}
}

func TestAllSortedIDOrderIsNotValueOrder(t *testing.T) {
	r := New("R", bitset.Of(0, 1))
	r.in = descendingInterner(-3, 3)
	for _, row := range [][]Value{{3, -3}, {-3, 3}, {0, 0}, {-3, -3}, {0, -1}} {
		r.Insert(row)
	}
	want := [][]Value{{-3, -3}, {-3, 3}, {0, -1}, {0, 0}, {3, -3}}
	if got := sortedRows(r); !reflect.DeepEqual(got, want) {
		t.Fatalf("AllSorted = %v, want %v", got, want)
	}
}

func TestSortedPermMemo(t *testing.T) {
	r := pairs("R", 0, 1, [][2]Value{{5, 1}, {3, 2}, {4, 0}})
	first := r.sortedPerm()
	if again := r.sortedPerm(); &again[0] != &first[0] {
		t.Fatal("an unwritten relation was ordered twice")
	}
	if r.Insert([]Value{3, 2}) {
		t.Fatal("duplicate accepted")
	}
	if again := r.sortedPerm(); &again[0] != &first[0] {
		t.Fatal("a duplicate-only insert dropped the permutation")
	}
	r.Insert([]Value{1, 9})
	want := [][]Value{{1, 9}, {3, 2}, {4, 0}, {5, 1}}
	if got := sortedRows(r); !reflect.DeepEqual(got, want) {
		t.Fatalf("AllSorted after Insert = %v, want %v", got, want)
	}

	// Copies start without a permutation and never see the source's later
	// rows, whichever side is ordered first.
	snap, as, clone := r.Snapshot("snap"), r.SnapshotAs("as", bitset.Of(4, 7)), r.Clone("clone")
	r.Insert([]Value{0, 0})
	for _, c := range []*Relation{snap, as, clone} {
		if c.memo.sorted != nil {
			t.Fatalf("%s inherited a permutation", c.Name)
		}
		if got := sortedRows(c); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: AllSorted = %v, want %v", c.Name, got, want)
		}
	}
	if got := sortedRows(r); len(got) != 5 || !reflect.DeepEqual(got[0], []Value{0, 0}) {
		t.Fatalf("AllSorted after the copies were taken = %v", got)
	}
}

func TestAllSortedConcurrentFirstUse(t *testing.T) {
	r := randomRelation(rand.New(rand.NewSource(22)), bitset.Of(0, 1, 2), 2000, 30)
	want := refSortedPerm(r)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k := 0
			buf := make([]Value, 3)
			for row := range r.AllSorted() {
				r.decodeInto(buf, int(want[k]))
				if !slices.Equal(row, buf) {
					t.Errorf("row %d = %v, want %v", k, row, buf)
					return
				}
				k++
			}
		}()
	}
	wg.Wait()
}

func TestCompact(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	r := randomRelation(rng, bitset.Of(0, 1), 300, 40)
	same := r.Clone("same")
	before := sortedRows(r)
	if r.seen.rows() == 0 || cap(r.data[0]) == r.nrows {
		t.Fatalf("precondition: Insert should leave a dedup table and spare capacity (seen %d rows, cap %d for %d rows)",
			r.seen.rows(), cap(r.data[0]), r.nrows)
	}
	r.Compact()
	if r.seen.rows() != 0 || r.seen.slots != nil {
		t.Fatal("Compact kept the dedup table")
	}
	for c := range r.data {
		if spare := cap(r.data[c]) - r.nrows; spare > r.nrows/8 {
			t.Fatalf("column %d keeps %d spare slots for %d rows", c, spare, r.nrows)
		}
	}
	if got := sortedRows(r); !reflect.DeepEqual(got, before) {
		t.Fatal("Compact changed the rows")
	}
	if !r.Contains(before[7]) || r.Contains([]Value{-1, -1}) {
		t.Fatal("Contains wrong after Compact")
	}
	if !r.Equal(same) || !same.Equal(r) {
		t.Fatal("Equal wrong after Compact")
	}
	r.Compact()
	if r.Insert(before[3]) {
		t.Fatal("duplicate accepted after Compact")
	}
	if !r.Insert([]Value{-1, -1}) || r.Size() != len(before)+1 || !r.Contains([]Value{-1, -1}) {
		t.Fatal("Insert wrong after Compact")
	}
	r.Compact()
	other := randomRelation(rng, bitset.Of(0, 1), 300, 40)
	u := r.Union(other)
	for _, s := range []*Relation{r, other} {
		for row := range s.All() {
			if !u.Contains(row) {
				t.Fatalf("Union lost %v of %s", row, s.Name)
			}
		}
	}
	if want := r.Size() + other.Size() - r.Semijoin(other).Size(); u.Size() != want {
		t.Fatalf("Union has %d rows, want %d", u.Size(), want)
	}

	empty := New("E", bitset.Of(0))
	empty.reserve(64)
	empty.Compact()
	if empty.data[0] != nil {
		t.Fatal("Compact kept an empty relation's reserved column")
	}
}

// TestCompactSnapshotLeavesSourceAlone is the case of a query answered by
// one of its inputs: the answer is a snapshot of the catalog relation, and
// compacting it must cost the catalog relation nothing.
func TestCompactSnapshotLeavesSourceAlone(t *testing.T) {
	r := randomRelation(rand.New(rand.NewSource(24)), bitset.Of(0, 1), 300, 40)
	seen, spare := r.seen.rows(), cap(r.data[0])
	col := &r.data[0][0]
	s := r.SnapshotAs("answer", bitset.Of(2, 5))
	s.Contains([]Value{1, 1}) // gives the snapshot a dedup table of its own
	s.Compact()
	if &s.data[0][0] != col {
		t.Fatal("Compact copied a capacity-capped shared column")
	}
	if r.seen.rows() != seen || cap(r.data[0]) != spare || &r.data[0][0] != col {
		t.Fatal("compacting a snapshot touched its source")
	}
	if r.Insert(slices.Clone(sortedRows(r)[0])) || !r.Insert([]Value{-5, -5}) {
		t.Fatal("source dedup wrong after its snapshot was compacted")
	}
	if s.Size() != r.Size()-1 || s.Contains([]Value{-5, -5}) {
		t.Fatal("snapshot saw a row inserted into its source")
	}
}
