package relation

import (
	"reflect"
	"testing"

	"panda/internal/bitset"
)

// TestRowsCappedAgainstCallerAppend is the regression test for the live-
// slice bug: Rows() used to return the internal slice with spare capacity,
// so a caller append wrote into the same backing array the insert log's
// delta subslices aliased and the next Insert appended to. With the capped
// three-index slice, a caller append must reallocate: neither the caller's
// appended row nor a concurrently-held delta view may be clobbered. (Storage
// is columnar now and a delta is Since's column suffix; the assertions stand.)
func TestRowsCappedAgainstCallerAppend(t *testing.T) {
	r := New("R", bitset.Of(0, 1))
	r.Insert([]Value{1, 1})
	r.Insert([]Value{2, 2})
	r.Insert([]Value{3, 3}) // len 3, internal capacity 4: the trap is armed
	r.Stamp(1)

	v := r.Rows()
	if cap(v) != len(v) {
		t.Fatalf("Rows() exposes spare capacity: len %d cap %d", len(v), cap(v))
	}
	scratch := append(v, []Value{99, 99}) // must reallocate, not share backing

	r.Insert([]Value{4, 4})
	r.Stamp(2)

	// The caller's appended row survives the relation's own Insert.
	if !reflect.DeepEqual(scratch[3], []Value{99, 99}) {
		t.Fatalf("Insert clobbered a caller-appended row: %v", scratch[3])
	}
	// The delta view sees exactly the inserted row, not the caller's junk.
	delta := r.Since(1).Rows()
	if len(delta) != 1 || !reflect.DeepEqual(delta[0], []Value{4, 4}) {
		t.Fatalf("Since(1) = %v, want [[4 4]]", delta)
	}
	// And the reverse direction: appending to a held delta view must not
	// leak into rows the relation inserts afterwards.
	held := r.Since(1).Rows()
	_ = append(held, []Value{77, 77})
	r.Insert([]Value{5, 5})
	if got := r.Rows()[4]; !reflect.DeepEqual(got, []Value{5, 5}) {
		t.Fatalf("caller append into a delta view clobbered row 5: %v", got)
	}
}

// TestMemoizedIndexInvalidation: Join/Semijoin answers must stay correct
// when rows arrive between calls — the memoized hash indexes and key sets
// are invalidated by row count.
func TestMemoizedIndexInvalidation(t *testing.T) {
	r := pairs("R", 0, 1, [][2]Value{{1, 10}, {2, 20}})
	s := pairs("S", 1, 2, [][2]Value{{10, 100}})
	if got := r.Join(s).Size(); got != 1 {
		t.Fatalf("join size = %d, want 1", got)
	}
	if got := r.Semijoin(s).Size(); got != 1 {
		t.Fatalf("semijoin size = %d, want 1", got)
	}
	// Grow the build sides; a stale memo would miss the new matches.
	s.Insert([]Value{20, 200})
	if got := r.Join(s).Size(); got != 2 {
		t.Fatalf("join after insert = %d, want 2 (stale index?)", got)
	}
	if got := r.Semijoin(s).Size(); got != 2 {
		t.Fatalf("semijoin after insert = %d, want 2 (stale key set?)", got)
	}
}

// TestMemoizedIndexReuse: at an unchanged mutation tick the memoized
// structures are returned as-is (pointer-identical), not rebuilt.
func TestMemoizedIndexReuse(t *testing.T) {
	r := pairs("R", 0, 1, [][2]Value{{1, 10}, {2, 20}, {3, 30}})
	on := bitset.Of(0)
	i1 := r.index(on)
	i2 := r.index(on)
	if reflect.ValueOf(i1).Pointer() != reflect.ValueOf(i2).Pointer() {
		t.Fatal("index rebuilt at unchanged mutation tick")
	}
	p1 := r.Partition(2, on)
	p2 := r.Partition(2, on)
	if p1[0] != p2[0] {
		// Same backing memo: identical *Relation buckets.
		t.Fatal("partitions rebuilt at unchanged mutation tick")
	}
	r.Insert([]Value{4, 40})
	if reflect.ValueOf(r.index(on)).Pointer() == reflect.ValueOf(i1).Pointer() {
		t.Fatal("index not invalidated by insert")
	}
	if p3 := r.Partition(2, on); p3[0] == p1[0] {
		t.Fatal("partitions not invalidated by insert")
	}
}

// TestMemoKeyedByMutationTick is the regression test for the row-count
// invalidation heuristic the memos used before: any future mutation that
// changes contents without changing cardinality (drop/recreate, swap,
// compaction) would have returned a stale index. The memos are now keyed by
// the monotone mutation tick: a duplicate insert (no accepted mutation)
// keeps them valid, while any accepted insert — even one that later
// restores the original cardinality — invalidates.
func TestMemoKeyedByMutationTick(t *testing.T) {
	r := pairs("R", 0, 1, [][2]Value{{1, 10}, {2, 20}})
	on := bitset.Of(0)
	i1 := r.index(on)
	r.Insert([]Value{1, 10}) // duplicate: set semantics, tick unchanged
	if reflect.ValueOf(r.index(on)).Pointer() != reflect.ValueOf(i1).Pointer() {
		t.Fatal("duplicate insert invalidated the memo (tick should not move)")
	}
	if r.mut != 2 {
		t.Fatalf("mutation tick = %d after 2 accepted + 1 duplicate insert, want 2", r.mut)
	}
	// Equal cardinality at a later tick must still invalidate: compare the
	// memo of a recreated relation with the same row count but different
	// contents — lookups must reflect the new rows, not the old index.
	fresh := pairs("R", 0, 1, [][2]Value{{7, 70}, {8, 80}})
	s := pairs("S", 1, 2, [][2]Value{{70, 700}})
	if got := fresh.Join(s).Size(); got != 1 {
		t.Fatalf("recreated relation join = %d, want 1", got)
	}
	if fresh.mut != r.mut {
		t.Fatalf("equal-cardinality relations share a tick value (%d vs %d) — memos must live per object", fresh.mut, r.mut)
	}
}

// TestPartitionCoPartitioned: two relations partitioned with the same k on
// their shared attribute agree on bucket placement (equal key values land
// at equal bucket indices), every row lands in exactly one bucket, and the
// assignment is a pure function of the tuple values.
func TestPartitionCoPartitioned(t *testing.T) {
	r := pairs("R", 0, 1, [][2]Value{{1, 10}, {2, 20}, {3, 30}, {4, 40}, {5, 50}})
	s := pairs("S", 0, 2, [][2]Value{{5, 55}, {4, 44}, {3, 33}, {2, 22}, {1, 11}})
	const k = 3
	on := bitset.Of(0)
	rp, sp := r.Partition(k, on), s.Partition(k, on)
	if len(rp) != k || len(sp) != k {
		t.Fatalf("partition counts: %d, %d, want %d", len(rp), len(sp), k)
	}
	bucketOf := func(parts []*Relation, a Value) int {
		found := -1
		for j, p := range parts {
			for _, row := range p.Rows() {
				if row[0] == a {
					if found >= 0 && found != j {
						t.Fatalf("key %d in two buckets", a)
					}
					found = j
				}
			}
		}
		if found < 0 {
			t.Fatalf("key %d in no bucket", a)
		}
		return found
	}
	total := 0
	for _, p := range rp {
		total += p.Size()
	}
	if total != r.Size() {
		t.Fatalf("partition row total %d ≠ %d", total, r.Size())
	}
	for a := Value(1); a <= 5; a++ {
		if bucketOf(rp, a) != bucketOf(sp, a) {
			t.Fatalf("key %d not co-partitioned", a)
		}
	}
	// k ≤ 1 degrades to the relation itself.
	if one := r.Partition(1, on); len(one) != 1 || one[0] != r {
		t.Fatal("Partition(1) should return the relation itself")
	}
}
