package relation

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"panda/internal/bitset"
)

// sortedRows materializes r's tuples in value order (AllSorted reuses its
// row buffer).
func sortedRows(r *Relation) (rows [][]Value) {
	for row := range r.AllSorted() {
		rows = append(rows, slices.Clone(row))
	}
	return rows
}

func pairs(name string, a, b int, vals [][2]Value) *Relation {
	r := New(name, bitset.Of(a, b))
	for _, v := range vals {
		if a < b {
			r.Insert([]Value{v[0], v[1]})
		} else {
			r.Insert([]Value{v[1], v[0]})
		}
	}
	return r
}

func TestInsertDedup(t *testing.T) {
	r := New("R", bitset.Of(0, 1))
	r.Insert([]Value{1, 2})
	r.Insert([]Value{1, 2})
	r.Insert([]Value{2, 1})
	if r.Size() != 2 {
		t.Fatalf("Size = %d, want 2 (set semantics)", r.Size())
	}
	if !r.Contains([]Value{1, 2}) || r.Contains([]Value{3, 3}) {
		t.Fatal("Contains wrong")
	}
}

func TestProject(t *testing.T) {
	r := pairs("R", 0, 1, [][2]Value{{1, 10}, {1, 20}, {2, 10}})
	p := r.Project(bitset.Of(0))
	if p.Size() != 2 || !p.Contains([]Value{1}) || !p.Contains([]Value{2}) {
		t.Fatalf("projection wrong: %v", sortedRows(p))
	}
	if p.Attrs() != bitset.Of(0) {
		t.Fatalf("projection schema %v", p.Attrs())
	}
	// Projection onto the full schema is identity.
	if !r.Project(r.Attrs()).Equal(r) {
		t.Fatal("full projection should equal r")
	}
}

func TestJoinBasic(t *testing.T) {
	r := pairs("R", 0, 1, [][2]Value{{1, 2}, {2, 3}})
	s := pairs("S", 1, 2, [][2]Value{{2, 5}, {2, 6}, {9, 9}})
	j := r.Join(s)
	if j.Attrs() != bitset.Of(0, 1, 2) {
		t.Fatalf("join schema %v", j.Attrs())
	}
	want := [][]Value{{1, 2, 5}, {1, 2, 6}}
	if j.Size() != 2 {
		t.Fatalf("join = %v", sortedRows(j))
	}
	for _, w := range want {
		if !j.Contains(w) {
			t.Fatalf("missing %v in %v", w, sortedRows(j))
		}
	}
}

func TestJoinDisjointSchemasIsCrossProduct(t *testing.T) {
	r := pairs("R", 0, 1, [][2]Value{{1, 2}, {3, 4}})
	s := New("S", bitset.Of(2))
	s.Insert([]Value{7})
	s.Insert([]Value{8})
	j := r.Join(s)
	if j.Size() != 4 {
		t.Fatalf("cross product size %d, want 4", j.Size())
	}
}

func TestJoinSameSchemaIsIntersection(t *testing.T) {
	r := pairs("R", 0, 1, [][2]Value{{1, 2}, {3, 4}})
	s := pairs("S", 0, 1, [][2]Value{{1, 2}, {5, 6}})
	j := r.Join(s)
	if j.Size() != 1 || !j.Contains([]Value{1, 2}) {
		t.Fatalf("intersection = %v", sortedRows(j))
	}
}

func TestSemijoin(t *testing.T) {
	r := pairs("R", 0, 1, [][2]Value{{1, 2}, {2, 3}, {4, 5}})
	s := New("S", bitset.Of(1))
	s.Insert([]Value{2})
	s.Insert([]Value{5})
	out := r.Semijoin(s)
	if out.Size() != 2 || !out.Contains([]Value{1, 2}) || !out.Contains([]Value{4, 5}) {
		t.Fatalf("semijoin = %v", sortedRows(out))
	}
}

func TestUnion(t *testing.T) {
	r := pairs("R", 0, 1, [][2]Value{{1, 2}})
	s := pairs("S", 0, 1, [][2]Value{{1, 2}, {3, 4}})
	u := r.Union(s)
	if u.Size() != 2 {
		t.Fatalf("union size %d", u.Size())
	}
}

func TestDegree(t *testing.T) {
	r := pairs("R", 0, 1, [][2]Value{{1, 10}, {1, 20}, {1, 30}, {2, 10}})
	if d := r.Degree(bitset.Of(0, 1), bitset.Of(0)); d != 3 {
		t.Fatalf("deg(01|0) = %d, want 3", d)
	}
	if d := r.Degree(bitset.Of(0, 1), bitset.Set(0)); d != 4 {
		t.Fatalf("deg(01|∅) = %d, want 4 (= |R|)", d)
	}
	if d := r.Degree(bitset.Of(0), bitset.Set(0)); d != 2 {
		t.Fatalf("deg(0|∅) = %d, want 2", d)
	}
}

// TestPartitionByDegree checks Lemma 6.1: the buckets partition Π_Y(r) and
// in each bucket |Π_X| · deg(Y|X) stays within a small constant of |Π_Y(r)|.
func TestPartitionByDegree(t *testing.T) {
	r := New("R", bitset.Of(0, 1))
	// Skewed: value 1 has degree 16, others degree 1.
	for i := 0; i < 16; i++ {
		r.Insert([]Value{1, Value(100 + i)})
	}
	for i := 0; i < 10; i++ {
		r.Insert([]Value{Value(2 + i), 0})
	}
	y, x := bitset.Of(0, 1), bitset.Of(0)
	parts := r.PartitionByDegree(y, x)
	total := 0
	for _, p := range parts {
		total += p.Size()
		nx := p.Project(x).Size()
		dg := p.Degree(y, x)
		if nx*dg > 2*r.Size() {
			t.Fatalf("bucket %s: |Πx|=%d · deg=%d > 2·|R|=%d", p.Name, nx, dg, 2*r.Size())
		}
	}
	if total != r.Size() {
		t.Fatalf("buckets cover %d tuples, want %d", total, r.Size())
	}
	// Heavy value 1 and light values must land in different buckets.
	if len(parts) < 2 {
		t.Fatalf("expected ≥ 2 buckets, got %d", len(parts))
	}
}

func TestPartitionByDegreeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		r := New("R", bitset.Of(0, 1))
		n := 1 + rng.Intn(200)
		for i := 0; i < n; i++ {
			r.Insert([]Value{Value(rng.Intn(12)), Value(rng.Intn(40))})
		}
		y, x := bitset.Of(0, 1), bitset.Of(0)
		parts := r.PartitionByDegree(y, x)
		total := 0
		seen := map[string]bool{}
		for _, p := range parts {
			total += p.Size()
			for _, row := range p.Rows() {
				k := ""
				for _, v := range row {
					k += string(rune(v)) + ","
				}
				if seen[k] {
					t.Fatalf("tuple %v in two buckets", row)
				}
				seen[k] = true
			}
			nx := p.Project(x).Size()
			dg := p.Degree(y, x)
			if nx*dg > 2*r.Size() {
				t.Fatalf("trial %d: bucket violates Lemma 6.1 bound: %d·%d > 2·%d",
					trial, nx, dg, r.Size())
			}
		}
		if total != r.Size() {
			t.Fatalf("trial %d: buckets cover %d ≠ %d", trial, total, r.Size())
		}
	}
}

func TestCloneAndEqual(t *testing.T) {
	r := pairs("R", 0, 1, [][2]Value{{1, 2}, {3, 4}})
	c := r.Clone("C")
	if !r.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.Insert([]Value{5, 6})
	if r.Equal(c) {
		t.Fatal("clone insert leaked into original")
	}
}

// TestJoinCommutative: r ⋈ s == s ⋈ r on random inputs.
func TestJoinCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		r := New("R", bitset.Of(0, 1))
		s := New("S", bitset.Of(1, 2))
		for i := 0; i < 30; i++ {
			r.Insert([]Value{Value(rng.Intn(5)), Value(rng.Intn(5))})
			s.Insert([]Value{Value(rng.Intn(5)), Value(rng.Intn(5))})
		}
		if !r.Join(s).Equal(s.Join(r)) {
			t.Fatal("join not commutative")
		}
	}
}

// TestJoinAgainstNestedLoop validates the hash join against a brute-force
// nested-loop join on random instances.
func TestJoinAgainstNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		r := New("R", bitset.Of(0, 1, 2))
		s := New("S", bitset.Of(1, 2, 3))
		for i := 0; i < 40; i++ {
			r.Insert([]Value{Value(rng.Intn(4)), Value(rng.Intn(4)), Value(rng.Intn(4))})
			s.Insert([]Value{Value(rng.Intn(4)), Value(rng.Intn(4)), Value(rng.Intn(4))})
		}
		j := r.Join(s)
		want := New("W", bitset.Of(0, 1, 2, 3))
		for _, rt := range r.Rows() {
			for _, st := range s.Rows() {
				// r cols: 0,1,2; s cols: 1,2,3.
				if rt[1] == st[0] && rt[2] == st[1] {
					want.Insert([]Value{rt[0], rt[1], rt[2], st[2]})
				}
			}
		}
		if !j.Equal(want) {
			t.Fatalf("trial %d: hash join %d tuples, nested loop %d", trial, j.Size(), want.Size())
		}
	}
}

func TestSemijoinIsProjectionOfJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		r := New("R", bitset.Of(0, 1))
		s := New("S", bitset.Of(1, 2))
		for i := 0; i < 25; i++ {
			r.Insert([]Value{Value(rng.Intn(4)), Value(rng.Intn(4))})
			s.Insert([]Value{Value(rng.Intn(4)), Value(rng.Intn(4))})
		}
		if !r.Semijoin(s).Equal(r.Join(s).Project(r.Attrs())) {
			t.Fatal("semijoin ≠ Π(join)")
		}
	}
}

func TestTickMarksAndSince(t *testing.T) {
	r := New("R", bitset.Of(0, 1))
	if r.Tick() != 0 || r.Born() != 0 {
		t.Fatalf("fresh relation tick = %d, born = %d, want 0", r.Tick(), r.Born())
	}
	if got := len(r.Since(0).Rows()); got != 0 {
		t.Fatalf("Since(0) on empty = %d rows", got)
	}
	r.Stamp(1) // creation stamp at zero rows
	r.Insert([]Value{1, 2})
	r.Insert([]Value{3, 4})
	r.Stamp(2)
	r.Insert([]Value{5, 6})
	r.Insert([]Value{5, 6}) // duplicate: set semantics, no new row
	r.Stamp(3)
	r.Stamp(4) // no new rows: a no-op, Tick stays at the last real mark
	if r.Tick() != 3 {
		t.Fatalf("tick = %d, want 3", r.Tick())
	}
	if r.Born() != 1 {
		t.Fatalf("born = %d, want the creation stamp 1", r.Born())
	}
	// Since tick 1: everything after the creation stamp.
	if got := len(r.Since(1).Rows()); got != 3 {
		t.Fatalf("Since(1) = %d rows, want 3", got)
	}
	// Since tick 2: only the third insert.
	d := r.Since(2).Rows()
	if len(d) != 1 || d[0][0] != 5 || d[0][1] != 6 {
		t.Fatalf("Since(2) = %v, want [[5 6]]", d)
	}
	// Since ticks 3 and 4 (merged mark): empty either way.
	if len(r.Since(3).Rows()) != 0 || len(r.Since(4).Rows()) != 0 {
		t.Fatal("Since past the newest mark should be empty")
	}
	// A tick older than every mark returns all rows.
	if got := len(r.Since(0).Rows()); got != 3 {
		t.Fatalf("Since(0) = %d rows, want 3", got)
	}
	// The delta must not observe later growth (capped capacity).
	held := r.Since(2)
	r.Insert([]Value{7, 8})
	r.Stamp(5)
	if d := held.Rows(); len(d) != 1 || d[0][0] != 5 || d[0][1] != 6 {
		t.Fatalf("held delta became %v after the relation grew", d)
	}
	if got := len(r.Since(4).Rows()); got != 1 {
		t.Fatalf("Since(4) = %d rows, want 1", got)
	}
}

// TestSinceSharesColumnStorage: Since is a suffix of the relation's own
// columns — no row is copied — that stops where the relation stood when it
// was taken, and writing to either side leaves the other alone.
func TestSinceSharesColumnStorage(t *testing.T) {
	r := New("R", bitset.Of(0, 1))
	for i := Value(0); i < 5; i++ {
		r.Insert([]Value{i, i + 10})
	}
	r.Stamp(1)
	for i := Value(5); i < 8; i++ {
		r.Insert([]Value{i, i + 10})
	}
	r.Stamp(2)
	d := r.Since(1)
	if d.Size() != 3 || d.Attrs() != r.Attrs() {
		t.Fatalf("Since(1) = %v, want the 3 rows after the mark", d)
	}
	for c := range r.Cols() {
		if &d.Column(c)[0] != &r.Column(c)[5] {
			t.Fatalf("column %d of the delta is a copy, not r's storage from row 5 on", c)
		}
		if col := d.Column(c); cap(col) != len(col) {
			t.Fatalf("column %d of the delta has spare capacity %d: an append would write into r", c, cap(col)-len(col))
		}
	}
	// The relation grows; the delta taken before does not.
	r.Insert([]Value{8, 18})
	r.Stamp(3)
	if want := [][]Value{{5, 15}, {6, 16}, {7, 17}}; !reflect.DeepEqual(d.Rows(), want) {
		t.Fatalf("held delta = %v, want %v", d.Rows(), want)
	}
	// The delta is a relation like any other: it dedups against its own rows
	// and an insert into it reallocates instead of writing into r.
	if d.Insert([]Value{6, 16}) || !d.Insert([]Value{99, 99}) {
		t.Fatal("delta dedup is wrong")
	}
	if got := r.Rows()[8]; !reflect.DeepEqual(got, []Value{8, 18}) {
		t.Fatalf("insert into the delta clobbered r's row 8: %v", got)
	}
	if got := r.Since(2).Rows(); !reflect.DeepEqual(got, [][]Value{{8, 18}}) {
		t.Fatalf("Since(2) = %v, want [[8 18]]", got)
	}
}

// TestConcurrentContainsOnFreshSnapshot: a snapshot is born without its
// dedup table, and the type promises that concurrent reads are safe — so the
// first membership probes, racing from many goroutines, must build it once
// under the lock. Run with -race.
func TestConcurrentContainsOnFreshSnapshot(t *testing.T) {
	r := New("R", bitset.Of(0, 1))
	for i := 0; i < 500; i++ {
		r.Insert([]Value{Value(i), Value(i % 7)})
	}
	for _, fresh := range []*Relation{r.Snapshot("S"), r.Semijoin(r), r.Partition(3, bitset.Of(0))[1], r.Project(r.Attrs())} {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				other := fresh.Snapshot("other")
				for i := 0; i < 200; i++ {
					row := []Value{Value((i*8 + g) % 600), Value(((i*8 + g) % 600) % 7)}
					if got, want := fresh.Contains(row), hasRow(fresh.Rows(), row); got != want {
						t.Errorf("%s.Contains(%v) = %v, want %v", fresh.Name, row, got, want)
						return
					}
				}
				if !fresh.Equal(other) {
					t.Errorf("%s does not equal its own snapshot", fresh.Name)
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestInsertReportsNew: Insert and InsertIDs say whether the row was new.
func TestInsertReportsNew(t *testing.T) {
	r := New("R", bitset.Of(0, 1))
	if !r.Insert([]Value{1, 2}) || r.Insert([]Value{1, 2}) || !r.Insert([]Value{2, 1}) {
		t.Fatal("Insert must report true exactly for rows not yet present")
	}
	ids := []uint32{r.Column(0)[0], r.Column(1)[0]}
	if r.InsertIDs(ids) {
		t.Fatal("InsertIDs reported a stored row as new")
	}
	s := r.Snapshot("S") // no dedup table yet
	if s.Insert([]Value{2, 1}) || !s.Insert([]Value{3, 3}) || s.Size() != 3 || r.Size() != 2 {
		t.Fatalf("insert into a snapshot: sizes %d and %d", s.Size(), r.Size())
	}
}

// TestFullSchemaProjectShares: projecting onto the whole schema returns a
// new relation over the same rows without copying them, and appending to
// the source afterwards does not reach it.
func TestFullSchemaProjectShares(t *testing.T) {
	r := New("R", bitset.Of(0, 1))
	for i := 0; i < 100; i++ {
		r.Insert([]Value{Value(i), Value(i * i)})
	}
	p := r.Project(r.Attrs())
	if p == r || p.Name == r.Name || &p.Column(0)[0] != &r.Column(0)[0] {
		t.Fatalf("Project(all) must be a distinct relation sharing column storage (got %s)", p.Name)
	}
	want := r.Rows()
	for i := 100; i < 400; i++ {
		r.Insert([]Value{Value(i), -1})
	}
	if !reflect.DeepEqual(p.Rows(), want) || p.Size() != 100 {
		t.Fatalf("Project(all) changed when its source grew: %d rows", p.Size())
	}
	p.Insert([]Value{-5, -5})
	if r.Contains([]Value{-5, -5}) || !p.Contains([]Value{-5, -5}) || p.Insert([]Value{3, 9}) {
		t.Fatal("writes to the projection must stay in the projection, and dedup against its shared rows")
	}
}

// mustPanicTooManyRows runs f and checks that it panics with an
// ErrTooManyRows error naming the relation.
func mustPanicTooManyRows(t *testing.T, what, name string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		err, _ := recover().(error)
		if !errors.Is(err, ErrTooManyRows) || !strings.Contains(err.Error(), name) {
			t.Fatalf("%s: recovered %v, want an ErrTooManyRows naming %s", what, err, name)
		}
	}()
	f()
}

// TestRowLimit: crossing the int32 row-id limit is refused by CheckRoom and
// stops an operator with a typed panic, instead of wrapping around.
func TestRowLimit(t *testing.T) {
	SetMaxRows(t, 10)
	r := New("R", bitset.Of(0, 1))
	for i := 0; i < 10; i++ {
		r.Insert([]Value{Value(i), 0})
	}
	if err := r.CheckRoom(0); err != nil {
		t.Fatalf("a full relation has room for nothing more: %v", err)
	}
	if err := r.CheckRoom(1); !errors.Is(err, ErrTooManyRows) || !strings.Contains(err.Error(), "R") {
		t.Fatalf("CheckRoom(1) on a full relation: %v", err)
	}
	if r.Insert([]Value{3, 0}) || r.Size() != 10 {
		t.Fatal("a duplicate is not a new row and must still be accepted at the limit")
	}
	mustPanicTooManyRows(t, "Insert", "R", func() { r.Insert([]Value{10, 0}) })
	if r.Size() != 10 || r.Contains([]Value{10, 0}) {
		t.Fatal("the refused row must leave the relation as it was")
	}
	s := New("S", bitset.Of(1, 2))
	s.Insert([]Value{0, 1})
	s.Insert([]Value{0, 2})
	mustPanicTooManyRows(t, "Join", "(R⋈S)", func() { r.Join(s) })
	u := New("U", bitset.Of(0, 1))
	u.Insert([]Value{99, 99})
	mustPanicTooManyRows(t, "Union", "(R∪U)", func() { r.Union(u) })
	if got := r.Union(r.Clone("R2")).Size(); got != 10 {
		t.Fatalf("a union that fits has %d rows", got)
	}
}
