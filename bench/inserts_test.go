package main

import (
	"testing"

	"panda"
	"panda/internal/relation"
)

// Every generated insert must move the relation's tick. A duplicate-only
// insert is a no-op (Stamp keeps the old tick at an unchanged row count), the
// Stmt memos survive it, and a read/write workload quietly becomes read-only.
func TestFreshRowsMoveTheTick(t *testing.T) {
	const n, dom = 150, 30
	cat, fresh := serveCatalog(9, n, dom)
	for _, name := range catalogNames {
		r := buildRelation(name, cat[name])
		tick := uint64(1)
		r.Stamp(tick)
		for i := 0; i < dom*dom-n; i++ {
			row, ok := fresh.next(name)
			if !ok {
				t.Fatalf("%s: generator ran dry after %d of %d fresh rows", name, i, dom*dom-n)
			}
			if r.Contains(row) {
				t.Fatalf("%s: row %v is already present", name, row)
			}
			r.Insert(row)
			tick++
			r.Stamp(tick)
			if r.Tick() != tick {
				t.Fatalf("%s: insert %d of %v left the tick at %d", name, i, row, r.Tick())
			}
		}
		if _, ok := fresh.next(name); ok {
			t.Errorf("%s: the domain is full but the generator still had a row", name)
		}
		// The contrast the generator exists for: re-inserting a present row.
		r.Insert(cat[name][0])
		r.Stamp(tick + 1)
		if r.Tick() != tick {
			t.Errorf("%s: a duplicate insert moved the tick", name)
		}
	}
}

// The same property seen from where the workload stands: after every fresh
// insert a prepared statement re-executes (a new *Result); after a duplicate
// insert it answers from its memo (the same *Result).
func TestFreshRowsDefeatTheResultMemo(t *testing.T) {
	const dom = 12
	cat, fresh := serveCatalog(10, 30, dom)
	db, err := loadDB(cat)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	st, err := db.Prepare(serveShapes[2].src) // reads R, S, T and U
	if err != nil {
		t.Fatal(err)
	}
	last, err := st.Query()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		name := catalogNames[i%len(catalogNames)]
		row, _ := fresh.next(name)
		if err := db.Insert(name, row); err != nil {
			t.Fatal(err)
		}
		res, err := st.Query()
		if err != nil {
			t.Fatal(err)
		}
		if res == last {
			t.Fatalf("insert %d (%s %v) was answered from the result memo", i, name, row)
		}
		last = res
	}
	if err := db.Insert("R", []panda.Value(cat["R"][0])); err != nil {
		t.Fatal(err)
	}
	if res, _ := st.Query(); res != last {
		t.Error("a duplicate-only insert evicted the result memo: the no-op contract this generator guards against has changed")
	}
}

// Same seed, same rows in the same order; another seed, other rows.
func TestFreshRowsAreSeeded(t *testing.T) {
	draw := func(seed int64) [][]relation.Value {
		_, fresh := serveCatalog(seed, 20, 10)
		var out [][]relation.Value
		for i := 0; i < 16; i++ {
			row, _ := fresh.next(catalogNames[i%4])
			out = append(out, row)
		}
		return out
	}
	a, b, c := draw(1), draw(1), draw(2)
	same := func(x, y [][]relation.Value) bool {
		for i := range x {
			if x[i][0] != y[i][0] || x[i][1] != y[i][1] {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Error("one seed gave two insert sequences")
	}
	if same(a, c) {
		t.Error("two seeds gave one insert sequence")
	}
}
