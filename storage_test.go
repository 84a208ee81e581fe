package panda

import (
	"reflect"
	"testing"
)

// Tests for the interned columnar storage engine as seen through the
// facade: the streaming iterator API must agree byte for byte with the
// deprecated materializing accessors, and the statement-level result memo
// must key on the referenced relations' catalog ticks.

// TestResultIterMatchesRows: for every golden fixture × execution shape
// (sequential and partitioned), Result.Iter must yield exactly the tuples
// Result.Rows materializes, in the same deterministic sorted order. Iter
// reuses one decode buffer per step, so the test copies each yield — the
// documented contract.
func TestResultIterMatchesRows(t *testing.T) {
	for _, fx := range partitionFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			db := Open()
			defer db.Close()
			fx.load(t, db)
			for _, opts := range [][]Option{
				fx.opts,
				append([]Option{WithPartitions(3)}, fx.opts...),
			} {
				res, err := db.Query(fx.src, opts...)
				if err != nil {
					t.Fatal(err)
				}
				want := res.Rows()
				var got [][]Value
				for row := range res.Iter() {
					got = append(got, append([]Value(nil), row...))
				}
				if len(want) == 0 && len(got) == 0 {
					continue // Boolean fixture: no output relation
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("Iter yields %d rows, Rows materializes %d — or contents/order diverge", len(got), len(want))
				}
			}
		})
	}
}

// TestStmtResultMemo pins the statement-level result memo: repeated
// queries over an unchanged catalog return the identical cached Result; a
// mutation to an unrelated relation leaves the memo intact; a mutation to
// a referenced relation invalidates it and the re-executed result reflects
// the new data. Options are part of the memo key, so a run with different
// options never serves another configuration's cache entry.
func TestStmtResultMemo(t *testing.T) {
	db := Open()
	defer db.Close()
	for name, arity := range map[string]int{"R": 2, "S": 2, "T": 2, "U": 2} {
		if err := db.CreateRelation(name, arity); err != nil {
			t.Fatal(err)
		}
	}
	for _, row := range [][]Value{{1, 2}, {2, 3}} {
		for _, name := range []string{"R", "S"} {
			if err := db.Insert(name, row); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Insert("T", []Value{1, 3}); err != nil {
		t.Fatal(err)
	}
	st, err := db.Prepare(`Q(A,B,C) :- R(A,B), S(B,C), T(A,C).`)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := st.Query()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := st.Query()
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("repeat query over an unchanged catalog re-executed instead of serving the memoized result")
	}
	// A different option set must not be served from the other entry's memo.
	r3, err := st.Query(WithTrace(true))
	if err != nil {
		t.Fatal(err)
	}
	if r3 == r2 {
		t.Fatal("a traced run was served the untraced memo entry")
	}
	// Unrelated mutation: per-relation tick granularity keeps the memo.
	if err := db.Insert("U", []Value{9, 9}); err != nil {
		t.Fatal(err)
	}
	r4, err := st.Query(WithTrace(true))
	if err != nil {
		t.Fatal(err)
	}
	if r4 != r3 {
		t.Fatal("insert into an unreferenced relation invalidated the result memo")
	}
	// Referenced mutation: the memo must drop and the new result must see
	// the new tuple.
	if err := db.Insert("T", []Value{2, 1}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("S", []Value{3, 1}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("R", []Value{2, 3}); err != nil {
		t.Fatal(err)
	}
	r5, err := st.Query(WithTrace(true))
	if err != nil {
		t.Fatal(err)
	}
	if r5 == r4 {
		t.Fatal("insert into a referenced relation did not invalidate the result memo")
	}
	if !reflect.DeepEqual(r5.Rows(), [][]Value{{1, 2, 3}, {2, 3, 1}}) {
		t.Fatalf("re-executed result is stale: %v", r5.Rows())
	}
	// Duplicate-only insert: contents unchanged, tick mark unchanged — the
	// memo survives (the Stamp no-op contract).
	if err := db.Insert("T", []Value{2, 1}); err != nil {
		t.Fatal(err)
	}
	r6, err := st.Query(WithTrace(true))
	if err != nil {
		t.Fatal(err)
	}
	if r6 != r5 {
		t.Fatal("duplicate-only insert invalidated the result memo")
	}
}
