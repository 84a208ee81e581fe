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
	// A full query's answer is Rel alone: PANDA's model is an intermediate of
	// the semijoin reduction, so the memoized Result holds none of it.
	if r2.Mode != ModeFull || r2.Tables != nil || r2.Bound == nil || r2.Bound.Cmp(r2.Width) != 0 {
		t.Fatalf("memoized full-query result: mode %v, %d tables, bound %v, width %v; want ModeFull, no tables, bound = width",
			r2.Mode, len(r2.Tables), r2.Bound, r2.Width)
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

// TestMemoizedResultIsCompact: what a Stmt memoizes is trimmed to what
// reading it takes, and still answers like any relation. A rule answered by
// its base case returns a table that *is* the bound snapshot of a catalog
// relation — trimming it must not reach the catalog's storage, and the
// catalog must go on deduplicating.
func TestMemoizedResultIsCompact(t *testing.T) {
	db := Open()
	defer db.Close()
	for _, name := range []string{"R", "S"} {
		if err := db.CreateRelation(name, 2); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ {
		if err := db.Insert("R", []Value{Value(i), Value(i % 7)}); err != nil {
			t.Fatal(err)
		}
	}
	for j := 0; j < 7; j++ {
		if err := db.Insert("S", []Value{Value(j), Value(j + 100)}); err != nil {
			t.Fatal(err)
		}
	}
	catalogColumn := &db.catalog["R"].Column(0)[0]

	rule, err := db.Prepare("T1(A,B) v T2(B,C) :- R(A,B), S(B,C).")
	if err != nil {
		t.Fatal(err)
	}
	res, err := rule.Query()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.BaseCases != 1 {
		t.Fatalf("precondition: the rule should be answered by its base case, stats %+v", res.Stats)
	}
	var shared *Relation
	for _, tab := range res.Tables {
		if tab.Size() == 300 && &tab.Column(0)[0] == catalogColumn {
			shared = tab
		}
	}
	if shared == nil {
		t.Fatal("precondition: no table of the rule's model shares the catalog relation's storage")
	}
	if &db.catalog["R"].Column(0)[0] != catalogColumn {
		t.Fatal("memoizing the result moved the catalog relation's column")
	}
	if again, _ := rule.Query(); again != res {
		t.Fatal("result was not memoized")
	}
	// The catalog still knows its rows (a dropped dedup table would accept
	// the duplicate), and the memoized table does not see the new one.
	if err := db.Insert("R", []Value{5, 5}, []Value{-1, -1}); err != nil {
		t.Fatal(err)
	}
	if n := db.catalog["R"].Size(); n != 301 {
		t.Fatalf("catalog relation has %d rows after a duplicate and a fresh insert, want 301", n)
	}
	if shared.Size() != 300 || shared.Contains([]Value{-1, -1}) || !shared.Contains([]Value{5, 5}) {
		t.Fatal("the memoized table changed with the catalog")
	}

	// A computed answer: every read path is still right after the trim
	// (internal/relation's TestCompact checks what the trim frees).
	st, err := db.Prepare("Q(A,B,C) :- R(A,B), S(B,C).")
	if err != nil {
		t.Fatal(err)
	}
	res, err = st.Query()
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 301-1 { // (-1,-1) joins nothing
		t.Fatalf("join has %d rows, want 300", res.Size())
	}
	rows := res.Rows()
	if !res.Rel.Contains(rows[17]) || res.Rel.Contains([]Value{-1, -1, -1}) {
		t.Fatal("Contains wrong on a memoized result")
	}
	clone := res.Rel.Clone("clone")
	if !res.Rel.Equal(clone) || !clone.Equal(res.Rel) {
		t.Fatal("Equal wrong on a memoized result")
	}
	if u := res.Rel.Union(clone); u.Size() != res.Size() {
		t.Fatalf("Union with itself has %d rows, want %d", u.Size(), res.Size())
	}
}
