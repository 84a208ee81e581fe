package panda

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
	"weak"

	"panda/internal/core"
	"panda/internal/query"
)

// sameFreshAnswer fails the test unless got — a statement's answer after
// some writes — is what a fresh db.Query of the same text and options says
// over the same catalog: the same rows, OK and Columns, the same plan (Mode,
// Width, Signature, Bound) and, for a rule, the same model tables.
func sameFreshAnswer(t *testing.T, where string, got, fresh *Result) {
	t.Helper()
	if got.OK != fresh.OK || got.Mode != fresh.Mode || got.Signature != fresh.Signature {
		t.Fatalf("%s: OK %v, mode %v, signature %s; fresh OK %v, mode %v, signature %s",
			where, got.OK, got.Mode, got.Signature, fresh.OK, fresh.Mode, fresh.Signature)
	}
	if got.Width.Cmp(fresh.Width) != 0 || (got.Bound == nil) != (fresh.Bound == nil) ||
		(got.Bound != nil && got.Bound.Cmp(fresh.Bound) != 0) {
		t.Fatalf("%s: width %v, bound %v; fresh width %v, bound %v", where, got.Width, got.Bound, fresh.Width, fresh.Bound)
	}
	if !reflect.DeepEqual(got.Columns, fresh.Columns) {
		t.Fatalf("%s: columns %v, fresh %v", where, got.Columns, fresh.Columns)
	}
	if !reflect.DeepEqual(got.Rows(), fresh.Rows()) {
		t.Fatalf("%s: rows %v\nfresh rows %v", where, got.Rows(), fresh.Rows())
	}
	if len(got.Tables) != len(fresh.Tables) {
		t.Fatalf("%s: %d tables, fresh %d", where, len(got.Tables), len(fresh.Tables))
	}
	for b, ft := range fresh.Tables {
		if gt := got.Tables[b]; gt == nil || !gt.Equal(ft) {
			t.Fatalf("%s: table %v diverges", where, b)
		}
	}
}

// referenced lists the distinct relations a parsed statement reads.
func referenced(res *query.ParseResult) []string {
	var names []string
	for _, a := range res.Rule.Schema.Atoms {
		if !slices.Contains(names, a.Name) {
			names = append(names, a.Name)
		}
	}
	return names
}

// TestStmtRequeryParity re-queries one Stmt after each of 50 writes and
// holds every answer to a fresh db.Query: rows, OK, Columns, Mode, Width,
// Signature, Bound, and a rule's tables. The writes are mostly one or two
// random rows into a relation the statement reads — which advance its memo
// by a maintenance round — mixed with writes to a relation it does not read,
// duplicate-only inserts, and one drop+recreate, which must execute in full.
// The catalog starts small, so every query's answer starts empty and is
// advanced both empty and non-empty — a Boolean one unsatisfied and
// satisfied.
func TestStmtRequeryParity(t *testing.T) {
	const c4 = `Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D), U(D,A).`
	for i, tc := range []struct {
		name, src string
		opts      []Option
	}{
		{"full", triangleSrc, nil},
		{"projection", `Q(A,B) :- R(A,B), S(B,C), T(A,C).`, nil},
		{"boolean", booleanFourCycleSrc, nil},
		{"fhtw", c4, []Option{WithMode(ModeFhtw)}},
		{"subw", c4, []Option{WithMode(ModeSubw)}},
		{"degree", c4 + "\ndeg(R: A,B | A) <= 6", nil},
		{"rule", pathRuleSrc, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const dom = 6 // keeps the declared degree bound true
			db := Open()
			defer db.Close()
			res := createRelationsFor(t, db, tc.src)
			if err := db.CreateRelation("W", 2); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(40 + i)))
			insertRandomBatch(t, db, res, rng, 3, dom)
			st, err := db.Prepare(tc.src, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			rels := referenced(res)
			randomRow := func() []Value { return []Value{Value(rng.Intn(dom)), Value(rng.Intn(dom))} }
			advanced, sawOK := 0, map[bool]bool{}
			for step := 0; step < 50; step++ {
				name := rels[rng.Intn(len(rels))]
				var err error
				switch {
				case step%10 == 3:
					err = db.Insert("W", []Value{Value(step), 0})
				case step%10 == 7:
					err = db.Insert(name, db.catalog[name].Rows()[0])
				case step == 25: // reloaded with half its rows: answers can shrink
					rows := db.catalog[name].Rows()
					if err = db.DropRelation(name); err == nil {
						if err = db.CreateRelation(name, 2); err == nil {
							err = db.Insert(name, append(rows[:len(rows)/2], randomRow())...)
						}
					}
				default:
					err = db.Insert(name, randomRow(), randomRow())
				}
				if err != nil {
					t.Fatal(err)
				}
				got, err := st.Query()
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := db.Query(tc.src, tc.opts...)
				if err != nil {
					t.Fatal(err)
				}
				sameFreshAnswer(t, fmt.Sprintf("step %d", step), got, fresh)
				sawOK[got.OK] = true
				// A full execution's Stats are a fresh run's; a round's are not.
				if !reflect.DeepEqual(got.Stats, fresh.Stats) {
					advanced++
				}
			}
			if res.Conj != nil && advanced == 0 {
				t.Fatal("no query advanced its memo: every one re-executed")
			}
			if res.Conj == nil && advanced != 0 {
				t.Fatalf("%d rule queries did not re-execute", advanced)
			}
			if res.Conj != nil && len(sawOK) != 2 {
				t.Fatalf("the answer was never empty or never non-empty (%v): the fixture must advance both", sawOK)
			}
		})
	}
}

// TestStmtAdvanceDoesLessWork pins that a write to a relation the statement
// reads is answered by a maintenance round, not a re-execution: the full
// 4-cycle's round joins less than a fresh run over the same catalog, and
// reports its own Stats and Timings. A satisfied Boolean query executes
// nothing at all: its round's Stats and engine timings are empty.
func TestStmtAdvanceDoesLessWork(t *testing.T) {
	const full = `Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D), U(D,A).`
	const boolean = `Q() :- R(A,B), S(B,C), T(C,D), U(D,A).`
	db := Open()
	defer db.Close()
	res := createRelationsFor(t, db, full)
	insertRandomBatch(t, db, res, rand.New(rand.NewSource(5)), 80, 20)
	stmts := map[string]*Stmt{}
	for _, src := range []string{full, boolean} {
		st, err := db.Prepare(src, WithStageTimings(true))
		if err != nil {
			t.Fatal(err)
		}
		if r, err := st.Query(); err != nil || !r.OK {
			t.Fatalf("%s: %v, %v; the fixture must satisfy the query", src, r, err)
		}
		stmts[src] = st
	}
	row := []Value{21, 22}
	if err := db.Insert("R", row, []Value{0, 0}); err != nil {
		t.Fatal(err)
	}
	for src, st := range stmts {
		got, err := st.Query()
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := db.Query(src, WithStageTimings(true))
		if err != nil {
			t.Fatal(err)
		}
		sameFreshAnswer(t, src, got, fresh)
		if got.Timings == nil {
			t.Fatalf("%s: a maintained answer under WithStageTimings has no Timings", src)
		}
		if src == full {
			if got.Stats.Joins == 0 || got.Stats.Joins >= fresh.Stats.Joins {
				t.Fatalf("maintained 4-cycle joined %d times, a fresh run %d: want fewer, and some", got.Stats.Joins, fresh.Stats.Joins)
			}
			continue
		}
		if !reflect.DeepEqual(got.Stats, core.NewStats()) || got.Timings.RuleFanout != 0 || got.Timings.Merge != 0 || len(got.Timings.Steps) != 0 {
			t.Fatalf("a satisfied Boolean query executed: stats %+v, timings %+v", got.Stats, got.Timings)
		}
	}
}

// TestStmtMemoKeepsNoDroppedRelation: what a memo keeps of the catalog it
// read is a creation tick per atom, so a relation dropped and reloaded under
// a statement that read it is garbage while the statement and its memo live
// on; the statement's next query sees another relation and executes in full.
func TestStmtMemoKeepsNoDroppedRelation(t *testing.T) {
	db := Open()
	defer db.Close()
	res := createRelationsFor(t, db, triangleSrc)
	insertRandomBatch(t, db, res, rand.New(rand.NewSource(3)), 40, 8)
	st, err := db.Prepare(triangleSrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Query(); err != nil {
		t.Fatal(err)
	}
	rows := db.catalog["R"].Rows()
	dropped := weak.Make(db.catalog["R"])
	if err := db.DropRelation("R"); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateRelation("R", 2); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("R", rows...); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	if dropped.Value() != nil {
		t.Fatal("a dropped relation is still reachable while a statement memo that read it is held")
	}
	got, err := st.Query()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := db.Query(triangleSrc)
	if err != nil {
		t.Fatal(err)
	}
	sameFreshAnswer(t, "reloaded", got, fresh)
	if !reflect.DeepEqual(got.Stats, fresh.Stats) {
		t.Fatalf("the query over the reloaded relation was maintained (stats %+v), not executed in full (%+v)", got.Stats, fresh.Stats)
	}
}

// TestStmtOneRefreshInFlight: eight goroutines that query one Stmt right
// after one insert run one refresh between them — one plan lookup and one
// maintenance round — and all return the answer it published. A caller
// waiting for the refresh in flight gives up when its context does.
func TestStmtOneRefreshInFlight(t *testing.T) {
	db := Open()
	defer db.Close()
	res := createRelationsFor(t, db, triangleSrc)
	insertRandomBatch(t, db, res, rand.New(rand.NewSource(12)), 60, 10)
	st, err := db.Prepare(triangleSrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Query(); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("R", []Value{0, 11}, []Value{11, 1}); err != nil {
		t.Fatal(err)
	}
	before := db.PlannerStats()
	const callers = 8
	got := make([]*Result, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			r, err := st.Query()
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = r
		}()
	}
	close(start)
	wg.Wait()
	after := db.PlannerStats()
	if n := after.Hits + after.Misses - before.Hits - before.Misses; n != 1 {
		t.Fatalf("%d callers after one insert planned %d times: want one refresh", callers, n)
	}
	for i, r := range got {
		if r != got[0] {
			t.Fatalf("caller %d got another answer than caller 0", i)
		}
	}
	fresh, err := db.Query(triangleSrc)
	if err != nil {
		t.Fatal(err)
	}
	sameFreshAnswer(t, "after the insert", got[0], fresh)
	if reflect.DeepEqual(got[0].Stats, fresh.Stats) {
		t.Fatalf("the refresh executed in full (stats %+v): want a maintenance round", got[0].Stats)
	}

	if err := db.Insert("S", []Value{11, 12}); err != nil {
		t.Fatal(err)
	}
	st.flight <- struct{}{} // a refresh in flight
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := st.QueryContext(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waiting for a refresh in flight past the deadline: %v, want %v", err, context.DeadlineExceeded)
	}
	<-st.flight
}

// TestStmtAdvanceConcurrent runs readers of one Stmt against a writer (run it
// with -race): every answer a reader sees holds at least the rows of the one
// it saw before — inserts only add — and no row outside the final answer,
// which equals a fresh db.Query.
func TestStmtAdvanceConcurrent(t *testing.T) {
	db := Open(WithParallelism(2))
	defer db.Close()
	res := createRelationsFor(t, db, triangleSrc)
	rng := rand.New(rand.NewSource(31))
	insertRandomBatch(t, db, res, rng, 10, 6)
	st, err := db.Prepare(triangleSrc)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	seen := make([][]*Result, 3)
	var wg sync.WaitGroup
	for r := range seen {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				got, err := st.Query()
				if err != nil {
					t.Error(err)
					return
				}
				seen[r] = append(seen[r], got)
			}
		}()
	}
	for i := 0; i < 40; i++ {
		name := []string{"R", "S", "T"}[rng.Intn(3)]
		if err := db.Insert(name, []Value{Value(rng.Intn(6)), Value(rng.Intn(6))}); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	final, err := st.Query()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := db.Query(triangleSrc)
	if err != nil {
		t.Fatal(err)
	}
	sameFreshAnswer(t, "final", final, fresh)
	for r, results := range seen {
		var prev *Result
		for k, got := range results {
			if got == prev {
				continue
			}
			for _, row := range got.Rows() {
				if !final.Rel.Contains(row) {
					t.Fatalf("reader %d, answer %d: row %v is in no answer of the final catalog", r, k, row)
				}
			}
			if prev != nil {
				for _, row := range prev.Rows() {
					if !got.Rel.Contains(row) {
						t.Fatalf("reader %d, answer %d: lost row %v", r, k, row)
					}
				}
			}
			prev = got
		}
	}
}
