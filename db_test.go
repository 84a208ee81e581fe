package panda

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// loadCatalog copies an instance's relations into the session catalog,
// rows in ascending-variable column order (the instance convention).
func loadCatalog(t *testing.T, db *DB, s *Schema, ins *Instance) {
	t.Helper()
	for i, a := range s.Atoms {
		if err := db.CreateRelation(a.Name, a.Vars.Card()); err != nil && !errors.Is(err, ErrRelationExists) {
			t.Fatal(err)
		}
		if err := db.Insert(a.Name, ins.Relations[i].Rows()...); err != nil {
			t.Fatal(err)
		}
	}
}

// fourCycleSrc writes the 4-cycle in ascending-variable argument order so
// catalog columns line up with the workload instance's storage.
const fourCycleSrc = `Q(A1,A2,A3,A4) :- R12(A1,A2), R23(A2,A3), R34(A3,A4), R41(A1,A4).`
const booleanFourCycleSrc = `Q() :- R12(A1,A2), R23(A2,A3), R34(A3,A4), R41(A1,A4).`
const triangleSrc = `Q(A,B,C) :- R(A,B), S(B,C), T(A,C).`
const pathRuleSrc = `T1(A1,A2,A3) v T2(A2,A3,A4) :- R12(A1,A2), R23(A2,A3), R34(A3,A4).`

// TestDBRenamedQueryCacheHit: a query that merely renames variables is
// answered from the plan cache with zero additional LP solves.
func TestDBRenamedQueryCacheHit(t *testing.T) {
	q := TriangleQuery()
	ins := RandomInstance(11, &q.Schema, 40, 10)
	db := Open(WithPlannerCapacity(8))
	defer db.Close()
	loadCatalog(t, db, &q.Schema, ins)

	first, err := db.Query(triangleSrc)
	if err != nil {
		t.Fatal(err)
	}
	s0 := db.PlannerStats()
	if s0.Misses == 0 || s0.LPSolves == 0 {
		t.Fatalf("first query should have planned: %v", s0)
	}
	renamed, err := db.Query(`Q(X,Y,Z) :- R(X,Y), S(Y,Z), T(X,Z).`)
	if err != nil {
		t.Fatal(err)
	}
	s1 := db.PlannerStats()
	if s1.Hits != s0.Hits+1 || s1.Misses != s0.Misses || s1.LPSolves != s0.LPSolves || s1.PlansBuilt != s0.PlansBuilt {
		t.Fatalf("renamed query was not a free cache hit: %v then %v", s0, s1)
	}
	if !reflect.DeepEqual(first.Rows(), renamed.Rows()) {
		t.Fatal("renamed query answer diverges")
	}
}

// TestInsertAtomic: a batch containing an arity error inserts nothing — a
// partial insert would mutate the catalog without bumping its version, so
// cached statement snapshots and fresh queries would see different data.
func TestInsertAtomic(t *testing.T) {
	db := Open()
	defer db.Close()
	if err := db.CreateRelation("R", 2); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("R", []Value{1, 2}, []Value{3}); !errors.Is(err, ErrArity) {
		t.Fatalf("mixed-arity batch: got %v, want ErrArity", err)
	}
	infos, err := db.Relations()
	if err != nil {
		t.Fatal(err)
	}
	if infos[0].Size != 0 {
		t.Fatalf("failed batch left %d rows behind", infos[0].Size)
	}
}

// TestDBCatalog exercises the catalog lifecycle and its sentinel errors.
func TestDBCatalog(t *testing.T) {
	db := Open()
	if err := db.CreateRelation("R", 2); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateRelation("R", 2); !errors.Is(err, ErrRelationExists) {
		t.Fatalf("duplicate create: %v", err)
	}
	if err := db.CreateRelation("bad", 0); !errors.Is(err, ErrArity) {
		t.Fatalf("zero arity: %v", err)
	}
	if err := db.Insert("R", []Value{1, 2}, []Value{1, 2}, []Value{3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("R", []Value{1}); !errors.Is(err, ErrArity) {
		t.Fatalf("bad arity insert: %v", err)
	}
	if err := db.Insert("missing", []Value{1, 2}); !errors.Is(err, ErrUnknownRelation) {
		t.Fatalf("insert into missing: %v", err)
	}
	infos, err := db.Relations()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != "R" || infos[0].Arity != 2 || infos[0].Size != 2 {
		t.Fatalf("catalog: %+v", infos)
	}
	if err := db.DropRelation("R"); err != nil {
		t.Fatal(err)
	}
	if err := db.DropRelation("R"); !errors.Is(err, ErrUnknownRelation) {
		t.Fatalf("double drop: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateRelation("S", 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("create after close: %v", err)
	}
	if _, err := db.Query("Q(A,B) :- S(A,B)."); !errors.Is(err, ErrClosed) {
		t.Fatalf("query after close: %v", err)
	}
	if _, err := db.Relations(); !errors.Is(err, ErrClosed) {
		t.Fatalf("relations after close: %v", err)
	}
}

// TestDBLoadCSV: reader ingest with comments, dedupe and inferred arity;
// mismatched rows fail with ErrArity.
func TestDBLoadCSV(t *testing.T) {
	db := Open()
	defer db.Close()
	n, err := db.LoadCSV("R", strings.NewReader("1,2\n# comment\n\n 1 , 2 \n3,4\n"))
	if err != nil || n != 3 {
		t.Fatalf("LoadCSV: n=%d err=%v", n, err)
	}
	infos, err := db.Relations()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Arity != 2 || infos[0].Size != 2 { // dedupe kept 2
		t.Fatalf("after CSV: %+v", infos)
	}
	if _, err := db.LoadCSV("R", strings.NewReader("1,2,3\n")); !errors.Is(err, ErrArity) {
		t.Fatalf("ragged row: %v", err)
	}
	if _, err := db.LoadCSV("X", strings.NewReader("1,z\n")); err == nil {
		t.Fatal("non-integer accepted")
	}
	// Failed loads are atomic: no partial rows, no auto-created relation.
	if _, err := db.LoadCSV("R", strings.NewReader("9,9\n1,2,3\n")); !errors.Is(err, ErrArity) {
		t.Fatalf("ragged file: %v", err)
	}
	got, err := db.Relations()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Size != 2 {
		t.Fatalf("failed load was not atomic: %+v", got)
	}
}

// TestStmtSnapshotInvalidation: a prepared statement reuses its bound
// snapshot while the catalog is unchanged and rebinds after a mutation.
func TestStmtSnapshotInvalidation(t *testing.T) {
	db := Open()
	defer db.Close()
	if err := db.CreateRelation("R", 2); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("R", []Value{1, 2}); err != nil {
		t.Fatal(err)
	}
	stmt, err := db.Prepare("Q(A,B) :- R(A,B).")
	if err != nil {
		t.Fatal(err)
	}
	r1, err := stmt.Query()
	if err != nil || r1.Size() != 1 {
		t.Fatalf("first query: %v %v", r1, err)
	}
	r2, err := stmt.Query()
	if err != nil || r2.Size() != 1 {
		t.Fatalf("cached query: %v %v", r2, err)
	}
	if err := db.Insert("R", []Value{3, 4}); err != nil {
		t.Fatal(err)
	}
	r3, err := stmt.Query()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r3.Rows(), [][]Value{{1, 2}, {3, 4}}) {
		t.Fatalf("snapshot not invalidated by insert: %v", r3.Rows())
	}
	if err := db.DropRelation("R"); err != nil {
		t.Fatal(err)
	}
	if _, err := stmt.Query(); !errors.Is(err, ErrUnknownRelation) {
		t.Fatalf("query after drop: %v", err)
	}
}

// TestDBLoadCSVDir: the data-dir convention loads one relation per file.
func TestDBLoadCSVDir(t *testing.T) {
	dir := t.TempDir()
	for name, body := range map[string]string{"R.csv": "1,2\n", "S.csv": "2,3\n2,4\n"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	db := Open()
	defer db.Close()
	if err := db.LoadCSVDir(dir); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("Q(A,B,C) :- R(A,B), S(B,C).")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Rows(), [][]Value{{1, 2, 3}, {1, 2, 4}}) {
		t.Fatalf("rows: %v", res.Rows())
	}
	if err := db.LoadCSVDir(t.TempDir()); err == nil {
		t.Fatal("empty dir accepted")
	}
}

// TestDBSentinelErrors: the query path reports structured errors callers
// can dispatch on with errors.Is.
func TestDBSentinelErrors(t *testing.T) {
	db := Open()
	defer db.Close()
	if _, err := db.Prepare("Q(A,B) :- R(A,B)."); !errors.Is(err, ErrUnknownRelation) {
		t.Fatalf("unknown relation: %v", err)
	}
	if err := db.CreateRelation("R", 3); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Prepare("Q(A,B) :- R(A,B)."); !errors.Is(err, ErrArity) {
		t.Fatalf("arity mismatch: %v", err)
	}
	if err := db.DropRelation("R"); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateRelation("R", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Prepare("T1(A) v T2(B) :- R(A,B).", WithMode(ModeSubw)); !errors.Is(err, ErrNotConjunctive) {
		t.Fatalf("mode on rule: %v", err)
	}
	if _, err := db.Query("Q(A) :- R(A,B).", WithMode(ModeFull)); err == nil {
		t.Fatal("ModeFull accepted a projection query")
	}
	// Planning without cardinality constraints leaves the LP unbounded.
	if _, err := db.PlanContext(context.Background(), TriangleQuery(), nil, nil); !errors.Is(err, ErrUnboundedLP) {
		t.Fatalf("unbounded LP: %v", err)
	}
	q := PathRule()
	if _, err := RuleBound(q, []Constraint{Cardinality(Vars(0, 1), 8, 0)}); !errors.Is(err, ErrUnboundedLP) {
		t.Fatalf("unbounded rule bound: %v", err)
	}
}

// TestDBArgumentOrderBinding: atom argument order is honored when binding
// catalog rows — R(B,A) reads stored columns as (B, A).
func TestDBArgumentOrderBinding(t *testing.T) {
	db := Open()
	defer db.Close()
	if err := db.CreateRelation("R", 2); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("R", []Value{1, 2}); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("Q(A,B) :- R(B,A).")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Rows(), [][]Value{{2, 1}}) {
		t.Fatalf("argument order ignored: %v", res.Rows())
	}
	// A repeated variable is the diagonal selection.
	if err := db.Insert("R", []Value{5, 5}); err != nil {
		t.Fatal(err)
	}
	diag, err := db.Query("Q(A) :- R(A,A).")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(diag.Rows(), [][]Value{{5}}) {
		t.Fatalf("diagonal selection: %v", diag.Rows())
	}
}

// TestDBConcurrent: concurrent Query, Prepare+Query and Insert traffic on
// one session is race-free (run under -race in CI) and stays correct. The
// writes go to a relation the query does not reference: mutating a
// referenced relation changes its instance-derived cardinality constraint,
// which is part of the plan-cache key, so those queries would replan (by
// design) and the hit-count assertion would depend on scheduling.
func TestDBConcurrent(t *testing.T) {
	q := TriangleQuery()
	ins := RandomInstance(21, &q.Schema, 30, 8)
	db := Open()
	defer db.Close()
	loadCatalog(t, db, &q.Schema, ins)
	if err := db.CreateRelation("W", 2); err != nil {
		t.Fatal(err)
	}
	stmt, err := db.Prepare(triangleSrc)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		g := g
		go func() {
			for i := 0; i < 4; i++ {
				if g%2 == 0 {
					if _, err := db.Query(triangleSrc); err != nil {
						done <- err
						return
					}
				} else {
					if _, err := stmt.Query(); err != nil {
						done <- err
						return
					}
				}
				if err := db.Insert("W", []Value{Value(100 + g), Value(200 + i)}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	st := db.PlannerStats()
	// The 16 db.Query calls each consult the planner (fresh Stmt per call);
	// the prepared statement consults it between 1 and 16 times — once its
	// result memo warms, repeated stmt.Query calls over the unchanged
	// referenced relations skip planning (and execution) entirely, and how
	// many calls race ahead of the first memo store depends on scheduling.
	if st.Misses != 1 {
		t.Fatalf("32 queries over an unchanged catalog should plan once: %v", st)
	}
	if st.Hits < 16 || st.Hits > 31 {
		t.Fatalf("expected 16–31 plan-cache hits (db.Query path + pre-memo stmt calls): %v", st)
	}
}

// TestDuplicateOnlyWriteIsNoOp: an Insert or CSV load that adds no new tuple
// — an at-least-once feed re-sending a batch — leaves the catalog exactly as
// it was: the version does not advance, no watch maintainer is woken, the
// statement memo and the watch keep their state and no delta is emitted. A
// write with one fresh row among the duplicates still does all of it.
func TestDuplicateOnlyWriteIsNoOp(t *testing.T) {
	db := Open()
	defer db.Close()
	if _, err := db.LoadCSV("R", strings.NewReader("1,2\n2,3\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.LoadCSV("S", strings.NewReader("2,5\n3,6\n")); err != nil {
		t.Fatal(err)
	}
	st, err := db.Prepare(`Q(A,B,C) :- R(A,B), S(B,C).`)
	if err != nil {
		t.Fatal(err)
	}
	memo, err := st.Query()
	if err != nil {
		t.Fatal(err)
	}
	w, err := st.Watch()
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	wake := db.changes()
	version := func() uint64 {
		db.mu.RLock()
		defer db.mu.RUnlock()
		return db.version
	}
	v0, tick0, stats0 := version(), w.Tick(), w.Stats()

	if err := db.Insert("R", []Value{1, 2}, []Value{2, 3}); err != nil {
		t.Fatal(err)
	}
	if n, err := db.LoadCSV("S", strings.NewReader("3,6\n2,5\n")); err != nil || n != 2 {
		t.Fatalf("duplicate CSV load: %d rows, %v", n, err)
	}
	if err := db.Insert("R"); err != nil { // no rows at all
		t.Fatal(err)
	}
	if v := version(); v != v0 {
		t.Errorf("duplicate-only writes advanced the catalog version %d → %d", v0, v)
	}
	select {
	case <-wake:
		t.Error("duplicate-only writes woke the watch maintainers")
	default:
	}
	if again, err := st.Query(); err != nil || again != memo {
		t.Errorf("duplicate-only writes dropped the result memo (%v)", err)
	}
	if w.Tick() != tick0 || w.Stats() != stats0 {
		t.Errorf("duplicate-only writes moved the watch: tick %d → %d, stats %+v → %+v", tick0, w.Tick(), stats0, w.Stats())
	}
	select {
	case d := <-w.Deltas():
		t.Errorf("duplicate-only writes emitted a delta: %+v", d)
	default:
	}

	// One fresh row among duplicates is a real write.
	if err := db.Insert("R", []Value{1, 2}, []Value{7, 2}); err != nil {
		t.Fatal(err)
	}
	if v := version(); v != v0+1 {
		t.Errorf("fresh-row insert: version %d, want %d", v, v0+1)
	}
	select {
	case <-wake:
	default:
		t.Error("fresh-row insert woke nobody")
	}
	fresh, err := st.Query()
	if err != nil || fresh == memo || fresh.Size() != memo.Size()+1 {
		t.Fatalf("fresh-row insert not visible to the statement (%v)", err)
	}
	waitTick(t, w, v0+1)
	if d := <-w.Deltas(); !reflect.DeepEqual(d.Rows, [][]Value{{7, 2, 5}}) {
		t.Errorf("delta after the fresh row: %+v, want the one new answer (7,2,5)", d)
	}
}
