package panda

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"panda/internal/query"
)

// createRelationsFor parses src and creates every body relation (empty)
// in the catalog, so a statement over src can be prepared immediately.
func createRelationsFor(t testing.TB, db *DB, src string) *query.ParseResult {
	t.Helper()
	res, err := query.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	s := &res.Rule.Schema
	for i, a := range s.Atoms {
		if err := db.CreateRelation(a.Name, s.Arity(i)); err != nil && !errors.Is(err, ErrRelationExists) {
			t.Fatal(err)
		}
	}
	return res
}

// waitTick polls until the watch's materialization reflects at least the
// given catalog tick (the maintainer runs asynchronously).
func waitTick(t testing.TB, w *Watch, tick uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for w.Tick() < tick {
		if time.Now().After(deadline) {
			t.Fatalf("watch stuck at tick %d, want ≥ %d (err: %v)", w.Tick(), tick, w.Err())
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// insertRandomBatch inserts n random tuples into every relation the parsed
// schema references.
func insertRandomBatch(t testing.TB, db *DB, res *query.ParseResult, rng *rand.Rand, n, dom int) {
	t.Helper()
	s := &res.Rule.Schema
	seen := map[string]bool{}
	for i, a := range s.Atoms {
		if seen[a.Name] {
			continue
		}
		seen[a.Name] = true
		var rows [][]Value
		for k := 0; k < n; k++ {
			row := make([]Value, s.Arity(i))
			for j := range row {
				row[j] = Value(rng.Intn(dom))
			}
			rows = append(rows, row)
		}
		if err := db.Insert(a.Name, rows...); err != nil {
			t.Fatal(err)
		}
	}
}

// deltaApplier replays a watch's emission stream into a client-side
// materialization, exactly as a subscriber would: merge rows, replace on
// Resync.
type deltaApplier struct {
	rows   map[string]bool
	ok     bool
	tables map[Set]*Relation
}

func newDeltaApplier(snapshot *Result) *deltaApplier {
	a := &deltaApplier{rows: map[string]bool{}, ok: snapshot.OK, tables: snapshot.Tables}
	for _, r := range snapshot.Rows() {
		a.rows[fmt.Sprint(r)] = true
	}
	return a
}

func (a *deltaApplier) apply(d WatchDelta) {
	if d.Resync {
		a.rows = map[string]bool{}
		a.tables = d.Tables
	}
	for _, r := range d.Rows {
		a.rows[fmt.Sprint(r)] = true
	}
	a.ok = d.OK
}

func (a *deltaApplier) drain(w *Watch) {
	for {
		select {
		case d, ok := <-w.Deltas():
			if !ok {
				return
			}
			a.apply(d)
		default:
			return
		}
	}
}

// testWatchParity drives insert batches against a standing query and a
// fresh db.Query after every batch, asserting byte-identical rows — both
// for the watch's own materialization and for a client reconstructing the
// state from the delta stream.
func testWatchParity(t *testing.T, src string, seed int64, opts ...Option) {
	db := Open()
	defer db.Close()
	res := createRelationsFor(t, db, src)
	rng := rand.New(rand.NewSource(seed))
	insertRandomBatch(t, db, res, rng, 12, 5)

	w, err := db.Watch(src, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	applier := newDeltaApplier(w.Result())
	sameBatches := 0 // rule watches: batches whose fresh query ran the pinned proof sequence

	for batch := 0; batch < 6; batch++ {
		insertRandomBatch(t, db, res, rng, 4+rng.Intn(6), 5)
		target, err := db.schemaTick(&res.Rule.Schema)
		if err != nil {
			t.Fatal(err)
		}
		waitTick(t, w, target)

		fresh, err := db.Query(src)
		if err != nil {
			t.Fatal(err)
		}
		got := w.Result()
		if got.OK != fresh.OK {
			t.Fatalf("batch %d: watch OK=%v, fresh OK=%v", batch, got.OK, fresh.OK)
		}
		if !reflect.DeepEqual(got.Rows(), fresh.Rows()) {
			t.Fatalf("batch %d: watch rows %v\nfresh rows %v", batch, got.Rows(), fresh.Rows())
		}
		if !reflect.DeepEqual(got.Columns, fresh.Columns) {
			t.Fatalf("batch %d: watch columns %v, fresh %v", batch, got.Columns, fresh.Columns)
		}
		// Rule watches: the complete model tables must match too. The watch
		// runs the plan it pinned at open; a fresh db.Query runs the plan of
		// the catalog's cardinalities of now: the canonical plan of another
		// key, which for a rule with a symmetry (the path's reversal) may be
		// the mirrored proof sequence, answering with another model. So the
		// watch's tables are a model of the rule over the catalog, equal the
		// pinned plan's executed afresh, and equal the fresh query's whenever
		// it runs the pinned proof sequence.
		if fresh.Mode == ModeRule {
			w.mu.Lock()
			pinned := w.memo
			w.mu.Unlock()
			again, _, err := w.st.refresh(context.Background(), nil, pinned.cfg, pinned.plan)
			if err != nil {
				t.Fatal(err)
			}
			b, err := w.st.bind(nil)
			if err != nil {
				t.Fatal(err)
			}
			fp, err := db.prepare(context.Background(), nil, w.st.res.Rule, b.ins, w.st.res.Constraints, db.defaults)
			if err != nil {
				t.Fatal(err)
			}
			fr, pr := *fp.Rules[0], *pinned.plan.Rules[0]
			fr.Bound, pr.Bound = nil, nil // a price of the sizes, not a step of the plan
			samePlan := reflect.DeepEqual(fr, pr)
			if samePlan {
				sameBatches++
			}
			if len(got.Tables) != len(fresh.Tables) || len(got.Tables) != len(again.res.Tables) {
				t.Fatalf("batch %d: watch has %d tables, fresh %d, the pinned plan afresh %d", batch, len(got.Tables), len(fresh.Tables), len(again.res.Tables))
			}
			if ok, err := b.ins.IsModel(w.st.res.Rule, got.Tables); err != nil || !ok {
				t.Fatalf("batch %d: watch tables are not a model: %v %v", batch, ok, err)
			}
			for bs, at := range again.res.Tables {
				gt := got.Tables[bs]
				if gt == nil || !gt.Equal(at) {
					t.Fatalf("batch %d: table %v diverges from the pinned plan's", batch, bs)
				}
				if ft := fresh.Tables[bs]; samePlan && (ft == nil || !gt.Equal(ft)) {
					t.Fatalf("batch %d: table %v diverges from the fresh query's, which ran the pinned proof sequence", batch, bs)
				}
			}
		}

		// The delta stream must reconstruct the same state. A non-blocking
		// drain is enough, and must stay enough: Tick() ≥ target means every
		// delta up to target is already in the channel (Watch.Tick's
		// contract).
		applier.drain(w)
		if applier.ok != fresh.OK {
			t.Fatalf("batch %d: applied OK=%v, fresh OK=%v", batch, applier.ok, fresh.OK)
		}
		if fresh.Rel != nil {
			if len(applier.rows) != fresh.Size() {
				t.Fatalf("batch %d: applied %d rows, fresh %d", batch, len(applier.rows), fresh.Size())
			}
			for _, r := range fresh.Rows() {
				if !applier.rows[fmt.Sprint(r)] {
					t.Fatalf("batch %d: applied stream missing row %v", batch, r)
				}
			}
		}
	}
	if st := w.Stats(); st.IncrRounds+st.FullRounds == 0 {
		t.Fatal("watch performed no maintenance rounds")
	}
	if w.Result().Mode == ModeRule && sameBatches == 0 {
		t.Fatal("no batch compared the watch's tables with a fresh query's")
	}
}

func TestWatchParityTriangle(t *testing.T) {
	testWatchParity(t, triangleSrc, 11)
}

func TestWatchParityFourCycle(t *testing.T) {
	testWatchParity(t, fourCycleSrc, 12)
}

func TestWatchParityBooleanFourCycle(t *testing.T) {
	testWatchParity(t, booleanFourCycleSrc, 13)
}

func TestWatchParityPathRule(t *testing.T) {
	testWatchParity(t, pathRuleSrc, 14)
}

func TestWatchParityProjection(t *testing.T) {
	testWatchParity(t, `Q(A,B) :- R(A,B), S(B,C), T(A,C).`, 15)
}

// The sources below have atoms whose delta does not bind as a plain column
// snapshot of the rows that arrived: one relation read by several atoms (each
// round's batch is the delta of every one of them), declared argument order
// against variable order, and a repeated variable's selection.

func TestWatchParitySelfJoin(t *testing.T) {
	testWatchParity(t, `Q(A,C) :- R(A,B), R(B,C).`, 16)
}

func TestWatchParityPermutedAtom(t *testing.T) {
	testWatchParity(t, `Q(A,B,C) :- R(B,A), S(B,C), T(C,A).`, 17)
}

func TestWatchParityRepeatedVariable(t *testing.T) {
	testWatchParity(t, `Q(A,B) :- R(A,A), S(A,B).`, 18)
}

func TestWatchParityBooleanSelfJoinTriangle(t *testing.T) {
	testWatchParity(t, `Q() :- E(A,B), E(B,C), E(C,A).`, 19)
}

// TestWatchZeroPlanningAfterOpen pins the pinned-plan guarantee, for a
// conjunctive query and for Example 1.4's rule alike: once the watch is
// open, maintenance rounds perform no planner work at all. A rule watch
// re-executes its pinned plan every round and resyncs the whole model; the
// plan's cardinalities are the open-time ones, which bounds its runtime
// guarantee, not its answer — every resync must still be a model of the
// catalog at its tick.
func TestWatchZeroPlanningAfterOpen(t *testing.T) {
	for _, src := range []string{triangleSrc, pathRuleSrc} {
		t.Run(src, func(t *testing.T) {
			db := Open()
			defer db.Close()
			res := createRelationsFor(t, db, src)
			rng := rand.New(rand.NewSource(21))
			insertRandomBatch(t, db, res, rng, 10, 5)

			w, err := db.Watch(src)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			before := db.PlannerStats()

			for batch := 0; batch < 5; batch++ {
				insertRandomBatch(t, db, res, rng, 5, 5)
				s := &res.Rule.Schema
				target, err := db.schemaTick(s)
				if err != nil {
					t.Fatal(err)
				}
				waitTick(t, w, target)
				if res.Conj != nil {
					continue
				}
				b, err := db.bind(s, nil)
				if err != nil {
					t.Fatal(err)
				}
				for d := range w.Deltas() { // earlier ticks are mid-batch states
					if d.Tick < target {
						continue
					}
					if ok, err := b.ins.IsModel(res.Rule, d.Tables); !d.Resync || err != nil || !ok {
						t.Fatalf("batch %d: resync=%v, model=%v (%v)", batch, d.Resync, ok, err)
					}
					break
				}
			}
			after := db.PlannerStats()
			if after.LPSolves != before.LPSolves || after.Misses != before.Misses {
				t.Fatalf("maintenance planned: LP %d→%d, misses %d→%d",
					before.LPSolves, after.LPSolves, before.Misses, after.Misses)
			}
			if st := w.Stats(); st.IncrRounds+st.FullRounds == 0 {
				t.Fatal("watch performed no maintenance rounds")
			}
		})
	}
}

// TestWatchPerRelationInvalidation: a mutation to a relation a statement
// does not read must not invalidate its memoized result, while a mutation to
// a relation it reads must — seen as a caller sees it, by the identity of
// the *Result the statement hands back.
func TestWatchPerRelationInvalidation(t *testing.T) {
	db := Open()
	defer db.Close()
	for _, n := range []string{"A", "B"} {
		if err := db.CreateRelation(n, 2); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Insert("B", []Value{1, 2}); err != nil {
		t.Fatal(err)
	}
	st, err := db.Prepare(`Q(X,Y) :- B(X,Y).`)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := st.Query()
	if err != nil {
		t.Fatal(err)
	}
	// Unrelated mutation: the same result is served.
	if err := db.Insert("A", []Value{9, 9}); err != nil {
		t.Fatal(err)
	}
	res2, err := st.Query()
	if err != nil {
		t.Fatal(err)
	}
	if res1 != res2 {
		t.Fatal("insert into an unread relation invalidated the statement's result")
	}
	// Referenced mutation: the query runs again, over the new rows.
	if err := db.Insert("B", []Value{3, 4}); err != nil {
		t.Fatal(err)
	}
	res3, err := st.Query()
	if err != nil {
		t.Fatal(err)
	}
	if res3 == res2 {
		t.Fatal("insert into a read relation did not invalidate the result")
	}
	if got := res3.Size(); got != 2 {
		t.Fatalf("re-run result has %d rows, want 2", got)
	}
}

// TestWatchUnrelatedWriteBindsNothing: a write to a relation a watch does
// not read still wakes its maintainer, and the round that wakeup runs reads
// one tick per atom, sees nothing new and binds nothing — it allocates
// nothing, and leaves the watch as it was. The maintainer is stopped first,
// so the rounds the test runs are the only ones.
func TestWatchUnrelatedWriteBindsNothing(t *testing.T) {
	db := Open()
	defer db.Close()
	res := createRelationsFor(t, db, triangleSrc)
	insertRandomBatch(t, db, res, rand.New(rand.NewSource(23)), 10, 5)
	if err := db.CreateRelation("W", 2); err != nil {
		t.Fatal(err)
	}
	w, err := db.Watch(triangleSrc)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if err := db.Insert("W", []Value{1, 1}); err != nil {
		t.Fatal(err)
	}
	tick, stats := w.Tick(), w.Stats()
	allocs := testing.AllocsPerRun(100, func() {
		if !w.round() {
			t.Fatalf("the round ended the watch: %v", w.Err())
		}
	})
	if allocs != 0 {
		t.Errorf("a round woken by an unrelated write allocates %.0f times; it should bind nothing", allocs)
	}
	if w.Tick() != tick || w.Stats() != stats {
		t.Errorf("the round moved the watch: tick %d → %d, stats %+v → %+v", tick, w.Tick(), stats, w.Stats())
	}
}

// TestWatchOverflowResync fills a 1-slot delta queue without consuming:
// the maintainer must evict and upgrade to a resync, and the consumer
// must find the complete state in the final emission.
func TestWatchOverflowResync(t *testing.T) {
	db := Open()
	defer db.Close()
	res := createRelationsFor(t, db, triangleSrc)
	seedTriangle := func(v Value) {
		for _, n := range []string{"R", "S", "T"} {
			if err := db.Insert(n, []Value{v, v}); err != nil {
				t.Fatal(err)
			}
		}
	}
	seedTriangle(0)

	w, err := db.Watch(triangleSrc, WithWatchQueue(1))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	// Each seed produces one output row and one emission; with a 1-slot
	// queue the later emissions must overflow into resyncs.
	for v := Value(1); v <= 4; v++ {
		seedTriangle(v)
		target, err := db.schemaTick(&res.Rule.Schema)
		if err != nil {
			t.Fatal(err)
		}
		waitTick(t, w, target)
	}
	if st := w.Stats(); st.Resyncs == 0 {
		t.Fatalf("no resyncs after overflow: %+v", st)
	}
	// Drain: the last emission must be a resync carrying the full state.
	var last WatchDelta
	got := 0
	for {
		select {
		case d := <-w.Deltas():
			last, got = d, got+1
			continue
		default:
		}
		break
	}
	if got == 0 {
		t.Fatal("no deltas queued")
	}
	if !last.Resync {
		t.Fatalf("last queued delta is not a resync: %+v", last)
	}
	fresh, err := db.Query(triangleSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(last.Rows) != fresh.Size() {
		t.Fatalf("resync carries %d rows, catalog state has %d", len(last.Rows), fresh.Size())
	}
}

// TestWatchResyncsCountEmissions pins WatchStats.Resyncs to what its comment
// says: one per full-state emission. A rule watch resyncs every round; over a
// 1-slot queue nobody drains, every round after the first also evicts its
// predecessor — an eviction is not a second resync.
func TestWatchResyncsCountEmissions(t *testing.T) {
	db := Open()
	defer db.Close()
	res := createRelationsFor(t, db, pathRuleSrc)
	w, err := db.Watch(pathRuleSrc, WithWatchQueue(1))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for v := Value(1); v <= 4; v++ {
		if err := db.Insert("R12", []Value{v, v}); err != nil {
			t.Fatal(err)
		}
		target, err := db.schemaTick(&res.Rule.Schema)
		if err != nil {
			t.Fatal(err)
		}
		waitTick(t, w, target)
	}
	want := WatchStats{FullRounds: 4, Resyncs: 4, DeltasEmitted: 4}
	if st := w.Stats(); st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
	if d := <-w.Deltas(); !d.Resync || d.Tick != w.Tick() {
		t.Fatalf("queued delta %+v is not the resync of tick %d", d, w.Tick())
	}
}

// TestWatchBooleanSelfJoinTurnsTrue walks a Boolean self-join through the
// rounds the random parity batches never reach (they satisfy a Boolean query
// before the watch opens): unsatisfied rounds that execute and stay false,
// the round that closes the triangle, and a satisfied round that executes
// nothing.
func TestWatchBooleanSelfJoinTurnsTrue(t *testing.T) {
	const src = `Q() :- E(A,B), E(B,C), E(C,A).`
	db := Open()
	defer db.Close()
	res := createRelationsFor(t, db, src)
	if err := db.Insert("E", []Value{1, 2}, []Value{2, 3}); err != nil {
		t.Fatal(err)
	}
	w, err := db.Watch(src)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if w.Result().OK {
		t.Fatal("watch opened satisfied")
	}
	for i, step := range []struct {
		row  []Value
		want bool
	}{{[]Value{5, 6}, false}, {[]Value{3, 1}, true}, {[]Value{7, 8}, true}} {
		if err := db.Insert("E", step.row); err != nil {
			t.Fatal(err)
		}
		target, err := db.schemaTick(&res.Rule.Schema)
		if err != nil {
			t.Fatal(err)
		}
		waitTick(t, w, target)
		fresh, err := db.Query(src)
		if err != nil {
			t.Fatal(err)
		}
		if got := w.Result().OK; got != step.want || got != fresh.OK {
			t.Fatalf("step %d: watch OK=%v, fresh OK=%v, want %v", i, got, fresh.OK, step.want)
		}
	}
	// One emission: the flip. The rounds on either side changed nothing.
	if d := <-w.Deltas(); !d.OK || d.Resync || len(w.Deltas()) != 0 {
		t.Fatalf("emission %+v with %d more queued, want the single OK flip", d, len(w.Deltas()))
	}
	if st := w.Stats(); st.IncrRounds != 3 || st.FullRounds != 0 {
		t.Fatalf("stats %+v, want 3 incremental rounds", st)
	}
}

// TestWatchDropRecreateResync drops and recreates a referenced relation:
// the watch must survive, emit a resync, and converge to the new state.
func TestWatchDropRecreateResync(t *testing.T) {
	db := Open()
	defer db.Close()
	createRelationsFor(t, db, triangleSrc)
	for _, n := range []string{"R", "S", "T"} {
		if err := db.Insert(n, []Value{1, 1}, []Value{2, 2}); err != nil {
			t.Fatal(err)
		}
	}
	w, err := db.Watch(triangleSrc)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if got := w.Result().Size(); got != 2 {
		t.Fatalf("initial materialization has %d rows, want 2", got)
	}

	if err := db.DropRelation("R"); err != nil {
		t.Fatal(err)
	}
	// While the relation is missing the watch idles on its last state.
	if err := db.CreateRelation("R", 2); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("R", []Value{2, 2}); err != nil {
		t.Fatal(err)
	}
	res, _ := query.Parse(triangleSrc)
	target, err := db.schemaTick(&res.Rule.Schema)
	if err != nil {
		t.Fatal(err)
	}
	waitTick(t, w, target)

	fresh, err := db.Query(triangleSrc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(w.Result().Rows(), fresh.Rows()) {
		t.Fatalf("after recreate: watch %v, fresh %v", w.Result().Rows(), fresh.Rows())
	}
	// The recovery must have been announced as a resync.
	sawResync := false
	for {
		select {
		case d := <-w.Deltas():
			if d.Resync {
				sawResync = true
			}
			continue
		default:
		}
		break
	}
	if !sawResync {
		t.Fatal("drop+recreate produced no resync emission")
	}
	if st := w.Stats(); st.Resyncs == 0 {
		t.Fatalf("stats recorded no resync: %+v", st)
	}
}

// TestWatchDBCloseTerminates closes the session under a live watch: the
// delta channel must close and Err must report ErrClosed.
func TestWatchDBCloseTerminates(t *testing.T) {
	db := Open()
	createRelationsFor(t, db, triangleSrc)
	w, err := db.Watch(triangleSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case _, open := <-w.Deltas():
		if open {
			t.Fatal("delta channel delivered instead of closing")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("delta channel did not close after DB.Close")
	}
	if !errors.Is(w.Err(), ErrClosed) {
		t.Fatalf("watch error = %v, want ErrClosed", w.Err())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWatchEndsOnViolatedConstraint: a watch checks the declared constraints
// every round, as a query does. Once the catalog violates one, the watch ends
// — its channel closes — with the error a fresh db.Query reports.
func TestWatchEndsOnViolatedConstraint(t *testing.T) {
	const src = "Q(A,B,C) :- R(A,B), S(B,C).\n|R| <= 2"
	db := Open()
	defer db.Close()
	createRelationsFor(t, db, src)
	if err := db.Insert("R", []Value{1, 2}, []Value{2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("S", []Value{2, 5}, []Value{3, 6}); err != nil {
		t.Fatal(err)
	}
	w, err := db.Watch(src)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := db.Insert("R", []Value{3, 2}, []Value{4, 3}); err != nil {
		t.Fatal(err)
	}
	_, qerr := db.Query(src)
	if qerr == nil {
		t.Fatal("db.Query accepted a catalog violating |R| <= 2")
	}
	timeout := time.After(10 * time.Second)
	for open := true; open; {
		select {
		case _, open = <-w.Deltas():
		case <-timeout:
			t.Fatalf("the watch kept running over a violated constraint (tick %d)", w.Tick())
		}
	}
	if werr := w.Err(); werr == nil || werr.Error() != qerr.Error() {
		t.Fatalf("watch ended with %v, want the query's error %v", werr, qerr)
	}
}

// TestWatchResultIsASnapshotView: Result hands out the watch's answer as a
// snapshot of the relation it grows, not a copy of its rows — so reading it
// costs O(arity) whatever the answer's size — and a snapshot taken before a
// round keeps its rows while the round appends the new ones.
func TestWatchResultIsASnapshotView(t *testing.T) {
	db, fresh := growingCatalog(t, c4Src, 320, 1)
	defer db.Close()
	w, err := db.Watch(c4Src)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	before := w.Result()
	rows := before.Rows()

	const calls = 100
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < calls; i++ {
		w.Result()
	}
	runtime.ReadMemStats(&m1)
	if per := (m1.TotalAlloc - m0.TotalAlloc) / calls; per > 1024 {
		t.Errorf("Result allocates %d B per call over a %d-row answer; it should not copy the rows", per, len(rows))
	}

	if err := db.Insert("R", fresh[0]); err != nil {
		t.Fatal(err)
	}
	target, err := db.schemaTick(w.st.Schema())
	if err != nil {
		t.Fatal(err)
	}
	waitTick(t, w, target)
	after, err := db.Query(c4Src)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(w.Result().Rows(), after.Rows()) || after.Size() <= len(rows) {
		t.Fatalf("after the insert: watch %d rows, fresh %d, before %d", w.Result().Size(), after.Size(), len(rows))
	}
	if !reflect.DeepEqual(before.Rows(), rows) {
		t.Fatal("a Result taken before the round changed under it")
	}
}

// TestWatchConcurrentStress hammers a watch with parallel inserters while
// a consumer applies the delta stream; run under -race in CI. After the
// dust settles the applied stream and the materialization must both equal
// a fresh full execution.
func TestWatchConcurrentStress(t *testing.T) {
	db := Open(WithParallelism(2))
	defer db.Close()
	res := createRelationsFor(t, db, triangleSrc)
	w, err := db.Watch(triangleSrc)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	applier := newDeltaApplier(w.Result())
	var applyMu sync.Mutex
	consumerDone := make(chan struct{})
	go func() {
		defer close(consumerDone)
		for d := range w.Deltas() {
			applyMu.Lock()
			applier.apply(d)
			applyMu.Unlock()
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			names := []string{"R", "S", "T"}
			for i := 0; i < 40; i++ {
				n := names[rng.Intn(len(names))]
				row := []Value{Value(rng.Intn(6)), Value(rng.Intn(6))}
				if err := db.Insert(n, row); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	target, err := db.schemaTick(&res.Rule.Schema)
	if err != nil {
		t.Fatal(err)
	}
	waitTick(t, w, target)
	fresh, err := db.Query(triangleSrc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(w.Result().Rows(), fresh.Rows()) {
		t.Fatalf("stress: watch %d rows, fresh %d rows", w.Result().Size(), fresh.Size())
	}

	w.Close()
	<-consumerDone
	applyMu.Lock()
	defer applyMu.Unlock()
	if len(applier.rows) != fresh.Size() {
		t.Fatalf("stress: applied stream has %d rows, fresh %d", len(applier.rows), fresh.Size())
	}
	for _, r := range fresh.Rows() {
		if !applier.rows[fmt.Sprint(r)] {
			t.Fatalf("stress: applied stream missing %v", r)
		}
	}
}

// BenchmarkWatchRound times a maintenance round at a size where what a watch
// holds is visible: 8 standing triangle queries over three 50,000-row
// relations, and per iteration one 16-row batch into each relation, timed
// until every watch reflects it. retained-B/watch is the live heap the open
// watches account for once the rounds are done — heap with them open minus
// heap with them closed, catalog unchanged — which should be their
// materialization and bookkeeping (kilobytes here), never a copy of the
// relations they read (8 MB a watch): that is what the metric is there to
// catch.
func BenchmarkWatchRound(b *testing.B) {
	const rows, batch, watches, dom = 50_000, 16, 8, 1 << 14
	db := Open()
	defer db.Close()
	res := createRelationsFor(b, db, triangleSrc)
	rng := rand.New(rand.NewSource(22))
	insertRandomBatch(b, db, res, rng, rows, dom)
	ws := make([]*Watch, watches)
	for i := range ws {
		w, err := db.Watch(triangleSrc)
		if err != nil {
			b.Fatal(err)
		}
		ws[i] = w
		go func() { // a subscriber that keeps up
			for range w.Deltas() {
			}
		}()
	}
	liveHeap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		insertRandomBatch(b, db, res, rng, batch, dom)
		target, err := db.schemaTick(&res.Rule.Schema)
		if err != nil {
			b.Fatal(err)
		}
		for _, w := range ws {
			waitTick(b, w, target)
		}
	}
	b.StopTimer()
	open := liveHeap()
	for i, w := range ws {
		w.Close()
		ws[i] = nil
	}
	// A watch that retains nothing can measure a few kB below zero.
	retained := max(0, int64(open)-int64(liveHeap()))
	b.ReportMetric(float64(retained)/watches, "retained-B/watch")
}
