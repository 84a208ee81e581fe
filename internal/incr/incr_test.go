package incr

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"panda/internal/core"
	"panda/internal/plan"
	"panda/internal/query"
	"panda/internal/relation"
	"panda/internal/workload"
)

// run executes the plan over an instance and returns the output projected
// onto the free variables — the reference a maintained materialization must
// match exactly.
func run(t *testing.T, exec *core.Executor, p *plan.Plan, ins *query.Instance) (*relation.Relation, bool) {
	t.Helper()
	ex, err := exec.Execute(context.Background(), p, ins)
	if err != nil {
		t.Fatal(err)
	}
	out := ex.Out
	if out != nil && p.Free != 0 && p.Free != out.Attrs() {
		out = out.Project(p.Free)
	}
	return out, ex.NonEmpty
}

// maintainParity grows an instance batch by batch, maintains a
// materialization with semi-naive rounds against the pinned plan, and
// checks it equals a from-scratch execution after every batch.
func maintainParity(t *testing.T, q *query.Conjunctive, mode plan.Mode, seed int64) {
	t.Helper()
	p, _, err := plan.Prepare(q, testConstraints(q), mode)
	if err != nil {
		t.Fatal(err)
	}
	exec := &core.Executor{}
	s := &q.Schema
	full := query.NewInstance(s)

	// Seed data, then the initial materialization from one full run.
	rng := rand.New(rand.NewSource(seed))
	insertRandom(rng, full, nil, 20)
	mat, ok := run(t, exec, p, full)

	for batch := 0; batch < 6; batch++ {
		deltas := make([]*relation.Relation, len(s.Atoms))
		for i, a := range s.Atoms {
			deltas[i] = relation.New("Δ"+a.Name, a.Vars)
		}
		insertRandom(rng, full, deltas, 5+rng.Intn(8))
		round, err := Maintain(context.Background(), exec, p, s, full, deltas)
		if err != nil {
			t.Fatal(err)
		}
		if round.Delta != nil {
			if mat == nil {
				mat = relation.New("mat", round.Delta.Attrs())
			}
			for _, row := range round.Delta.Rows() {
				mat.Insert(row)
			}
		}
		ok = ok || round.NonEmpty

		want, wantOK := run(t, exec, p, full)
		if want == nil {
			if ok != wantOK {
				t.Fatalf("batch %d: maintained OK=%v, full run OK=%v", batch, ok, wantOK)
			}
			continue
		}
		if mat == nil || !mat.Equal(want) {
			got := 0
			if mat != nil {
				got = mat.Size()
			}
			t.Fatalf("batch %d: maintained %d rows, full run %d rows", batch, got, want.Size())
		}
		if ok != wantOK {
			t.Fatalf("batch %d: maintained OK=%v, full run OK=%v", batch, ok, wantOK)
		}
	}
}

// testConstraints derives per-atom cardinality constraints large enough for
// the whole growth run, so the pinned plan stays within its declared
// bounds; staleness of the exact values is part of what the parity asserts.
func testConstraints(q *query.Conjunctive) []query.DegreeConstraint {
	var dcs []query.DegreeConstraint
	for i, a := range q.Atoms {
		dcs = append(dcs, query.Cardinality(a.Vars, 1024, i))
	}
	return dcs
}

// insertRandom inserts n random tuples into every relation of full (set
// semantics) and records the genuinely new rows in deltas when non-nil.
func insertRandom(rng *rand.Rand, full *query.Instance, deltas []*relation.Relation, n int) {
	for i, r := range full.Relations {
		arity := r.Attrs().Card()
		for k := 0; k < n; k++ {
			row := make([]relation.Value, arity)
			for j := range row {
				row[j] = relation.Value(rng.Intn(6))
			}
			if r.Contains(row) {
				continue
			}
			r.Insert(row)
			if deltas != nil {
				deltas[i].Insert(row)
			}
		}
	}
}

func TestMaintainParityTriangleFull(t *testing.T) {
	maintainParity(t, workload.TriangleQuery(), plan.ModeFull, 1)
}

func TestMaintainParityTriangleProjection(t *testing.T) {
	q := workload.TriangleQuery()
	q.Free = q.Atoms[0].Vars // π_{A,B} of the triangle
	maintainParity(t, q, plan.ModeAuto, 2)
}

func TestMaintainParityFourCycleFhtw(t *testing.T) {
	q := workload.FourCycleQuery()
	maintainParity(t, q, plan.ModeFhtw, 3)
}

func TestMaintainParityFourCycleSubw(t *testing.T) {
	q := workload.FourCycleQuery()
	maintainParity(t, q, plan.ModeSubw, 4)
}

func TestMaintainParityBooleanFourCycle(t *testing.T) {
	maintainParity(t, workload.BooleanFourCycle(), plan.ModeAuto, 5)
}

// TestMaintainSkipsEmptyDeltas pins the fast path: a round with no deltas
// executes nothing.
func TestMaintainSkipsEmptyDeltas(t *testing.T) {
	q := workload.TriangleQuery()
	p, _, err := plan.Prepare(q, testConstraints(q), plan.ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	full := query.NewInstance(&q.Schema)
	deltas := make([]*relation.Relation, len(q.Atoms))
	round, err := Maintain(context.Background(), &core.Executor{}, p, &q.Schema, full, deltas)
	if err != nil {
		t.Fatal(err)
	}
	if round.AtomsExecuted != 0 || round.Delta != nil || round.NonEmpty {
		t.Fatalf("empty round executed %d atoms, delta %v", round.AtomsExecuted, round.Delta)
	}
}

// TestAdvance pins the one maintenance step both callers take: a Boolean
// answer already satisfied executes nothing and reports an empty round, and
// every other answer gets Maintain's round, whose Stats and Timings are the
// merge of its executions'.
func TestAdvance(t *testing.T) {
	q := workload.BooleanFourCycle()
	p, _, err := plan.Prepare(q, testConstraints(q), plan.ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	s := &q.Schema
	rng := rand.New(rand.NewSource(6))
	full := query.NewInstance(s)
	insertRandom(rng, full, nil, 20)
	deltas := make([]*relation.Relation, len(s.Atoms))
	for i, a := range s.Atoms {
		deltas[i] = relation.New("Δ"+a.Name, a.Vars)
	}
	insertRandom(rng, full, deltas, 6)
	exec := &core.Executor{Opt: core.Options{StageTimings: true}}
	ctx := context.Background()

	satisfied, err := Advance(ctx, exec, p, s, full, deltas, true)
	if err != nil {
		t.Fatal(err)
	}
	if satisfied.AtomsExecuted != 0 || satisfied.NonEmpty || satisfied.Delta != nil ||
		!reflect.DeepEqual(satisfied.Stats, core.NewStats()) || !reflect.DeepEqual(satisfied.Timings, core.NewTimings()) {
		t.Fatalf("a satisfied Boolean round executed: %+v", satisfied)
	}

	round, err := Advance(ctx, exec, p, s, full, deltas, false)
	if err != nil {
		t.Fatal(err)
	}
	if round.AtomsExecuted != len(s.Atoms) || round.Stats.Joins == 0 || len(round.Timings.Steps) == 0 {
		t.Fatalf("an unsatisfied round executed %d atoms, %d joins, timings %+v", round.AtomsExecuted, round.Stats.Joins, round.Timings)
	}
	if plain, err := Maintain(ctx, &core.Executor{}, p, s, full, deltas); err != nil || plain.Timings != nil ||
		!reflect.DeepEqual(plain.Stats, round.Stats) {
		t.Fatalf("without stage timings: err %v, timings %+v, stats equal %v", err, plain.Timings, reflect.DeepEqual(plain.Stats, round.Stats))
	}
}

// TestMaintainPartitionedParity: a maintenance round under a partitioned
// executor produces exactly the delta of the unpartitioned round.
func TestMaintainPartitionedParity(t *testing.T) {
	q := workload.TriangleQuery()
	p, _, err := plan.Prepare(q, testConstraints(q), plan.ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	s := &q.Schema
	round := func(exec *core.Executor) *Round {
		rng := rand.New(rand.NewSource(11))
		full := query.NewInstance(s)
		insertRandom(rng, full, nil, 40)
		deltas := make([]*relation.Relation, len(s.Atoms))
		for i, a := range s.Atoms {
			deltas[i] = relation.New("Δ"+a.Name, a.Vars)
		}
		insertRandom(rng, full, deltas, 12)
		r, err := Maintain(context.Background(), exec, p, s, full, deltas)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	plain, split := round(&core.Executor{}), round(&core.Executor{Partitions: 3})
	if plain.Delta == nil || plain.Delta.Size() == 0 {
		t.Fatal("the fixture's round derives nothing: it cannot tell the two executors apart")
	}
	if split.NonEmpty != plain.NonEmpty || split.AtomsExecuted != plain.AtomsExecuted ||
		split.Delta == nil || !split.Delta.Equal(plain.Delta) {
		t.Fatal("the partitioned round's delta differs from the unpartitioned round's")
	}
}
