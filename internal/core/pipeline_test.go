package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"panda/internal/bitset"
	"panda/internal/plan"
	"panda/internal/query"
	"panda/internal/relation"
	"panda/internal/wcoj"
	"panda/internal/workload"
)

// sortedRows materializes r's tuples in value order (AllSorted reuses its
// row buffer).
func sortedRows(r *relation.Relation) (rows [][]relation.Value) {
	for row := range r.AllSorted() {
		rows = append(rows, slices.Clone(row))
	}
	return rows
}

// TestOnePipeline runs every plan mode through Executor.Execute at every
// (Partitions, Parallelism) and checks the answer against oracles that share
// no code with the engine (wcoj.Join / wcoj.Boolean, Instance.IsModel), that
// Stats — trace included — depends on the partition count only, never on the
// parallelism, and that the ExecResult has the pinned per-mode shape.
func TestOnePipeline(t *testing.T) {
	fourCycleProj := workload.FourCycleQuery()
	fourCycleProj.Free = bitset.Of(0, 2)
	fiveCycleBool := workload.CycleQuery(5)
	fiveCycleBool.Free = 0
	cases := []struct {
		name string
		q    *query.Conjunctive
		rule *query.Disjunctive
		seed int64
	}{
		{name: "triangle", q: workload.TriangleQuery(), seed: 1},
		{name: "four-cycle", q: workload.FourCycleQuery(), seed: 2},
		{name: "four-cycle-projection", q: fourCycleProj, seed: 3},
		{name: "four-cycle-boolean", q: workload.BooleanFourCycle(), seed: 4},
		{name: "five-cycle-boolean", q: fiveCycleBool, seed: 5},
		{name: "path-rule", rule: workload.PathRule(), seed: 6},
	}
	ctx := context.Background()
	spurious := 0 // model rows the Corollary 7.10 reduction removed, over the ModeFull runs
	for _, tc := range cases {
		var s *query.Schema
		if tc.q != nil {
			s = &tc.q.Schema
		} else {
			s = &tc.rule.Schema
		}
		ins := workload.RandomBinary(rand.New(rand.NewSource(tc.seed)), s, 120, 14)
		cons := CompleteConstraints(s, ins, nil)
		join, err := wcoj.Join(s, ins, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantOK, err := wcoj.Boolean(s, ins)
		if err != nil {
			t.Fatal(err)
		}

		for _, mode := range []plan.Mode{plan.ModeFull, plan.ModeFhtw, plan.ModeSubw, plan.ModeRule} {
			var p *plan.Plan
			switch {
			case (mode == plan.ModeRule) != (tc.rule != nil), mode == plan.ModeFull && !tc.q.IsFull():
				continue // the mode does not apply to this head
			case tc.rule != nil:
				p, err = plan.NewPlanner(1).PrepareRuleContext(ctx, tc.rule, cons)
			default:
				p, _, err = plan.Prepare(tc.q, cons, mode)
			}
			if err != nil {
				t.Fatalf("%s/%v: %v", tc.name, mode, err)
			}
			full := bitset.Full(s.NumVars)
			for _, parts := range []int{1, 3} {
				var seqStats *Stats
				for _, par := range []int{1, 4} {
					name := fmt.Sprintf("%s/%v/K=%d/P=%d", tc.name, mode, parts, par)
					ex, err := (&Executor{Parallelism: par, Partitions: parts, Opt: Options{Trace: true}}).Execute(ctx, p, ins)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}

					// Answers.
					if tc.rule != nil {
						if ok, err := ins.IsModel(tc.rule, ex.Tables); err != nil || !ok {
							t.Fatalf("%s: tables are not a model (%v)", name, err)
						}
						if ex.NonEmpty != wantOK { // a model is empty iff the body join is
							t.Fatalf("%s: NonEmpty=%v, body join non-empty=%v", name, ex.NonEmpty, wantOK)
						}
					} else {
						if ex.NonEmpty != wantOK {
							t.Fatalf("%s: NonEmpty=%v, wcoj.Boolean=%v", name, ex.NonEmpty, wantOK)
						}
						if p.Free != 0 {
							want := join
							if p.Free != full {
								want = join.Project(p.Free)
							}
							if !reflect.DeepEqual(sortedRows(ex.Out), sortedRows(want)) {
								t.Fatalf("%s: %d rows, wcoj.Join projected has %d", name, ex.Out.Size(), want.Size())
							}
						}
					}

					// Stats are a function of (plan, data, partition count).
					if seqStats == nil {
						seqStats = ex.Stats
						if len(seqStats.Trace) == 0 {
							t.Fatalf("%s: empty operator trace", name)
						}
					} else if !reflect.DeepEqual(ex.Stats, seqStats) {
						t.Fatalf("%s: Stats differ from the P=1 run of the same partition count", name)
					}

					// Pinned ExecResult shape.
					if ex.Mode != mode || ex.Width.Cmp(p.Width) != 0 {
						t.Fatalf("%s: result carries mode %v width %v, plan %v %v", name, ex.Mode, ex.Width, mode, p.Width)
					}
					if wantOut := tc.rule == nil && p.Free != 0; (ex.Out != nil) != wantOut {
						t.Fatalf("%s: Out present=%v, want %v", name, ex.Out != nil, wantOut)
					} else if wantOut && ex.Out.Attrs() != p.Free {
						t.Fatalf("%s: Out over %v, free variables %v", name, ex.Out.Attrs(), p.Free)
					}
					if (ex.Tables != nil) != (mode == plan.ModeRule) {
						t.Fatalf("%s: Tables set=%v, want %v", name, ex.Tables != nil, mode == plan.ModeRule)
					}
					oneRule := mode == plan.ModeRule || mode == plan.ModeFull
					if (ex.Bound != nil) != oneRule {
						t.Fatalf("%s: Bound set=%v, want %v", name, ex.Bound != nil, oneRule)
					}
					if oneRule && ex.Bound.Cmp(p.Rules[0].Bound) != 0 {
						t.Fatalf("%s: Bound %v, rule bound %v", name, ex.Bound, p.Rules[0].Bound)
					}
					if mode == plan.ModeFull && parts == 1 {
						raw, err := (&Executor{}).ExecuteRule(ctx, s, p.Rules[0], p.Cons, ins)
						if err != nil {
							t.Fatal(err)
						}
						spurious += raw.Tables[full].Size() - ex.Out.Size()
					}
				}
			}
		}
	}
	if spurious == 0 {
		t.Fatal("no ModeFull model held a spurious tuple: the cases leave the Corollary 7.10 reduction nothing to drop")
	}
}
