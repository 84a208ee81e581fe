package core

import (
	"bytes"
	"context"
	"math/big"
	"reflect"
	"testing"

	"panda/internal/bitset"
	"panda/internal/plan"
	"panda/internal/query"
	"panda/internal/relation"
	"panda/internal/workload"
)

// TestFoldNeverWritesToInputs: a run hands its subproblems' tables up in
// lists, by pointer — a base case's table is its guard, which can be an input
// — and ExecuteRule unions each list into a relation of its own, or hands a
// lone table over as it is. After runs with many decompositions, Case-4b
// restarts and base cases, every input — each one guards a constraint — must
// hold exactly the rows it held before. Storage is append-only, so an
// unchanged Size means no accepted insert: the mutation tick has not moved
// either.
func TestFoldNeverWritesToInputs(t *testing.T) {
	ctx := context.Background()
	check := func(name string, s *query.Schema, rules []*plan.PreparedRule, cons []query.DegreeConstraint, ins *query.Instance) {
		before := make([]*relation.Relation, len(ins.Relations))
		for i, r := range ins.Relations {
			before[i] = r.Clone(r.Name + "@before")
		}
		for ri, pr := range rules {
			res, err := (&Executor{}).ExecuteRule(ctx, s, pr, cons, ins)
			if err != nil {
				t.Fatalf("%s rule %d: %v", name, ri, err)
			}
			if res.Stats.Partitions == 0 || res.Stats.Subproblems < 2 {
				t.Fatalf("%s rule %d: %d partitions, %d subproblems — the case must exercise the fold", name, ri, res.Stats.Partitions, res.Stats.Subproblems)
			}
			for i, r := range ins.Relations {
				if r.Size() != before[i].Size() || !r.Equal(before[i]) {
					t.Fatalf("%s rule %d: input %s changed: %d rows, was %d", name, ri, r.Name, r.Size(), before[i].Size())
				}
			}
			// Every table is over its target, whoever owns it.
			for b, tb := range res.Tables {
				if tb.Attrs() != b {
					t.Fatalf("%s rule %d: table for %v is over %v", name, ri, b, tb.Attrs())
				}
			}
		}
	}

	rule := workload.PathRule()
	pins := workload.PathWorstCase(rule, 64)
	pcons := CompleteConstraints(&rule.Schema, pins, nil)
	pr, _, err := plan.PrepareRule(&rule.Schema, pcons, rule.Targets)
	if err != nil {
		t.Fatal(err)
	}
	check("path-worst", &rule.Schema, []*plan.PreparedRule{pr}, pcons, pins)
	if ok, err := pins.IsModel(rule, mustTables(t, &rule.Schema, pr, pcons, pins)); err != nil || !ok {
		t.Fatalf("path-worst: folded tables are not a model (%v)", err)
	}

	q := workload.FourCycleQuery()
	cins := workload.CycleWorstCase(q, 32)
	ccons := CompleteConstraints(&q.Schema, cins, nil)
	p, _, err := plan.Prepare(q, ccons, plan.ModeSubw)
	if err != nil {
		t.Fatal(err)
	}
	check("c4-subw", &q.Schema, p.Rules, p.Cons, cins)
}

// TestFoldNeverWritesToSharedPartitions: the executor collects the
// per-partition models in the same lists, and there a table can be shared
// storage — a one-atom rule's base case returns the atom's relation, which
// under partitioning is a memoized hash partition that later runs read again.
func TestFoldNeverWritesToSharedPartitions(t *testing.T) {
	rule := &query.Disjunctive{
		Schema: query.Schema{
			NumVars:  2,
			VarNames: []string{"A", "B"},
			Atoms:    []query.Atom{{Name: "R", Vars: bitset.Of(0, 1)}},
		},
		Targets: []bitset.Set{bitset.Of(0, 1)},
	}
	r := relation.New("R", bitset.Of(0, 1))
	for i := 0; i < 300; i++ {
		r.Insert([]relation.Value{relation.Value(i % 41), relation.Value(i)})
	}
	ins := &query.Instance{Relations: []*relation.Relation{r}}
	cons := CompleteConstraints(&rule.Schema, ins, nil)
	ctx := context.Background()
	p, err := plan.NewPlanner(1).PrepareRuleContext(ctx, rule, cons)
	if err != nil {
		t.Fatal(err)
	}
	const k = 3
	subs := query.PartitionInstance(&rule.Schema, ins, k)
	if len(subs) != k {
		t.Fatalf("%d sub-instances, want %d", len(subs), k)
	}
	before := make([]*relation.Relation, k)
	for j, sub := range subs {
		before[j] = sub.Relations[0].Clone("before")
	}
	for run := 0; run < 2; run++ {
		ex, err := (&Executor{Partitions: k}).Execute(ctx, p, ins)
		if err != nil {
			t.Fatal(err)
		}
		if got := ex.Tables[bitset.Of(0, 1)]; got == nil || !got.Equal(r) {
			t.Fatalf("run %d: the model table is not R", run)
		}
		for j, sub := range query.PartitionInstance(&rule.Schema, ins, k) {
			if part := sub.Relations[0]; part.Size() != before[j].Size() || !part.Equal(before[j]) {
				t.Fatalf("run %d: memoized partition %d of R changed: %d rows, was %d", run, j, part.Size(), before[j].Size())
			}
		}
		if r.Size() != 300 {
			t.Fatalf("run %d: R has %d rows", run, r.Size())
		}
	}
}

// TestExecutionsNeverWriteToInputs runs the whole digest matrix — every mode,
// adversarial and skewed inputs, hundreds of Case-4b restarts — under
// partitioning and the worker pool (run it with -race: workers share the
// inputs and their memoized indexes and partitions) and checks after every
// execution that no input relation gained a row. Row storage is append-only
// and the mutation tick counts accepted rows, so an unchanged Size is an
// unchanged tick; the rows are compared once per case at the end.
func TestExecutionsNeverWriteToInputs(t *testing.T) {
	ctx := context.Background()
	for i, tc := range digestMatrix() {
		if testing.Short() && i%5 != 0 { // coprime to the matrix's periods: every shape still comes up
			continue
		}
		p, err := tc.prepare(ctx)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		before := make([]*relation.Relation, len(tc.ins.Relations))
		for j, r := range tc.ins.Relations {
			before[j] = r.Clone(r.Name + "@before")
		}
		for _, parts := range []int{1, 4} {
			for _, par := range []int{1, 4} {
				if _, err := (&Executor{Partitions: parts, Parallelism: par}).Execute(ctx, p, tc.ins); err != nil {
					t.Fatalf("%s K=%d P=%d: %v", tc.name, parts, par, err)
				}
				for j, r := range tc.ins.Relations {
					if r.Size() != before[j].Size() {
						t.Fatalf("%s K=%d P=%d: input %s has %d rows, had %d", tc.name, parts, par, r.Name, r.Size(), before[j].Size())
					}
				}
			}
		}
		for j, r := range tc.ins.Relations {
			if !reflect.DeepEqual(r.Rows(), before[j].Rows()) {
				t.Fatalf("%s: the rows of input %s changed", tc.name, r.Name)
			}
		}
	}
}

// TestExecutionsNeverWriteToPlans runs the digest matrix — every mode,
// hundreds of Case-4b restarts — on decoded plans, sequentially, through the
// pool and partitioned, and requires each plan to encode to the same bytes
// after its executions as before. A decoded plan shares its commonest
// rationals with every other decoded plan (plan.DecodePlan), so a write to
// one would reach them all: the test also checks that those shared values are
// still shared, and still what they were.
func TestExecutionsNeverWriteToPlans(t *testing.T) {
	ctx := context.Background()
	encode := func(p *plan.Plan) []byte {
		var buf bytes.Buffer
		if err := plan.EncodePlan(&buf, p); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	var halves []*big.Rat // every 1/2 the decoded plans hold
	restarts := 0
	for i, tc := range digestMatrix() {
		if testing.Short() && i%5 != 0 { // coprime to the matrix's periods: every shape still comes up
			continue
		}
		prepared, err := tc.prepare(ctx)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		before := encode(prepared)
		p, err := plan.DecodePlan(bytes.NewReader(before))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, parts := range []int{1, 4} {
			for _, par := range []int{1, 4} {
				ex, err := (&Executor{Partitions: parts, Parallelism: par}).Execute(ctx, p, tc.ins)
				if err != nil {
					t.Fatalf("%s K=%d P=%d: %v", tc.name, parts, par, err)
				}
				restarts += ex.Stats.Restarts
			}
		}
		if after := encode(p); !bytes.Equal(after, before) {
			t.Fatalf("%s: executing the decoded plan changed its encoding", tc.name)
		}
		for _, r := range p.Rules {
			for _, s := range r.Seq {
				if s.W.RatString() == "1/2" {
					halves = append(halves, s.W)
				}
			}
		}
	}
	if restarts == 0 {
		t.Fatal("no execution restarted: the matrix is meant to exercise Case-4b")
	}
	if len(halves) < 2 {
		t.Fatalf("the decoded plans hold %d proof steps of weight 1/2; the check needs some", len(halves))
	}
	for _, h := range halves {
		if h != halves[0] {
			t.Fatal("two decoded plans hold distinct 1/2s: decoding no longer shares them")
		}
	}
	if halves[0].Cmp(big.NewRat(1, 2)) != 0 {
		t.Fatalf("the shared 1/2 now reads %v", halves[0])
	}
}

func mustTables(t *testing.T, s *query.Schema, pr *plan.PreparedRule, cons []query.DegreeConstraint, ins *query.Instance) map[bitset.Set]*relation.Relation {
	t.Helper()
	res, err := (&Executor{}).ExecuteRule(context.Background(), s, pr, cons, ins)
	if err != nil {
		t.Fatal(err)
	}
	return res.Tables
}
