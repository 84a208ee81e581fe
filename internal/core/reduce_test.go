package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"panda/internal/baseline"
	"panda/internal/bitset"
	"panda/internal/plan"
	"panda/internal/query"
	"panda/internal/relation"
	"panda/internal/workload"
)

// project returns the values of row (laid out by cols) at the variables of x.
func project(row []relation.Value, cols []int, x bitset.Set) []relation.Value {
	out := make([]relation.Value, 0, x.Card())
	for i, c := range cols {
		if x.Contains(c) {
			out = append(out, row[i])
		}
	}
	return out
}

// TestBagTablesHoldTheAnswer checks the tables step 2 hands to Yannakakis —
// each bag's tables from every rule and partition, unioned and reduced by the
// inputs in one relation.Reduce — against internal/baseline's answer Q of the
// full query, over seeded uniform and skewed instances of the triangle, the
// 4-cycle and the 5-cycle, at fhtw and subw, unpartitioned and three-way
// partitioned:
//   - fhtw: every bag table contains Π_B(Q) (each bag's rule has B as its one
//     target, so its model holds all of Π_B of the body);
//   - subw: every tuple of Q has a decomposition whose every bag table holds
//     its projection (Corollary 7.13 — a transversal's rule may cover a tuple
//     by another of its bags, so one bag table alone need not hold Π_B(Q));
//   - both: every row of a bag table agrees with some tuple of every input on
//     the attributes they share, which includes satisfying each atom whose
//     variables lie in B.
func TestBagTablesHoldTheAnswer(t *testing.T) {
	ctx := context.Background()
	queries := map[string]*query.Conjunctive{
		"tri": workload.TriangleQuery(),
		"c4":  workload.FourCycleQuery(),
		"c5":  workload.CycleQuery(5),
	}
	seeds := int64(8)
	if testing.Short() {
		seeds = 3
	}
	tuples := 0
	for seed := int64(1); seed <= seeds; seed++ {
		for name, q := range queries {
			rows, dom := 30+10*int(seed), 5+int(seed)
			ins := workload.RandomBinary(rand.New(rand.NewSource(seed)), &q.Schema, rows, dom)
			if seed%2 == 0 {
				ins = skewedBinary(seed, &q.Schema, rows, dom)
			}
			answer, _, _, err := baseline.EvalTreePlan(q, ins, nil)
			if err != nil {
				t.Fatalf("%s seed %d: baseline: %v", name, seed, err)
			}
			for _, mode := range []plan.Mode{plan.ModeFhtw, plan.ModeSubw} {
				p, _, err := plan.Prepare(q, CompleteConstraints(&q.Schema, ins, nil), mode)
				if err != nil {
					t.Fatalf("%s seed %d %v: %v", name, seed, mode, err)
				}
				width, _ := p.Width.Float64()
				for _, parts := range []int{1, 3} {
					tag := fmt.Sprintf("%s seed %d %v K=%d", name, seed, mode, parts)
					ex := &Executor{Partitions: parts}
					fold, _, _, err := ex.runRules(ctx, p, ins, width)
					if err != nil {
						t.Fatalf("%s: %v", tag, err)
					}
					tables, err := ex.reduceBags(ctx, fold, ins, width)
					if err != nil {
						t.Fatalf("%s: %v", tag, err)
					}
					checkBagRows(t, tag, q, ins, tables)
					checkBagsCover(t, tag, p, answer, tables)
					tuples += answer.Size()
				}
			}
		}
	}
	if tuples < 1000 {
		t.Fatalf("the instances gave %d answer tuples to check; they are meant to give thousands", tuples)
	}
}

// checkBagRows: every row of every bag table agrees with some tuple of every
// input on the attributes they share.
func checkBagRows(t *testing.T, tag string, q *query.Conjunctive, ins *query.Instance, tables map[bitset.Set]*relation.Relation) {
	t.Helper()
	for b, tb := range tables {
		for i, a := range q.Atoms {
			common := a.Vars.Intersect(b)
			if common == 0 {
				continue
			}
			in := ins.Relations[i].Project(common)
			for row := range tb.All() {
				if !in.Contains(project(row, tb.Cols(), common)) {
					t.Fatalf("%s: bag %v holds %v, which %s does not match on %v", tag, b, row, a.Name, common)
				}
			}
		}
	}
}

// checkBagsCover: under fhtw every bag table contains Π_B(Q); under subw every
// tuple of Q has a decomposition whose bag tables all hold its projections.
func checkBagsCover(t *testing.T, tag string, p *plan.Plan, answer *relation.Relation, tables map[bitset.Set]*relation.Relation) {
	t.Helper()
	holds := func(b bitset.Set, row []relation.Value) bool {
		tb, ok := tables[b]
		return ok && tb.Contains(project(row, answer.Cols(), b))
	}
	for row := range answer.All() {
		covered := false
		for _, td := range p.EvalTDs() {
			all := true
			for _, b := range td.Bags {
				if !holds(b, row) {
					all = false
					if p.Mode == plan.ModeFhtw {
						t.Fatalf("%s: bag %v lacks %v of the answer tuple %v", tag, b, project(row, answer.Cols(), b), row)
					}
				}
			}
			covered = covered || all
		}
		if !covered {
			t.Fatalf("%s: no decomposition's bags all hold the answer tuple %v", tag, row)
		}
	}
}
