package baseline

import (
	"context"
	"math/rand"
	"testing"

	"panda/internal/bitset"
	"panda/internal/query"
	"panda/internal/relation"
)

func fourCycle() *query.Conjunctive {
	s := query.Schema{
		NumVars:  4,
		VarNames: []string{"A1", "A2", "A3", "A4"},
		Atoms: []query.Atom{
			{Name: "R12", Vars: bitset.Of(0, 1)},
			{Name: "R23", Vars: bitset.Of(1, 2)},
			{Name: "R34", Vars: bitset.Of(2, 3)},
			{Name: "R41", Vars: bitset.Of(3, 0)},
		},
	}
	return &query.Conjunctive{Schema: s, Free: bitset.Full(4)}
}

func TestTreePlanCorrect(t *testing.T) {
	q := fourCycle()
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 10; trial++ {
		ins := query.NewInstance(&q.Schema)
		for i := range ins.Relations {
			for k := 0; k < 20; k++ {
				ins.Relations[i].Insert([]relation.Value{
					relation.Value(rng.Intn(5)), relation.Value(rng.Intn(5))})
			}
		}
		out, _, _, err := EvalTreePlan(q, ins, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Equal(ins.FullJoin()) {
			t.Fatalf("trial %d: mismatch", trial)
		}
	}
}

// TestTreePlanWorstCaseQuadratic demonstrates the Example 1.10 lower bound:
// for EACH tree decomposition there exists an adversarial instance on which
// it materializes a bag of size ≥ m² — the reason the fhtw-plan costs N²
// where PANDA pays N^{3/2}.
func TestTreePlanWorstCaseQuadratic(t *testing.T) {
	q := fourCycle()
	q.Free = 0 // Boolean
	m := 40
	// Instance A (the paper's): R12 = R34 = [m]×[1], R23 = R41 = [1]×[m].
	insA := query.NewInstance(&q.Schema)
	// Instance B: rotated by one position, killing the other tree.
	insB := query.NewInstance(&q.Schema)
	for i := 0; i < m; i++ {
		v := relation.Value(i)
		insA.Relations[0].Insert([]relation.Value{v, 0}) // R12(A1,A2) = [m]×[1]
		insA.Relations[1].Insert([]relation.Value{0, v}) // R23(A2,A3) = [1]×[m]
		insA.Relations[2].Insert([]relation.Value{v, 0}) // R34(A3,A4) = [m]×[1]
		insA.Relations[3].Insert([]relation.Value{v, 0}) // R41(A4,A1) = [1]×[m] (cols A1,A4)

		insB.Relations[0].Insert([]relation.Value{0, v}) // R12 = [1]×[m]
		insB.Relations[1].Insert([]relation.Value{v, 0}) // R23 = [m]×[1]
		insB.Relations[2].Insert([]relation.Value{0, v}) // R34 = [1]×[m]
		insB.Relations[3].Insert([]relation.Value{0, v}) // R41 = [m]×[1] (cols A1,A4)
	}
	h := q.Hypergraph()
	tds, err := h.AllDecompositions(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tds) != 2 {
		t.Fatalf("want the two Figure-2 decompositions, got %d", len(tds))
	}
	for ti, td := range tds {
		worst := 0
		for _, ins := range []*query.Instance{insA, insB} {
			_, ans, stats, err := EvalTreePlan(q, ins, td)
			if err != nil {
				t.Fatal(err)
			}
			if !ans {
				t.Fatalf("tree %d: cycle exists", ti)
			}
			if stats.MaxIntermediate > worst {
				worst = stats.MaxIntermediate
			}
		}
		if worst < m*m {
			t.Fatalf("tree %d: worst intermediate %d < m² = %d over both adversarial instances",
				ti, worst, m*m)
		}
	}
}

func TestTreePlanBoolean(t *testing.T) {
	q := fourCycle()
	q.Free = 0
	ins := query.NewInstance(&q.Schema)
	_, ans, _, err := EvalTreePlan(q, ins, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ans {
		t.Fatal("empty instance answered true")
	}
}
