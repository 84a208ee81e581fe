package panda

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"panda/internal/core"
	"panda/internal/plan"
	"panda/internal/query"
)

// TestRulesTakeThePlanningPath: a disjunctive rule goes through the session
// planner like a conjunctive query. For Example 1.4's path rule, a
// two-target rule under a degree constraint and a rule with an ∅ target, the
// first DB.Query, the second and an atom-reordered, variable-renamed,
// target-swapped spelling each return exactly the tables of planning the
// canonical spelling of their text directly (plan.PrepareRule) and executing
// it in their own variables (Executor.ExecuteRule): the session plans the
// canonical spelling, so every spelling runs one plan. Throughout, the
// session builds one plan, hits it twice, and solves no LP after the first
// call.
func TestRulesTakeThePlanningPath(t *testing.T) {
	db := Open()
	defer db.Close()
	rng := rand.New(rand.NewSource(5))
	maxDeg := 0 // of R's second column given its first
	for _, name := range []string{"R", "S", "T"} {
		if err := db.CreateRelation(name, 2); err != nil {
			t.Fatal(err)
		}
		seen := map[[2]Value]bool{}
		deg := map[Value]int{}
		for len(seen) < 60 {
			row := [2]Value{Value(rng.Intn(12)), Value(rng.Intn(12))}
			if seen[row] {
				continue
			}
			seen[row] = true
			if err := db.Insert(name, row[:]); err != nil {
				t.Fatal(err)
			}
			if deg[row[0]]++; name == "R" && deg[row[0]] > maxDeg {
				maxDeg = deg[row[0]]
			}
		}
	}
	cases := []struct{ name, src, renamed string }{
		{"path",
			`T1(A,B,C) v T2(B,C,D) :- R(A,B), S(B,C), T(C,D).`,
			`U2(Y,Z,W) v U1(X,Y,Z) :- T(Z,W), R(X,Y), S(Y,Z).`},
		{"degree",
			fmt.Sprintf("T1(A,C) v T2(B,C) :- R(A,B), S(B,C).\ndeg(R: B | A) <= %d", maxDeg),
			fmt.Sprintf("U2(Y,Z) v U1(X,Z) :- S(Y,Z), R(X,Y).\ndeg(R: Y | X) <= %d", maxDeg)},
		{"empty-target",
			`T0() v T1(A,B,C) :- R(A,B), S(B,C).`,
			`U1(X,Y,Z) v U0() :- S(Y,Z), R(X,Y).`},
	}
	ctx := context.Background()
	// direct plans src (plan.PrepareRule plans its canonical spelling) and
	// executes it over src's variables, with no planner in between.
	direct := func(t *testing.T, src string) (*Rule, *Instance, *core.ExecResult) {
		t.Helper()
		pr, err := query.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		s := &pr.Rule.Schema
		b, err := db.bind(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		ins := b.ins
		cons := core.CompleteConstraints(s, ins, pr.Constraints)
		rule, _, err := plan.PrepareRule(s, cons, pr.Rule.Targets)
		if err != nil {
			t.Fatal(err)
		}
		res, err := (&core.Executor{}).ExecuteRule(ctx, s, rule, cons, ins)
		if err != nil {
			t.Fatal(err)
		}
		return pr.Rule, ins, res
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := db.PlannerStats()
			var afterFirst PlannerStats
			for i, src := range []string{tc.src, tc.src, tc.renamed} {
				got, err := db.Query(src, WithStageTimings(true))
				if err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					afterFirst = db.PlannerStats()
					// (The trivial ∅-target answer runs no stages and has no Timings.)
					if got.Timings != nil && got.Timings.PrepareWait <= 0 {
						t.Fatalf("first sighting reports no prepare-wait: %v", got.Timings.PrepareWait)
					}
				}
				rule, ins, want := direct(t, src)
				if got.Mode != ModeRule || got.Signature == "" || got.Bound.Cmp(want.Bound) != 0 || len(got.Tables) != len(want.Tables) {
					t.Fatalf("call %d: mode %v signature %q bound %v, %d tables; direct: bound %v, %d tables",
						i, got.Mode, got.Signature, got.Bound, len(got.Tables), want.Bound, len(want.Tables))
				}
				if ok, err := ins.IsModel(rule, got.Tables); err != nil || !ok {
					t.Fatalf("call %d: tables are not a model: %v %v", i, ok, err)
				}
				for b, tbl := range want.Tables {
					if !got.Tables[b].Equal(tbl) {
						t.Fatalf("call %d: table %s differs from the direct run (%d vs %d rows)",
							i, rule.VarLabel(b), got.Tables[b].Size(), tbl.Size())
					}
				}
			}
			st := db.PlannerStats()
			if built, hits := st.PlansBuilt-before.PlansBuilt, st.Hits-before.Hits; built != 1 || hits != 2 {
				t.Fatalf("three spellings of one rule: %d plans built, %d hits; want 1 and 2", built, hits)
			}
			if st.Misses != st.PlansBuilt || st.LPSolves != afterFirst.LPSolves {
				t.Fatalf("planning work after the first call: %v → %v", afterFirst, st)
			}
		})
	}
}
