package flow_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"panda/internal/bitset"
	"panda/internal/core"
	"panda/internal/flow"
	"panda/internal/plan"
	"panda/internal/query"
	"panda/internal/relation"
	"panda/internal/workload"
)

// TestPlanProofsMatchReference: every rule of the plans pinned by plan's
// TestPlanBytesGolden and core's digestMatrix is rebuilt from its own bound
// LP's witness — solved in the variable space the plan was built in, the
// canonical one of its key — must reproduce the sequence the plan holds, and
// goes through flow.DiffAgainstReference — the construction, the witness of
// every suffix and the truncation at every composition step against the
// reference copies.
func TestPlanProofsMatchReference(t *testing.T) {
	plans := append(goldenPlans(t), digestMatrixPlans(t)...)
	rules, compared := 0, 0
	for i, np := range plans {
		p := np.p
		if testing.Short() && i%5 != 0 {
			continue
		}
		fdcs, err := plan.FlowDCs(&p.Schema, p.Cons)
		if err != nil {
			t.Fatalf("%s: %v", np.name, err)
		}
		to, back := np.perm, make([]int, len(np.perm))
		for v, c := range np.perm {
			back[c] = v
		}
		for i := range fdcs {
			fdcs[i].X, fdcs[i].Y = mapSet(fdcs[i].X, to), mapSet(fdcs[i].Y, to)
		}
		for ri, r := range p.Rules {
			if r.Trivial {
				continue
			}
			name := fmt.Sprintf("%s rule %d", np.name, ri)
			targets := make([]bitset.Set, len(r.Targets))
			for i, b := range r.Targets {
				targets[i] = mapSet(b, to)
			}
			res, err := flow.MaximinBound(p.Schema.NumVars, fdcs, targets)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			seq, err := flow.ConstructProof(res.Lambda, res.Delta, res.Witness)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i := range seq {
				seq[i].A, seq[i].B = mapSet(seq[i].A, back), mapSet(seq[i].B, back)
			}
			if fmt.Sprint(seq) != fmt.Sprint(r.Seq) {
				t.Fatalf("%s: the plan's sequence was not built from this witness:\n got %v\nplan %v", name, seq, r.Seq)
			}
			compared += flow.DiffAgainstReference(t, name, res.Lambda, res.Delta, res.Witness)
			rules++
		}
	}
	if rules == 0 {
		t.Fatal("no rule compared")
	}
	t.Logf("%d rules, %d constructions and truncations compared", rules, compared)
}

type namedPlan struct {
	name string
	p    *plan.Plan
	// perm maps p's variables into the space it was planned in, the
	// canonical spelling's: its Signature's VarPerm.
	perm []int
}

// mapSet renames every element of s through perm.
func mapSet(s bitset.Set, perm []int) bitset.Set {
	var out bitset.Set
	for _, v := range s.Vars() {
		out = out.Add(perm[v])
	}
	return out
}

// goldenPlans prepares the shapes of plan's TestPlanBytesGolden: the query
// text, the mode and the cardinality every atom gets. The list mirrors
// goldenShapes in internal/plan/plan_bytes_test.go, which a test of this
// package cannot import; a shape added there belongs here too.
func goldenPlans(t *testing.T) []namedPlan {
	const (
		tri  = "R(A,B), S(B,C), T(A,C)."
		c4   = "R(A,B), S(B,C), T(C,D), U(D,A)."
		path = "R(A,B), S(B,C), T(C,D)."
	)
	shapes := []struct {
		name, src string
		mode      plan.Mode
		card      int64
	}{
		{"tri-full", "Q(A,B,C) :- " + tri, plan.ModeAuto, 8},
		{"tri-bool", "Q() :- " + tri, plan.ModeAuto, 8},
		{"c4-full", "Q(A,B,C,D) :- " + c4, plan.ModeFull, 8},
		{"c4-fhtw", "Q(A,B,C,D) :- " + c4, plan.ModeFhtw, 8},
		{"c4-subw", "Q(A,B,C,D) :- " + c4, plan.ModeSubw, 8},
		{"c4-bool", "Q() :- " + c4, plan.ModeSubw, 8},
		{"path3-proj", "Q(A,D) :- " + path, plan.ModeFhtw, 8},
		{"rule", "T1(A,B,C) v T2(B,C,D) :- " + path, plan.ModeAuto, 8},
		{"c4-deg", "Q(A,B,C,D) :- " + c4 + "\ndeg(R: A,B | A) <= 8", plan.ModeAuto, 8},
		{"path2-proj", "Q(A,C) :- R(A,B), S(B,C).", plan.ModeAuto, 8},
		{"c4-fhtw-100", "Q(A,B,C,D) :- " + c4, plan.ModeFhtw, 100},
		{"tri-full-7", "Q(A,B,C) :- " + tri, plan.ModeFull, 7},
		{"c4-bool-100", "Q() :- " + c4, plan.ModeAuto, 100},
		{"c4-subw-1000", "Q(A,B,C,D) :- " + c4, plan.ModeSubw, 1000},
		{"c4-subw-12345", "Q(A,B,C,D) :- " + c4, plan.ModeSubw, 12345},
		{"c4-bool-12345", "Q() :- " + c4, plan.ModeSubw, 12345},
	}
	var out []namedPlan
	for _, sh := range shapes {
		pr, err := query.Parse(sh.src)
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		cons := pr.Constraints
		for i, a := range pr.Rule.Atoms {
			cons = append(cons, query.Cardinality(a.Vars, sh.card, i))
		}
		var p *plan.Plan
		var sig *plan.Signature
		if pr.Conj != nil {
			if p, _, err = plan.Prepare(pr.Conj, cons, sh.mode); err == nil {
				sig, err = plan.Canonicalize(pr.Conj, cons, sh.mode)
			}
		} else {
			var r *plan.PreparedRule
			if r, _, err = plan.PrepareRule(&pr.Rule.Schema, cons, pr.Rule.Targets); err == nil {
				p = plan.NewRulePlan(&pr.Rule.Schema, cons, r)
				sig, err = plan.CanonicalizeRule(pr.Rule, cons)
			}
		}
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		out = append(out, namedPlan{"golden/" + sh.name, p, sig.VarPerm})
	}
	return out
}

// digestMatrixPlans prepares the distinct plans of core's digestMatrix: the
// adversarial inputs at m ∈ {16, 64, 256} and the skewed random instances of
// seeds 1…12 (partitioning does not change a plan, so each appears once).
func digestMatrixPlans(t *testing.T) []namedPlan {
	ctx := context.Background()
	c4 := workload.FourCycleQuery()
	c4proj := workload.FourCycleQuery()
	c4proj.Free = bitset.Of(0, 2)
	c4bool := workload.BooleanFourCycle()
	tri := workload.TriangleQuery()
	rule := workload.PathRule()

	var out []namedPlan
	conj := func(name string, q *query.Conjunctive, ins *query.Instance, mode plan.Mode) {
		cons := core.CompleteConstraints(&q.Schema, ins, nil)
		p, _, err := plan.Prepare(q, cons, mode)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sig, err := plan.Canonicalize(q, cons, mode)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, namedPlan{"digest/" + name, p, sig.VarPerm})
	}
	ruleOn := func(name string, ins *query.Instance) {
		cons := core.CompleteConstraints(&rule.Schema, ins, nil)
		p, err := plan.NewPlanner(1).PrepareRuleContext(ctx, rule, cons)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sig, err := plan.CanonicalizeRule(rule, cons)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, namedPlan{"digest/" + name, p, sig.VarPerm})
	}
	for _, m := range []int{16, 64, 256} {
		worst := workload.CycleWorstCase(c4, m)
		for _, mode := range []plan.Mode{plan.ModeFull, plan.ModeFhtw, plan.ModeSubw} {
			conj(fmt.Sprintf("worst/m=%d/c4/%v", m, mode), c4, worst, mode)
		}
		conj(fmt.Sprintf("worst/m=%d/c4-proj/subw", m), c4proj, worst, plan.ModeSubw)
		conj(fmt.Sprintf("worst/m=%d/c4-bool/fhtw", m), c4bool, worst, plan.ModeFhtw)
		conj(fmt.Sprintf("worst/m=%d/c4-bool/subw", m), c4bool, worst, plan.ModeSubw)
		ruleOn(fmt.Sprintf("worst/m=%d/path-rule", m), workload.PathWorstCase(rule, m))
	}
	for seed := int64(1); seed <= 12; seed++ {
		rows, dom := 40+10*int(seed), 6+int(seed)
		at := func(shape string) string { return fmt.Sprintf("random/seed=%d/%s", seed, shape) }
		c4ins := skewedBinary(seed, &c4.Schema, rows, dom)
		for _, mode := range []plan.Mode{plan.ModeFull, plan.ModeFhtw, plan.ModeSubw} {
			conj(at(fmt.Sprintf("c4/%v", mode)), c4, c4ins, mode)
		}
		conj(at("c4-bool/subw"), c4bool, c4ins, plan.ModeSubw)
		conj(at("tri/subw"), tri, skewedBinary(seed, &tri.Schema, rows, dom), plan.ModeSubw)
		ruleOn(at("path-rule"), skewedBinary(seed, &rule.Schema, rows, dom))
	}
	return out
}

// skewedBinary is core's digestMatrix instance: few distinct values on one
// side of every atom.
func skewedBinary(seed int64, s *query.Schema, n, dom int) *query.Instance {
	rng := rand.New(rand.NewSource(seed))
	ins := query.NewInstance(s)
	for i := range s.Atoms {
		for t := 0; t < n; t++ {
			ins.Relations[i].Insert([]relation.Value{relation.Value(rng.Intn(dom)), relation.Value(rng.Intn(dom * dom))})
		}
	}
	return ins
}
