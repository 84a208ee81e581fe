package panda

import (
	"context"
	"fmt"
	"math/big"
	"testing"

	"panda/internal/workload"
)

// TestDBEvalMatchesOracle is the facade's correctness table: every head
// shape (full, Boolean, proper projection) under every applicable mode, run
// through both the programmatic path (DB.Eval against an explicit instance)
// and — where the query has a textual form — the catalog path (DB.Query),
// checked against the brute-force Instance.FullJoin (projected onto the free
// variables), never against another route through the same engine.
func TestDBEvalMatchesOracle(t *testing.T) {
	project := func(q *Query, free Set) *Query {
		q.Free = free
		return q
	}
	parsedTriangle := func() *Query {
		res, err := Parse(triangleSrc)
		if err != nil {
			t.Fatal(err)
		}
		return res.Conj
	}
	type evalCase struct {
		name     string
		q        *Query
		ins      func(q *Query) *Instance
		mode     PlanMode // requested
		wantMode PlanMode // committed
		src      string   // textual form over the same catalog, when there is one
		check    func(t *testing.T, res *Result)
	}
	cases := []evalCase{
		{name: "four-cycle/worst-case/auto", q: FourCycleQuery(), src: fourCycleSrc,
			ins: func(q *Query) *Instance { return CycleWorstCase(q, 8) }, mode: ModeAuto, wantMode: ModeFull},
		{name: "four-cycle/worst-case/full", q: FourCycleQuery(), src: fourCycleSrc,
			ins: func(q *Query) *Instance { return CycleWorstCase(q, 12) }, mode: ModeFull, wantMode: ModeFull,
			check: func(t *testing.T, res *Result) {
				if res.Size() != 144 {
					t.Errorf("|Q| = %d, want 144", res.Size())
				}
				// ModeFull runs one PANDA rule: its bound is the certificate,
				// and its model is an intermediate, not part of the answer.
				if res.Bound == nil || res.Bound.Cmp(res.Width) != 0 || len(res.Tables) != 0 {
					t.Errorf("bound %v width %v tables %d", res.Bound, res.Width, len(res.Tables))
				}
			}},
		{name: "four-cycle/random/fhtw", q: FourCycleQuery(), src: fourCycleSrc,
			ins: func(q *Query) *Instance { return RandomInstance(3, &q.Schema, 200, 24) }, mode: ModeFhtw, wantMode: ModeFhtw},
		{name: "four-cycle/random/subw", q: FourCycleQuery(), src: fourCycleSrc,
			ins: func(q *Query) *Instance { return RandomInstance(7, &q.Schema, 120, 16) }, mode: ModeSubw, wantMode: ModeSubw},
		{name: "four-cycle/boolean/auto", q: BooleanFourCycle(), src: booleanFourCycleSrc,
			ins: func(q *Query) *Instance { return CycleWorstCase(q, 8) }, mode: ModeAuto, wantMode: ModeSubw},
		{name: "four-cycle/boolean/subw", q: BooleanFourCycle(), src: booleanFourCycleSrc,
			ins: func(q *Query) *Instance { return CycleWorstCase(q, 16) }, mode: ModeSubw, wantMode: ModeSubw,
			check: func(t *testing.T, res *Result) {
				// Example 1.10: the subw plan stays below the quadratic regime.
				if res.Stats.MaxIntermediate > 16*16 {
					t.Errorf("intermediate %d reached the quadratic regime", res.Stats.MaxIntermediate)
				}
			}},
		{name: "four-cycle/boolean/empty", q: BooleanFourCycle(), src: booleanFourCycleSrc,
			ins: func(q *Query) *Instance { return RandomInstance(5, &q.Schema, 3, 40) }, mode: ModeFhtw, wantMode: ModeFhtw},
		// Q(A1, A3) over the worst case — A2 = A4 = 0 always, so the
		// projection is the full [m]×[m] grid.
		{name: "four-cycle/projection/worst-case", q: project(FourCycleQuery(), Vars(0, 2)),
			ins: func(q *Query) *Instance { return CycleWorstCase(q, 8) }, mode: ModeAuto, wantMode: ModeSubw,
			check: func(t *testing.T, res *Result) {
				if res.Size() != 64 {
					t.Errorf("projection has %d tuples, want 64", res.Size())
				}
			}},
		{name: "four-cycle/projection/random", q: project(FourCycleQuery(), Vars(0, 2)),
			ins: func(q *Query) *Instance { return RandomInstance(17, &q.Schema, 80, 12) }, mode: ModeAuto, wantMode: ModeSubw},
		{name: "triangle/auto", q: TriangleQuery(), src: triangleSrc,
			ins: func(q *Query) *Instance { return RandomInstance(8, &q.Schema, 50, 12) }, mode: ModeAuto, wantMode: ModeFull},
		{name: "triangle/fhtw", q: TriangleQuery(), src: triangleSrc,
			ins: func(q *Query) *Instance { return RandomInstance(8, &q.Schema, 50, 12) }, mode: ModeFhtw, wantMode: ModeFhtw},
		{name: "triangle/parsed/full", q: parsedTriangle(), src: triangleSrc,
			ins: func(q *Query) *Instance { return RandomInstance(9, &q.Schema, 25, 5) }, mode: ModeFull, wantMode: ModeFull},
	}
	for seed := int64(0); seed < 6; seed++ {
		cases = append(cases, evalCase{name: fmt.Sprintf("triangle/projection/seed=%d", seed), q: project(TriangleQuery(), Vars(0, 1)),
			ins: func(q *Query) *Instance { return RandomInstance(seed, &q.Schema, 30, 5) }, mode: ModeAuto, wantMode: ModeFhtw})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ins := tc.ins(tc.q)
			want := ins.FullJoin()
			wantOK := want.Size() > 0
			if !tc.q.IsFull() && tc.q.Free != 0 {
				want = want.Project(tc.q.Free)
			}
			verify := func(path string, res *Result) {
				t.Helper()
				if res.Mode != tc.wantMode || res.OK != wantOK || res.Width == nil || res.Stats == nil {
					t.Fatalf("%s: mode %v ok %v width %v, want mode %v ok %v", path, res.Mode, res.OK, res.Width, tc.wantMode, wantOK)
				}
				if tc.q.Free == 0 {
					if res.Rel != nil || res.Rows() != nil {
						t.Fatalf("%s: Boolean result carries a relation", path)
					}
					return
				}
				if res.Rel.Attrs() != tc.q.Free || !res.Rel.Equal(want) {
					t.Fatalf("%s: %d tuples over %v, oracle has %d over %v",
						path, res.Size(), res.Rel.Attrs(), want.Size(), tc.q.Free)
				}
			}
			db := Open()
			defer db.Close()
			res, err := db.Eval(tc.q, ins, nil, WithMode(tc.mode))
			if err != nil {
				t.Fatal(err)
			}
			verify("Eval", res)
			if tc.check != nil {
				tc.check(t, res)
			}
			if tc.src == "" {
				return
			}
			loadCatalog(t, db, &tc.q.Schema, ins)
			tres, err := db.Query(tc.src, WithMode(tc.mode))
			if err != nil {
				t.Fatal(err)
			}
			verify("Query", tres)
		})
	}
}

// TestDBPlanContext: the programmatic dry run returns the reified plan
// without executing, plans through the session cache (a second sighting —
// by PlanContext or by Eval — is a free hit), and honours an explicit mode.
func TestDBPlanContext(t *testing.T) {
	ctx := context.Background()
	db := Open(WithPlannerCapacity(8))
	defer db.Close()
	q := FourCycleQuery()
	ins := RandomInstance(3, &q.Schema, 200, 24)

	p, err := db.PlanContext(ctx, q, ins, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Mode != ModeFull || p.Width == nil || p.Key == "" || len(p.Rules) == 0 {
		t.Fatalf("plan: mode %v width %v key %q rules %d", p.Mode, p.Width, p.Key, len(p.Rules))
	}
	planned := db.PlannerStats()
	if planned.Misses != 1 || planned.LPSolves == 0 {
		t.Fatalf("dry run did not plan: %v", planned)
	}
	if _, err := db.PlanContext(ctx, q, ins, nil); err != nil {
		t.Fatal(err)
	}
	res, err := db.Eval(q, ins, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := db.PlannerStats(); st.Hits != 2 || st.LPSolves != planned.LPSolves {
		t.Fatalf("re-planning and Eval were not free cache hits: %v", st)
	}
	if res.Signature != SignatureDigest(p.Key) || res.Width.Cmp(p.Width) != 0 {
		t.Fatalf("Eval ran signature %s width %v, the dry run promised %s width %v",
			res.Signature, res.Width, SignatureDigest(p.Key), p.Width)
	}
	pf, err := db.PlanContext(ctx, q, ins, nil, WithMode(ModeFhtw))
	if err != nil {
		t.Fatal(err)
	}
	if pf.Mode != ModeFhtw || pf.Key == p.Key {
		t.Fatalf("explicit mode ignored: mode %v, same key %v", pf.Mode, pf.Key == p.Key)
	}
	covers, err := pf.Covers()
	if err != nil || len(covers) == 0 {
		t.Fatalf("covers: %v %v", covers, err)
	}
	// Without an instance the declared constraints must bound every atom.
	dcs, assumed := DefaultCardinalities(&q.Schema, nil, 1000)
	if len(assumed) != len(q.Atoms) {
		t.Fatalf("defaults assumed for %v", assumed)
	}
	if _, err := db.PlanContext(ctx, q, nil, dcs); err != nil {
		t.Fatal(err)
	}
	if _, err := db.PlanContext(ctx, q, ins, nil, WithMode(ModeFull)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.PlanContext(ctx, BooleanFourCycle(), ins, nil, WithMode(ModeFull)); err == nil {
		t.Fatal("ModeFull accepted a Boolean query")
	}
}

// TestDBEvalRule: PANDA on Example 1.4's disjunctive rule through the
// programmatic and textual paths, with the Case-4b budget on and off. The
// oracles are Instance.IsModel for the tables and the standalone RuleBound
// LP (over the instance's cardinalities) for the bound.
func TestDBEvalRule(t *testing.T) {
	p := PathRule()
	type inst struct {
		name string
		ins  *Instance
	}
	instances := []inst{{"worst-case", workload.PathWorstCase(p, 64)}}
	for seed := int64(0); seed < 5; seed++ {
		instances = append(instances, inst{fmt.Sprintf("random/seed=%d", seed), RandomInstance(seed, &p.Schema, 40, 7)})
	}
	for _, in := range instances {
		for _, budgetOff := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/budget-off=%v", in.name, budgetOff), func(t *testing.T) {
				wantBound, err := RuleBound(p, in.ins.CardinalityConstraints(&p.Schema))
				if err != nil {
					t.Fatal(err)
				}
				verify := func(path string, res *Result) {
					t.Helper()
					if res.Mode != ModeRule || res.Rel != nil || res.Signature == "" {
						t.Fatalf("%s: mode %v rel %v signature %q", path, res.Mode, res.Rel, res.Signature)
					}
					if res.Bound.Cmp(wantBound) != 0 || res.Width.Cmp(wantBound) != 0 || wantBound.Sign() <= 0 {
						t.Fatalf("%s: bound %v width %v, RuleBound says %v", path, res.Bound, res.Width, wantBound)
					}
					if len(res.Tables) != len(p.Targets) {
						t.Fatalf("%s: %d tables for %d targets", path, len(res.Tables), len(p.Targets))
					}
					if ok, err := in.ins.IsModel(p, res.Tables); err != nil || !ok {
						t.Fatalf("%s: tables are not a model: %v %v", path, ok, err)
					}
				}
				db := Open()
				defer db.Close()
				res, err := db.EvalRule(p, in.ins, nil, WithBudgetDisabled(budgetOff))
				if err != nil {
					t.Fatal(err)
				}
				verify("EvalRule", res)
				loadCatalog(t, db, &p.Schema, in.ins)
				tres, err := db.Query(pathRuleSrc, WithBudgetDisabled(budgetOff))
				if err != nil {
					t.Fatal(err)
				}
				verify("Query", tres)
			})
		}
	}
}

// TestAblationBudgetMatters shows that PANDA's Case-4b budget/truncation
// mechanism is what keeps intermediates at N^{3/2} on Example 1.8's
// worst-case inputs: with the budget disabled the run still produces a
// correct model (TestDBEvalRule), but materializes a quadratic intermediate.
func TestAblationBudgetMatters(t *testing.T) {
	p := PathRule()
	ins := workload.PathWorstCase(p, 64)
	db := Open()
	defer db.Close()
	on, err := db.EvalRule(p, ins, nil)
	if err != nil {
		t.Fatal(err)
	}
	off, err := db.EvalRule(p, ins, nil, WithBudgetDisabled(true))
	if err != nil {
		t.Fatal(err)
	}
	// Unbudgeted, the run leaves the 2^OBJ envelope (OBJ = 1.5·log m = 2^9
	// here) by a wide margin; budgeted it must stay within polylog of it
	// and be far cheaper.
	bound, _ := off.Bound.Float64() // 9 for m = 64
	envelope := 1 << uint(bound)    // 512
	if off.Stats.MaxIntermediate <= envelope {
		t.Fatalf("ablation did not leave the budget envelope: %d ≤ 2^OBJ = %d",
			off.Stats.MaxIntermediate, envelope)
	}
	if 8*on.Stats.MaxIntermediate > off.Stats.MaxIntermediate {
		t.Fatalf("budgeted run (%d) should be ≥ 8× cheaper than unbudgeted (%d)",
			on.Stats.MaxIntermediate, off.Stats.MaxIntermediate)
	}
	if on.Stats.Restarts == 0 {
		t.Fatal("budgeted run should have exercised Case 4b on this input")
	}
}

// TestPlanRule: the rule dry run yields a ModeRule plan whose one rule has
// a proof sequence and a bound consistent with RuleBound.
func TestPlanRule(t *testing.T) {
	p := PathRule()
	var dcs []Constraint
	for i, a := range p.Atoms {
		dcs = append(dcs, Cardinality(a.Vars, 16, i))
	}
	db := Open()
	defer db.Close()
	pl, err := db.PlanRuleContext(context.Background(), p, nil, dcs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RuleBound(p, dcs)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Mode != ModeRule || len(pl.Rules) != 1 || pl.Key == "" {
		t.Fatalf("mode %v, %d rules, key %q", pl.Mode, len(pl.Rules), pl.Key)
	}
	if rp := pl.Rules[0]; rp.Bound.Cmp(want) != 0 || pl.Width.Cmp(want) != 0 || len(rp.Seq) == 0 {
		t.Fatalf("bound %v width %v (RuleBound %v), %d proof steps", rp.Bound, pl.Width, want, len(rp.Seq))
	}
}

func TestBounds(t *testing.T) {
	q := FourCycleQuery()
	var dcs []Constraint
	for i, a := range q.Atoms {
		dcs = append(dcs, Cardinality(a.Vars, 1024, i)) // log N = 10 exactly
	}
	rep, err := Bounds(q, dcs)
	if err != nil {
		t.Fatal(err)
	}
	twenty := big.NewRat(20, 1)
	if rep.AGM.Cmp(twenty) != 0 {
		t.Fatalf("AGM = %v, want 20 (N² with log N = 10)", rep.AGM)
	}
	if rep.Polymatroid.Cmp(rep.AGM) != 0 {
		t.Fatalf("polymatroid %v ≠ AGM %v under CC (Prop 3.2)", rep.Polymatroid, rep.AGM)
	}
	if rep.IntegralCover.Cmp(twenty) != 0 {
		t.Fatalf("ρ = %v, want 20", rep.IntegralCover)
	}
	if rep.Vertex.Cmp(big.NewRat(40, 1)) != 0 {
		t.Fatalf("VB = %v, want 40", rep.Vertex)
	}
}

func TestWidths(t *testing.T) {
	rep, err := Widths(FourCycleQuery())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Treewidth != 2 || rep.FHTW.Cmp(big.NewRat(2, 1)) != 0 || rep.Subw.Cmp(big.NewRat(3, 2)) != 0 {
		t.Fatalf("widths: %+v", rep)
	}
}

func TestZhangYeung(t *testing.T) {
	poly, ent, err := ZhangYeungGap()
	if err != nil {
		t.Fatal(err)
	}
	if poly.Cmp(big.NewRat(4, 1)) != 0 || ent.Cmp(big.NewRat(43, 11)) != 0 {
		t.Fatalf("gap: %v vs %v", poly, ent)
	}
}
