package plan

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"panda/internal/bitset"
	"panda/internal/flow"
	"panda/internal/query"
	"panda/internal/widths"
)

type queryAtom = query.Atom

// TestPrepareFhtwWidthCertificate: with unit logs the fhtw plan's width
// certificate must equal the classic da-fhtw of the 4-cycle (2).
func TestPrepareFhtwWidthCertificate(t *testing.T) {
	q, cons := cycleQuery(4, nil, nil, 2) // log₂ 2 = 1 per edge
	p, bs, err := Prepare(q, cons, ModeFhtw)
	if err != nil {
		t.Fatal(err)
	}
	if p.Width.Cmp(big.NewRat(2, 1)) != 0 {
		t.Fatalf("fhtw width certificate %v, want 2", p.Width)
	}
	if bs.LPSolves == 0 {
		t.Fatal("Prepare reported zero LP solves")
	}
	if p.Chosen < 0 || p.Chosen >= len(p.TDs) {
		t.Fatalf("chosen decomposition %d out of range", p.Chosen)
	}
	td := p.TDs[p.Chosen]
	if len(p.Rules) != len(td.Bags) {
		t.Fatalf("%d rules for %d bags", len(p.Rules), len(td.Bags))
	}
	for i, r := range p.Rules {
		if len(r.Targets) != 1 || r.Targets[0] != td.Bags[i] {
			t.Fatalf("rule %d targets %v, want bag %v", i, r.Targets, td.Bags[i])
		}
		if len(r.Seq) == 0 {
			t.Fatalf("rule %d has an empty proof sequence", i)
		}
	}
	// The cross-check against the widths package.
	var dcs []flow.DC
	for _, c := range cons {
		dcs = append(dcs, flow.DC{X: c.X, Y: c.Y, LogN: c.LogN})
	}
	want, err := widths.DaFhtw(q.Hypergraph(), dcs)
	if err != nil {
		t.Fatal(err)
	}
	if p.Width.Cmp(want) != 0 {
		t.Fatalf("plan width %v ≠ widths.DaFhtw %v", p.Width, want)
	}
}

// TestPrepareSubwWidthCertificate: the subw plan's certificate must equal
// da-subw (3/2 on the unit-log 4-cycle).
func TestPrepareSubwWidthCertificate(t *testing.T) {
	q, cons := cycleQuery(4, nil, nil, 2)
	p, _, err := Prepare(q, cons, ModeSubw)
	if err != nil {
		t.Fatal(err)
	}
	if p.Width.Cmp(big.NewRat(3, 2)) != 0 {
		t.Fatalf("subw width certificate %v, want 3/2", p.Width)
	}
	if len(p.Transversals) != len(p.Rules) {
		t.Fatalf("%d rules for %d transversals", len(p.Rules), len(p.Transversals))
	}
	var dcs []flow.DC
	for _, c := range cons {
		dcs = append(dcs, flow.DC{X: c.X, Y: c.Y, LogN: c.LogN})
	}
	want, err := widths.DaSubw(q.Hypergraph(), dcs)
	if err != nil {
		t.Fatal(err)
	}
	if p.Width.Cmp(want) != 0 {
		t.Fatalf("plan width %v ≠ widths.DaSubw %v", p.Width, want)
	}
}

// TestPrepareCovers: every reified cover must actually cover its bag.
func TestPrepareCovers(t *testing.T) {
	q, cons := cycleQuery(4, nil, nil, 100)
	for _, mode := range []Mode{ModeFull, ModeFhtw, ModeSubw} {
		p, _, err := Prepare(q, cons, mode)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		covers, err := p.Covers()
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if len(covers) == 0 {
			t.Fatalf("%v: no covers", mode)
		}
		for _, cov := range covers {
			for _, v := range cov.Bag.Vars() {
				total := new(big.Rat)
				for j, a := range q.Atoms {
					if a.Vars.Contains(v) {
						total.Add(total, cov.Weights[j])
					}
				}
				if total.Cmp(big.NewRat(1, 1)) < 0 {
					t.Fatalf("%v: cover of %v leaves vertex %d under-covered (%v)", mode, cov.Bag, v, total)
				}
			}
		}
	}
}

// TestPrepareModeAuto mirrors the facade dispatch.
func TestPrepareModeAuto(t *testing.T) {
	qf, cons := cycleQuery(4, nil, nil, 16)
	p, _, err := Prepare(qf, cons, ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	if p.Mode != ModeFull {
		t.Fatalf("full query resolved to %v", p.Mode)
	}
	qb, cons := cycleQuery(4, nil, nil, 16)
	qb.Free = 0
	p, _, err = Prepare(qb, cons, ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	if p.Mode != ModeSubw {
		t.Fatalf("Boolean query resolved to %v", p.Mode)
	}
}

// TestModeAutoCostBased: golden check that cost-based ModeAuto commits the
// strategy whose exact width certificate is the minimum of the fhtw and
// subw candidates, with ties going to the cheaper fhtw execution.
func TestModeAutoCostBased(t *testing.T) {
	check := func(name string, q *query.Conjunctive, cons []query.DegreeConstraint) {
		t.Helper()
		auto, _, err := Prepare(q, cons, ModeAuto)
		if err != nil {
			t.Fatalf("%s: auto: %v", name, err)
		}
		fh, _, err := Prepare(q, cons, ModeFhtw)
		if err != nil {
			t.Fatalf("%s: fhtw: %v", name, err)
		}
		sw, _, err := Prepare(q, cons, ModeSubw)
		if err != nil {
			t.Fatalf("%s: subw: %v", name, err)
		}
		min := fh.Width
		if sw.Width.Cmp(min) < 0 {
			min = sw.Width
		}
		if auto.Width.Cmp(min) != 0 {
			t.Fatalf("%s: auto certificate %v, want min(fhtw %v, subw %v)",
				name, auto.Width, fh.Width, sw.Width)
		}
		wantMode := ModeFhtw
		if sw.Width.Cmp(fh.Width) < 0 {
			wantMode = ModeSubw
		}
		if auto.Mode != wantMode {
			t.Fatalf("%s: auto chose %v (fhtw %v, subw %v), want %v",
				name, auto.Mode, fh.Width, sw.Width, wantMode)
		}
	}

	// Boolean 4-cycle: subw 3/2 strictly below fhtw 2 → ModeSubw.
	qb, cons := cycleQuery(4, nil, nil, 2)
	qb.Free = 0
	check("boolean 4-cycle", qb, cons)

	// Acyclic projection path: the certificates tie → ModeFhtw.
	qp := &query.Conjunctive{
		Schema: query.Schema{NumVars: 3, Atoms: []queryAtom{
			{Name: "R", Vars: bitset.Of(0, 1)},
			{Name: "S", Vars: bitset.Of(1, 2)},
		}},
		Free: bitset.Of(0, 2),
	}
	pcons := []query.DegreeConstraint{
		query.Cardinality(bitset.Of(0, 1), 16, 0),
		query.Cardinality(bitset.Of(1, 2), 16, 1),
	}
	check("acyclic path projection", qp, pcons)

	// Boolean 5-cycle: a second strict-win fixture at a different width.
	q5, cons5 := cycleQuery(5, nil, nil, 2)
	q5.Free = 0
	check("boolean 5-cycle", q5, cons5)
}

// TestModeAutoMatchesTheCheaperCertificate is ModeAuto's differential: on
// every shape of TestPlanBytesGolden's corpus, on k-cycles and on paths with
// seeded cardinalities and one degree constraint, Prepare(ModeAuto) encodes
// byte for byte as the plan of the mode that comparing both full
// certificates picks (subw iff its width is strictly smaller; ModeFull for a
// full query), though the auto walk stops at the first transversal whose LP
// reaches da-fhtw. It pins ModeAuto's LP solves where that stop or the
// one-bag transversals save some, and that the explicit modes solve one LP
// per bag (fhtw) and one per transversal (subw).
func TestModeAutoMatchesTheCheaperCertificate(t *testing.T) {
	const (
		tri  = "R(A,B), S(B,C), T(A,C)."
		c4   = "R(A,B), S(B,C), T(C,D), U(D,A)."
		path = "R(A,B), S(B,C), T(C,D)."
	)
	vars := "ABCDEF"
	// chain is the body R0(A,B), R1(B,C), … over n variables, closed back
	// to A when cyclic.
	chain := func(n int, cyclic bool) string {
		var atoms []string
		for i := 0; i+1 < n || (cyclic && i < n); i++ {
			atoms = append(atoms, fmt.Sprintf("R%d(%c,%c)", i, vars[i], vars[(i+1)%n]))
		}
		return strings.Join(atoms, ", ") + "."
	}
	type shape struct {
		name, src string
		cards     []int64 // per atom; a single entry applies to every atom
		lps       int     // ModeAuto's LP solves, where pinned
	}
	rows := func(n int64) []int64 { return []int64{n} }
	shapes := []shape{
		{"tri-full", "Q(A,B,C) :- " + tri, rows(8), 0},
		{"tri-bool", "Q() :- " + tri, rows(8), 1},
		{"c4-full", "Q(A,B,C,D) :- " + c4, rows(8), 0},
		{"c4-bool", "Q() :- " + c4, rows(8), 8},
		{"path3-proj", "Q(A,D) :- " + path, rows(8), 3},
		{"c4-deg", "Q(A,B,C,D) :- " + c4 + "\ndeg(R: A,B | A) <= 8", rows(8), 0},
		{"path2-proj", "Q(A,C) :- R(A,B), S(B,C).", rows(8), 2},
		{"c4-full-100", "Q(A,B,C,D) :- " + c4, rows(100), 0},
		{"tri-full-7", "Q(A,B,C) :- " + tri, rows(7), 0},
		{"c4-bool-100", "Q() :- " + c4, rows(100), 0},
		{"c4-full-1000", "Q(A,B,C,D) :- " + c4, rows(1000), 0},
		{"c4-full-12345", "Q(A,B,C,D) :- " + c4, rows(12345), 0},
		{"c4-bool-12345", "Q() :- " + c4, rows(12345), 0},
		{"c5-bool", "Q() :- " + chain(5, true), rows(8), 31},
		{"path6-ends", "Q(A,F) :- " + chain(6, false), rows(8), 5},
		// R is a bijection: the certificates tie, and the walk stops after
		// one two-bag transversal where the full comparison solved four.
		{"c4-bool-fd", "Q() :- " + c4 + "\ndeg(R: A,B | A) <= 1\ndeg(R: A,B | B) <= 1", rows(8), 5},
	}
	rng := rand.New(rand.NewSource(1))
	random := func(name, head string, n int, cyclic bool) shape {
		atoms := n - 1
		if cyclic {
			atoms = n
		}
		cards := make([]int64, atoms)
		for i := range cards {
			cards[i] = 2 + rng.Int63n(199)
		}
		i := rng.Intn(atoms)
		deg := fmt.Sprintf("\ndeg(R%d: %c,%c | %c) <= %d", i, vars[i], vars[(i+1)%n], vars[i], 1+rng.Int63n(cards[i]))
		return shape{name, head + " :- " + chain(n, cyclic) + deg, cards, 0}
	}
	for k := 3; k <= 5; k++ {
		shapes = append(shapes,
			random(fmt.Sprintf("c%d-bool-rand", k), "Q()", k, true),
			random(fmt.Sprintf("c%d-proj-rand", k), "Q(A,C)", k, true))
	}
	for n := 3; n <= 6; n++ {
		shapes = append(shapes,
			random(fmt.Sprintf("path%d-bool-rand", n), "Q()", n, false),
			random(fmt.Sprintf("path%d-ends-rand", n), fmt.Sprintf("Q(A,%c)", vars[n-1]), n, false))
	}

	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			pr, err := query.Parse(sh.src)
			if err != nil {
				t.Fatal(err)
			}
			q, cons := pr.Conj, pr.Constraints
			for i, a := range q.Atoms {
				cons = append(cons, query.Cardinality(a.Vars, sh.cards[min(i, len(sh.cards)-1)], i))
			}
			auto, bs, err := Prepare(q, cons, ModeAuto)
			if err != nil {
				t.Fatal(err)
			}
			var want *Plan
			if q.IsFull() {
				if want, _, err = Prepare(q, cons, ModeFull); err != nil {
					t.Fatal(err)
				}
			} else {
				fh, fbs, err := Prepare(q, cons, ModeFhtw)
				if err != nil {
					t.Fatal(err)
				}
				sw, sbs, err := Prepare(q, cons, ModeSubw)
				if err != nil {
					t.Fatal(err)
				}
				if fbs.LPSolves != len(fh.Bags) || sbs.LPSolves != len(sw.Transversals) {
					t.Errorf("fhtw solved %d LPs for %d bags, subw %d for %d transversals",
						fbs.LPSolves, len(fh.Bags), sbs.LPSolves, len(sw.Transversals))
				}
				want = fh
				if sw.Width.Cmp(fh.Width) < 0 {
					want = sw
				}
			}
			if got, w := encodePlan(t, auto), encodePlan(t, want); !bytes.Equal(got, w) {
				t.Errorf("auto plan (%v, width %v) differs from the %v plan (width %v)", auto.Mode, auto.Width, want.Mode, want.Width)
			}
			if sh.lps != 0 && bs.LPSolves != sh.lps {
				t.Errorf("auto solved %d LPs, want %d", bs.LPSolves, sh.lps)
			}
		})
	}
}

// TestPrepareErrors: malformed inputs are rejected before any LP runs.
func TestPrepareErrors(t *testing.T) {
	q, cons := cycleQuery(4, nil, nil, 8)
	// Unguarded constraint.
	c := cons[0]
	c.Guard = -1
	if _, _, err := Prepare(q, append(cons[1:len(cons):len(cons)], c), ModeFhtw); err == nil {
		t.Fatal("unguarded constraint accepted")
	}
	// Guard atom that cannot cover the constraint.
	c = cons[0]
	c.Guard = 2 // atom over other variables
	if c.Y.SubsetOf(q.Atoms[2].Vars) {
		t.Fatal("test setup: guard accidentally valid")
	}
	if _, _, err := Prepare(q, append(cons[1:len(cons):len(cons)], c), ModeFhtw); err == nil {
		t.Fatal("mismatched guard accepted")
	}
	// ModeFull on a non-full query.
	qb := *q
	qb.Free = bitset.Of(0)
	if _, _, err := Prepare(&qb, cons, ModeFull); err == nil {
		t.Fatal("ModeFull accepted a non-full query")
	}
	// Variables outside the universe must error, not panic (both in the
	// direct and the cached path).
	qf := *q
	qf.Free = q.Free.Add(10)
	if _, _, err := Prepare(&qf, cons, ModeAuto); err == nil {
		t.Fatal("free variable outside universe accepted")
	}
	if _, err := NewPlanner(2).Prepare(&qf, cons, ModeAuto); err == nil {
		t.Fatal("planner accepted free variable outside universe")
	}
	qa := *q
	qa.Schema.Atoms = append([]queryAtom(nil), q.Atoms...)
	qa.Schema.Atoms[0].Vars = qa.Atoms[0].Vars.Add(20)
	if _, _, err := Prepare(&qa, cons, ModeAuto); err == nil {
		t.Fatal("atom variable outside universe accepted")
	}
}

// TestRebindRoundTrip: the planner caches the plan of the canonical
// spelling; fromCanonical of it, the plan every Prepare returns, must be a
// valid plan in the caller's space — it decodes, which checks every
// decomposition, transversal, guard and proof against the caller's schema —
// and, Key aside, the plan Prepare returns without a planner.
func TestRebindRoundTrip(t *testing.T) {
	q, cons := cycleQuery(4, []int{1, 3, 0, 2}, []int{3, 1, 0, 2}, 32)
	p, _, err := Prepare(q, cons, ModeSubw)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := Canonicalize(q, cons, ModeSubw)
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPlanner(2)
	if _, err := pl.Prepare(q, cons, ModeSubw); err != nil {
		t.Fatal(err)
	}
	rt := pl.index[sig.Key].Value.(*entry).plan.fromCanonical(sig, &q.Schema)
	if rt.Key != sig.Key {
		t.Fatal("rebinding lost the key")
	}
	for i, a := range rt.Schema.Atoms {
		if a.Name != q.Atoms[i].Name || a.Vars != q.Atoms[i].Vars {
			t.Fatalf("rebound schema atom %d is %+v, want %+v", i, a, q.Atoms[i])
		}
	}
	var buf bytes.Buffer
	if err := EncodePlan(&buf, rt); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodePlan(&buf); err != nil {
		t.Fatalf("the rebound plan is not valid in the caller's space: %v", err)
	}
	rt.Key = ""
	if !reflect.DeepEqual(rt, p) {
		t.Fatal("the rebound plan is not the direct plan")
	}
}

// TestModeStringRoundTrip: every named mode prints the spelling ParseMode
// reads back, and a value that is no mode says so instead of posing as subw.
func TestModeStringRoundTrip(t *testing.T) {
	for _, m := range []Mode{ModeAuto, ModeFull, ModeFhtw, ModeSubw} {
		if got, _, err := ParseMode(m.String()); err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if got := ModeRule.String(); got != "rule" {
		t.Errorf("ModeRule prints %q", got)
	}
	for _, m := range []Mode{Mode(-2), Mode(17)} {
		if got := m.String(); got != "mode("+strconv.Itoa(int(m))+")" {
			t.Errorf("Mode(%d) prints %q", int(m), got)
		}
	}
}

// TestPreparedRulesShareCommonRationals: a freshly prepared rule holds the
// decoder's one 1 and one 1/2 wherever its weights, λ or δ take those values,
// and every other rational as it came.
func TestPreparedRulesShareCommonRationals(t *testing.T) {
	q, cons := cycleQuery(4, nil, nil, 100)
	shared := 0
	for _, mode := range []Mode{ModeFull, ModeSubw} {
		p, _, err := Prepare(q, cons, mode)
		if err != nil {
			t.Fatal(err)
		}
		check := func(what string, r *big.Rat) {
			t.Helper()
			switch {
			case r == ratOne || r == ratHalf:
				shared++
			case r.Cmp(ratOne) == 0 || r.Cmp(ratHalf) == 0:
				t.Fatalf("%v: %s %v is a copy, not the shared value", mode, what, r)
			}
		}
		for _, r := range p.Rules {
			for _, s := range r.Seq {
				check("weight", s.W)
			}
			for _, v := range r.Lambda {
				check("λ", v)
			}
			for _, v := range r.Delta {
				check("δ", v)
			}
		}
	}
	if shared == 0 {
		t.Fatal("no prepared rational is 1 or 1/2: the check needs some")
	}
}

// TestPrepareHonoursItsDeadline: a subw plan of the Boolean 7-cycle solves
// an LP for each of its 2,725 minimal transversals; planning under a 50 ms
// deadline returns the deadline's error promptly instead.
func TestPrepareHonoursItsDeadline(t *testing.T) {
	q, cons := cycleQuery(7, nil, nil, 100)
	q.Free = 0
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, _, err := PrepareContext(ctx, q, cons, ModeSubw); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the deadline's", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("planning ran %v past a 50ms deadline", d)
	}
}

// TestPrepareRuleHonoursItsDeadline: the rule of the Boolean 7-cycle's first
// bag transversal solves an LP of seconds, and a 50 ms deadline stops it.
func TestPrepareRuleHonoursItsDeadline(t *testing.T) {
	q, cons := cycleQuery(7, nil, nil, 100)
	e, err := widths.NewEngine(context.Background(), q.Schema.Hypergraph())
	if err != nil {
		t.Fatal(err)
	}
	trs, err := e.Transversals(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, _, err := PrepareRuleContext(ctx, &q.Schema, cons, widths.Targets(e.Bags, trs[0])); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the deadline's", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("planning ran %v past a 50ms deadline", d)
	}
}
