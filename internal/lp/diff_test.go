package lp

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"panda/internal/bitset"
	"panda/internal/query"
)

// diffSolve solves p with the word-sized solver and with the all-big.Rat
// reference and requires Cmp-equal Status, Objective, X and Dual. It returns
// the solution and how many results left the word path.
func diffSolve(t *testing.T, name string, p *Problem) (*Solution, int) {
	t.Helper()
	got, promoted, err := p.solve(context.Background())
	if err != nil {
		t.Fatalf("%s: Solve: %v", name, err)
	}
	want, err := refSolve(p)
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	if got.Status != want.Status {
		t.Fatalf("%s: status %v, reference %v", name, got.Status, want.Status)
	}
	if got.Status != Optimal {
		return got, promoted
	}
	if got.Objective.Cmp(want.Objective) != 0 {
		t.Fatalf("%s: objective %v, reference %v", name, got.Objective, want.Objective)
	}
	if len(got.X) != len(want.X) || len(got.Dual) != len(want.Dual) {
		t.Fatalf("%s: solution shape (%d,%d), reference (%d,%d)", name, len(got.X), len(got.Dual), len(want.X), len(want.Dual))
	}
	for j := range want.X {
		if got.X[j].Cmp(want.X[j]) != 0 {
			t.Fatalf("%s: X[%d] = %v, reference %v", name, j, got.X[j], want.X[j])
		}
	}
	for i := range want.Dual {
		if got.Dual[i].Cmp(want.Dual[i]) != 0 {
			t.Fatalf("%s: Dual[%d] = %v, reference %v", name, i, got.Dual[i], want.Dual[i])
		}
	}
	return got, promoted
}

// randomLP draws a small LP over all three senses. Rows may repeat (redundant
// equalities), right-hand sides are often zero (degenerate vertices), and
// nothing guarantees feasibility or boundedness, so all three statuses occur.
func randomLP(rng *rand.Rand) *Problem {
	n := 1 + rng.Intn(6)
	m := 1 + rng.Intn(7)
	p := NewProblem(n, rng.Intn(2) == 0)
	small := func() *big.Rat { return big.NewRat(int64(rng.Intn(8)-2), int64(1+rng.Intn(3))) }
	for j := 0; j < n; j++ {
		if rng.Intn(4) != 0 {
			p.SetObj(j, small())
		}
	}
	for i := 0; i < m; i++ {
		if i > 0 && rng.Intn(6) == 0 { // repeat an earlier row, sometimes as an equality
			c := p.Cons[rng.Intn(i)]
			sense := c.Sense
			if rng.Intn(2) == 0 {
				sense = Eq
			}
			p.AddConstraint(c.Coef, sense, c.RHS)
			continue
		}
		row := map[int]*big.Rat{}
		for j := 0; j < n; j++ {
			if rng.Intn(3) != 0 {
				row[j] = small()
			}
		}
		rhs := new(big.Rat)
		if rng.Intn(3) != 0 {
			rhs = big.NewRat(int64(rng.Intn(13)-2), int64(1+rng.Intn(2)))
		}
		p.AddConstraint(row, []Sense{Le, Le, Le, Ge, Ge, Eq}[rng.Intn(6)], rhs)
	}
	return p
}

func TestDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	seen := map[Status]int{}
	degenerate, redundant := 0, 0
	for trial := 0; trial < 800; trial++ {
		p := randomLP(rng)
		sol, promoted := diffSolve(t, fmt.Sprintf("trial %d", trial), p)
		if promoted != 0 {
			t.Fatalf("trial %d: %d promotions on single-digit coefficients", trial, promoted)
		}
		seen[sol.Status]++
		if sol.Status != Optimal {
			continue
		}
		checkPrimalFeasible(t, p, sol)
		checkStrongDuality(t, p, sol)
		basicZero := 0
		for _, x := range sol.X {
			if x.Sign() == 0 {
				basicZero++
			}
		}
		if basicZero > len(sol.X)-len(p.Cons) && basicZero > 0 {
			degenerate++
		}
		for i, c := range p.Cons {
			for _, d := range p.Cons[:i] {
				if c.Sense == Eq && d.Sense == Eq && c.RHS.Cmp(d.RHS) == 0 && sameCoef(c.Coef, d.Coef) {
					redundant++
				}
			}
		}
	}
	for _, s := range []Status{Optimal, Infeasible, Unbounded} {
		if seen[s] < 20 {
			t.Errorf("only %d %v problems among the random LPs: %v", seen[s], s, seen)
		}
	}
	if degenerate < 20 || redundant < 5 {
		t.Errorf("random LPs reached %d degenerate optima and %d redundant equality pairs", degenerate, redundant)
	}
}

func sameCoef(a, b map[int]*big.Rat) bool {
	if len(a) != len(b) {
		return false
	}
	for j, v := range a {
		if w, ok := b[j]; !ok || v.Cmp(w) != 0 {
			return false
		}
	}
	return true
}

// dc is a degree constraint h(Y|X) ≤ logN of a polymatroid-bound LP.
type dc struct {
	x, y bitset.Set
	logN *big.Rat
}

func cards(logN *big.Rat, edges ...bitset.Set) []dc {
	var out []dc
	for _, e := range edges {
		out = append(out, dc{0, e, logN})
	}
	return out
}

// polymatroidLP builds the dual LP (72) of the polymatroid bound the way
// flow.MaximinBound does — columns δ | σ | µ | z, one ≥ row per non-empty
// subset through AddIntConstraint, then 1ᵀz ≥ 1 — so the differential suite
// covers the LPs the planner actually solves.
func polymatroidLP(n int, dcs []dc, targets []bitset.Set) *Problem {
	full := bitset.Full(n)
	rows := make([][]Term, int(full)+1)
	add := func(z bitset.Set, v int, c int64) {
		if z != 0 {
			rows[z] = append(rows[z], Term{int32(v), c})
		}
	}
	v := 0
	for _, c := range dcs {
		add(c.y, v, 1)
		add(c.x, v, -1)
		v++
	}
	for s := bitset.Set(0); s <= full; s++ { // σ_{S;i,j}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if s.Contains(i) || s.Contains(j) {
					continue
				}
				add(s, v, 1)
				add(s.Add(i).Add(j), v, 1)
				add(s.Add(i), v, -1)
				add(s.Add(j), v, -1)
				v++
			}
		}
	}
	for s := bitset.Set(0); s <= full; s++ { // µ_{S,S+i}
		for i := 0; i < n; i++ {
			if !s.Contains(i) {
				add(s, v, 1)
				add(s.Add(i), v, -1)
				v++
			}
		}
	}
	var zrow []Term
	for _, b := range targets {
		add(b, v, -1)
		zrow = append(zrow, Term{int32(v), 1})
		v++
	}
	p := NewProblem(v, false)
	for k, c := range dcs {
		p.SetObj(k, c.logN)
	}
	for z := bitset.Set(1); z <= full; z++ {
		p.AddIntConstraint(rows[z], Ge, new(big.Rat))
	}
	p.AddIntConstraint(zrow, Ge, big.NewRat(1, 1))
	return p
}

func cycleEdges(k int) []bitset.Set {
	var out []bitset.Set
	for i := 0; i < k; i++ {
		out = append(out, bitset.Of(i, (i+1)%k))
	}
	return out
}

func TestDifferentialPolymatroid(t *testing.T) {
	type shape struct {
		name    string
		n       int
		edges   []bitset.Set
		targets []bitset.Set
	}
	shapes := []shape{
		{"triangle", 3, cycleEdges(3), []bitset.Set{bitset.Full(3)}},
		{"4-cycle", 4, cycleEdges(4), []bitset.Set{bitset.Full(4)}},
		{"4-cycle-subw", 4, cycleEdges(4), []bitset.Set{bitset.Of(0, 1, 2), bitset.Of(1, 2, 3)}},
		{"example-1.4", 4, cycleEdges(4)[:3], []bitset.Set{bitset.Of(0, 1, 2), bitset.Of(1, 2, 3)}},
		// The whole test takes 30 ms with the reference, so no -short gate.
		{"5-cycle", 5, cycleEdges(5), []bitset.Set{bitset.Full(5)}},
	}
	for _, sh := range shapes {
		for _, size := range []int64{8, 100, 12345} {
			name := fmt.Sprintf("%s/N=%d", sh.name, size)
			p := polymatroidLP(sh.n, cards(query.LogOf(size), sh.edges...), sh.targets)
			sol, promoted := diffSolve(t, name, p)
			if sol.Status != Optimal {
				t.Fatalf("%s: %v", name, sol.Status)
			}
			// One shared 2³⁰ denominator in the objective: nothing leaves a word.
			if promoted != 0 {
				t.Errorf("%s: %d promotions", name, promoted)
			}
		}
	}
}

// TestDifferentialForcedPromotion drives the solver off the word path and
// requires that it still agrees with the reference — and that it really did
// leave the word path.
func TestDifferentialForcedPromotion(t *testing.T) {
	r := func(a, b int64) *big.Rat { return big.NewRat(a, b) }
	cases := map[string]*Problem{}

	// Coefficients and right-hand sides near 2⁶²: the first pivot's products
	// need ~124 bits.
	{
		const h = int64(1) << 62
		p := NewProblem(3, true)
		p.SetObj(0, r(h-1, 1))
		p.SetObj(1, r(h-3, 1))
		p.SetObj(2, r(1, 1))
		p.AddConstraint(map[int]*big.Rat{0: r(h-5, 1), 1: r(h-9, 1), 2: r(3, 1)}, Le, r(h-11, 1))
		p.AddConstraint(map[int]*big.Rat{0: r(h-15, 1), 1: r(7, 1), 2: r(h-17, 1)}, Le, r(h-21, 1))
		p.AddConstraint(map[int]*big.Rat{0: r(5, 1), 1: r(h-27, 1), 2: r(h-29, 1)}, Le, r(h-35, 1))
		cases["near-2^62"] = p
	}
	// The same through the integer adder, at the very edge of int64.
	{
		p := NewProblem(2, true)
		p.SetObj(0, r(1, 1))
		p.SetObj(1, r(1, 1))
		p.AddIntConstraint([]Term{{0, math.MaxInt64}, {1, math.MinInt64}}, Le, r(math.MaxInt64, 1))
		p.AddIntConstraint([]Term{{0, math.MinInt64}, {1, math.MaxInt64 - 2}}, Le, r(math.MaxInt64-4, 1))
		p.AddIntConstraint([]Term{{0, 1}, {1, 1}}, Le, r(math.MaxInt64, 3))
		cases["int64-edge"] = p
	}
	// Coprime 2³¹-scale denominators: every product of two doubles the width.
	{
		primes := []int64{2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549}
		p := NewProblem(3, false)
		p.SetObj(0, r(1, primes[0]))
		p.SetObj(1, r(1, primes[1]))
		p.SetObj(2, r(1, primes[2]))
		p.AddConstraint(map[int]*big.Rat{0: r(1, primes[3]), 1: r(1, primes[4])}, Ge, r(1, 1))
		p.AddConstraint(map[int]*big.Rat{1: r(1, primes[5]), 2: r(1, primes[0])}, Ge, r(1, 1))
		p.AddConstraint(map[int]*big.Rat{0: r(1, primes[1]), 2: r(1, primes[2])}, Ge, r(1, 1))
		cases["coprime-2^31"] = p
	}
	// The 4-cycle's bound LP with pairwise-distinct 2³⁰-scale denominators on
	// its four LogN: the dual values are half-sums of them.
	{
		dcs := cards(nil, cycleEdges(4)...)
		for k, d := range []int64{1<<30 - 35, 1<<30 - 41, 1<<30 - 83, 1<<30 - 101} { // primes
			dcs[k].logN = r(3*d+int64(k)+1, d)
		}
		cases["distinct-logN-2^30"] = polymatroidLP(4, dcs, []bitset.Set{bitset.Full(4)})
	}

	for name, p := range cases {
		sol, promoted := diffSolve(t, name, p)
		if sol.Status != Optimal {
			t.Errorf("%s: %v", name, sol.Status)
		}
		if promoted == 0 {
			t.Errorf("%s: the solve never left the word path", name)
		}
	}
}

// TestMalformedProblems: indexes and pointers the solver used to trust are
// errors naming the row and the index — never a panic, never a clobbered
// slack or right-hand-side cell behind an "optimal" answer.
func TestMalformedProblems(t *testing.T) {
	one := big.NewRat(1, 1)
	// max x0 s.t. x0 ≤ 1, x0 + x1 ≤ 2: NumVars 2, one slack per row, so
	// column NumVars is row 0's slack and NumVars+nSlack the RHS.
	base := func() *Problem {
		p := NewProblem(2, true)
		p.SetObj(0, one)
		p.AddConstraint(map[int]*big.Rat{0: one}, Le, one)
		return p
	}
	for _, tc := range []struct {
		name string
		add  func(p *Problem)
		want string
	}{
		{"negative index", func(p *Problem) { p.AddConstraint(map[int]*big.Rat{-1: one}, Le, one) }, "lp: row 1: variable -1 out of range [0,2)"},
		{"first slack", func(p *Problem) { p.AddConstraint(map[int]*big.Rat{2: one}, Le, one) }, "lp: row 1: variable 2 out of range [0,2)"},
		{"rhs cell", func(p *Problem) { p.AddConstraint(map[int]*big.Rat{0: one, 4: big.NewRat(7, 1)}, Le, one) }, "lp: row 1: variable 4 out of range [0,2)"},
		{"nil coefficient", func(p *Problem) { p.AddConstraint(map[int]*big.Rat{1: nil}, Le, one) }, "lp: row 1: coefficient of variable 1 is nil"},
		{"nil rhs", func(p *Problem) { p.AddConstraint(map[int]*big.Rat{1: one}, Le, nil) }, "lp: row 1: nil right-hand side"},
		{"integer row index", func(p *Problem) { p.AddIntConstraint([]Term{{0, 1}, {2, 1}}, Le, one) }, "lp: row 1: variable 2 out of range [0,2)"},
		{"integer row repeat", func(p *Problem) { p.AddIntConstraint([]Term{{1, 1}, {1, 2}}, Le, one) }, "lp: row 1: variable 1 appears twice"},
		{"unknown sense", func(p *Problem) { p.AddConstraint(map[int]*big.Rat{1: one}, Sense(3), one) }, "lp: row 1: unknown sense 3"},
		{"nil objective", func(p *Problem) { p.SetObj(1, nil) }, "lp: objective coefficient of variable 1 is nil"},
		{"objective index", func(p *Problem) { p.SetObj(2, one) }, "lp: objective variable 2 out of range"},
	} {
		p := base()
		tc.add(p)
		sol, err := p.Solve()
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: Solve = %v, %v; want error %q", tc.name, sol, err, tc.want)
		}
	}
}
