package lp

import (
	"context"
	"errors"
	"math/big"
	"math/rand"
	"testing"
)

func r(a, b int64) *big.Rat { return big.NewRat(a, b) }

func coef(pairs ...interface{}) map[int]*big.Rat {
	m := map[int]*big.Rat{}
	for i := 0; i < len(pairs); i += 2 {
		m[pairs[i].(int)] = pairs[i+1].(*big.Rat)
	}
	return m
}

func mustSolve(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return sol
}

func checkObjective(t *testing.T, sol *Solution, want *big.Rat) {
	t.Helper()
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if sol.Objective.Cmp(want) != 0 {
		t.Fatalf("objective = %v, want %v", sol.Objective, want)
	}
}

// checkStrongDuality verifies Σ Dual[i]·b_i == Objective exactly.
func checkStrongDuality(t *testing.T, p *Problem, sol *Solution) {
	t.Helper()
	sum := new(big.Rat)
	tmp := new(big.Rat)
	for i, c := range p.Cons {
		sum.Add(sum, tmp.Mul(sol.Dual[i], c.RHS))
	}
	if sum.Cmp(sol.Objective) != 0 {
		t.Fatalf("dual objective %v ≠ primal objective %v", sum, sol.Objective)
	}
}

// checkDualFeasible verifies A^T y (≥ c for max / ≤ c for min) and the sign
// conventions documented on Solution.
func checkDualFeasible(t *testing.T, p *Problem, sol *Solution) {
	t.Helper()
	for j := 0; j < p.NumVars; j++ {
		lhs := new(big.Rat)
		tmp := new(big.Rat)
		for i, c := range p.Cons {
			if a, ok := c.Coef[j]; ok {
				lhs.Add(lhs, tmp.Mul(sol.Dual[i], a))
			}
		}
		cj := new(big.Rat)
		if v, ok := p.Obj[j]; ok {
			cj.Set(v)
		}
		if p.Maximize && lhs.Cmp(cj) < 0 {
			t.Fatalf("dual infeasible at var %d: %v < %v", j, lhs, cj)
		}
		if !p.Maximize && lhs.Cmp(cj) > 0 {
			t.Fatalf("dual infeasible at var %d: %v > %v", j, lhs, cj)
		}
	}
	for i, c := range p.Cons {
		s := sol.Dual[i].Sign()
		switch {
		case p.Maximize && c.Sense == Le && s < 0:
			t.Fatalf("dual[%d] = %v < 0 on ≤ row of max problem", i, sol.Dual[i])
		case p.Maximize && c.Sense == Ge && s > 0:
			t.Fatalf("dual[%d] = %v > 0 on ≥ row of max problem", i, sol.Dual[i])
		case !p.Maximize && c.Sense == Ge && s < 0:
			t.Fatalf("dual[%d] = %v < 0 on ≥ row of min problem", i, sol.Dual[i])
		case !p.Maximize && c.Sense == Le && s > 0:
			t.Fatalf("dual[%d] = %v > 0 on ≤ row of min problem", i, sol.Dual[i])
		}
	}
}

func checkPrimalFeasible(t *testing.T, p *Problem, sol *Solution) {
	t.Helper()
	for j, x := range sol.X {
		if x.Sign() < 0 {
			t.Fatalf("x[%d] = %v < 0", j, x)
		}
	}
	for i, c := range p.Cons {
		lhs := new(big.Rat)
		tmp := new(big.Rat)
		for j, a := range c.Coef {
			lhs.Add(lhs, tmp.Mul(a, sol.X[j]))
		}
		cmp := lhs.Cmp(c.RHS)
		switch c.Sense {
		case Le:
			if cmp > 0 {
				t.Fatalf("row %d violated: %v > %v", i, lhs, c.RHS)
			}
		case Ge:
			if cmp < 0 {
				t.Fatalf("row %d violated: %v < %v", i, lhs, c.RHS)
			}
		case Eq:
			if cmp != 0 {
				t.Fatalf("row %d violated: %v ≠ %v", i, lhs, c.RHS)
			}
		}
	}
}

func checkAll(t *testing.T, p *Problem, sol *Solution) {
	t.Helper()
	checkPrimalFeasible(t, p, sol)
	checkDualFeasible(t, p, sol)
	checkStrongDuality(t, p, sol)
}

func TestSimpleMax(t *testing.T) {
	// max 3x + 2y s.t. x + y ≤ 4, x + 3y ≤ 6 → x=4, y=0, obj=12.
	p := NewProblem(2, true)
	p.SetObj(0, r(3, 1))
	p.SetObj(1, r(2, 1))
	p.AddConstraint(coef(0, r(1, 1), 1, r(1, 1)), Le, r(4, 1))
	p.AddConstraint(coef(0, r(1, 1), 1, r(3, 1)), Le, r(6, 1))
	sol := mustSolve(t, p)
	checkObjective(t, sol, r(12, 1))
	if sol.X[0].Cmp(r(4, 1)) != 0 || sol.X[1].Sign() != 0 {
		t.Fatalf("X = %v", sol.X)
	}
	checkAll(t, p, sol)
}

// TestSolveContextStopsAtAPivot: under a cancelled context the simplex
// stops at its first pivot with the context's error.
func TestSolveContextStopsAtAPivot(t *testing.T) {
	p := NewProblem(2, true)
	p.SetObj(0, r(3, 1))
	p.AddConstraint(coef(0, r(1, 1), 1, r(1, 1)), Le, r(4, 1))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if sol, err := p.SolveContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("SolveContext under a cancelled context = %v, %v", sol, err)
	}
}

func TestSimpleMin(t *testing.T) {
	// min x + 2y s.t. x + y ≥ 3, y ≥ 1 → x=2, y=1, obj=4.
	p := NewProblem(2, false)
	p.SetObj(0, r(1, 1))
	p.SetObj(1, r(2, 1))
	p.AddConstraint(coef(0, r(1, 1), 1, r(1, 1)), Ge, r(3, 1))
	p.AddConstraint(coef(1, r(1, 1)), Ge, r(1, 1))
	sol := mustSolve(t, p)
	checkObjective(t, sol, r(4, 1))
	checkAll(t, p, sol)
}

func TestEqualityConstraint(t *testing.T) {
	// max x + y s.t. x + y = 2, x ≤ 1 → obj = 2.
	p := NewProblem(2, true)
	p.SetObj(0, r(1, 1))
	p.SetObj(1, r(1, 1))
	p.AddConstraint(coef(0, r(1, 1), 1, r(1, 1)), Eq, r(2, 1))
	p.AddConstraint(coef(0, r(1, 1)), Le, r(1, 1))
	sol := mustSolve(t, p)
	checkObjective(t, sol, r(2, 1))
	checkAll(t, p, sol)
}

func TestNegativeRHS(t *testing.T) {
	// max −x s.t. −x ≤ −2 (i.e. x ≥ 2) → x = 2, obj = −2.
	p := NewProblem(1, true)
	p.SetObj(0, r(-1, 1))
	p.AddConstraint(coef(0, r(-1, 1)), Le, r(-2, 1))
	sol := mustSolve(t, p)
	checkObjective(t, sol, r(-2, 1))
	checkAll(t, p, sol)
}

func TestInfeasible(t *testing.T) {
	p := NewProblem(1, true)
	p.SetObj(0, r(1, 1))
	p.AddConstraint(coef(0, r(1, 1)), Le, r(1, 1))
	p.AddConstraint(coef(0, r(1, 1)), Ge, r(2, 1))
	sol := mustSolve(t, p)
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem(2, true)
	p.SetObj(0, r(1, 1))
	p.AddConstraint(coef(1, r(1, 1)), Le, r(1, 1))
	sol := mustSolve(t, p)
	if sol.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestDegenerate(t *testing.T) {
	// A classic degenerate LP; Bland's rule must terminate.
	// max 10x1 − 57x2 − 9x3 − 24x4 (Beale's cycling example)
	p := NewProblem(4, true)
	p.SetObj(0, r(10, 1))
	p.SetObj(1, r(-57, 1))
	p.SetObj(2, r(-9, 1))
	p.SetObj(3, r(-24, 1))
	p.AddConstraint(coef(0, r(1, 2), 1, r(-11, 2), 2, r(-5, 2), 3, r(9, 1)), Le, r(0, 1))
	p.AddConstraint(coef(0, r(1, 2), 1, r(-3, 2), 2, r(-1, 2), 3, r(1, 1)), Le, r(0, 1))
	p.AddConstraint(coef(0, r(1, 1)), Le, r(1, 1))
	sol := mustSolve(t, p)
	checkObjective(t, sol, r(1, 1))
	checkAll(t, p, sol)
}

func TestExactRationals(t *testing.T) {
	// max x s.t. 3x ≤ 1 → x = 1/3 exactly.
	p := NewProblem(1, true)
	p.SetObj(0, r(1, 1))
	p.AddConstraint(coef(0, r(3, 1)), Le, r(1, 1))
	sol := mustSolve(t, p)
	checkObjective(t, sol, r(1, 3))
}

func TestRedundantEquality(t *testing.T) {
	// Duplicated equality rows produce a redundant row after phase 1.
	p := NewProblem(2, true)
	p.SetObj(0, r(1, 1))
	p.AddConstraint(coef(0, r(1, 1), 1, r(1, 1)), Eq, r(2, 1))
	p.AddConstraint(coef(0, r(1, 1), 1, r(1, 1)), Eq, r(2, 1))
	sol := mustSolve(t, p)
	checkObjective(t, sol, r(2, 1))
	checkPrimalFeasible(t, p, sol)
	checkStrongDuality(t, p, sol)
}

func TestZeroObjectiveFeasibility(t *testing.T) {
	// Pure feasibility problem (zero objective) with equalities.
	p := NewProblem(3, false)
	p.AddConstraint(coef(0, r(1, 1), 1, r(1, 1)), Eq, r(1, 1))
	p.AddConstraint(coef(1, r(1, 1), 2, r(1, 1)), Eq, r(1, 1))
	sol := mustSolve(t, p)
	checkObjective(t, sol, r(0, 1))
	checkPrimalFeasible(t, p, sol)
}

func TestFractionalEdgeCoverTriangle(t *testing.T) {
	// The AGM LP for the triangle query: min λ12+λ23+λ13 subject to each
	// vertex covered; optimum 3/2 (each λ = 1/2).
	p := NewProblem(3, false)
	for j := 0; j < 3; j++ {
		p.SetObj(j, r(1, 1))
	}
	p.AddConstraint(coef(0, r(1, 1), 2, r(1, 1)), Ge, r(1, 1)) // vertex 1 in edges 12, 13
	p.AddConstraint(coef(0, r(1, 1), 1, r(1, 1)), Ge, r(1, 1)) // vertex 2 in edges 12, 23
	p.AddConstraint(coef(1, r(1, 1), 2, r(1, 1)), Ge, r(1, 1)) // vertex 3 in edges 23, 13
	sol := mustSolve(t, p)
	checkObjective(t, sol, r(3, 2))
	checkAll(t, p, sol)
}

func TestMinWithLeRows(t *testing.T) {
	// min −x s.t. x ≤ 5 → obj −5; ≤ row in a min problem carries Dual ≤ 0.
	p := NewProblem(1, false)
	p.SetObj(0, r(-1, 1))
	p.AddConstraint(coef(0, r(1, 1)), Le, r(5, 1))
	sol := mustSolve(t, p)
	checkObjective(t, sol, r(-5, 1))
	checkAll(t, p, sol)
}

// TestRandomDuality cross-checks primal/dual consistency on random LPs whose
// feasibility is guaranteed by construction (b ≥ 0, ≤ rows).
func TestRandomDuality(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(4)
		m := 2 + rng.Intn(5)
		p := NewProblem(n, true)
		for j := 0; j < n; j++ {
			p.SetObj(j, r(int64(rng.Intn(7)-2), 1))
		}
		for i := 0; i < m; i++ {
			c := map[int]*big.Rat{}
			for j := 0; j < n; j++ {
				if rng.Intn(2) == 0 {
					c[j] = r(int64(1+rng.Intn(4)), 1)
				}
			}
			// Guarantee boundedness: every variable appears in at least
			// one row with positive coefficient.
			c[rng.Intn(n)] = r(1, 1)
			p.AddConstraint(c, Le, r(int64(rng.Intn(10)), 1))
		}
		// One covering row per variable to bound the problem.
		all := map[int]*big.Rat{}
		for j := 0; j < n; j++ {
			all[j] = r(1, 1)
		}
		p.AddConstraint(all, Le, r(20, 1))
		sol := mustSolve(t, p)
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v", trial, sol.Status)
		}
		checkAll(t, p, sol)
	}
}

// TestRandomMinDuality does the same for minimization problems with ≥ rows.
func TestRandomMinDuality(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(4)
		m := 2 + rng.Intn(4)
		p := NewProblem(n, false)
		for j := 0; j < n; j++ {
			p.SetObj(j, r(int64(1+rng.Intn(5)), 1))
		}
		for i := 0; i < m; i++ {
			c := map[int]*big.Rat{}
			for j := 0; j < n; j++ {
				if rng.Intn(2) == 0 {
					c[j] = r(int64(1+rng.Intn(4)), 1)
				}
			}
			c[rng.Intn(n)] = r(1, 1)
			p.AddConstraint(c, Ge, r(int64(rng.Intn(8)), 1))
		}
		sol := mustSolve(t, p)
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v", trial, sol.Status)
		}
		checkAll(t, p, sol)
	}
}
