package lp

import (
	"fmt"
	"math/big"
)

// The all-big.Rat two-phase simplex this package used before its tableau
// moved to machine-word rationals, kept verbatim (renamed ref*, reading
// integer rows too) as the oracle of the differential tests: same Bland
// rule, same row and column order, so on every input the word-sized solver
// must report a Cmp-equal Status, Objective, X and Dual.

// refTableau is the working state of the simplex method.
type refTableau struct {
	rows     [][]*big.Rat // m active rows, each of length cols+1 (last = rhs)
	m        int          // number of rows
	cols     int          // number of columns excluding rhs
	basis    []int        // basic variable per row
	active   []bool       // rows still active (false = redundant, removed)
	art      []bool       // per column: is artificial
	nStruct  int          // structural variable count
	initBase []int        // initial basis column of each row (slack or artificial)
	sigma    []int        // ±1 sign applied to each original row
}

var refOne = big.NewRat(1, 1)

// Solve runs two-phase simplex and returns an exact optimal solution, or a
// solution whose Status reports infeasibility/unboundedness.
func refSolve(p *Problem) (*Solution, error) {
	if p.NumVars < 0 {
		return nil, fmt.Errorf("lp: negative variable count %d", p.NumVars)
	}
	t := refBuild(p)

	// Phase 1: maximize −Σ artificials. Reduced-cost row for the phase-1
	// objective: r_j = Σ_{rows with artificial basic} −T[i][j] − c1_j.
	needPhase1 := false
	for i := 0; i < t.m; i++ {
		if t.art[t.basis[i]] {
			needPhase1 = true
			break
		}
	}
	if needPhase1 {
		c1 := make([]*big.Rat, t.cols)
		for j := 0; j < t.cols; j++ {
			if t.art[j] {
				c1[j] = new(big.Rat).Neg(refOne)
			} else {
				c1[j] = new(big.Rat)
			}
		}
		r, z := t.reducedCosts(c1)
		if err := t.iterate(r, z, false, nil); err != nil {
			return nil, err
		}
		if z.Sign() < 0 {
			return &Solution{Status: Infeasible}, nil
		}
		t.pivotOutArtificials()
	}

	// Phase 2 objective (always maximize internally).
	c2 := make([]*big.Rat, t.cols)
	for j := 0; j < t.cols; j++ {
		c2[j] = new(big.Rat)
	}
	for j, c := range p.Obj {
		if j < 0 || j >= p.NumVars {
			return nil, fmt.Errorf("lp: objective variable %d out of range", j)
		}
		if p.Maximize {
			c2[j].Set(c)
		} else {
			c2[j].Neg(c)
		}
	}
	r, z := t.reducedCosts(c2)
	unbounded := false
	if err := t.iterate(r, z, true, func() { unbounded = true }); err != nil {
		return nil, err
	}
	if unbounded {
		return &Solution{Status: Unbounded}, nil
	}

	sol := &Solution{Status: Optimal, Objective: new(big.Rat).Set(z)}
	if !p.Maximize {
		sol.Objective.Neg(sol.Objective)
	}
	sol.X = make([]*big.Rat, p.NumVars)
	for j := range sol.X {
		sol.X[j] = new(big.Rat)
	}
	for i := 0; i < t.m; i++ {
		if !t.active[i] {
			continue
		}
		if b := t.basis[i]; b < t.nStruct {
			sol.X[b].Set(t.rows[i][t.cols])
		}
	}
	// Dual values: w_i = reduced cost under the initial basis column of row
	// i (its cost coefficient is 0 in phase 2), then undo the row sign and
	// the min→max objective flip.
	sol.Dual = make([]*big.Rat, len(p.Cons))
	for i := range p.Cons {
		d := new(big.Rat)
		if t.active[i] {
			d.Set(r[t.initBase[i]])
			if t.sigma[i] < 0 {
				d.Neg(d)
			}
			if !p.Maximize {
				d.Neg(d)
			}
		}
		sol.Dual[i] = d
	}
	return sol, nil
}

// build canonicalizes the problem into equality form with slacks/surpluses
// and artificials, every row having non-negative RHS and the identity as the
// initial basis.
func refBuild(p *Problem) *refTableau {
	m := len(p.Cons)
	t := &refTableau{
		m:        m,
		nStruct:  p.NumVars,
		basis:    make([]int, m),
		active:   make([]bool, m),
		initBase: make([]int, m),
		sigma:    make([]int, m),
	}
	type rowPlan struct {
		needSlack    bool // +1 slack (≤ after canonicalization)
		needSurplus  bool // −1 surplus (≥ after canonicalization)
		needArtifice bool
	}
	plans := make([]rowPlan, m)
	sense := make([]Sense, m)
	for i, c := range p.Cons {
		t.sigma[i] = 1
		t.active[i] = true
		s := c.Sense
		neg := false
		if s == Ge { // flip to ≤
			neg, s = true, Le
		}
		rhsNeg := c.RHS.Sign() < 0
		if neg {
			rhsNeg = c.RHS.Sign() > 0
		}
		if rhsNeg { // flip sign to make RHS ≥ 0
			neg = !neg
			if s == Le {
				s = Ge
			}
		}
		if neg {
			t.sigma[i] = -1
		}
		sense[i] = s
		switch s {
		case Le:
			plans[i].needSlack = true
		case Ge:
			plans[i].needSurplus = true
			plans[i].needArtifice = true
		case Eq:
			plans[i].needArtifice = true
		}
	}
	// Column layout: structural | slack/surplus | artificial.
	nSlack := 0
	for _, pl := range plans {
		if pl.needSlack || pl.needSurplus {
			nSlack++
		}
	}
	nArt := 0
	for _, pl := range plans {
		if pl.needArtifice {
			nArt++
		}
	}
	t.cols = p.NumVars + nSlack + nArt
	t.art = make([]bool, t.cols)
	for j := p.NumVars + nSlack; j < t.cols; j++ {
		t.art[j] = true
	}
	t.rows = make([][]*big.Rat, m)
	slackAt, artAt := p.NumVars, p.NumVars+nSlack
	for i, c := range p.Cons {
		row := make([]*big.Rat, t.cols+1)
		for j := range row {
			row[j] = new(big.Rat)
		}
		for j, v := range c.Coef {
			if t.sigma[i] > 0 {
				row[j].Set(v)
			} else {
				row[j].Neg(v)
			}
		}
		for _, tm := range c.Terms {
			row[tm.Var].SetInt64(tm.Coef)
			if t.sigma[i] < 0 {
				row[tm.Var].Neg(row[tm.Var])
			}
		}
		if t.sigma[i] > 0 {
			row[t.cols].Set(c.RHS)
		} else {
			row[t.cols].Neg(c.RHS)
		}
		pl := plans[i]
		if pl.needSlack {
			row[slackAt].SetInt64(1)
			t.basis[i], t.initBase[i] = slackAt, slackAt
			slackAt++
		}
		if pl.needSurplus {
			row[slackAt].SetInt64(-1)
			slackAt++
		}
		if pl.needArtifice {
			row[artAt].SetInt64(1)
			t.basis[i], t.initBase[i] = artAt, artAt
			artAt++
		}
		t.rows[i] = row
	}
	return t
}

// reducedCosts computes r_j = c_B·B⁻¹·A_j − c_j for every column of the
// current refTableau along with the objective value z = c_B·B⁻¹·b.
func (t *refTableau) reducedCosts(c []*big.Rat) ([]*big.Rat, *big.Rat) {
	r := make([]*big.Rat, t.cols)
	for j := range r {
		r[j] = new(big.Rat).Neg(c[j])
	}
	z := new(big.Rat)
	tmp := new(big.Rat)
	for i := 0; i < t.m; i++ {
		if !t.active[i] {
			continue
		}
		cb := c[t.basis[i]]
		if cb.Sign() == 0 {
			continue
		}
		for j := 0; j < t.cols; j++ {
			if t.rows[i][j].Sign() != 0 {
				r[j].Add(r[j], tmp.Mul(cb, t.rows[i][j]))
			}
		}
		z.Add(z, tmp.Mul(cb, t.rows[i][t.cols]))
	}
	return r, z
}

// iterate runs simplex pivots until optimal (all reduced costs ≥ 0) or
// unbounded. The reduced-cost row r and objective z are updated in place.
// When barArtificial is set, artificial columns may not enter the basis
// (phase 2). onUnbounded, if non-nil, is invoked instead of returning an
// error.
func (t *refTableau) iterate(r []*big.Rat, z *big.Rat, barArtificial bool, onUnbounded func()) error {
	maxIter := 50000 + 200*(t.m+t.cols)
	for iter := 0; ; iter++ {
		if iter > maxIter {
			return fmt.Errorf("lp: simplex exceeded %d iterations (cycling?)", maxIter)
		}
		// Bland's rule: entering = smallest index with negative reduced
		// cost. (Dantzig's most-negative rule was measured to blow up
		// rational coefficient sizes on the polymatroid LPs; Bland keeps
		// fill-in small and guarantees termination.)
		enter := -1
		for j := 0; j < t.cols; j++ {
			if barArtificial && t.art[j] {
				continue
			}
			if r[j].Sign() < 0 {
				enter = j
				break
			}
		}
		if enter == -1 {
			return nil // optimal
		}
		// Leaving: min ratio rhs/col over positive col entries; ties broken
		// by smallest basis variable index (Bland).
		leave := -1
		best := new(big.Rat)
		ratio := new(big.Rat)
		for i := 0; i < t.m; i++ {
			if !t.active[i] || t.rows[i][enter].Sign() <= 0 {
				continue
			}
			ratio.Quo(t.rows[i][t.cols], t.rows[i][enter])
			if leave == -1 || ratio.Cmp(best) < 0 ||
				(ratio.Cmp(best) == 0 && t.basis[i] < t.basis[leave]) {
				leave = i
				best.Set(ratio)
			}
		}
		if leave == -1 {
			if onUnbounded != nil {
				onUnbounded()
				return nil
			}
			return fmt.Errorf("lp: unbounded")
		}
		t.pivot(leave, enter, r, z)
	}
}

// pivot makes column enter basic in row leave, updating all rows and the
// reduced-cost row.
func (t *refTableau) pivot(leave, enter int, r []*big.Rat, z *big.Rat) {
	prow := t.rows[leave]
	pval := new(big.Rat).Set(prow[enter])
	inv := new(big.Rat).Inv(pval)
	for j := 0; j <= t.cols; j++ {
		if prow[j].Sign() != 0 {
			prow[j].Mul(prow[j], inv)
		}
	}
	tmp := new(big.Rat)
	for i := 0; i < t.m; i++ {
		if i == leave || !t.active[i] {
			continue
		}
		f := t.rows[i][enter]
		if f.Sign() == 0 {
			continue
		}
		fv := new(big.Rat).Set(f)
		row := t.rows[i]
		for j := 0; j <= t.cols; j++ {
			if prow[j].Sign() != 0 {
				row[j].Sub(row[j], tmp.Mul(fv, prow[j]))
			}
		}
	}
	if r != nil {
		f := new(big.Rat).Set(r[enter])
		if f.Sign() != 0 {
			for j := 0; j < t.cols; j++ {
				if prow[j].Sign() != 0 {
					r[j].Sub(r[j], tmp.Mul(f, prow[j]))
				}
			}
			z.Sub(z, tmp.Mul(f, prow[t.cols]))
		}
	}
	t.basis[leave] = enter
}

// pivotOutArtificials removes artificial variables left basic at value zero
// after phase 1, either by pivoting a non-artificial column in or by marking
// the row redundant.
func (t *refTableau) pivotOutArtificials() {
	for i := 0; i < t.m; i++ {
		if !t.active[i] || !t.art[t.basis[i]] {
			continue
		}
		pivCol := -1
		for j := 0; j < t.cols; j++ {
			if !t.art[j] && t.rows[i][j].Sign() != 0 {
				pivCol = j
				break
			}
		}
		if pivCol == -1 {
			// Row is 0 = 0 over non-artificial columns: redundant.
			t.active[i] = false
			continue
		}
		t.pivot(i, pivCol, nil, nil)
	}
}
