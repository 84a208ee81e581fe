// Package lp is an exact linear-programming solver: two-phase primal simplex
// with Bland's anti-cycling rule over rational numbers, computed in machine
// words wherever the numbers fit them.
//
// Exactness matters here: the Shannon-flow machinery of the paper (Section 5)
// turns optimal *dual* solutions of polymatroid linear programs into Farkas
// witnesses (Proposition 5.4) and then into proof sequences (Theorem 5.9),
// and those constructions require exact rational arithmetic — a common
// denominator D of all dual values drives the algorithm. Floating point would
// break both feasibility checks and termination arguments.
//
// The scalar. The LPs this repository solves (polymatroid bounds over the
// elemental Shannon inequalities, fractional covers) have 0/±1 constraint
// matrices and 0/1 right-hand sides; only the objective carries the log N
// values with their 2³⁰-scale denominators. So a tableau cell is a value
// type — a normalised int64 numerator/denominator pair (scalar.go) — in one
// flat row-major array, and a pivot allocates nothing. Each operation checks
// its word-sized intermediates through math/bits; one that overflows is
// redone in big.Rat, and a result whose *reduced* form does not fit a word
// pair is promoted: that one cell moves to a side table of *big.Rat and the
// arithmetic continues exactly (it moves back as soon as a later result
// fits). Which representation a cell is in depends on its value alone, so
// there is one Solve, one iterate, one pivot, and the answer is the same
// exact rational either way. The Problem/Constraint/Solution surface stays
// *big.Rat; conversion happens once on the way in and once on the way out.
//
// Why Bland. Dantzig's most-negative rule was measured to blow up the
// rational coefficient sizes on the polymatroid LPs, which here would mean
// leaving the word path; Bland keeps fill-in small and guarantees
// termination. It is also a contract: entering and leaving choices depend
// only on signs and exact ratio comparisons, so the pivot sequence — and with
// it the optimal vertex, the dual, every λ, δ, witness, proof sequence and
// encoded plan byte — is a function of the problem, not of the scalar's
// representation (internal/plan's TestPlanBytesGolden and the differential
// suite against the all-big.Rat reference in reference_test.go pin that).
//
// The solver returns both a primal optimal solution and an exact dual
// solution satisfying strong duality, which callers use as witnesses.
package lp

import (
	"context"
	"fmt"
	"math/big"
)

// Sense is the relation of a constraint row.
type Sense int

// Constraint senses.
const (
	Le Sense = iota // Σ aj·xj ≤ b
	Ge              // Σ aj·xj ≥ b
	Eq              // Σ aj·xj = b
)

func (s Sense) String() string {
	switch s {
	case Le:
		return "≤"
	case Ge:
		return "≥"
	default:
		return "="
	}
}

// Term is one integer coefficient of a sparse row: Coef·x_Var.
type Term struct {
	Var  int32
	Coef int64
}

// Constraint is a single sparse row Σ_j a_j·x_j  Sense  RHS, its coefficients
// given as rationals (Coef, from AddConstraint) or as machine integers
// (Terms, from AddIntConstraint).
type Constraint struct {
	Coef  map[int]*big.Rat
	Terms []Term
	Sense Sense
	RHS   *big.Rat
}

// Problem is a linear program over variables x_0 … x_{NumVars−1} ≥ 0.
type Problem struct {
	NumVars  int
	Maximize bool
	Obj      map[int]*big.Rat // sparse objective; missing entries are 0
	Cons     []Constraint
}

// NewProblem returns an empty problem with n non-negative variables.
func NewProblem(n int, maximize bool) *Problem {
	return &Problem{NumVars: n, Maximize: maximize, Obj: map[int]*big.Rat{}}
}

// copyRat copies c; a nil c stays nil for Solve to report.
func copyRat(c *big.Rat) *big.Rat {
	if c == nil {
		return nil
	}
	return new(big.Rat).Set(c)
}

// SetObj sets the objective coefficient of variable j.
func (p *Problem) SetObj(j int, c *big.Rat) { p.Obj[j] = copyRat(c) }

// AddConstraint appends a constraint with the given sparse coefficients and
// returns its row index. The coefficient map is copied. Misuse — a variable
// index outside [0, NumVars), a nil coefficient or RHS — is reported by Solve.
func (p *Problem) AddConstraint(coef map[int]*big.Rat, sense Sense, rhs *big.Rat) int {
	cp := make(map[int]*big.Rat, len(coef))
	for j, c := range coef {
		if c == nil || c.Sign() != 0 {
			cp[j] = copyRat(c)
		}
	}
	p.Cons = append(p.Cons, Constraint{Coef: cp, Sense: sense, RHS: copyRat(rhs)})
	return len(p.Cons) - 1
}

// AddIntConstraint appends a constraint whose coefficients are machine
// integers — the elemental Shannon rows are all ±1 — and returns its row
// index. terms is copied, so the caller may reuse it for the next row: a row
// costs one allocation, not one per coefficient. A variable may appear in at
// most one term; Solve reports a repeat.
func (p *Problem) AddIntConstraint(terms []Term, sense Sense, rhs *big.Rat) int {
	p.Cons = append(p.Cons, Constraint{Terms: append([]Term(nil), terms...), Sense: sense, RHS: copyRat(rhs)})
	return len(p.Cons) - 1
}

// Status is the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	default:
		return "unbounded"
	}
}

// Solution holds an exact optimal solution.
//
// Dual[i] is the multiplier of constraint i, signed so that
// Σ_i Dual[i]·RHS_i equals Objective (strong duality holds exactly). For a
// maximization problem Dual[i] ≥ 0 on ≤ rows and ≤ 0 on ≥ rows; for a
// minimization problem the signs flip (≥ rows carry Dual[i] ≥ 0).
type Solution struct {
	Status    Status
	Objective *big.Rat
	X         []*big.Rat
	Dual      []*big.Rat
}

// tableau is the working state of the simplex method: m rows of cols+1
// cells (the last is the right-hand side) in one flat row-major array, over
// the exact arithmetic of the embedded arith.
type tableau struct {
	arith
	a        []rat
	m        int     // number of rows
	cols     int     // number of columns excluding rhs
	basis    []int   // basic variable per row
	active   []bool  // rows still active (false = redundant, removed)
	artStart int     // columns [artStart, cols) are the artificials
	initBase []int   // initial basis column of each row (slack or artificial)
	sigma    []int   // ±1 sign applied to each original row
	nz       []int32 // scratch: non-zero columns of the current pivot row
}

func (t *tableau) row(i int) []rat { return t.a[i*(t.cols+1) : (i+1)*(t.cols+1)] }

// Solve runs two-phase simplex and returns an exact optimal solution, or a
// solution whose Status reports infeasibility/unboundedness. A malformed
// problem — a variable index out of range, a nil coefficient or right-hand
// side — is an error naming the row and the index.
func (p *Problem) Solve() (*Solution, error) {
	return p.SolveContext(context.Background())
}

// SolveContext is Solve, checking ctx at every pivot and returning ctx.Err()
// once it is done: one LP over seven variables runs for seconds.
func (p *Problem) SolveContext(ctx context.Context) (*Solution, error) {
	sol, _, err := p.solve(ctx)
	return sol, err
}

// solve is SolveContext, also reporting how many results left the word path
// (the differential tests assert that their forced-promotion cases really
// do).
func (p *Problem) solve(ctx context.Context) (*Solution, int, error) {
	t, err := p.build()
	if err != nil {
		return nil, 0, err
	}
	// r is the reduced-cost row of the phase in progress, the objective
	// value in its last cell.
	r := make([]rat, t.cols+1)
	for j := range r {
		r[j] = ratZero
	}

	// Phase 1, if any row starts on an artificial: maximize −Σ artificials,
	// i.e. cost −1 on every artificial.
	if t.artStart < t.cols {
		for j := t.artStart; j < t.cols; j++ {
			r[j] = ratOne
		}
		t.priceOut(r)
		if err := t.iterate(ctx, r, t.cols, nil); err != nil {
			return nil, 0, err
		}
		if r[t.cols].sign() < 0 {
			return &Solution{Status: Infeasible}, t.promoted, nil
		}
		t.pivotOutArtificials()
	}

	// Phase 2 objective (always maximize internally); artificial columns
	// may no longer enter the basis.
	for j := range r {
		t.put(&r[j], ratZero)
	}
	for j, c := range p.Obj {
		t.set(&r[j], c, p.Maximize)
	}
	t.priceOut(r)
	unbounded := false
	if err := t.iterate(ctx, r, t.artStart, func() { unbounded = true }); err != nil {
		return nil, 0, err
	}
	if unbounded {
		return &Solution{Status: Unbounded}, t.promoted, nil
	}

	// One backing array for all of the solution's numbers.
	vals := make([]big.Rat, 1+p.NumVars+len(p.Cons))
	sol := &Solution{Status: Optimal, Objective: &vals[0], X: make([]*big.Rat, p.NumVars), Dual: make([]*big.Rat, len(p.Cons))}
	t.get(sol.Objective, r[t.cols])
	if !p.Maximize {
		sol.Objective.Neg(sol.Objective)
	}
	for j := range sol.X {
		sol.X[j] = &vals[1+j]
	}
	for i := 0; i < t.m; i++ {
		if b := t.basis[i]; t.active[i] && b < p.NumVars {
			t.get(sol.X[b], t.row(i)[t.cols])
		}
	}
	// Dual values: w_i = reduced cost under the initial basis column of row
	// i (its cost coefficient is 0 in phase 2), then undo the row sign and
	// the min→max objective flip.
	for i := range p.Cons {
		d := &vals[1+p.NumVars+i]
		if t.active[i] {
			t.get(d, r[t.initBase[i]])
			if (t.sigma[i] < 0) == p.Maximize {
				d.Neg(d)
			}
		}
		sol.Dual[i] = d
	}
	return sol, t.promoted, nil
}

// validate reports the first malformed entry of the problem.
func (p *Problem) validate() error {
	if p.NumVars < 0 {
		return fmt.Errorf("lp: negative variable count %d", p.NumVars)
	}
	for j, c := range p.Obj {
		if j < 0 || j >= p.NumVars {
			return fmt.Errorf("lp: objective variable %d out of range", j)
		}
		if c == nil {
			return fmt.Errorf("lp: objective coefficient of variable %d is nil", j)
		}
	}
	for i, c := range p.Cons {
		if c.Sense < Le || c.Sense > Eq {
			return fmt.Errorf("lp: row %d: unknown sense %d", i, int(c.Sense))
		}
		if c.RHS == nil {
			return fmt.Errorf("lp: row %d: nil right-hand side", i)
		}
		for j, v := range c.Coef {
			if j < 0 || j >= p.NumVars {
				return fmt.Errorf("lp: row %d: variable %d out of range [0,%d)", i, j, p.NumVars)
			}
			if v == nil {
				return fmt.Errorf("lp: row %d: coefficient of variable %d is nil", i, j)
			}
		}
		for _, tm := range c.Terms {
			if tm.Var < 0 || int(tm.Var) >= p.NumVars {
				return fmt.Errorf("lp: row %d: variable %d out of range [0,%d)", i, tm.Var, p.NumVars)
			}
		}
	}
	return nil
}

// build canonicalizes the problem into equality form with slacks/surpluses
// and artificials, every row having non-negative RHS and the identity as the
// initial basis.
func (p *Problem) build() (*tableau, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	m := len(p.Cons)
	t := &tableau{
		m:        m,
		basis:    make([]int, m),
		active:   make([]bool, m),
		initBase: make([]int, m),
		sigma:    make([]int, m),
	}
	// Per row after canonicalization: ≤ takes a +1 slack, ≥ a −1 surplus and
	// an artificial, = an artificial.
	sense := make([]Sense, m)
	nSlack, nArt := 0, 0
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
		if s != Eq {
			nSlack++
		}
		if s != Le {
			nArt++
		}
	}
	// Column layout: structural | slack/surplus | artificial.
	t.artStart = p.NumVars + nSlack
	t.cols = t.artStart + nArt
	t.a = make([]rat, m*(t.cols+1))
	for k := range t.a {
		t.a[k] = ratZero
	}
	slackAt, artAt := p.NumVars, t.artStart
	for i, c := range p.Cons {
		row := t.row(i)
		neg := t.sigma[i] < 0
		for j, v := range c.Coef {
			t.set(&row[j], v, neg)
		}
		for _, tm := range c.Terms {
			if row[tm.Var] != ratZero {
				return nil, fmt.Errorf("lp: row %d: variable %d appears twice", i, tm.Var)
			}
			t.setInt(&row[tm.Var], tm.Coef, neg)
		}
		t.set(&row[t.cols], c.RHS, neg)
		switch sense[i] {
		case Le:
			row[slackAt] = ratOne
			t.basis[i], t.initBase[i] = slackAt, slackAt
			slackAt++
		case Ge:
			row[slackAt] = rat{-1, 1}
			slackAt++
			fallthrough
		case Eq:
			row[artAt] = ratOne
			t.basis[i], t.initBase[i] = artAt, artAt
			artAt++
		}
	}
	return t, nil
}

// nonZero gathers the non-zero column indexes of row (rhs cell included)
// into the tableau's scratch.
func (t *tableau) nonZero(row []rat) []int32 {
	nz := t.nz[:0]
	for j, c := range row {
		if c.num != 0 {
			nz = append(nz, int32(j))
		}
	}
	t.nz = nz
	return nz
}

// eliminate subtracts row[enter]·prow from row, leaving row[enter] zero;
// prow[enter] is 1 and nz lists prow's non-zero columns.
func (t *tableau) eliminate(row, prow []rat, enter int, nz []int32) {
	f := row[enter]
	if f.num == 0 {
		return
	}
	for _, j := range nz {
		if int(j) != enter { // row[enter] holds f until the others are done
			t.mulSub(&row[j], f, prow[j])
		}
	}
	t.put(&row[enter], ratZero)
}

// priceOut turns a cost row r (holding −c_j per column, 0 as the objective
// value) into the reduced costs r_j = c_B·B⁻¹·A_j − c_j and the objective
// value c_B·B⁻¹·b of the current basis, by eliminating every basic column
// from it: the basic columns of a tableau are unit vectors.
func (t *tableau) priceOut(r []rat) {
	for i := 0; i < t.m; i++ {
		if t.active[i] && r[t.basis[i]].num != 0 {
			row := t.row(i)
			t.eliminate(r, row, t.basis[i], t.nonZero(row))
		}
	}
}

// iterate runs simplex pivots until optimal (all reduced costs ≥ 0) or
// unbounded. The reduced-cost row r (objective value in its last cell) is
// updated in place. Only columns below limit may enter the basis (phase 2
// bars the artificials). onUnbounded, if non-nil, is invoked instead of
// returning an error. It returns ctx.Err() once ctx is done.
func (t *tableau) iterate(ctx context.Context, r []rat, limit int, onUnbounded func()) error {
	maxIter := 50000 + 200*(t.m+t.cols)
	ratio, best := ratZero, ratZero // swapped, never copied: each may own a slot
	for iter := 0; ; iter++ {
		if iter > maxIter {
			return fmt.Errorf("lp: simplex exceeded %d iterations (cycling?)", maxIter)
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		// Bland's rule: entering = smallest index with negative reduced
		// cost (see the package comment for why not Dantzig's).
		enter := -1
		for j := 0; j < limit; j++ {
			if r[j].num < 0 {
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
		for i := 0; i < t.m; i++ {
			row := t.row(i)
			if !t.active[i] || row[enter].num <= 0 {
				continue
			}
			t.quo(&ratio, row[t.cols], row[enter])
			if leave != -1 {
				if c := t.cmp(ratio, best); c > 0 || (c == 0 && t.basis[i] > t.basis[leave]) {
					continue
				}
			}
			leave = i
			ratio, best = best, ratio
		}
		if leave == -1 {
			if onUnbounded != nil {
				onUnbounded()
				return nil
			}
			return fmt.Errorf("lp: unbounded")
		}
		t.pivot(leave, enter, r)
	}
}

// pivot makes column enter basic in row leave, updating all rows and, when
// non-nil, the reduced-cost row. Other rows change only at the pivot row's
// non-zero columns, gathered once.
func (t *tableau) pivot(leave, enter int, r []rat) {
	prow := t.row(leave)
	pval := prow[enter]
	nz := t.nonZero(prow)
	for _, j := range nz {
		if int(j) != enter { // prow[enter] holds pval until the others are done
			t.quo(&prow[j], prow[j], pval)
		}
	}
	t.put(&prow[enter], ratOne)
	for i := 0; i < t.m; i++ {
		if i != leave && t.active[i] {
			t.eliminate(t.row(i), prow, enter, nz)
		}
	}
	if r != nil {
		t.eliminate(r, prow, enter, nz)
	}
	t.basis[leave] = enter
}

// pivotOutArtificials removes artificial variables left basic at value zero
// after phase 1, either by pivoting a non-artificial column in or by marking
// the row redundant.
func (t *tableau) pivotOutArtificials() {
	for i := 0; i < t.m; i++ {
		if !t.active[i] || t.basis[i] < t.artStart {
			continue
		}
		pivCol := -1
		for j, c := range t.row(i)[:t.artStart] {
			if c.num != 0 {
				pivCol = j
				break
			}
		}
		if pivCol == -1 {
			// Row is 0 = 0 over non-artificial columns: redundant.
			t.active[i] = false
			continue
		}
		t.pivot(i, pivCol, nil)
	}
}
