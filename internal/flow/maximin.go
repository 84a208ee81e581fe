package flow

import (
	"errors"
	"fmt"
	"math/big"
	"slices"

	"panda/internal/bitset"
	"panda/internal/lp"
	"panda/internal/setfunc"
)

// ErrUnbounded reports that the polymatroid-bound LP is unbounded: the
// constraint set does not bound every target, typically because an atom
// lacks a cardinality constraint. The facade re-exports it as
// panda.ErrUnboundedLP.
var ErrUnbounded = errors.New("flow: bound is unbounded (+∞)")

// DC is a degree constraint (X, Y, N_{Y|X}) in log form: h(Y|X) ≤ LogN.
// Cardinality constraints have X = ∅; FDs have LogN = 0.
type DC struct {
	X, Y bitset.Set
	LogN *big.Rat
}

// MaximinResult is the output of the Lemma 5.2 / Proposition 5.4 pipeline:
// the polymatroid bound value, the λ of the linearized objective, the dual δ
// merged by conditional pair and the witness (σ,µ) — what a plan is built
// from. The per-constraint δ and the optimal polymatroid h* are read off the
// retained LP solution on demand (DeltaByCon, HStar).
type MaximinResult struct {
	Bound   *big.Rat // LogSizeBound_{Γn∩HDC} = max_h min_B h(B)
	Lambda  Vec      // ‖λ‖₁ = 1, support on targets
	Delta   Vec      // merged by (X,Y); Σ n·δ ≤ Bound with equality pre-scaling
	Witness *Witness

	n, numDCs int
	sol       *lp.Solution // nil when an ∅ target made the bound 0 without an LP
	scale     *big.Rat     // the 1/‖z‖₁ applied to the solution's δ, σ, µ, z
}

// DeltaByCon returns δ per input constraint, aligned with the dcs given to
// MaximinBound.
func (r *MaximinResult) DeltaByCon() []*big.Rat {
	out := make([]*big.Rat, r.numDCs)
	for k := range out {
		out[k] = new(big.Rat)
		if r.sol != nil {
			out[k].Mul(r.sol.X[k], r.scale)
		}
	}
	return out
}

// HStar returns the optimal polymatroid achieving the bound, from the exact
// LP duals.
func (r *MaximinResult) HStar() *setfunc.Func {
	if r.sol == nil {
		return setfunc.New(r.n)
	}
	return hStar(r.n, r.sol)
}

// MaximinBound solves LogSizeBound_{Γn∩HDC}(targets) = max_{h∈Γn∩HDC}
// min_B h(B) exactly, per Eq. (7)/(9). One LP solve (the dual form (72),
// with Γn presented by its elemental inequalities) yields the bound, the λ
// of Lemma 5.2, the dual (δ,σ,µ) of LP (73) — a witness by
// Proposition 5.4 — and the optimal polymatroid h* (from the LP duals).
// The returned vectors are scaled so ‖λ‖₁ = 1 (invariant (84)).
func MaximinBound(n int, dcs []DC, targets []bitset.Set) (*MaximinResult, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("flow: no targets")
	}
	full := bitset.Full(n)
	if err := validateDCs(full, dcs); err != nil {
		return nil, err
	}
	for _, b := range targets {
		if !b.SubsetOf(full) {
			return nil, fmt.Errorf("flow: target %v outside the universe [%d]", b, n)
		}
	}
	// A target ∅ forces the bound to 0: h(∅) = 0 for every polymatroid.
	// Callers special-case ∅ targets (the model {()} is always valid).
	for _, b := range targets {
		if b == 0 {
			return &MaximinResult{
				Bound:   new(big.Rat),
				Lambda:  NewVec(),
				Delta:   NewVec(),
				Witness: NewWitness(),
				n:       n,
				numDCs:  len(dcs),
			}, nil
		}
	}
	var tlist []bitset.Set // deduplicated
	for _, b := range targets {
		if !slices.Contains(tlist, b) {
			tlist = append(tlist, b)
		}
	}

	// Variable layout: δ (per constraint) | σ µ (elemental) | z (per target).
	sk := NewElemental(n)
	offSig := len(dcs)
	offZ := offSig + sk.NumCols()
	prob := lp.NewProblem(offZ+len(tlist), false)
	for k, dc := range dcs {
		prob.SetObj(k, dc.LogN)
	}
	zero := new(big.Rat)
	one := big.NewRat(1, 1)
	var row []lp.Term
	for z := bitset.Set(1); z <= full; z++ { // row z−1: inflow(Z) ≥ z_Z
		row = sk.AppendRow(appendDCs(row[:0], dcs, z), z, offSig, 1)
		for t, b := range tlist {
			if b == z {
				row = append(row, lp.Term{Var: int32(offZ + t), Coef: -1})
			}
		}
		prob.AddIntConstraint(row, lp.Ge, zero)
	}
	row = row[:0]
	for t := range tlist {
		row = append(row, lp.Term{Var: int32(offZ + t), Coef: 1})
	}
	prob.AddIntConstraint(row, lp.Ge, one) // 1ᵀz ≥ 1 (Lemma 5.3's dual row)

	sol, err := prob.Solve()
	if err != nil {
		return nil, err
	}
	switch sol.Status {
	case lp.Optimal:
	case lp.Infeasible:
		// Dual infeasible ⟺ the primal max is unbounded: the constraints do
		// not bound some target.
		return nil, fmt.Errorf("%w: constraints do not bound every target", ErrUnbounded)
	default:
		return nil, fmt.Errorf("flow: unexpected LP status %v", sol.Status)
	}

	// Scale so ‖λ‖₁ = 1 (the LP only enforces Σz ≥ 1; scaling everything
	// by 1/‖z‖₁ preserves witness feasibility and only tightens Σ n·δ).
	norm := new(big.Rat)
	for t := range tlist {
		norm.Add(norm, sol.X[offZ+t])
	}
	scale := big.NewRat(1, 1)
	if norm.Cmp(one) > 0 {
		scale.Inv(norm)
	}
	res := &MaximinResult{
		Bound:   new(big.Rat).Set(sol.Objective),
		Lambda:  NewVec(),
		Delta:   NewVec(),
		Witness: sk.witness(sol.X[offSig:], scale),
		n:       n,
		numDCs:  len(dcs),
		sol:     sol,
		scale:   scale,
	}
	for t, b := range tlist {
		v := new(big.Rat).Mul(sol.X[offZ+t], scale)
		if v.Sign() > 0 {
			res.Lambda.Add(Marginal(b), v)
		}
	}
	for k, dc := range dcs {
		if v := new(big.Rat).Mul(sol.X[k], scale); v.Sign() > 0 {
			res.Delta.Add(Pair{X: dc.X, Y: dc.Y}, v)
		}
	}
	return res, nil
}

func validateDCs(full bitset.Set, dcs []DC) error {
	for _, dc := range dcs {
		if !dc.X.ProperSubsetOf(dc.Y) || !dc.Y.SubsetOf(full) {
			return fmt.Errorf("flow: bad constraint X=%v Y=%v", dc.X, dc.Y)
		}
		if dc.LogN == nil || dc.LogN.Sign() < 0 {
			return fmt.Errorf("flow: constraint needs LogN ≥ 0")
		}
	}
	return nil
}

// appendDCs appends the δ columns of row Z: constraint k is column k, +1 on
// row Y and −1 on row X (Eq. 74).
func appendDCs(row []lp.Term, dcs []DC, z bitset.Set) []lp.Term {
	for k, dc := range dcs {
		switch z {
		case dc.Y:
			row = append(row, lp.Term{Var: int32(k), Coef: 1})
		case dc.X:
			row = append(row, lp.Term{Var: int32(k), Coef: -1})
		}
	}
	return row
}

// hStar reads the optimal polymatroid off the exact LP duals of a bound LP
// whose row Z−1 is the inflow constraint of Z: Dual[row Z] = h*(Z).
func hStar(n int, sol *lp.Solution) *setfunc.Func {
	h := setfunc.New(n)
	for z := 1; z < len(h.V); z++ {
		h.V[z].Set(sol.Dual[z-1])
	}
	return h
}

// LinearBound solves max Σ_B c_B·h(B) over Γn ∩ HDC exactly — the
// right-hand side of Lemma 5.2's Eq. (68) for a fixed λ = c. Returns the
// optimum and the optimal polymatroid.
func LinearBound(n int, dcs []DC, objective map[bitset.Set]*big.Rat) (*big.Rat, *setfunc.Func, error) {
	full := bitset.Full(n)
	if err := validateDCs(full, dcs); err != nil {
		return nil, nil, err
	}
	weighted := false
	for b, c := range objective {
		if c.Sign() < 0 {
			return nil, nil, fmt.Errorf("flow: negative objective weight")
		}
		weighted = weighted || (c.Sign() > 0 && b != 0)
	}
	if !weighted {
		return new(big.Rat), setfunc.New(n), nil
	}
	// The dual with λ = c fixed: minimize Σ n·δ subject to inflow(Z) ≥ λ_Z —
	// MaximinBound's rows with the z columns replaced by a right-hand side.
	sk := NewElemental(n)
	prob := lp.NewProblem(len(dcs)+sk.NumCols(), false)
	for k, dc := range dcs {
		prob.SetObj(k, dc.LogN)
	}
	zero := new(big.Rat)
	var row []lp.Term
	for z := bitset.Set(1); z <= full; z++ {
		row = sk.AppendRow(appendDCs(row[:0], dcs, z), z, len(dcs), 1)
		lam := objective[z]
		if lam == nil {
			lam = zero
		}
		prob.AddIntConstraint(row, lp.Ge, lam)
	}
	sol, err := prob.Solve()
	if err != nil {
		return nil, nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, nil, fmt.Errorf("flow: linear bound LP %v (unbounded primal?)", sol.Status)
	}
	return new(big.Rat).Set(sol.Objective), hStar(n, sol), nil
}
