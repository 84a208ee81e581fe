package flow

import (
	"fmt"
	"math/big"
	"sort"

	"panda/internal/bitset"
	"panda/internal/lp"
)

// SigPair indexes a submodularity multiplier σ_{I,J} with I ⊥ J; stored in
// canonical order I < J.
type SigPair struct {
	I, J bitset.Set
}

// Sig builds a canonical SigPair.
func Sig(i, j bitset.Set) SigPair {
	if i > j {
		i, j = j, i
	}
	return SigPair{I: i, J: j}
}

// Witness is the (σ, µ) of Definition 5.8: multipliers certifying via
// Proposition 5.6 that 〈λ,h〉 ≤ 〈δ,h〉 is a Shannon flow inequality.
type Witness struct {
	Sigma map[SigPair]*big.Rat
	Mu    map[Pair]*big.Rat // µ_{X,Y} for X ⊂ Y (X may be ∅)
}

// NewWitness returns an empty witness.
func NewWitness() *Witness {
	return &Witness{Sigma: map[SigPair]*big.Rat{}, Mu: map[Pair]*big.Rat{}}
}

// Clone returns a deep copy.
func (w *Witness) Clone() *Witness {
	out := NewWitness()
	for k, v := range w.Sigma {
		out.Sigma[k] = new(big.Rat).Set(v)
	}
	for k, v := range w.Mu {
		out.Mu[k] = new(big.Rat).Set(v)
	}
	return out
}

// addTo adds v to m[k], creating the entry on first use.
func addTo[K comparable](m map[K]*big.Rat, k K, v *big.Rat) {
	r, ok := m[k]
	if !ok {
		r = new(big.Rat)
		m[k] = r
	}
	r.Add(r, v)
}

func subFrom(m map[bitset.Set]*big.Rat, z bitset.Set, v *big.Rat) {
	addTo(m, z, new(big.Rat).Neg(v))
}

// Inflows computes inflow(Z) for every Z per Eq. (74):
//
//	inflow(Z) = Σ_X δ_{Z|X} − Σ_Y δ_{Y|Z} + Σ_{I⊥J, I∩J=Z} σ_{I,J}
//	          + Σ_{I⊥J, I∪J=Z} σ_{I,J} − Σ_{J⊥Z} σ_{Z,J}
//	          − Σ_{X⊂Z} µ_{X,Z} + Σ_{Z⊂Y} µ_{Z,Y}.
//
// Entries not in the map are zero.
func Inflows(delta Vec, w *Witness) map[bitset.Set]*big.Rat {
	in := map[bitset.Set]*big.Rat{}
	for p, v := range delta {
		addTo(in, p.Y, v)
		if p.X != 0 {
			subFrom(in, p.X, v)
		}
	}
	if w == nil {
		return in
	}
	for sp, v := range w.Sigma {
		addTo(in, sp.I.Intersect(sp.J), v)
		addTo(in, sp.I.Union(sp.J), v)
		subFrom(in, sp.I, v)
		subFrom(in, sp.J, v)
	}
	for p, v := range w.Mu {
		if p.X != 0 {
			addTo(in, p.X, v)
		}
		subFrom(in, p.Y, v)
	}
	return in
}

// CheckWitness verifies Proposition 5.6: inflow(Z) ≥ λ_Z for all Z ≠ ∅ and
// non-negativity of (δ, σ, µ). A nil error means (σ,µ) witnesses
// 〈λ,h〉 ≤ 〈δ,h〉.
func CheckWitness(lambda, delta Vec, w *Witness) error {
	if !lambda.NonNegative() || !delta.NonNegative() {
		return fmt.Errorf("flow: negative coordinates in λ or δ")
	}
	for _, v := range w.Sigma {
		if v.Sign() < 0 {
			return fmt.Errorf("flow: negative σ entry")
		}
	}
	for _, v := range w.Mu {
		if v.Sign() < 0 {
			return fmt.Errorf("flow: negative µ entry")
		}
	}
	for p := range lambda {
		if p.X != 0 {
			return fmt.Errorf("flow: λ has conditioned coordinate %v", p)
		}
	}
	in := Inflows(delta, w)
	for p, lv := range lambda {
		iv, ok := in[p.Y]
		if !ok {
			iv = new(big.Rat)
		}
		if iv.Cmp(lv) < 0 {
			return fmt.Errorf("flow: inflow(%v) = %v < λ = %v", p.Y, iv, lv)
		}
	}
	for z, iv := range in {
		if z == 0 {
			continue
		}
		if iv.Cmp(lambda.Get(Marginal(z))) < 0 {
			return fmt.Errorf("flow: inflow(%v) = %v < λ = %v", z, iv, lambda.Get(Marginal(z)))
		}
	}
	return nil
}

// Tighten raises µ_{∅,Z} to make every inflow equality hold exactly
// (Definition 5.10): whenever inflow(Z) > λ_Z the surplus is drained
// through the monotonicity multiplier µ_{∅,Z}, which only lowers
// inflow(Z). The witness is modified in place.
func Tighten(lambda, delta Vec, w *Witness) {
	in := Inflows(delta, w)
	zs := make([]bitset.Set, 0, len(in))
	for z := range in {
		zs = append(zs, z)
	}
	sort.Slice(zs, func(i, j int) bool { return zs[i] < zs[j] })
	for _, z := range zs {
		if z == 0 {
			continue
		}
		surplus := new(big.Rat).Sub(in[z], lambda.Get(Marginal(z)))
		if surplus.Sign() > 0 {
			addTo(w.Mu, Pair{X: 0, Y: z}, surplus)
		}
	}
}

// WitnessOfProof reads a witness (σ, µ) of 〈λ,h〉 ≤ 〈δ,h〉 off a proof
// sequence for it — the easy direction of Theorem 5.9, and where PANDA's
// Case-4b restart gets the witness of its current inequality from: the steps
// the engine has not run yet are a proof sequence from its current δ. The
// sequence is replayed on a copy of δ (a step that does not apply is an
// error); a submodularity step w·s[I,J] is w units of σ_{I,J}, a monotonicity
// step w·m[X⊂Y] is w units of µ_{X,Y} (X may be ∅), and every conditioned
// δ_ℓ(Y|X) left at the end is dropped by µ_{X,Y}. Each of those changes
// inflow(Z) (Eq. 74) exactly as its multiplier does — s[I,J] moves δ(I|I∩J)
// to δ(I∪J|J): +1 at I∩J and I∪J, −1 at I and J; m[X⊂Y] moves δ(Y) to δ(X):
// +1 at X, −1 at Y; composition and decomposition cancel out — so under the
// result inflow(Z) = δ_ℓ(Z|∅), which is ≥ λ_Z by Definition 5.7(4): the
// witness passes CheckWitness for every λ the sequence proves.
func WitnessOfProof(delta Vec, seq ProofSequence) (*Witness, error) {
	cur := delta.Clone()
	w := NewWitness()
	for i, s := range seq {
		if err := s.Apply(cur); err != nil {
			return nil, fmt.Errorf("flow: step %d: %w", i, err)
		}
		switch s.Kind {
		case Submodularity:
			addTo(w.Sigma, Sig(s.A, s.B), s.W)
		case Monotonicity:
			addTo(w.Mu, Pair{X: s.A, Y: s.B}, s.W)
		}
	}
	for p, v := range cur {
		if p.X != 0 {
			addTo(w.Mu, p, v)
		}
	}
	return w, nil
}

// FindWitness decides whether 〈λ,h〉 ≤ 〈δ,h〉 is a Shannon flow inequality
// on [n] and returns a witness (σ, µ) over the elemental Shannon
// inequalities if it is. Because the elemental inequalities generate Γn, a
// witness exists iff the inequality is valid (Farkas / Proposition 5.4); it
// is obtained by exact LP, minimizing ‖σ‖₁ + ‖µ‖₁. Returns an error when the
// inequality is not valid. This is the paper's decision procedure and the
// reference WitnessOfProof is tested against (core's
// TestRestartWitnessAgainstLP); nothing on the planning or execution path
// calls it — the planner's witness is the dual of its bound LP
// (MaximinBound) and a restart's is read off its remaining proof steps.
func FindWitness(n int, lambda, delta Vec) (*Witness, error) {
	full := bitset.Full(n)
	// Row per Z: inflow(Z) ≥ λ_Z, with the δ part moved to the RHS.
	rhs := make([]big.Rat, int(full)+1)
	for _, vec := range []Vec{lambda, delta} {
		for p := range vec {
			if !p.X.Union(p.Y).SubsetOf(full) {
				return nil, fmt.Errorf("flow: coordinate %v outside the universe [%d]", p, n)
			}
		}
	}
	for p, v := range lambda {
		rhs[p.Y].Add(&rhs[p.Y], v)
	}
	for p, v := range delta {
		rhs[p.Y].Sub(&rhs[p.Y], v)
		rhs[p.X].Add(&rhs[p.X], v) // rhs[∅] is never read
	}
	sk := NewElemental(n)
	prob := lp.NewProblem(sk.NumCols(), false)
	one := big.NewRat(1, 1)
	for v := 0; v < sk.NumCols(); v++ {
		prob.SetObj(v, one)
	}
	var row []lp.Term
	for z := bitset.Set(1); z <= full; z++ {
		row = sk.AppendRow(row[:0], z, 0, 1)
		prob.AddIntConstraint(row, lp.Ge, &rhs[z])
	}
	sol, err := prob.Solve()
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("flow: no witness exists (LP %v): inequality is not a Shannon flow inequality", sol.Status)
	}
	return sk.witness(sol.X, one), nil
}
