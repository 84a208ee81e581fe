package flow

import (
	"fmt"
	"math/big"

	"panda/internal/bitset"
)

// ConstructProof builds a proof sequence for the Shannon flow inequality
// 〈λ,h〉 ≤ 〈δ,h〉 given a witness (σ,µ), following the constructive proof of
// Theorem 5.9. The unit-weight induction of the paper is run in batched
// form: each iteration moves t = min(available masses) instead of 1/D,
// a run-length compression that preserves every invariant and keeps
// sequences short. The inputs are not modified.
//
// An iteration costs one scan of δ to pick Z, then at most two scans of
// each of δ, σ and µ — one for inflow(Z) alone (Eq. 74), summed over a
// common denominator and reduced once, and one for the contributor it
// takes — plus the step it emits. It sorts nothing and sums no norm: λ's
// zero coordinates are dropped up front and Vec.Sub deletes the ones that
// reach zero, so ‖λ‖₁ > 0 is len(λ) > 0. Each choice is the least candidate
// in a fixed order, which is what makes the sequence a function of its
// inputs, and the scans must reproduce it: Z by (|Z|, Z) among the marginals
// δ_{Z|∅} > 0, preferring one λ still asks for; µ_{X,Z} by X; δ_{Y|Z} by
// (|Y|, Y) — for both, Vec.Pairs' order (|Y|, Y, X) with one side fixed —
// and σ_{I,J} by (I, J).
func ConstructProof(lambda, delta Vec, w *Witness) (ProofSequence, error) {
	if err := CheckWitness(lambda, delta, w); err != nil {
		return nil, fmt.Errorf("flow: construct: %w", err)
	}
	lam := NewVec()
	for p, r := range lambda {
		if r.Sign() != 0 {
			lam[p] = new(big.Rat).Set(r)
		}
	}
	del := delta.Clone()
	wit := w.Clone()
	var seq ProofSequence

	emit := func(s Step) error {
		if err := s.Apply(del); err != nil {
			return err
		}
		seq = append(seq, s)
		return nil
	}

	var in ratSum
	const maxIter = 200000
	for iter := 0; len(lam) > 0; iter++ {
		if iter > maxIter {
			return nil, fmt.Errorf("flow: proof construction exceeded %d iterations", maxIter)
		}
		z, caseA, found := nextZ(lam, del)
		if !found {
			return nil, fmt.Errorf("flow: no marginal δ term available but ‖λ‖ = %v > 0", lam.L1())
		}
		zm := Marginal(z)

		if caseA { // Case (a): deliver mass to target Z.
			t := minRat(lam[zm], del[zm])
			lam.Sub(zm, t)
			del.Sub(zm, t)
			continue
		}
		if inZ := inflowAt(&in, del, wit, z); inZ.Sign() > 0 { // Case (b): burn surplus.
			del.Sub(zm, minRat(inZ, del[zm]))
			continue
		}
		// Case (c): inflow(Z) = 0 with δ_{Z|∅} > 0 — find a negative
		// contributor to inflow(Z) and emit the corresponding step(s).
		// (c1) µ_{X,Z} > 0 for some X ⊂ Z.
		if p, ok := leastMu(wit.Mu, z); ok {
			t := minRat(del[zm], wit.Mu[p])
			if err := emit(Step{Kind: Monotonicity, W: t, A: p.X, B: z}); err != nil {
				return nil, err
			}
			wit.Mu[p].Sub(wit.Mu[p], t)
			continue
		}
		// (c2) δ_{Y|Z} > 0 for some Y ⊃ Z.
		if p, ok := leastCond(del, z); ok {
			t := minRat(del[zm], del[p])
			if err := emit(Step{Kind: Composition, W: t, A: z, B: p.Y}); err != nil {
				return nil, err
			}
			continue
		}
		// (c3) σ_{Z,J} > 0 for some J ⊥ Z.
		sp, j, ok := leastSigma(wit.Sigma, z)
		if !ok {
			return nil, fmt.Errorf("flow: stuck at Z=%v: inflow 0, no negative contributor (witness inconsistent)", z)
		}
		v := wit.Sigma[sp]
		t := minRat(del[zm], v)
		if x := z.Intersect(j); x != 0 {
			if err := emit(Step{Kind: Decomposition, W: t, A: x, B: z}); err != nil {
				return nil, err
			}
		}
		if err := emit(Step{Kind: Submodularity, W: t, A: z, B: j}); err != nil {
			return nil, err
		}
		v.Sub(v, t)
	}
	return seq, nil
}

// nextZ picks the Z of an iteration of ConstructProof: the least Z in
// (|Z|, Z) order with δ_{Z|∅} > 0 and λ_Z > 0 (case a, for shorter
// sequences), else the least with δ_{Z|∅} > 0. λ holds no zero coordinate.
func nextZ(lam, del Vec) (z bitset.Set, caseA, found bool) {
	var least, paid bitset.Set
	hasLeast, hasPaid := false, false
	for p, v := range del {
		if p.X != 0 || v.Sign() <= 0 {
			continue
		}
		if !hasLeast || setLess(p.Y, least) {
			least, hasLeast = p.Y, true
		}
		if _, ok := lam[p]; ok && (!hasPaid || setLess(p.Y, paid)) {
			paid, hasPaid = p.Y, true
		}
	}
	if hasPaid {
		return paid, true, true
	}
	return least, false, hasLeast
}

// inflowAt returns inflow(Z) of Eq. (74) for the one Z given — the entry
// Inflows would hold for it — summed in acc from the terms that touch Z. The
// result is acc's and valid until its next use.
func inflowAt(acc *ratSum, delta Vec, w *Witness, z bitset.Set) *big.Rat {
	acc.reset()
	for p, v := range delta {
		if p.Y == z {
			acc.add(v, false)
		}
		if p.X != 0 && p.X == z {
			acc.add(v, true)
		}
	}
	for sp, v := range w.Sigma {
		if sp.I.Intersect(sp.J) == z {
			acc.add(v, false)
		}
		if sp.I.Union(sp.J) == z {
			acc.add(v, false)
		}
		if sp.I == z {
			acc.add(v, true)
		}
		if sp.J == z {
			acc.add(v, true)
		}
	}
	for p, v := range w.Mu {
		if p.X != 0 && p.X == z {
			acc.add(v, false)
		}
		if p.Y == z {
			acc.add(v, true)
		}
	}
	return acc.sum()
}

// ratSum adds rationals over a running common denominator in big.Ints it
// reuses, and reduces the fraction once, in sum: big.Rat.Add copies both
// operands and takes a gcd on every call.
type ratSum struct {
	num, den, t big.Int
	out         big.Rat
}

func (s *ratSum) reset() {
	s.num.SetInt64(0)
	s.den.SetInt64(1)
}

// add adds r, or subtracts it if neg.
func (s *ratSum) add(r *big.Rat, neg bool) {
	x := r.Num()
	switch {
	case !r.IsInt():
		if d := r.Denom(); s.den.Cmp(d) != 0 { // num/den + x/d = (num·d + x·den)/(den·d)
			s.num.Mul(&s.num, d)
			x = s.t.Mul(x, &s.den)
			s.den.Mul(&s.den, d)
		}
	case !s.den.IsInt64() || s.den.Int64() != 1:
		x = s.t.Mul(x, &s.den)
	}
	if neg {
		s.num.Sub(&s.num, x)
	} else {
		s.num.Add(&s.num, x)
	}
}

// sum returns the reduced total; it is s's until the next reset.
func (s *ratSum) sum() *big.Rat { return s.out.SetFrac(&s.num, &s.den) }

// leastMu returns the positive µ_{X,Z} with the least X: the first of
// Vec.Pairs' order among the µ terms on Z.
func leastMu(mu map[Pair]*big.Rat, z bitset.Set) (Pair, bool) {
	var best Pair
	found := false
	for p, v := range mu {
		if p.Y == z && v.Sign() > 0 && (!found || p.X < best.X) {
			best, found = p, true
		}
	}
	return best, found
}

// leastCond returns the positive δ_{Y|Z} with the least Y in (|Y|, Y)
// order: the first of Vec.Pairs' order among the δ terms conditioned on Z.
func leastCond(del Vec, z bitset.Set) (Pair, bool) {
	var best Pair
	found := false
	for p, v := range del {
		if p.X == z && v.Sign() > 0 && (!found || setLess(p.Y, best.Y)) {
			best, found = p, true
		}
	}
	return best, found
}

// leastSigma returns the positive σ_{I,J} with Z ∈ {I, J} least in (I, J)
// order, and J′, the one of the two that is not Z.
func leastSigma(sigma map[SigPair]*big.Rat, z bitset.Set) (SigPair, bitset.Set, bool) {
	var best SigPair
	found := false
	for sp, v := range sigma {
		if (sp.I == z || sp.J == z) && v.Sign() > 0 &&
			(!found || sp.I < best.I || (sp.I == best.I && sp.J < best.J)) {
			best, found = sp, true
		}
	}
	if best.I == z {
		return best, best.J, found
	}
	return best, best.I, found
}

// setLess is the order Vec.Pairs sorts Y by: (|Y|, Y).
func setLess(a, b bitset.Set) bool {
	if ca, cb := a.Card(), b.Card(); ca != cb {
		return ca < cb
	}
	return a < b
}

func minRat(a, b *big.Rat) *big.Rat {
	if a.Cmp(b) <= 0 {
		return new(big.Rat).Set(a)
	}
	return new(big.Rat).Set(b)
}
