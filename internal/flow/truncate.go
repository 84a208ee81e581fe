package flow

import (
	"fmt"
	"math/big"

	"panda/internal/bitset"
)

// TruncateResult carries the truncated inequality of Lemma 5.11.
type TruncateResult struct {
	Lambda  Vec
	Delta   Vec
	Witness *Witness
}

// Truncate implements Lemma 5.11: given a Shannon flow inequality
// 〈λ,h〉 ≤ 〈δ,h〉 with witness (σ,µ), ‖λ‖₁ > 0 and δ_{Y|∅} ≥ amount > 0, it
// produces (λ′, δ′, σ′, µ′) such that
//
//	(a) 〈λ′,h〉 ≤ 〈δ′,h〉 is a Shannon flow inequality witnessed by (σ′,µ′),
//	(b) λ′ ≤ λ and δ′ ≤ δ component-wise,
//	(c) ‖λ′‖₁ ≥ ‖λ‖₁ − amount and δ′_{Y|∅} = δ_{Y|∅} − amount.
//
// The witness is first tightened (Definition 5.10), then the flow deficit
// created at Y is walked down — through λ, µ, conditioned δ or σ — exactly
// as in the paper's proof, with batched chunk sizes. Inputs are not
// modified.
//
// An iteration costs one scan of the deficit worklist, to pop the least Z,
// then a scan each of µ, δ and σ, in that order, until one holds a positive
// term on Z; it sorts nothing. The term is the least in ConstructProof's
// orders — µ_{X,Z} by X, δ_{Y'|Z} by (|Y'|, Y'), σ_{I,J} by (I, J) — which
// the scans must reproduce, so that the truncation, and the child proof
// built from it, are functions of the inputs.
//
// Any valid witness will do, over general pairs σ_{I,J} and µ_{X,Y}, not only
// elemental ones, and it is checked on the way in and on the way out. The
// engine's Case-4b restart supplies WitnessOfProof of its remaining steps;
// the planner's witnesses are LP duals.
func Truncate(lambda, delta Vec, w *Witness, y bitset.Set, amount *big.Rat) (*TruncateResult, error) {
	if amount.Sign() <= 0 {
		return nil, fmt.Errorf("flow: truncate amount must be positive")
	}
	ym := Marginal(y)
	if delta.Get(ym).Cmp(amount) < 0 {
		return nil, fmt.Errorf("flow: δ_{%v|∅} = %v < amount %v", y, delta.Get(ym), amount)
	}
	if err := CheckWitness(lambda, delta, w); err != nil {
		return nil, fmt.Errorf("flow: truncate: %w", err)
	}
	lam := lambda.Clone()
	del := delta.Clone()
	wit := w.Clone()
	Tighten(lam, del, wit)

	del.Sub(ym, amount)
	// Deficit worklist: sets whose inflow now falls short of λ.
	deficits := map[bitset.Set]*big.Rat{y: new(big.Rat).Set(amount)}

	pop := func() (bitset.Set, *big.Rat, bool) {
		var best bitset.Set
		found := false
		for z, d := range deficits {
			if d.Sign() <= 0 {
				delete(deficits, z)
				continue
			}
			if !found || z < best {
				best, found = z, true
			}
		}
		if !found {
			return 0, nil, false
		}
		return best, deficits[best], true
	}
	push := func(z bitset.Set, t *big.Rat) {
		if z == 0 {
			return // h(∅) carries no constraint; deficit vanishes
		}
		d, ok := deficits[z]
		if !ok {
			d = new(big.Rat)
			deficits[z] = d
		}
		d.Add(d, t)
	}

	const maxIter = 200000
	for iter := 0; ; iter++ {
		z, d, ok := pop()
		if !ok {
			break
		}
		if iter > maxIter {
			return nil, fmt.Errorf("flow: truncation exceeded %d iterations", maxIter)
		}
		// (0) absorb into λ_Z.
		if lz := lam[Marginal(z)]; lz != nil && lz.Sign() > 0 {
			t := minRat(d, lz)
			lam.Sub(Marginal(z), t)
			d.Sub(d, t)
			continue
		}
		// (1) reduce µ_{X,Z}, moving the deficit to X.
		if p, ok := leastMu(wit.Mu, z); ok {
			t := minRat(d, wit.Mu[p])
			wit.Mu[p].Sub(wit.Mu[p], t)
			d.Sub(d, t)
			push(p.X, t)
			continue
		}
		// (2) reduce δ_{Y'|Z}, moving the deficit to Y'.
		if p, ok := leastCond(del, z); ok {
			t := minRat(d, del[p])
			del.Sub(p, t)
			d.Sub(d, t)
			push(p.Y, t)
			continue
		}
		// (3) reduce σ_{Z,J}, raise µ_{Z∩J,J}, move the deficit to Z∪J.
		sp, j, ok := leastSigma(wit.Sigma, z)
		if !ok {
			return nil, fmt.Errorf("flow: truncation stuck at %v with deficit %v", z, d)
		}
		v := wit.Sigma[sp]
		t := minRat(d, v)
		v.Sub(v, t)
		d.Sub(d, t)
		if x := z.Intersect(j); x != j { // µ_{X,J} needs X ⊂ J; X = Z∩J ⊂ J since Z ⊥ J
			addTo(wit.Mu, Pair{X: x, Y: j}, t)
		}
		push(z.Union(j), t)
	}
	res := &TruncateResult{Lambda: lam, Delta: del, Witness: wit}
	if err := CheckWitness(lam, del, wit); err != nil {
		return nil, fmt.Errorf("flow: truncation produced invalid witness: %w", err)
	}
	return res, nil
}
