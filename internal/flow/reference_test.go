package flow

import (
	"fmt"
	"math/big"

	"panda/internal/bitset"
)

// refConstructProof and refTruncate are ConstructProof and Truncate as they
// were before their loops became single scans: every iteration recomputed
// inflow(Z) for every Z (Inflows), sorted δ's support (Vec.Pairs), µ
// (pairKeysSorted) and σ (sigKeysSorted), and summed ‖λ‖₁. They are kept
// verbatim as the oracle of the differential tests, which require the current
// functions to emit the same steps with the same weights.
func refConstructProof(lambda, delta Vec, w *Witness) (ProofSequence, error) {
	if err := CheckWitness(lambda, delta, w); err != nil {
		return nil, fmt.Errorf("flow: construct: %w", err)
	}
	lam := lambda.Clone()
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

	const maxIter = 200000
	for iter := 0; ; iter++ {
		if lam.L1().Sign() == 0 {
			return seq, nil
		}
		if iter > maxIter {
			return nil, fmt.Errorf("flow: proof construction exceeded %d iterations", maxIter)
		}
		var zSel bitset.Set
		found, caseA := false, false
		for _, p := range del.Pairs() {
			if p.X != 0 || del.Get(p).Sign() <= 0 {
				continue
			}
			if lam.Get(Marginal(p.Y)).Sign() > 0 {
				zSel, found, caseA = p.Y, true, true
				break
			}
			if !found {
				zSel, found = p.Y, true
			}
		}
		if !found {
			return nil, fmt.Errorf("flow: no marginal δ term available but ‖λ‖ = %v > 0", lam.L1())
		}
		z := zSel
		zm := Marginal(z)

		if caseA {
			t := minRat(lam.Get(zm), del.Get(zm))
			lam.Sub(zm, t)
			del.Sub(zm, t)
			continue
		}
		in := Inflows(del, wit)
		inZ, ok := in[z]
		if !ok {
			inZ = new(big.Rat)
		}
		if inZ.Sign() > 0 {
			t := minRat(inZ, del.Get(zm))
			del.Sub(zm, t)
			continue
		}
		handled := false
		for _, p := range pairKeysSorted(wit.Mu) {
			if p.Y != z || wit.Mu[p].Sign() <= 0 {
				continue
			}
			t := minRat(del.Get(zm), wit.Mu[p])
			if err := emit(Step{Kind: Monotonicity, W: t, A: p.X, B: z}); err != nil {
				return nil, err
			}
			wit.Mu[p].Sub(wit.Mu[p], t)
			handled = true
			break
		}
		if handled {
			continue
		}
		for _, p := range del.Pairs() {
			if p.X != z || del.Get(p).Sign() <= 0 {
				continue
			}
			t := minRat(del.Get(zm), del.Get(p))
			if err := emit(Step{Kind: Composition, W: t, A: z, B: p.Y}); err != nil {
				return nil, err
			}
			handled = true
			break
		}
		if handled {
			continue
		}
		for _, sp := range sigKeysSorted(wit.Sigma) {
			v := wit.Sigma[sp]
			if v.Sign() <= 0 {
				continue
			}
			var j bitset.Set
			switch z {
			case sp.I:
				j = sp.J
			case sp.J:
				j = sp.I
			default:
				continue
			}
			t := minRat(del.Get(zm), v)
			if x := z.Intersect(j); x != 0 {
				if err := emit(Step{Kind: Decomposition, W: t, A: x, B: z}); err != nil {
					return nil, err
				}
			}
			if err := emit(Step{Kind: Submodularity, W: t, A: z, B: j}); err != nil {
				return nil, err
			}
			v.Sub(v, t)
			handled = true
			break
		}
		if !handled {
			return nil, fmt.Errorf("flow: stuck at Z=%v: inflow 0, no negative contributor (witness inconsistent)", z)
		}
	}
}

func refTruncate(lambda, delta Vec, w *Witness, y bitset.Set, amount *big.Rat) (*TruncateResult, error) {
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
			return
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
		if lz := lam.Get(Marginal(z)); lz.Sign() > 0 {
			t := minRat(d, lz)
			lam.Sub(Marginal(z), t)
			d.Sub(d, t)
			continue
		}
		handled := false
		for _, p := range pairKeysSorted(wit.Mu) {
			if p.Y != z || wit.Mu[p].Sign() <= 0 {
				continue
			}
			t := minRat(d, wit.Mu[p])
			wit.Mu[p].Sub(wit.Mu[p], t)
			d.Sub(d, t)
			push(p.X, t)
			handled = true
			break
		}
		if handled {
			continue
		}
		for _, p := range del.Pairs() {
			if p.X != z || del.Get(p).Sign() <= 0 {
				continue
			}
			t := minRat(d, del.Get(p))
			del.Sub(p, t)
			d.Sub(d, t)
			push(p.Y, t)
			handled = true
			break
		}
		if handled {
			continue
		}
		for _, sp := range sigKeysSorted(wit.Sigma) {
			v := wit.Sigma[sp]
			if v.Sign() <= 0 {
				continue
			}
			var j bitset.Set
			switch z {
			case sp.I:
				j = sp.J
			case sp.J:
				j = sp.I
			default:
				continue
			}
			t := minRat(d, v)
			v.Sub(v, t)
			d.Sub(d, t)
			x := z.Intersect(j)
			if x != j {
				addTo(wit.Mu, Pair{X: x, Y: j}, t)
			}
			push(z.Union(j), t)
			handled = true
			break
		}
		if !handled {
			return nil, fmt.Errorf("flow: truncation stuck at %v with deficit %v", z, d)
		}
	}
	res := &TruncateResult{Lambda: lam, Delta: del, Witness: wit}
	if err := CheckWitness(lam, del, wit); err != nil {
		return nil, fmt.Errorf("flow: truncation produced invalid witness: %w", err)
	}
	return res, nil
}

func pairKeysSorted(m map[Pair]*big.Rat) []Pair {
	v := Vec(m)
	return v.Pairs()
}

func sigKeysSorted(m map[SigPair]*big.Rat) []SigPair {
	out := make([]SigPair, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			a, b := out[j-1], out[j]
			if a.I > b.I || (a.I == b.I && a.J > b.J) {
				out[j-1], out[j] = b, a
			} else {
				break
			}
		}
	}
	return out
}
