package plan

import (
	"fmt"
	"math/big"

	"panda/internal/query"
)

// A plan is a certificate priced at sizes. λ, δ and the proof sequences
// (Lemma 5.2, Theorem 5.9) hold at every constraint vector, and the
// decompositions and transversals never mention one; only the price depends
// on the data. priceRule and (*Plan).priceWidth are the only places a rule's
// Bound and a plan's Width are computed — Prepare, NewRulePlan and decode all
// price, and rebinding copies — so no stored copy can disagree with them.

// priceRule sets pr.Bound to pr's certificate priced at cons: Σ over δ's
// pairs p of δ_p times the smallest log N among the constraints on p (one
// pair may carry several constraints; the tightest prices it). A trivial
// rule's bound is 0. A δ pair that no constraint prices is an error.
func priceRule(pr *PreparedRule, cons []query.DegreeConstraint) error {
	if pr.Trivial {
		pr.Bound = new(big.Rat)
		return nil
	}
	var s priceSum
	s.den.SetInt64(1)
	for p, w := range pr.Delta {
		var logN *big.Rat
		for _, c := range cons {
			if c.X == p.X && c.Y == p.Y && (logN == nil || c.LogN.Cmp(logN) < 0) {
				logN = c.LogN
			}
		}
		if logN == nil {
			return fmt.Errorf("no constraint prices δ's pair %v", p)
		}
		s.add(w, logN)
	}
	pr.Bound = new(big.Rat).SetFrac(&s.num, &s.den)
	return nil
}

// priceWidth sets p.Width to the largest bound among p's priced rules: the
// one rule's bound (ModeFull, ModeRule), the worst bag of the chosen
// decomposition (da-fhtw, ModeFhtw) or the worst transversal (da-subw,
// ModeSubw).
func (p *Plan) priceWidth() {
	w := new(big.Rat)
	for _, r := range p.Rules {
		if r.Bound.Cmp(w) > 0 {
			w = r.Bound
		}
	}
	p.Width = w
}

// priceSum is Σ a·b over a running common denominator in big.Ints it
// reuses, reduced once by the caller — flow's ratSum, for products:
// big.Rat.Mul and Add would each allocate and take a gcd per term.
type priceSum struct{ num, den, x, d big.Int }

// add adds a·b.
func (s *priceSum) add(a, b *big.Rat) {
	x := s.x.Mul(a.Num(), b.Num())
	d := s.d.Mul(a.Denom(), b.Denom())
	if s.den.Cmp(d) != 0 { // num/den + x/d = (num·d + x·den)/(den·d)
		s.num.Mul(&s.num, d)
		x.Mul(x, &s.den)
		s.den.Mul(&s.den, d)
	}
	s.num.Add(&s.num, x)
}
