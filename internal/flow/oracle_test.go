package flow

import (
	"math/big"

	"panda/internal/setfunc"
)

// The property tests' oracles: exact evaluation of an inequality, and of a
// proof step, on a sampled set function, and the paper's common denominator.

// eval computes 〈v, h〉 = Σ_p v_p·h(Y_p|X_p) exactly.
func eval(v Vec, h *setfunc.Func) *big.Rat {
	s := new(big.Rat)
	tmp := new(big.Rat)
	for p, w := range v {
		s.Add(s, tmp.Mul(w, h.Cond(p.Y, p.X)))
	}
	return s
}

// holdsOn reports whether 〈λ,h〉 ≤ 〈δ,h〉 holds on h.
func holdsOn(lambda, delta Vec, h *setfunc.Func) bool {
	return eval(lambda, h).Cmp(eval(delta, h)) <= 0
}

// evalDrop computes the amount by which step s decreases 〈δ,h〉 on h (must
// be ≥ 0 for every polymatroid by inequalities (77)–(80)).
func evalDrop(s Step, h *setfunc.Func) *big.Rat {
	consumed, produced := s.Moves()
	drop := new(big.Rat)
	for _, p := range consumed {
		drop.Add(drop, h.Cond(p.Y, p.X))
	}
	for _, p := range produced {
		drop.Sub(drop, h.Cond(p.Y, p.X))
	}
	drop.Mul(drop, s.W)
	return drop
}

// commonDenominator returns the least common multiple of the denominators
// of all coordinates of the given vectors (the paper's D).
func commonDenominator(vs ...Vec) *big.Int {
	d := big.NewInt(1)
	g := new(big.Int)
	for _, v := range vs {
		for _, r := range v {
			den := r.Denom()
			g.GCD(nil, nil, d, den)
			d.Div(d, g)
			d.Mul(d, den)
		}
	}
	return d
}
