package bounds

import (
	"fmt"
	"math/big"

	"panda/internal/bitset"
	"panda/internal/flow"
	"panda/internal/lp"
)

// Functional is a signed linear functional Σ_Z c_Z·h(Z) on set functions.
type Functional map[bitset.Set]*big.Rat

func (f Functional) add(z bitset.Set, c *big.Rat) {
	if z == 0 || c.Sign() == 0 {
		return
	}
	cur, ok := f[z]
	if !ok {
		cur = new(big.Rat)
		f[z] = cur
	}
	cur.Add(cur, c)
	if cur.Sign() == 0 {
		delete(f, z)
	}
}

// AddScaled adds s·g into f.
func (f Functional) AddScaled(g Functional, s *big.Rat) {
	for z, c := range g {
		f.add(z, new(big.Rat).Mul(c, s))
	}
}

// Equal reports coefficient-wise equality.
func (f Functional) Equal(g Functional) bool {
	if len(f) != len(g) {
		return false
	}
	for z, c := range f {
		d, ok := g[z]
		if !ok || c.Cmp(d) != 0 {
			return false
		}
	}
	return true
}

// ZY51 builds the Zhang–Yeung functional (RHS − LHS of inequality (51)) on
// the variables a, b, x, y of an n-variable universe: the non-Shannon
// inequality asserts this functional is ≥ 0 on all entropic functions
// (but not on all polymatroids — Figure 5 violates it):
//
//	3h(XY)+3h(AX)+3h(AY)+h(BX)+h(BY)
//	  − h(A) − 2h(X) − 2h(Y) − h(AB) − 4h(AXY) − h(BXY) ≥ 0.
func ZY51(a, b, x, y int) Functional {
	f := Functional{}
	r := func(v int64) *big.Rat { return big.NewRat(v, 1) }
	f.add(bitset.Of(x, y), r(3))
	f.add(bitset.Of(a, x), r(3))
	f.add(bitset.Of(a, y), r(3))
	f.add(bitset.Of(b, x), r(1))
	f.add(bitset.Of(b, y), r(1))
	f.add(bitset.Of(a), r(-1))
	f.add(bitset.Of(x), r(-2))
	f.add(bitset.Of(y), r(-2))
	f.add(bitset.Of(a, b), r(-1))
	f.add(bitset.Of(a, x, y), r(-4))
	f.add(bitset.Of(b, x, y), r(-1))
	return f
}

// ZY59 builds the functional of inequality (59) on variables a, b, x, y, c:
//
//	3h(XY)+3h(AX)+3h(AY)+h(BX)+h(BY)+5h(C)
//	  − h(AB) − 4h(AXY) − h(BXY) − h(AC) − 2h(XC) − 2h(YC) ≥ 0
//
// valid for all entropic functions (derived in Lemma 4.5 from ZY51 plus
// three Shannon submodularities); the Figure 5 polymatroid violates it.
func ZY59(a, b, x, y, c int) Functional {
	f := Functional{}
	r := func(v int64) *big.Rat { return big.NewRat(v, 1) }
	f.add(bitset.Of(x, y), r(3))
	f.add(bitset.Of(a, x), r(3))
	f.add(bitset.Of(a, y), r(3))
	f.add(bitset.Of(b, x), r(1))
	f.add(bitset.Of(b, y), r(1))
	f.add(bitset.Of(c), r(5))
	f.add(bitset.Of(a, b), r(-1))
	f.add(bitset.Of(a, x, y), r(-4))
	f.add(bitset.Of(b, x, y), r(-1))
	f.add(bitset.Of(a, c), r(-1))
	f.add(bitset.Of(x, c), r(-2))
	f.add(bitset.Of(y, c), r(-2))
	return f
}

// ShannonEntailed reports whether target = Σ tᵢ·axiomᵢ + (non-negative
// combination of elemental Shannon generators) for some t ≥ 0 — i.e.
// whether the inequality target ≥ 0 follows from the axioms plus
// Shannon-type inequalities. Solved as an exact LP feasibility problem over
// the coefficient equations.
func ShannonEntailed(n int, target Functional, axioms []Functional) (bool, error) {
	// Columns: t (per axiom) | σ µ (elemental generators). Row Z equates the
	// coefficients of h(Z); the generators are written "… ≥ 0", the negation
	// of their inflow signs.
	sk := flow.NewElemental(n)
	prob := lp.NewProblem(len(axioms)+sk.NumCols(), false)
	zero := new(big.Rat)
	var row []lp.Term
	for z := bitset.Set(1); z <= bitset.Full(n); z++ {
		row = row[:0]
		for ai, ax := range axioms {
			c, ok := ax[z]
			if !ok || c.Sign() == 0 {
				continue
			}
			if !c.IsInt() || !c.Num().IsInt64() {
				return false, fmt.Errorf("bounds: axiom %d has the non-integer coefficient %v on h(%v)", ai, c, z)
			}
			row = append(row, lp.Term{Var: int32(ai), Coef: c.Num().Int64()})
		}
		row = sk.AppendRow(row, z, len(axioms), -1)
		b, ok := target[z]
		if !ok {
			b = zero
		}
		prob.AddIntConstraint(row, lp.Eq, b)
	}
	sol, err := prob.Solve()
	if err != nil {
		return false, err
	}
	return sol.Status == lp.Optimal, nil
}

// ZhangYeungQuery returns the universe size, degree constraints (in log N
// units) and the full-set target of the Zhang–Yeung query (49) used by
// Theorem 1.3: variables A,B,X,Y,C = 0..4; cardinalities
// |R|=…=|V| ≤ N³, |W| ≤ N², and the six keys of K as FDs.
func ZhangYeungQuery() (n int, dcs []flow.DC) {
	const a, b, x, y, c = 0, 1, 2, 3, 4
	full := bitset.Full(5)
	three := big.NewRat(3, 1)
	two := big.NewRat(2, 1)
	zero := new(big.Rat)
	dcs = []flow.DC{
		{X: 0, Y: bitset.Of(x, y), LogN: three}, // R(X,Y)
		{X: 0, Y: bitset.Of(a, x), LogN: three}, // S(A,X)
		{X: 0, Y: bitset.Of(a, y), LogN: three}, // T(A,Y)
		{X: 0, Y: bitset.Of(b, x), LogN: three}, // U(B,X)
		{X: 0, Y: bitset.Of(b, y), LogN: three}, // V(B,Y)
		{X: 0, Y: bitset.Of(c), LogN: two},      // W(C)
		// Keys of K(A,B,X,Y,C): each determines the whole tuple.
		{X: bitset.Of(a, b), Y: full, LogN: zero},
		{X: bitset.Of(a, x, y), Y: full, LogN: zero},
		{X: bitset.Of(b, x, y), Y: full, LogN: zero},
		{X: bitset.Of(a, c), Y: full, LogN: zero},
		{X: bitset.Of(x, c), Y: full, LogN: zero},
		{X: bitset.Of(y, c), Y: full, LogN: zero},
	}
	return 5, dcs
}

// Theorem13Gap computes the two sides of Theorem 1.3 for the Zhang–Yeung
// query: the exact polymatroid bound (4·log N) and the entropic upper
// bound (43/11·log N) certified by verifying that inequality (50)'s
// functional is entailed by ZY51 plus Shannon inequalities.
// Both values are in log N units.
func Theorem13Gap() (polymatroid, entropic *big.Rat, err error) {
	n, dcs := ZhangYeungQuery()
	polymatroid, err = Polymatroid(n, dcs)
	if err != nil {
		return nil, nil, err
	}
	// Entropic: 11·h(ABXYC) ≤ Σ constraint terms (50). With the key FDs
	// all conditional terms vanish, so
	// 11·log|Q| ≤ 3·3+3·3+3·3+3+3+5·2 = 43. Verify the derivation:
	// the (50) functional equals ZY59 which must be Shannon-entailed by
	// ZY51.
	const a, b, x, y, c = 0, 1, 2, 3, 4
	ok, err := ShannonEntailed(5, ZY59(a, b, x, y, c), []Functional{ZY51(a, b, x, y)})
	if err != nil {
		return nil, nil, err
	}
	if !ok {
		return nil, nil, fmt.Errorf("bounds: inequality (59) is not entailed by ZY51 + Shannon")
	}
	entropic = big.NewRat(43, 11)
	return polymatroid, entropic, nil
}

// Lemma45Rule5 returns the 5-variable disjunctive rule data of Lemma 4.5's
// first part: targets {AB, AXY, BXY, AC, XC, YC} with the cardinality
// constraints of the rule (|R₁..₅| ≤ N³, |R₆| ≤ N²).
func Lemma45Rule5() (n int, dcs []flow.DC, targets []bitset.Set) {
	const a, b, x, y, c = 0, 1, 2, 3, 4
	three := big.NewRat(3, 1)
	two := big.NewRat(2, 1)
	dcs = []flow.DC{
		{X: 0, Y: bitset.Of(x, y), LogN: three},
		{X: 0, Y: bitset.Of(a, x), LogN: three},
		{X: 0, Y: bitset.Of(a, y), LogN: three},
		{X: 0, Y: bitset.Of(b, x), LogN: three},
		{X: 0, Y: bitset.Of(b, y), LogN: three},
		{X: 0, Y: bitset.Of(c), LogN: two},
	}
	targets = []bitset.Set{
		bitset.Of(a, b), bitset.Of(a, x, y), bitset.Of(b, x, y),
		bitset.Of(a, c), bitset.Of(x, c), bitset.Of(y, c),
	}
	return 5, dcs, targets
}

// Verify64Identity checks by exact coefficient arithmetic that the
// 8-variable non-Shannon inequality (64) of Lemma 4.5 equals
// 5·(51) + 1·(61) + 2·(62) + 2·(63), where (61)–(63) are ZY59 instances on
// the primed copy with C replaced by A, X, Y respectively. Combined with
// the n=5 entailment check of ZY59 this certifies (64) without an
// 8-variable LP.
func Verify64Identity() error {
	const a, b, x, y, a2, b2, x2, y2 = 0, 1, 2, 3, 4, 5, 6, 7
	r := func(v int64) *big.Rat { return big.NewRat(v, 1) }
	combo := Functional{}
	combo.AddScaled(ZY51(a, b, x, y), r(5))
	combo.AddScaled(ZY59(a2, b2, x2, y2, a), r(1))
	combo.AddScaled(ZY59(a2, b2, x2, y2, x), r(2))
	combo.AddScaled(ZY59(a2, b2, x2, y2, y), r(2))

	// Inequality (64), RHS − LHS.
	want := Functional{}
	// RHS: 5[3XY+3AX+3AY+BX+BY+3X'Y'+3A'X'+3A'Y'+B'X'+B'Y'].
	for _, e := range []struct {
		s bitset.Set
		c int64
	}{
		{bitset.Of(x, y), 15}, {bitset.Of(a, x), 15}, {bitset.Of(a, y), 15},
		{bitset.Of(b, x), 5}, {bitset.Of(b, y), 5},
		{bitset.Of(x2, y2), 15}, {bitset.Of(a2, x2), 15}, {bitset.Of(a2, y2), 15},
		{bitset.Of(b2, x2), 5}, {bitset.Of(b2, y2), 5},
	} {
		want.add(e.s, r(e.c))
	}
	// LHS (negated): 5[AB+4AXY+BXY+A'B'+4A'X'Y'+B'X'Y'] + A'A+2X'A+2Y'A
	// + 2A'X+4X'X+4Y'X + 2A'Y+4X'Y+4Y'Y.
	for _, e := range []struct {
		s bitset.Set
		c int64
	}{
		{bitset.Of(a, b), -5}, {bitset.Of(a, x, y), -20}, {bitset.Of(b, x, y), -5},
		{bitset.Of(a2, b2), -5}, {bitset.Of(a2, x2, y2), -20}, {bitset.Of(b2, x2, y2), -5},
		{bitset.Of(a2, a), -1}, {bitset.Of(x2, a), -2}, {bitset.Of(y2, a), -2},
		{bitset.Of(a2, x), -2}, {bitset.Of(x2, x), -4}, {bitset.Of(y2, x), -4},
		{bitset.Of(a2, y), -2}, {bitset.Of(x2, y), -4}, {bitset.Of(y2, y), -4},
	} {
		want.add(e.s, r(e.c))
	}
	// The paper's (51) contribution carries −5h(A)−10h(X)−10h(Y) while the
	// ZY59 instances contribute +5h(A)+10h(X)+10h(Y); they cancel in (64).
	if !combo.Equal(want) {
		return fmt.Errorf("bounds: (64) ≠ 5·(51) + (61) + 2·(62) + 2·(63)")
	}
	return nil
}

// Lemma45Rule8 returns the 8-variable rule (65): ten cardinality
// constraints |Rᵢ| ≤ N³ and fifteen targets. Its entropic bound is at most
// 330/85·log N by inequality (64), while the Figure 6 polymatroid shows the
// polymatroid bound is ≥ 4·log N.
func Lemma45Rule8() (n int, dcs []flow.DC, targets []bitset.Set) {
	const a, b, x, y, a2, b2, x2, y2 = 0, 1, 2, 3, 4, 5, 6, 7
	three := big.NewRat(3, 1)
	for _, e := range []bitset.Set{
		bitset.Of(x, y), bitset.Of(a, x), bitset.Of(a, y), bitset.Of(b, x), bitset.Of(b, y),
		bitset.Of(x2, y2), bitset.Of(a2, x2), bitset.Of(a2, y2), bitset.Of(b2, x2), bitset.Of(b2, y2),
	} {
		dcs = append(dcs, flow.DC{X: 0, Y: e, LogN: three})
	}
	targets = []bitset.Set{
		bitset.Of(a, b), bitset.Of(a, x, y), bitset.Of(b, x, y),
		bitset.Of(a2, b2), bitset.Of(a2, x2, y2), bitset.Of(b2, x2, y2),
		bitset.Of(a2, a), bitset.Of(x2, a), bitset.Of(y2, a),
		bitset.Of(a2, x), bitset.Of(x2, x), bitset.Of(y2, x),
		bitset.Of(a2, y), bitset.Of(x2, y), bitset.Of(y2, y),
	}
	return 8, dcs, targets
}
