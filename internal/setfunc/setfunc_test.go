package setfunc

import (
	"math/big"
	"math/rand"
	"testing"

	"panda/internal/bitset"
)

func rat(a, b int64) *big.Rat { return big.NewRat(a, b) }

func TestModularIsPolymatroid(t *testing.T) {
	h := Modular([]*big.Rat{rat(1, 1), rat(2, 1), rat(1, 2)})
	if !h.IsModular() {
		t.Fatal("Modular() not modular")
	}
	if !h.IsPolymatroid() {
		t.Fatal("modular function must be a polymatroid")
	}
	if !h.IsSubadditive() {
		t.Fatal("modular function must be subadditive")
	}
	if got := h.At(bitset.Of(0, 2)); got.Cmp(rat(3, 2)) != 0 {
		t.Fatalf("h({0,2}) = %v, want 3/2", got)
	}
}

func TestCondAndScale(t *testing.T) {
	h := Modular([]*big.Rat{rat(1, 1), rat(3, 1)})
	if got := h.Cond(bitset.Of(0, 1), bitset.Of(0)); got.Cmp(rat(3, 1)) != 0 {
		t.Fatalf("h(01|0) = %v, want 3", got)
	}
}

func TestNonPolymatroidDetected(t *testing.T) {
	// Non-monotone.
	h := New(2)
	h.Set(bitset.Of(0), rat(2, 1))
	h.Set(bitset.Of(0, 1), rat(1, 1))
	h.Set(bitset.Of(1), rat(1, 1))
	if h.IsMonotone() {
		t.Fatal("non-monotone function accepted")
	}
	// Non-submodular: h(∅)=0, h({0})=h({1})=1, h({0,1})=3.
	g := New(2)
	g.Set(bitset.Of(0), rat(1, 1))
	g.Set(bitset.Of(1), rat(1, 1))
	g.Set(bitset.Of(0, 1), rat(3, 1))
	if g.IsSubmodular() {
		t.Fatal("supermodular function accepted as submodular")
	}
	if g.IsSubadditive() {
		t.Fatal("3 > 1+1 accepted as subadditive")
	}
}

// TestSubadditiveNotSubmodular exhibits the strictness Γn ⊂ SAn (Prop 2.3):
// h(S) = 1 for all non-empty S is subadditive; but with n ≥ 2 the function
// h(S) = min(|S|, 2) − [|S| ≥ 1]·0 ... we use the classic witness
// h(∅)=0, h singletons 1, h pairs 1, full 2 on n=3 — subadditive but not
// submodular.
func TestSubadditiveNotSubmodular(t *testing.T) {
	h := New(3)
	full := bitset.Full(3)
	for s := bitset.Set(1); s <= full; s++ {
		switch s.Card() {
		case 1, 2:
			h.Set(s, rat(1, 1))
		case 3:
			h.Set(s, rat(2, 1))
		}
	}
	if !h.IsSubadditive() {
		t.Fatal("witness should be subadditive")
	}
	if h.IsSubmodular() {
		t.Fatal("witness should not be submodular: h(12)+h(13) = 2 < h(123)+h(1) = 3")
	}
	if !h.IsMonotone() || !h.IsNonNegative() {
		t.Fatal("witness should be monotone and non-negative")
	}
}

func TestFigure5IsPolymatroid(t *testing.T) {
	h := Figure5()
	if !h.IsPolymatroid() {
		t.Fatal("Figure 5 function is not a polymatroid")
	}
	const a, b, x, y, c = 0, 1, 2, 3, 4
	// Spot values from the figure and the proof of Theorem 1.3, Claim 2.
	cases := []struct {
		s    bitset.Set
		want int64
	}{
		{bitset.Of(x), 2}, {bitset.Of(a), 2}, {bitset.Of(c), 2},
		{bitset.Of(a, x), 3}, {bitset.Of(x, y), 3}, {bitset.Of(b, y), 3},
		{bitset.Of(a, b), 4},       // closed hull is the full set
		{bitset.Of(a, x, y), 4},    // key AXY
		{bitset.Of(b, x, y), 4},    // key BXY
		{bitset.Of(a, c), 4},       // key AC
		{bitset.Of(x, c), 4},       // key XC
		{bitset.Of(y, c), 4},       // key YC
		{bitset.Of(a, b, x, y), 4}, // h(AB+) = h(ABXYC)
		{bitset.Full(5), 4},
	}
	for _, tc := range cases {
		if got := h.At(tc.s); got.Cmp(rat(tc.want, 1)) != 0 {
			t.Errorf("h(%v) = %v, want %d", tc.s, got, tc.want)
		}
	}
	// FD constraints of the Zhang–Yeung query: each key K → everything
	// means h(key) = h(full).
	keys := []bitset.Set{
		bitset.Of(a, b), bitset.Of(a, x, y), bitset.Of(b, x, y),
		bitset.Of(a, c), bitset.Of(x, c), bitset.Of(y, c),
	}
	for _, k := range keys {
		if h.At(k).Cmp(h.At(bitset.Full(5))) != 0 {
			t.Errorf("FD violated at key %v: h=%v", k, h.At(k))
		}
	}
}

// TestFigure5ViolatesZhangYeung verifies that the Figure 5 polymatroid
// violates the Zhang–Yeung non-Shannon inequality (51), certifying
// Γ*₄ ⊊ Γ₄ computationally (and hence the Theorem 1.3 gap).
// Inequality (51) (restricted to the 4 variables A,B,X,Y):
// h(AB) + 4h(AXY) + h(BXY) ≤ 3h(XY) + 3h(AX) + 3h(AY) + h(BX) + h(BY)
//
//	− h(A) − 2h(X) − 2h(Y).
func TestFigure5ViolatesZhangYeung(t *testing.T) {
	h := Figure5()
	const a, b, x, y = 0, 1, 2, 3
	lhs := new(big.Rat)
	lhs.Add(lhs, h.At(bitset.Of(a, b)))
	lhs.Add(lhs, new(big.Rat).Mul(rat(4, 1), h.At(bitset.Of(a, x, y))))
	lhs.Add(lhs, h.At(bitset.Of(b, x, y)))
	rhs := new(big.Rat)
	rhs.Add(rhs, new(big.Rat).Mul(rat(3, 1), h.At(bitset.Of(x, y))))
	rhs.Add(rhs, new(big.Rat).Mul(rat(3, 1), h.At(bitset.Of(a, x))))
	rhs.Add(rhs, new(big.Rat).Mul(rat(3, 1), h.At(bitset.Of(a, y))))
	rhs.Add(rhs, h.At(bitset.Of(b, x)))
	rhs.Add(rhs, h.At(bitset.Of(b, y)))
	rhs.Sub(rhs, h.At(bitset.Of(a)))
	rhs.Sub(rhs, new(big.Rat).Mul(rat(2, 1), h.At(bitset.Of(x))))
	rhs.Sub(rhs, new(big.Rat).Mul(rat(2, 1), h.At(bitset.Of(y))))
	// lhs = 4 + 16 + 4 = 24; rhs = 9+9+9+3+3 − 2 − 4 − 4 = 23.
	if lhs.Cmp(rhs) <= 0 {
		t.Fatalf("Figure 5 polymatroid satisfies ZY inequality: lhs=%v rhs=%v (want violation)", lhs, rhs)
	}
	if lhs.Cmp(rat(24, 1)) != 0 || rhs.Cmp(rat(23, 1)) != 0 {
		t.Fatalf("lhs=%v rhs=%v, want 24 and 23", lhs, rhs)
	}
}

func TestFigure6IsPolymatroid(t *testing.T) {
	h := Figure6()
	if !h.IsPolymatroid() {
		t.Fatal("Figure 6 function is not a polymatroid")
	}
	// All 15 targets of rule (65) have value 4.
	const a, b, x, y, a2, b2, x2, y2 = 0, 1, 2, 3, 4, 5, 6, 7
	targets := []bitset.Set{
		bitset.Of(a, b), bitset.Of(a, x, y), bitset.Of(b, x, y),
		bitset.Of(a2, b2), bitset.Of(a2, x2, y2), bitset.Of(b2, x2, y2),
		bitset.Of(a2, a), bitset.Of(x2, a), bitset.Of(y2, a),
		bitset.Of(a2, x), bitset.Of(x2, x), bitset.Of(y2, x),
		bitset.Of(a2, y), bitset.Of(x2, y), bitset.Of(y2, y),
	}
	for _, s := range targets {
		if h.At(s).Cmp(rat(4, 1)) != 0 {
			t.Errorf("h(%v) = %v, want 4", s, h.At(s))
		}
	}
	// All 10 input edges have value 3 (cardinality N³ after scaling).
	edges := []bitset.Set{
		bitset.Of(x, y), bitset.Of(a, x), bitset.Of(a, y), bitset.Of(b, x), bitset.Of(b, y),
		bitset.Of(x2, y2), bitset.Of(a2, x2), bitset.Of(a2, y2), bitset.Of(b2, x2), bitset.Of(b2, y2),
	}
	for _, s := range edges {
		if h.At(s).Cmp(rat(3, 1)) != 0 {
			t.Errorf("edge h(%v) = %v, want 3", s, h.At(s))
		}
	}
}

func TestClosureErrors(t *testing.T) {
	if _, err := Closure(2, map[bitset.Set]*big.Rat{bitset.Of(0): rat(1, 1)}); err == nil {
		t.Fatal("Closure without full set should error")
	}
}

func TestRandomCoverageIsPolymatroid(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		h := RandomCoverage(rng, 4, 6)
		if !h.IsPolymatroid() {
			t.Fatalf("trial %d: coverage function not a polymatroid", trial)
		}
	}
}

func TestRandomMatroidRankIsPolymatroid(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 30; trial++ {
		h := RandomMatroidRank(rng, 5)
		if !h.IsPolymatroid() {
			t.Fatalf("trial %d: matroid rank not a polymatroid", trial)
		}
	}
}

// TestHierarchyStrict reproduces Figure 3 / Proposition 2.3 strictness at
// the polymatroid levels we can certify exactly:
//   - Mn ⊊ Γn: a matroid rank that is not modular;
//   - Γ*n ⊊ Γn: Figure 5 violates Zhang–Yeung (see dedicated test);
//   - Γn ⊊ SAn: the subadditive-not-submodular witness above.
func TestHierarchyStrict(t *testing.T) {
	// Rank of uniform matroid U(2,4): submodular, not modular.
	h := New(4)
	full := bitset.Full(4)
	for s := bitset.Set(1); s <= full; s++ {
		r := s.Card()
		if r > 2 {
			r = 2
		}
		h.Set(s, rat(int64(r), 1))
	}
	if !h.IsPolymatroid() || h.IsModular() {
		t.Fatal("U(2,4) rank should be a non-modular polymatroid")
	}
}
