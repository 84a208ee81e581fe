// Package setfunc implements exact rational set functions h : 2^[n] → Q and
// the function classes of the paper's Section 2: modular (Mn), entropic-like,
// submodular/polymatroid (Γn) and subadditive (SAn) functions, together with
// the closure-defined polymatroids of Figures 5 and 6 and samplers used by
// property-based tests.
//
// A set function is stored as a dense vector indexed by bitmask, following
// the paper's identification of set functions with vectors in R^{2^n}.
package setfunc

import (
	"fmt"
	"math/big"
	"math/rand"

	"panda/internal/bitset"
)

// Func is a set function on [n] with exact rational values.
// The zero value is not usable; construct with New.
type Func struct {
	N int
	V []*big.Rat // indexed by bitmask; V[0] must be 0
}

// New returns the all-zero set function on [n].
func New(n int) *Func {
	v := make([]*big.Rat, 1<<uint(n))
	for i := range v {
		v[i] = new(big.Rat)
	}
	return &Func{N: n, V: v}
}

// Clone returns a deep copy of h.
func (h *Func) Clone() *Func {
	g := New(h.N)
	for i, v := range h.V {
		g.V[i].Set(v)
	}
	return g
}

// At returns h(S).
func (h *Func) At(s bitset.Set) *big.Rat { return h.V[s] }

// Set assigns h(S) = v.
func (h *Func) Set(s bitset.Set, v *big.Rat) { h.V[s].Set(v) }

// Cond returns the conditional value h(Y|X) = h(Y) − h(X).
func (h *Func) Cond(y, x bitset.Set) *big.Rat {
	return new(big.Rat).Sub(h.V[y], h.V[x])
}

// IsNonNegative reports whether h(S) ≥ 0 for all S and h(∅) = 0.
func (h *Func) IsNonNegative() bool {
	if h.V[0].Sign() != 0 {
		return false
	}
	for _, v := range h.V {
		if v.Sign() < 0 {
			return false
		}
	}
	return true
}

// IsMonotone reports whether h(X) ≤ h(Y) whenever X ⊆ Y. It checks the
// elemental inequalities h(S) ≤ h(S ∪ {i}), which generate all of them.
func (h *Func) IsMonotone() bool {
	full := bitset.Full(h.N)
	for s := bitset.Set(0); s <= full; s++ {
		for i := 0; i < h.N; i++ {
			if s.Contains(i) {
				continue
			}
			if h.V[s].Cmp(h.V[s.Add(i)]) > 0 {
				return false
			}
		}
	}
	return true
}

// IsSubmodular reports whether h(X∪Y) + h(X∩Y) ≤ h(X) + h(Y) for all X, Y.
// It checks the elemental inequalities
// h(S∪{i}) + h(S∪{j}) ≥ h(S∪{i,j}) + h(S), which generate all of them.
func (h *Func) IsSubmodular() bool {
	full := bitset.Full(h.N)
	lhs, rhs := new(big.Rat), new(big.Rat)
	for s := bitset.Set(0); s <= full; s++ {
		for i := 0; i < h.N; i++ {
			if s.Contains(i) {
				continue
			}
			for j := i + 1; j < h.N; j++ {
				if s.Contains(j) {
					continue
				}
				lhs.Add(h.V[s.Add(i)], h.V[s.Add(j)])
				rhs.Add(h.V[s.Add(i).Add(j)], h.V[s])
				if lhs.Cmp(rhs) < 0 {
					return false
				}
			}
		}
	}
	return true
}

// IsPolymatroid reports membership in Γn: non-negative, monotone,
// submodular, with h(∅) = 0.
func (h *Func) IsPolymatroid() bool {
	return h.IsNonNegative() && h.IsMonotone() && h.IsSubmodular()
}

// IsModular reports whether h(S) = Σ_{v∈S} h({v}) for all S.
func (h *Func) IsModular() bool {
	full := bitset.Full(h.N)
	sum := new(big.Rat)
	for s := bitset.Set(0); s <= full; s++ {
		sum.SetInt64(0)
		for _, v := range s.Vars() {
			sum.Add(sum, h.V[bitset.Singleton(v)])
		}
		if sum.Cmp(h.V[s]) != 0 {
			return false
		}
	}
	return true
}

// IsSubadditive reports whether h(X∪Y) ≤ h(X) + h(Y) for all X, Y
// (checked exhaustively; subadditivity has no small elemental basis).
func (h *Func) IsSubadditive() bool {
	full := bitset.Full(h.N)
	sum := new(big.Rat)
	for x := bitset.Set(0); x <= full; x++ {
		for y := x; y <= full; y++ {
			sum.Add(h.V[x], h.V[y])
			if h.V[x|y].Cmp(sum) > 0 {
				return false
			}
		}
	}
	return true
}

// Modular builds the modular function with the given singleton weights.
func Modular(weights []*big.Rat) *Func {
	h := New(len(weights))
	full := bitset.Full(len(weights))
	for s := bitset.Set(1); s <= full; s++ {
		sum := h.V[s]
		for _, v := range s.Vars() {
			sum.Add(sum, weights[v])
		}
	}
	return h
}

// Closure builds a set function from a family of closed sets with values, as
// in Figures 5 and 6 of the paper: h(Z) is the value of the smallest closed
// set containing Z (implemented as the minimum value over closed supersets,
// which coincides when values are monotone on the closure lattice).
// The family must contain the full set [n]; ∅ is implicitly closed with
// value 0.
func Closure(n int, closed map[bitset.Set]*big.Rat) (*Func, error) {
	full := bitset.Full(n)
	if _, ok := closed[full]; !ok {
		return nil, fmt.Errorf("setfunc: closure family must contain the full set")
	}
	h := New(n)
	for z := bitset.Set(1); z <= full; z++ {
		var best *big.Rat
		for c, v := range closed {
			if z.SubsetOf(c) && (best == nil || v.Cmp(best) < 0) {
				best = v
			}
		}
		h.V[z].Set(best)
	}
	return h, nil
}

// Figure5 returns the 5-variable polymatroid of Figure 5 over the variables
// A, B, X, Y, C (indices 0..4). Its closed sets are the singletons with
// value 2, the pairs AX, BX, XY, AY, BY with value 3 and the full set with
// value 4. Scaled by log N it satisfies all Zhang–Yeung query constraints
// while achieving h(ABXYC) = 4·log N (proof of Theorem 1.3, Claim 2).
func Figure5() *Func {
	const a, b, x, y, c = 0, 1, 2, 3, 4
	two, three, four := big.NewRat(2, 1), big.NewRat(3, 1), big.NewRat(4, 1)
	closed := map[bitset.Set]*big.Rat{
		bitset.Of(a):             two,
		bitset.Of(b):             two,
		bitset.Of(x):             two,
		bitset.Of(y):             two,
		bitset.Of(c):             two,
		bitset.Of(a, x):          three,
		bitset.Of(b, x):          three,
		bitset.Of(x, y):          three,
		bitset.Of(a, y):          three,
		bitset.Of(b, y):          three,
		bitset.Of(a, b, x, y, c): four,
	}
	h, err := Closure(5, closed)
	if err != nil {
		panic(err) // static input; cannot fail
	}
	return h
}

// Figure6Vars is the variable order used by Figure6:
// A, B, X, Y, A', B', X', Y' at indices 0..7.
var Figure6Vars = []string{"A", "B", "X", "Y", "A'", "B'", "X'", "Y'"}

// Figure6 returns the 8-variable polymatroid of Figure 6: two disjoint
// copies of the Figure 5 core (without C) glued under a common full set of
// value 4. Scaled by log N it certifies
// LogSizeBound_{Γ8∩HCC}(P) ≥ 4·log N for the rule (65) (proof of
// Lemma 4.5).
func Figure6() *Func {
	const a, b, x, y, a2, b2, x2, y2 = 0, 1, 2, 3, 4, 5, 6, 7
	two, three, four := big.NewRat(2, 1), big.NewRat(3, 1), big.NewRat(4, 1)
	closed := map[bitset.Set]*big.Rat{
		bitset.Of(a): two, bitset.Of(b): two, bitset.Of(x): two, bitset.Of(y): two,
		bitset.Of(a2): two, bitset.Of(b2): two, bitset.Of(x2): two, bitset.Of(y2): two,
		bitset.Of(a, x): three, bitset.Of(b, x): three, bitset.Of(x, y): three,
		bitset.Of(a, y): three, bitset.Of(b, y): three,
		bitset.Of(a2, x2): three, bitset.Of(b2, x2): three, bitset.Of(x2, y2): three,
		bitset.Of(a2, y2): three, bitset.Of(b2, y2): three,
		bitset.Full(8): four,
	}
	h, err := Closure(8, closed)
	if err != nil {
		panic(err) // static input; cannot fail
	}
	return h
}

// RandomCoverage samples a random coverage function on [n]: a ground set of
// k weighted items, each variable owning a random subset of items, with
// h(S) = total weight covered by S. Coverage functions are polymatroids
// with rational values, making them ideal for exact property tests.
// Tests only: flow's TestExample18ProofSequence, TestProofFromMaximin and
// TestProofSequenceRandom draw their polymatroids from it.
func RandomCoverage(rng *rand.Rand, n, k int) *Func {
	weights := make([]*big.Rat, k)
	owner := make([]bitset.Set, k) // owner[item] = set of variables covering it
	for i := range weights {
		weights[i] = big.NewRat(int64(rng.Intn(5)+1), int64(rng.Intn(3)+1))
		for v := 0; v < n; v++ {
			if rng.Intn(2) == 0 {
				owner[i] = owner[i].Add(v)
			}
		}
	}
	h := New(n)
	full := bitset.Full(n)
	for s := bitset.Set(1); s <= full; s++ {
		sum := h.V[s]
		for i, w := range weights {
			if owner[i].Intersect(s) != 0 {
				sum.Add(sum, w)
			}
		}
	}
	return h
}

// RandomMatroidRank samples the rank function of a random uniform-ish
// matroid: h(S) = min(|S|, k) scaled by a positive rational.
// Tests only: flow's TestProofSequenceOnMatroidRanks draws its polymatroids
// from it.
func RandomMatroidRank(rng *rand.Rand, n int) *Func {
	k := 1 + rng.Intn(n)
	scale := big.NewRat(int64(1+rng.Intn(4)), int64(1+rng.Intn(3)))
	h := New(n)
	full := bitset.Full(n)
	for s := bitset.Set(1); s <= full; s++ {
		r := s.Card()
		if r > k {
			r = k
		}
		h.V[s].Mul(scale, big.NewRat(int64(r), 1))
	}
	return h
}
