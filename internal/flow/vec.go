// Package flow implements the Shannon-flow-inequality machinery of
// Section 5 of the paper: conditional-polymatroid term vectors, witnesses
// (Proposition 5.4/5.6), the inflow bookkeeping of Eq. (74), proof-sequence
// construction (Theorem 5.9), proof-sequence validation, truncation
// (Lemma 5.11), and the maximin-to-linear reformulation (Lemma 5.2) solved
// by exact LP.
//
// A witness and a proof sequence are two forms of the same certificate, and
// the package converts both ways: ConstructProof turns (σ, µ) into steps
// (Theorem 5.9), WitnessOfProof reads (σ, µ) back off steps. That decides who
// solves an LP and when. Planning does, once per rule: MaximinBound's dual is
// the witness its proof sequence is built from. Execution never does: when
// PANDA's Case 4b must truncate the inequality it is in the middle of, the
// steps it has not run yet are that inequality's proof sequence, hence its
// witness, and Truncate and ConstructProof take it from there. FindWitness —
// the LP that finds a witness from (λ, δ) alone — is the paper's decision
// procedure (Proposition 5.4) and the tests' reference; nothing on the
// planning or execution path calls it.
package flow

import (
	"fmt"
	"math/big"
	"sort"
	"strings"

	"panda/internal/bitset"
)

// Pair indexes a conditional term h(Y|X) with X ⊂ Y; X = ∅ gives the
// unconditional h(Y). This is the paper's index set P (Definition 5.5).
type Pair struct {
	X, Y bitset.Set
}

// Valid reports whether X ⊂ Y.
func (p Pair) Valid() bool { return p.X.ProperSubsetOf(p.Y) }

func (p Pair) String() string {
	if p.X == 0 {
		return fmt.Sprintf("h(%v)", p.Y)
	}
	return fmt.Sprintf("h(%v|%v)", p.Y, p.X)
}

// Marginal builds the unconditional pair (∅, Y).
func Marginal(y bitset.Set) Pair { return Pair{X: 0, Y: y} }

// Vec is a sparse non-negative rational vector over conditional pairs —
// the λ and δ of Definition 5.1, extended to Q₊^P (Section 5.2).
type Vec map[Pair]*big.Rat

// NewVec returns an empty vector.
func NewVec() Vec { return Vec{} }

// Get returns the coordinate value (zero if absent). The returned value
// must not be mutated.
func (v Vec) Get(p Pair) *big.Rat {
	if r, ok := v[p]; ok {
		return r
	}
	return new(big.Rat)
}

// Add adds w to coordinate p in place, deleting coordinates that reach 0.
func (v Vec) Add(p Pair, w *big.Rat) {
	r, ok := v[p]
	if !ok {
		r = new(big.Rat)
		v[p] = r
	}
	r.Add(r, w)
	if r.Sign() == 0 {
		delete(v, p)
	}
}

// Sub subtracts w from coordinate p in place.
func (v Vec) Sub(p Pair, w *big.Rat) {
	v.Add(p, new(big.Rat).Neg(w))
}

// Clone returns a deep copy.
func (v Vec) Clone() Vec {
	out := make(Vec, len(v))
	for p, r := range v {
		out[p] = new(big.Rat).Set(r)
	}
	return out
}

// L1 returns Σ |v_p| (coordinates are expected non-negative).
func (v Vec) L1() *big.Rat {
	s := new(big.Rat)
	for _, r := range v {
		if r.Sign() >= 0 {
			s.Add(s, r)
		} else {
			s.Sub(s, r)
		}
	}
	return s
}

// NonNegative reports whether every coordinate is ≥ 0.
func (v Vec) NonNegative() bool {
	for _, r := range v {
		if r.Sign() < 0 {
			return false
		}
	}
	return true
}

// GE reports whether v ≥ w component-wise.
func (v Vec) GE(w Vec) bool {
	for p, r := range w {
		if v.Get(p).Cmp(r) < 0 {
			return false
		}
	}
	return true
}

// Pairs returns the support sorted by (|Y|, Y, X) for deterministic
// iteration.
func (v Vec) Pairs() []Pair {
	out := make([]Pair, 0, len(v))
	for p := range v {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Y.Card() != b.Y.Card() {
			return a.Y.Card() < b.Y.Card()
		}
		if a.Y != b.Y {
			return a.Y < b.Y
		}
		return a.X < b.X
	})
	return out
}

func (v Vec) String() string {
	var parts []string
	for _, p := range v.Pairs() {
		parts = append(parts, fmt.Sprintf("%v·%v", v[p].RatString(), p))
	}
	if len(parts) == 0 {
		return "0"
	}
	return strings.Join(parts, " + ")
}
