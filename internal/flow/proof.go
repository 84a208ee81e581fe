package flow

import (
	"fmt"
	"math/big"

	"panda/internal/bitset"
	"panda/internal/setfunc"
)

// StepKind enumerates the four proof-step rules (13)–(16) of the paper.
type StepKind int

// Proof-step kinds.
const (
	// Submodularity s_{I,J}: h(I|I∩J) → h(I∪J|J)   (rule 13)
	Submodularity StepKind = iota
	// Monotonicity m_{X,Y}: h(Y) → h(X), X ⊂ Y     (rule 14)
	Monotonicity
	// Composition c_{X,Y}: h(X) + h(Y|X) → h(Y)    (rule 15)
	Composition
	// Decomposition d_{Y,X}: h(Y) → h(X) + h(Y|X)  (rule 16)
	Decomposition
)

func (k StepKind) String() string {
	switch k {
	case Submodularity:
		return "submodularity"
	case Monotonicity:
		return "monotonicity"
	case Composition:
		return "composition"
	default:
		return "decomposition"
	}
}

// Step is one weighted proof step (Definition 5.7). For Submodularity, A and
// B are the incomparable sets I and J; for the other kinds A = X ⊂ B = Y.
type Step struct {
	Kind StepKind
	W    *big.Rat
	A, B bitset.Set
}

func (s Step) String() string {
	switch s.Kind {
	case Submodularity:
		return fmt.Sprintf("%v·s[%v,%v]", s.W.RatString(), s.A, s.B)
	case Monotonicity:
		return fmt.Sprintf("%v·m[%v⊂%v]", s.W.RatString(), s.A, s.B)
	case Composition:
		return fmt.Sprintf("%v·c[%v,%v]", s.W.RatString(), s.A, s.B)
	default:
		return fmt.Sprintf("%v·d[%v,%v]", s.W.RatString(), s.B, s.A)
	}
}

// Moves returns the coordinate updates of the step as (consumed, produced)
// pair lists: applying the step adds W to each produced coordinate and
// subtracts W from each consumed coordinate of δ. Terms h(∅) are identically
// zero and are dropped (they arise when X = ∅, e.g. in d_{Y,∅}).
func (s Step) Moves() (consumed, produced []Pair) {
	keep := func(ps ...Pair) []Pair {
		out := ps[:0]
		for _, p := range ps {
			if p.Y != 0 {
				out = append(out, p)
			}
		}
		return out
	}
	consumed = keep(s.consumes())
	switch s.Kind {
	case Submodularity:
		return consumed, keep(Pair{X: s.B, Y: s.A.Union(s.B)})
	case Monotonicity:
		return consumed, keep(Marginal(s.A))
	case Composition:
		return consumed, keep(Marginal(s.B))
	default: // Decomposition
		return consumed, keep(Marginal(s.A), Pair{X: s.A, Y: s.B})
	}
}

// consumes returns the coordinates the step consumes, first and second in the
// order of ValidateProof's bits; second is the zero Pair, h(∅), unless the
// step is a composition. Unlike Moves it keeps h(∅), which δ never holds.
func (s Step) consumes() (first, second Pair) {
	switch s.Kind {
	case Submodularity:
		return Pair{X: s.A.Intersect(s.B), Y: s.A}, Pair{}
	case Composition:
		return Marginal(s.A), Pair{X: s.A, Y: s.B}
	default:
		return Marginal(s.B), Pair{}
	}
}

// Validate checks the structural side conditions of the step.
func (s Step) Validate() error {
	if s.W == nil || s.W.Sign() <= 0 {
		return fmt.Errorf("flow: step weight must be positive")
	}
	switch s.Kind {
	case Submodularity:
		if !s.A.Incomparable(s.B) {
			return fmt.Errorf("flow: submodularity needs I ⊥ J, got %v, %v", s.A, s.B)
		}
	case Monotonicity, Composition, Decomposition:
		if !s.A.ProperSubsetOf(s.B) {
			return fmt.Errorf("flow: %v needs X ⊂ Y, got %v, %v", s.Kind, s.A, s.B)
		}
	default:
		return fmt.Errorf("flow: unknown step kind %d", int(s.Kind))
	}
	return nil
}

// Apply performs δ ← δ + W·f for the step's move vector f, returning an
// error if any consumed coordinate would go negative (violating
// Definition 5.7(3)).
func (s Step) Apply(delta Vec) error {
	if err := s.Validate(); err != nil {
		return err
	}
	consumed, produced := s.Moves()
	for _, p := range consumed {
		if delta.Get(p).Cmp(s.W) < 0 {
			return fmt.Errorf("flow: step %v consumes %v but δ has only %v", s, p, delta.Get(p))
		}
	}
	for _, p := range consumed {
		delta.Sub(p, s.W)
	}
	for _, p := range produced {
		delta.Add(p, s.W)
	}
	return nil
}

// EvalDrop computes the amount by which the step decreases 〈δ,h〉 on an
// exact set function (must be ≥ 0 for every polymatroid by inequalities
// (77)–(80)).
func (s Step) EvalDrop(h *setfunc.Func) *big.Rat {
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

// ProofSequence is a sequence of weighted steps (Definition 5.7).
type ProofSequence []Step

// StepError is the error ValidateProof returns when step Index of a
// sequence is malformed or consumes more of δ than the steps before it left.
type StepError struct {
	Index int
	Err   error
}

func (e *StepError) Error() string { return fmt.Sprintf("flow: step %d: %v", e.Index, e.Err) }

func (e *StepError) Unwrap() error { return e.Err }

// ValidateProof checks that seq is a proof sequence for 〈λ,h〉 ≤ 〈δ,h〉
// (Definition 5.7): starting from δ, every step is well formed and leaves
// every coordinate non-negative, and the final vector dominates λ. A failing
// step is reported as a *StepError.
//
// The replay also yields all that an interpreter of the sequence ever asks of
// δ, which is fixed by the weights and not by the data: zeroed[i] tells which
// of the coordinates step i consumes it leaves at zero. Bit 0 stands for the
// step's first consumed term — h(I|I∩J) of s[I,J], h(Y) of m[X⊂Y] and of
// d[Y,X], h(X) of c[X,Y] — and bit 1 for the second, h(Y|X) of c[X,Y].
func ValidateProof(lambda, delta Vec, seq ProofSequence) (zeroed []uint8, err error) {
	cur := delta.Clone()
	zeroed = make([]uint8, len(seq))
	for i, s := range seq {
		if err := s.Apply(cur); err != nil {
			return nil, &StepError{Index: i, Err: err}
		}
		first, second := s.consumes()
		if _, ok := cur[first]; !ok {
			zeroed[i] |= 1
		}
		if _, ok := cur[second]; !ok && s.Kind == Composition {
			zeroed[i] |= 2
		}
	}
	if !cur.GE(lambda) {
		return nil, fmt.Errorf("flow: final δ_ℓ = %v does not dominate λ = %v", cur, lambda)
	}
	return zeroed, nil
}

// Eval computes 〈v, h〉 = Σ_p v_p·h(Y_p|X_p) exactly.
func Eval(v Vec, h *setfunc.Func) *big.Rat {
	s := new(big.Rat)
	tmp := new(big.Rat)
	for p, w := range v {
		s.Add(s, tmp.Mul(w, h.Cond(p.Y, p.X)))
	}
	return s
}

// HoldsOn reports whether 〈λ,h〉 ≤ 〈δ,h〉 holds on the given set function
// (used by property tests with sampled polymatroids).
func HoldsOn(lambda, delta Vec, h *setfunc.Func) bool {
	return Eval(lambda, h).Cmp(Eval(delta, h)) <= 0
}
