package flow

import (
	"fmt"
	"testing"

	"panda/internal/bitset"
	"panda/internal/query"
)

type ineq struct {
	name    string
	n       int
	dcs     []DC
	targets []bitset.Set
}

// corpusInequalities are the bound LPs the bench plan-cold corpus plans with:
// the triangle, the 4-cycle (whole query, one per bag of its two tree
// decompositions, one per bag transversal), Example 1.4's rule, the 4-cycle
// under deg(R: A,B | A), and — outside -short — the 5-cycle.
func corpusInequalities(short bool) []ineq {
	cycle := func(k int, card int64) []DC {
		var dcs []DC
		for i := 0; i < k; i++ {
			dcs = append(dcs, DC{Y: bitset.Of(i, (i+1)%k), LogN: query.LogOf(card)})
		}
		return dcs
	}
	var out []ineq
	for _, card := range []int64{8, 100} {
		at := func(s string) string { return fmt.Sprintf("%s/N=%d", s, card) }
		out = append(out, ineq{at("triangle"), 3, cycle(3, card), []bitset.Set{bitset.Full(3)}})
		c4 := cycle(4, card)
		out = append(out, ineq{at("c4-full"), 4, c4, []bitset.Set{bitset.Full(4)}})
		// Decompositions {A1A2A3, A1A3A4} and {A2A3A4, A1A2A4}.
		td1 := []bitset.Set{bitset.Of(0, 1, 2), bitset.Of(0, 2, 3)}
		td2 := []bitset.Set{bitset.Of(1, 2, 3), bitset.Of(0, 1, 3)}
		for _, b := range append(append([]bitset.Set(nil), td1...), td2...) {
			out = append(out, ineq{at(fmt.Sprintf("c4-bag-%v", b)), 4, c4, []bitset.Set{b}})
		}
		for _, b1 := range td1 {
			for _, b2 := range td2 {
				out = append(out, ineq{at(fmt.Sprintf("c4-transversal-%v-%v", b1, b2)), 4, c4, []bitset.Set{b1, b2}})
			}
		}
		out = append(out, ineq{at("path-rule"), 4, c4[:3], []bitset.Set{bitset.Of(0, 1, 2), bitset.Of(1, 2, 3)}})
		deg := append(append([]DC(nil), c4...), DC{X: bitset.Of(0), Y: bitset.Of(0, 1), LogN: query.LogOf(8)})
		out = append(out, ineq{at("c4-deg"), 4, deg, []bitset.Set{bitset.Full(4)}})
		if !short {
			out = append(out,
				ineq{at("c5-full"), 5, cycle(5, card), []bitset.Set{bitset.Full(5)}},
				ineq{at("c5-transversal"), 5, cycle(5, card), []bitset.Set{bitset.Of(0, 1, 2), bitset.Of(1, 2, 3, 4), bitset.Of(0, 2, 3)}})
		}
	}
	return out
}

// TestWitnessOfProofEveryPrefix is the property the Case-4b restart stands
// on: wherever the engine stops inside a proof sequence, the steps it has not
// run are a witness of the inequality it is at — CheckWitness accepts it, and
// ConstructProof turns it back into a sequence that validates.
func TestWitnessOfProofEveryPrefix(t *testing.T) {
	for _, tc := range corpusInequalities(testing.Short()) {
		res, err := MaximinBound(tc.n, tc.dcs, tc.targets)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		seq, err := ConstructProof(res.Lambda, res.Delta, res.Witness)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		cur := res.Delta.Clone()
		for k := 0; k <= len(seq); k++ {
			w, err := WitnessOfProof(cur, seq[k:])
			if err != nil {
				t.Fatalf("%s: prefix %d: %v", tc.name, k, err)
			}
			if err := CheckWitness(res.Lambda, cur, w); err != nil {
				t.Fatalf("%s: prefix %d: %v", tc.name, k, err)
			}
			again, err := ConstructProof(res.Lambda, cur, w)
			if err != nil {
				t.Fatalf("%s: prefix %d: %v", tc.name, k, err)
			}
			mustProve(t, res.Lambda, cur, again)
			if k < len(seq) {
				if err := seq[k].Apply(cur); err != nil {
					t.Fatalf("%s: step %d: %v", tc.name, k, err)
				}
			}
		}
	}
}

// TestWitnessOfProofLeftovers: conditioned mass the sequence never composes
// is dropped by µ_{X,Y}, and a drop to h(∅) is a µ_{∅,Y}.
func TestWitnessOfProofLeftovers(t *testing.T) {
	ab, a := bitset.Of(0, 1), bitset.Of(0)
	lambda := Vec{Marginal(a): rat(1, 1)}
	delta := Vec{Marginal(a): rat(1, 1), Pair{X: a, Y: ab}: rat(2, 1), Marginal(bitset.Of(2)): rat(1, 2)}
	seq := ProofSequence{{Kind: Monotonicity, W: rat(1, 2), A: 0, B: bitset.Of(2)}}
	w, err := WitnessOfProof(delta, seq)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Mu[Pair{X: a, Y: ab}]; got == nil || got.Cmp(rat(2, 1)) != 0 {
		t.Fatalf("µ_{A,AB} = %v, want 2", got)
	}
	if got := w.Mu[Marginal(bitset.Of(2))]; got == nil || got.Cmp(rat(1, 2)) != 0 {
		t.Fatalf("µ_{∅,C} = %v, want 1/2", got)
	}
	if len(w.Sigma) != 0 || len(w.Mu) != 2 {
		t.Fatalf("unexpected multipliers: σ %v, µ %v", w.Sigma, w.Mu)
	}
	if err := CheckWitness(lambda, delta, w); err != nil {
		t.Fatal(err)
	}
}

// TestWitnessOfProofRejects: a sequence that does not apply to δ — the state
// a corrupted decoded plan would put the engine in — is an error, not a panic
// and not a witness.
func TestWitnessOfProofRejects(t *testing.T) {
	ab, a, b := bitset.Of(0, 1), bitset.Of(0), bitset.Of(1)
	delta := Vec{Marginal(ab): rat(1, 1)}
	for name, seq := range map[string]ProofSequence{
		"over-consuming":       {{Kind: Monotonicity, W: rat(2, 1), A: a, B: ab}},
		"consumes absent term": {{Kind: Composition, W: rat(1, 1), A: a, B: ab}},
		"second step overdraw": {{Kind: Monotonicity, W: rat(1, 1), A: a, B: ab}, {Kind: Monotonicity, W: rat(1, 1), A: b, B: ab}},
		"comparable σ sets":    {{Kind: Submodularity, W: rat(1, 1), A: a, B: ab}},
		"X not inside Y":       {{Kind: Decomposition, W: rat(1, 1), A: ab, B: a}},
		"nil weight":           {{Kind: Monotonicity, A: a, B: ab}},
		"negative weight":      {{Kind: Monotonicity, W: rat(-1, 1), A: a, B: ab}},
		"unknown kind":         {{Kind: StepKind(9), W: rat(1, 1), A: a, B: ab}},
	} {
		if w, err := WitnessOfProof(delta, seq); err == nil {
			t.Errorf("%s: accepted, witness σ %v µ %v", name, w.Sigma, w.Mu)
		}
	}
	if delta.Get(Marginal(ab)).Cmp(rat(1, 1)) != 0 || len(delta) != 1 {
		t.Fatalf("input δ was modified: %v", delta)
	}
}
