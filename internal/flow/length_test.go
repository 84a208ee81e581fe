package flow

import (
	"math/big"
	"math/rand"
	"testing"

	"panda/internal/bitset"
	"panda/internal/setfunc"
)

// l1Sigma and l1Mu compute ‖σ‖₁ and ‖µ‖₁ of a witness.
func l1Sigma(w *Witness) *big.Rat {
	s := new(big.Rat)
	for _, v := range w.Sigma {
		s.Add(s, v)
	}
	return s
}

func l1Mu(w *Witness) *big.Rat {
	s := new(big.Rat)
	for _, v := range w.Mu {
		s.Add(s, v)
	}
	return s
}

// TestProofLengthBound checks Theorem 5.9's length guarantee: our batched
// construction must produce at most D·(3‖σ‖₁ + ‖δ‖₁ + ‖µ‖₁) steps (the
// paper's unit construction attains exactly that; batching can only
// shorten).
func TestProofLengthBound(t *testing.T) {
	rng := rand.New(rand.NewSource(271))
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(2)
		var dcs []DC
		for v := 0; v < n; v++ {
			dcs = append(dcs, DC{
				X: 0, Y: bitset.Of(v, (v+1)%n),
				LogN: big.NewRat(int64(1+rng.Intn(3)), int64(1+rng.Intn(2))),
			})
		}
		res, err := MaximinBound(n, dcs, []bitset.Set{bitset.Full(n)})
		if err != nil {
			t.Fatal(err)
		}
		seq, err := ConstructProof(res.Lambda, res.Delta, res.Witness)
		if err != nil {
			t.Fatal(err)
		}
		// Length bound with the witness's own norms.
		bound := new(big.Rat).Mul(big.NewRat(3, 1), l1Sigma(res.Witness))
		bound.Add(bound, res.Delta.L1())
		bound.Add(bound, l1Mu(res.Witness))
		d := commonDenominator(res.Lambda, res.Delta)
		for _, v := range res.Witness.Sigma {
			one := NewVec()
			one.Add(Marginal(bitset.Of(0)), v)
			d.Mul(d, new(big.Int).Div(commonDenominator(one), new(big.Int).GCD(nil, nil, d, commonDenominator(one))))
		}
		bound.Mul(bound, new(big.Rat).SetInt(d))
		limit := new(big.Rat).SetInt64(int64(len(seq)))
		if limit.Cmp(bound) > 0 {
			t.Fatalf("trial %d: %d steps exceeds D(3‖σ‖+‖δ‖+‖µ‖) = %v",
				trial, len(seq), bound)
		}
	}
}

// TestWitnessRebalance (Figure 10 / Appendix B.1 spirit): FindWitness
// minimizes ‖σ‖₁+‖µ‖₁, and the resulting witnesses on the paper's
// inequalities satisfy the Corollary B.6/B.7 norm bounds
// ‖µ‖₁ ≤ n·‖λ‖₁ and 2‖σ‖₁+‖δ‖₁ ≤ n³·‖λ‖₁.
func TestWitnessRebalance(t *testing.T) {
	lam, del := exampleIneq()
	w, err := FindWitness(4, lam, del)
	if err != nil {
		t.Fatal(err)
	}
	n := big.NewRat(4, 1)
	nCubed := big.NewRat(64, 1)
	lamL1 := lam.L1()
	muBound := new(big.Rat).Mul(n, lamL1)
	if l1Mu(w).Cmp(muBound) > 0 {
		t.Fatalf("‖µ‖ = %v > n·‖λ‖ = %v", l1Mu(w), muBound)
	}
	lhs := new(big.Rat).Mul(big.NewRat(2, 1), l1Sigma(w))
	lhs.Add(lhs, del.L1())
	saBound := new(big.Rat).Mul(nCubed, lamL1)
	if lhs.Cmp(saBound) > 0 {
		t.Fatalf("2‖σ‖+‖δ‖ = %v > n³·‖λ‖ = %v", lhs, saBound)
	}
}

// TestProofSequenceOnMatroidRanks validates constructed sequences against a
// second polymatroid family (matroid ranks) beyond coverage functions.
func TestProofSequenceOnMatroidRanks(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	lam, del := exampleIneq()
	w, err := FindWitness(4, lam, del)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := ConstructProof(lam, del, w)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 25; trial++ {
		h := setfunc.RandomMatroidRank(rng, 4)
		if !holdsOn(lam, del, h) {
			t.Fatal("inequality fails on matroid rank")
		}
		for _, s := range seq {
			if evalDrop(s, h).Sign() < 0 {
				t.Fatalf("step %v increases the bound on a matroid rank", s)
			}
		}
	}
}

// TestStepStringAndKinds covers the printing paths used by traces.
func TestStepStringAndKinds(t *testing.T) {
	one := big.NewRat(1, 1)
	steps := []Step{
		{Kind: Submodularity, W: one, A: bitset.Of(0, 1), B: bitset.Of(1, 2)},
		{Kind: Monotonicity, W: one, A: bitset.Of(0), B: bitset.Of(0, 1)},
		{Kind: Composition, W: one, A: bitset.Of(0), B: bitset.Of(0, 1)},
		{Kind: Decomposition, W: one, A: bitset.Of(0), B: bitset.Of(0, 1)},
	}
	for _, s := range steps {
		if s.String() == "" || s.Kind.String() == "" {
			t.Fatal("empty rendering")
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("valid step rejected: %v", err)
		}
	}
}

// TestVecString covers deterministic rendering.
func TestVecString(t *testing.T) {
	v := NewVec()
	if v.String() != "0" {
		t.Fatalf("empty vec renders %q", v.String())
	}
	v.Add(Marginal(bitset.Of(0, 1)), big.NewRat(3, 2))
	v.Add(Pair{X: bitset.Of(0), Y: bitset.Of(0, 1)}, big.NewRat(1, 1))
	if v.String() == "" {
		t.Fatal("non-empty vec renders empty")
	}
}
