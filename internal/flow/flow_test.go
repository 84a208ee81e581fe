package flow

import (
	"math/big"
	"math/rand"
	"testing"

	"panda/internal/bitset"
	"panda/internal/setfunc"
)

func rat(a, b int64) *big.Rat { return big.NewRat(a, b) }

// mustProve validates seq as a proof of 〈λ,h〉 ≤ 〈δ,h〉 and checks the masks
// ValidateProof returns against a replay one step at a time that reads, after
// each step, the coordinates the step consumed off δ.
func mustProve(t *testing.T, lambda, delta Vec, seq ProofSequence) {
	t.Helper()
	zeroed, err := ValidateProof(lambda, delta, seq)
	if err != nil {
		t.Fatalf("ValidateProof: %v", err)
	}
	cur := delta.Clone()
	for i, s := range seq {
		if err := s.Apply(cur); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		consumed := []Pair{Marginal(s.B)}
		switch s.Kind {
		case Submodularity:
			consumed = []Pair{{X: s.A.Intersect(s.B), Y: s.A}}
		case Composition:
			consumed = []Pair{Marginal(s.A), {X: s.A, Y: s.B}}
		}
		var want uint8
		for k, p := range consumed {
			if cur.Get(p).Sign() == 0 {
				want |= 1 << k
			}
		}
		if zeroed[i] != want {
			t.Fatalf("step %d (%v): mask %02b, δ reads %02b", i, s, zeroed[i], want)
		}
	}
}

// exampleC4DCs builds the cardinality constraints of Example 1.4: three
// binary relations of size ≤ N, normalized to log N = 1.
// Variables A1..A4 = 0..3.
func exampleC4DCs() []DC {
	one := rat(1, 1)
	return []DC{
		{X: 0, Y: bitset.Of(0, 1), LogN: one}, // R12
		{X: 0, Y: bitset.Of(1, 2), LogN: one}, // R23
		{X: 0, Y: bitset.Of(2, 3), LogN: one}, // R34
	}
}

func TestVecBasics(t *testing.T) {
	v := NewVec()
	p := Marginal(bitset.Of(0, 1))
	v.Add(p, rat(1, 2))
	v.Add(p, rat(1, 2))
	if v.Get(p).Cmp(rat(1, 1)) != 0 {
		t.Fatalf("Get = %v", v.Get(p))
	}
	v.Sub(p, rat(1, 1))
	if len(v) != 0 {
		t.Fatal("zero coordinates must be deleted")
	}
	v.Add(p, rat(2, 3))
	v.Add(Pair{X: bitset.Of(0), Y: bitset.Of(0, 1)}, rat(1, 3))
	if v.L1().Cmp(rat(1, 1)) != 0 {
		t.Fatalf("L1 = %v", v.L1())
	}
	c := v.Clone()
	c.Sub(p, rat(2, 3))
	if v.Get(p).Sign() == 0 {
		t.Fatal("Clone not deep")
	}
}

func TestCommonDenominator(t *testing.T) {
	v := NewVec()
	v.Add(Marginal(bitset.Of(0)), rat(1, 6))
	w := NewVec()
	w.Add(Marginal(bitset.Of(1)), rat(3, 4))
	d := commonDenominator(v, w)
	if d.Cmp(big.NewInt(12)) != 0 {
		t.Fatalf("D = %v, want 12", d)
	}
}

// TestExample16Witness verifies the witness/inflow machinery on the paper's
// Example 1.6 inequality:
// h(A1A2A3) + h(A2A3A4) ≤ h(A1A2) + h(A2A3) + h(A3A4).
func exampleIneq() (Vec, Vec) {
	lam := NewVec()
	lam.Add(Marginal(bitset.Of(0, 1, 2)), rat(1, 1))
	lam.Add(Marginal(bitset.Of(1, 2, 3)), rat(1, 1))
	del := NewVec()
	del.Add(Marginal(bitset.Of(0, 1)), rat(1, 1))
	del.Add(Marginal(bitset.Of(1, 2)), rat(1, 1))
	del.Add(Marginal(bitset.Of(2, 3)), rat(1, 1))
	return lam, del
}

func TestFindWitnessExample16(t *testing.T) {
	lam, del := exampleIneq()
	w, err := FindWitness(4, lam, del)
	if err != nil {
		t.Fatalf("FindWitness: %v", err)
	}
	if err := CheckWitness(lam, del, w); err != nil {
		t.Fatalf("CheckWitness: %v", err)
	}
}

func TestFindWitnessRejectsInvalid(t *testing.T) {
	// h(A1A2A3) ≤ h(A1A2) is NOT a Shannon flow inequality.
	lam := NewVec()
	lam.Add(Marginal(bitset.Of(0, 1, 2)), rat(1, 1))
	del := NewVec()
	del.Add(Marginal(bitset.Of(0, 1)), rat(1, 1))
	if _, err := FindWitness(3, lam, del); err == nil {
		t.Fatal("witness found for an invalid inequality")
	}
}

// TestExample18ProofSequence reproduces Figure 1: a proof sequence for
// Example 1.6's inequality exists, validates, and holds on sampled
// polymatroids.
func TestExample18ProofSequence(t *testing.T) {
	lam, del := exampleIneq()
	w, err := FindWitness(4, lam, del)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := ConstructProof(lam, del, w)
	if err != nil {
		t.Fatalf("ConstructProof: %v", err)
	}
	if len(seq) == 0 {
		t.Fatal("empty proof sequence for a non-trivial inequality")
	}
	mustProve(t, lam, del, seq)
	// The paper's hand-built sequence (Example 1.8) has 5 steps; ours may
	// differ but must stay short.
	if len(seq) > 12 {
		t.Errorf("proof sequence unexpectedly long: %d steps: %v", len(seq), seq)
	}
	// Every step must not increase 〈δ,h〉 on polymatroids, and the
	// inequality must hold on random polymatroids.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		h := setfunc.RandomCoverage(rng, 4, 6)
		if !holdsOn(lam, del, h) {
			t.Fatalf("inequality fails on a polymatroid")
		}
		for _, s := range seq {
			if evalDrop(s, h).Sign() < 0 {
				t.Fatalf("step %v increases 〈δ,h〉 on a polymatroid", s)
			}
		}
	}
}

func TestStepApplyRejectsOverdraw(t *testing.T) {
	del := NewVec()
	del.Add(Marginal(bitset.Of(0)), rat(1, 2))
	s := Step{Kind: Monotonicity, W: rat(1, 1), A: 0, B: bitset.Of(0)}
	// A = ∅ ⊂ B: consumes h(B), produces nothing.
	if err := s.Apply(del); err == nil {
		t.Fatal("overdraw not rejected")
	}
}

func TestStepValidate(t *testing.T) {
	if err := (Step{Kind: Submodularity, W: rat(1, 1), A: bitset.Of(0), B: bitset.Of(0, 1)}).Validate(); err == nil {
		t.Fatal("submodularity with comparable sets accepted")
	}
	if err := (Step{Kind: Composition, W: rat(1, 1), A: bitset.Of(0, 1), B: bitset.Of(0)}).Validate(); err == nil {
		t.Fatal("composition with X ⊃ Y accepted")
	}
	if err := (Step{Kind: Monotonicity, W: rat(-1, 1), A: 0, B: bitset.Of(0)}).Validate(); err == nil {
		t.Fatal("negative weight accepted")
	}
}

// TestMaximinExample14 reproduces Examples 1.4/1.6: the polymatroid bound of
// the disjunctive rule T123 ∨ T234 ← R12, R23, R34 with |R| ≤ N is exactly
// (3/2)·log N.
func TestMaximinExample14(t *testing.T) {
	targets := []bitset.Set{bitset.Of(0, 1, 2), bitset.Of(1, 2, 3)}
	res, err := MaximinBound(4, exampleC4DCs(), targets)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bound.Cmp(rat(3, 2)) != 0 {
		t.Fatalf("bound = %v, want 3/2", res.Bound)
	}
	// λ sums to 1 over the two targets (by symmetry 1/2 each, but any
	// optimal split is allowed).
	if res.Lambda.L1().Cmp(rat(1, 1)) != 0 {
		t.Fatalf("‖λ‖₁ = %v, want 1", res.Lambda.L1())
	}
	// The witness must certify the inequality.
	if err := CheckWitness(res.Lambda, res.Delta, res.Witness); err != nil {
		t.Fatalf("witness: %v", err)
	}
	// h* must be a polymatroid achieving min_B h(B) = 3/2 within constraints.
	if !res.HStar().IsPolymatroid() {
		t.Fatal("h* is not a polymatroid")
	}
	for _, dc := range exampleC4DCs() {
		if res.HStar().Cond(dc.Y, dc.X).Cmp(dc.LogN) > 0 {
			t.Fatalf("h* violates constraint on %v", dc.Y)
		}
	}
	for _, b := range targets {
		if res.HStar().At(b).Cmp(res.Bound) < 0 {
			t.Fatalf("h*(%v) = %v < bound", b, res.HStar().At(b))
		}
	}
	// Potential identity (82): Σ δ·n = bound (pre-scaling ‖λ‖ was 1 here).
	sum := new(big.Rat)
	for _, dc := range exampleC4DCs() { // one constraint per pair
		sum.Add(sum, new(big.Rat).Mul(res.Delta.Get(Pair{X: dc.X, Y: dc.Y}), dc.LogN))
	}
	if sum.Cmp(res.Bound) != 0 {
		t.Fatalf("Σ δ·n = %v ≠ bound %v", sum, res.Bound)
	}
}

// TestMaximinFullConjunctive computes the AGM exponent of the 4-cycle: the
// single-target bound for [4] under all four edges ≤ N is 2·log N
// (Example 1.2(a)).
func TestMaximinFullConjunctive(t *testing.T) {
	one := rat(1, 1)
	dcs := []DC{
		{X: 0, Y: bitset.Of(0, 1), LogN: one},
		{X: 0, Y: bitset.Of(1, 2), LogN: one},
		{X: 0, Y: bitset.Of(2, 3), LogN: one},
		{X: 0, Y: bitset.Of(3, 0), LogN: one},
	}
	res, err := MaximinBound(4, dcs, []bitset.Set{bitset.Full(4)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bound.Cmp(rat(2, 1)) != 0 {
		t.Fatalf("bound = %v, want 2", res.Bound)
	}
}

// TestMaximinWithFDs reproduces Example 1.2(c): with FDs A1→A2 and A2→A1 the
// 4-cycle output bound drops to (3/2)·log N.
func TestMaximinWithFDs(t *testing.T) {
	one := rat(1, 1)
	zero := new(big.Rat)
	dcs := []DC{
		{X: 0, Y: bitset.Of(0, 1), LogN: one},
		{X: 0, Y: bitset.Of(1, 2), LogN: one},
		{X: 0, Y: bitset.Of(2, 3), LogN: one},
		{X: 0, Y: bitset.Of(3, 0), LogN: one},
		{X: bitset.Of(0), Y: bitset.Of(0, 1), LogN: zero}, // A1 → A2
		{X: bitset.Of(1), Y: bitset.Of(0, 1), LogN: zero}, // A2 → A1
	}
	res, err := MaximinBound(4, dcs, []bitset.Set{bitset.Full(4)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bound.Cmp(rat(3, 2)) != 0 {
		t.Fatalf("bound with FDs = %v, want 3/2", res.Bound)
	}
}

// TestMaximinDegreeConstraints reproduces Example 1.2(b): degree bounds
// deg(A1A2|A1) ≤ D and deg(A1A2|A2) ≤ D with D = N^{1/4} give bound
// |Q| ≤ D·N^{3/2} → exponent 7/4 in log N units.
func TestMaximinDegreeConstraints(t *testing.T) {
	one := rat(1, 1)
	quarter := rat(1, 4) // log D = (1/4)·log N
	dcs := []DC{
		{X: 0, Y: bitset.Of(0, 1), LogN: one},
		{X: 0, Y: bitset.Of(1, 2), LogN: one},
		{X: 0, Y: bitset.Of(2, 3), LogN: one},
		{X: 0, Y: bitset.Of(3, 0), LogN: one},
		{X: bitset.Of(0), Y: bitset.Of(0, 1), LogN: quarter},
		{X: bitset.Of(1), Y: bitset.Of(0, 1), LogN: quarter},
	}
	res, err := MaximinBound(4, dcs, []bitset.Set{bitset.Full(4)})
	if err != nil {
		t.Fatal(err)
	}
	want := rat(7, 4) // 3/2 + 1/4
	if res.Bound.Cmp(want) != 0 {
		t.Fatalf("bound = %v, want %v", res.Bound, want)
	}
}

func TestMaximinUnbounded(t *testing.T) {
	// No constraint on variable 1 → bound is infinite.
	dcs := []DC{{X: 0, Y: bitset.Of(0), LogN: rat(1, 1)}}
	if _, err := MaximinBound(2, dcs, []bitset.Set{bitset.Full(2)}); err == nil {
		t.Fatal("unbounded problem not detected")
	}
}

func TestMaximinEmptyTarget(t *testing.T) {
	res, err := MaximinBound(2, []DC{{X: 0, Y: bitset.Of(0, 1), LogN: rat(1, 1)}},
		[]bitset.Set{0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bound.Sign() != 0 {
		t.Fatalf("bound for ∅ target = %v, want 0", res.Bound)
	}
}

// TestProofFromMaximin runs the full pipeline (LP → witness → proof
// sequence) on Example 1.4 and validates against sampled polymatroids.
func TestProofFromMaximin(t *testing.T) {
	targets := []bitset.Set{bitset.Of(0, 1, 2), bitset.Of(1, 2, 3)}
	res, err := MaximinBound(4, exampleC4DCs(), targets)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := ConstructProof(res.Lambda, res.Delta, res.Witness)
	if err != nil {
		t.Fatal(err)
	}
	mustProve(t, res.Lambda, res.Delta, seq)
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		h := setfunc.RandomCoverage(rng, 4, 5)
		if !holdsOn(res.Lambda, res.Delta, h) {
			t.Fatal("maximin inequality fails on polymatroid")
		}
	}
}

// TestProofSequenceRandom is the Theorem 5.9 property test: random valid
// Shannon flow inequalities (built from random maximin LPs) always admit a
// proof sequence that validates, and the proved inequality holds on random
// polymatroids.
func TestProofSequenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 12; trial++ {
		n := 3 + rng.Intn(2)
		full := bitset.Full(n)
		var dcs []DC
		// Random edges covering all vertices.
		for v := 0; v < n; v++ {
			e := bitset.Singleton(v)
			for u := 0; u < n; u++ {
				if u != v && rng.Intn(2) == 0 {
					e = e.Add(u)
				}
			}
			dcs = append(dcs, DC{X: 0, Y: e, LogN: rat(int64(1+rng.Intn(3)), 1)})
		}
		// Occasionally a proper degree constraint.
		if rng.Intn(2) == 0 {
			e := dcs[0].Y
			if e.Card() >= 2 {
				x := bitset.Singleton(e.Vars()[0])
				dcs = append(dcs, DC{X: x, Y: e, LogN: rat(1, 2)})
			}
		}
		// Random targets.
		var targets []bitset.Set
		for k := 0; k < 1+rng.Intn(2); k++ {
			var b bitset.Set
			for v := 0; v < n; v++ {
				if rng.Intn(2) == 0 {
					b = b.Add(v)
				}
			}
			if b == 0 {
				b = full
			}
			targets = append(targets, b)
		}
		res, err := MaximinBound(n, dcs, targets)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		seq, err := ConstructProof(res.Lambda, res.Delta, res.Witness)
		if err != nil {
			t.Fatalf("trial %d: ConstructProof: %v", trial, err)
		}
		mustProve(t, res.Lambda, res.Delta, seq)
		for k := 0; k < 5; k++ {
			h := setfunc.RandomCoverage(rng, n, 5)
			if !holdsOn(res.Lambda, res.Delta, h) {
				t.Fatalf("trial %d: inequality fails on polymatroid", trial)
			}
		}
	}
}

// TestTruncate checks Lemma 5.11's postconditions on Example 1.4's
// inequality.
func TestTruncate(t *testing.T) {
	targets := []bitset.Set{bitset.Of(0, 1, 2), bitset.Of(1, 2, 3)}
	res, err := MaximinBound(4, exampleC4DCs(), targets)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate at one of the δ marginals.
	var y bitset.Set
	var avail *big.Rat
	for _, p := range res.Delta.Pairs() {
		if p.X == 0 {
			y, avail = p.Y, res.Delta.Get(p)
			break
		}
	}
	if y == 0 {
		t.Fatal("no marginal δ to truncate")
	}
	amount := new(big.Rat).Set(avail)
	tr, err := Truncate(res.Lambda, res.Delta, res.Witness, y, amount)
	if err != nil {
		t.Fatalf("Truncate: %v", err)
	}
	// (b) component-wise domination.
	if !res.Lambda.GE(tr.Lambda) || !res.Delta.GE(tr.Delta) {
		t.Fatal("truncation must not increase λ or δ")
	}
	// (c) exact decrements.
	wantDelta := new(big.Rat).Sub(res.Delta.Get(Marginal(y)), amount)
	if tr.Delta.Get(Marginal(y)).Cmp(wantDelta) != 0 {
		t.Fatalf("δ'_{Y|∅} = %v, want %v", tr.Delta.Get(Marginal(y)), wantDelta)
	}
	lo := new(big.Rat).Sub(res.Lambda.L1(), amount)
	if tr.Lambda.L1().Cmp(lo) < 0 {
		t.Fatalf("‖λ'‖ = %v < ‖λ‖ − amount = %v", tr.Lambda.L1(), lo)
	}
	// (a) the truncated inequality is still provable end-to-end.
	if tr.Lambda.L1().Sign() > 0 {
		seq, err := ConstructProof(tr.Lambda, tr.Delta, tr.Witness)
		if err != nil {
			t.Fatalf("proof of truncated inequality: %v", err)
		}
		mustProve(t, tr.Lambda, tr.Delta, seq)
	}
}

// TestTruncateRandom fuzzes Truncate over random maximin instances.
func TestTruncateRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(2)
		var dcs []DC
		for v := 0; v < n; v++ {
			e := bitset.Singleton(v).Add((v + 1) % n)
			dcs = append(dcs, DC{X: 0, Y: e, LogN: rat(int64(1+rng.Intn(2)), 1)})
		}
		targets := []bitset.Set{bitset.Full(n)}
		res, err := MaximinBound(n, dcs, targets)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range res.Delta.Pairs() {
			if p.X != 0 {
				continue
			}
			half := new(big.Rat).Mul(res.Delta.Get(p), rat(1, 2))
			if half.Sign() == 0 {
				continue
			}
			tr, err := Truncate(res.Lambda, res.Delta, res.Witness, p.Y, half)
			if err != nil {
				t.Fatalf("trial %d truncate at %v: %v", trial, p.Y, err)
			}
			if err := CheckWitness(tr.Lambda, tr.Delta, tr.Witness); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			break
		}
	}
}

// TestInflowContributions exercises Figure 7's bookkeeping: each kind of
// multiplier contributes to inflow with the documented signs.
func TestInflowContributions(t *testing.T) {
	one := rat(1, 1)
	// δ_{Y|X} with X ≠ ∅: +1 at Y, −1 at X.
	del := NewVec()
	x, y := bitset.Of(0), bitset.Of(0, 1)
	del.Add(Pair{X: x, Y: y}, one)
	in := Inflows(del, NewWitness())
	if in[y].Cmp(one) != 0 || in[x].Cmp(rat(-1, 1)) != 0 {
		t.Fatalf("δ inflow: %v", in)
	}
	// σ_{I,J}: +1 at I∩J and I∪J, −1 at I and J.
	w := NewWitness()
	i, j := bitset.Of(0, 1), bitset.Of(1, 2)
	w.Sigma[Sig(i, j)] = one
	in = Inflows(NewVec(), w)
	if in[i.Intersect(j)].Cmp(one) != 0 || in[i.Union(j)].Cmp(one) != 0 {
		t.Fatalf("σ inflow positive parts: %v", in)
	}
	if in[i].Cmp(rat(-1, 1)) != 0 || in[j].Cmp(rat(-1, 1)) != 0 {
		t.Fatalf("σ inflow negative parts: %v", in)
	}
	// µ_{X,Y}: +1 at X, −1 at Y.
	w = NewWitness()
	w.Mu[Pair{X: x, Y: y}] = one
	in = Inflows(NewVec(), w)
	if in[x].Cmp(one) != 0 || in[y].Cmp(rat(-1, 1)) != 0 {
		t.Fatalf("µ inflow: %v", in)
	}
}

func TestTightenMakesInflowsTight(t *testing.T) {
	lam, del := exampleIneq()
	w, err := FindWitness(4, lam, del)
	if err != nil {
		t.Fatal(err)
	}
	Tighten(lam, del, w)
	in := Inflows(del, w)
	for z, v := range in {
		if z == 0 {
			continue
		}
		if v.Cmp(lam.Get(Marginal(z))) != 0 {
			t.Fatalf("inflow(%v) = %v ≠ λ = %v after Tighten", z, v, lam.Get(Marginal(z)))
		}
	}
}
