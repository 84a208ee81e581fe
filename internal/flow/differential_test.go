package flow

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"panda/internal/bitset"
	"panda/internal/query"
)

// sameSeq reports how two constructions differ, or "" when they emitted the
// same steps with the same weights or failed with the same error.
func sameSeq(got, want ProofSequence, errGot, errWant error) string {
	if errGot != nil || errWant != nil {
		if fmt.Sprint(errGot) != fmt.Sprint(errWant) {
			return fmt.Sprintf("error %v, reference %v", errGot, errWant)
		}
		return ""
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d steps, reference %d:\n got %v\nwant %v", len(got), len(want), got, want)
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Kind != w.Kind || g.A != w.A || g.B != w.B || g.W.Cmp(w.W) != 0 {
			return fmt.Sprintf("step %d is %v, reference %v", i, g, w)
		}
	}
	return ""
}

// sameRats reports whether two maps hold the same keys — zero entries
// included — with equal values.
func sameRats[K comparable](a, b map[K]*big.Rat) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || v.Cmp(w) != 0 {
			return false
		}
	}
	return true
}

// sameTruncation reports how two truncations differ, or "".
func sameTruncation(got, want *TruncateResult, errGot, errWant error) string {
	if errGot != nil || errWant != nil {
		if fmt.Sprint(errGot) != fmt.Sprint(errWant) {
			return fmt.Sprintf("error %v, reference %v", errGot, errWant)
		}
		return ""
	}
	switch {
	case !sameRats(got.Lambda, want.Lambda):
		return fmt.Sprintf("λ′ %v, reference %v", got.Lambda, want.Lambda)
	case !sameRats(got.Delta, want.Delta):
		return fmt.Sprintf("δ′ %v, reference %v", got.Delta, want.Delta)
	case !sameRats(got.Witness.Sigma, want.Witness.Sigma):
		return "σ′ differs from the reference"
	case !sameRats(got.Witness.Mu, want.Witness.Mu):
		return "µ′ differs from the reference"
	}
	return ""
}

// DiffAgainstReference constructs a proof of 〈λ,h〉 ≤ 〈δ,h〉 from w with
// ConstructProof and refConstructProof, then replays every Case-4b input the
// engine can derive from it: the witness of each suffix of the sequence
// (WitnessOfProof) proves the inequality the engine is in after the prefix,
// and each composition step is truncated (Truncate, then ConstructProof on
// the result) as core's program.truncate does. Every pair must agree; it
// returns the number of constructions and truncations compared.
func DiffAgainstReference(t *testing.T, name string, lambda, delta Vec, w *Witness) int {
	t.Helper()
	construct := func(what string, lam, del Vec, wit *Witness) ProofSequence {
		t.Helper()
		got, errGot := ConstructProof(lam, del, wit)
		want, errWant := refConstructProof(lam, del, wit)
		if d := sameSeq(got, want, errGot, errWant); d != "" {
			t.Fatalf("%s: %s: %s", name, what, d)
		}
		return got
	}
	seq := construct("construct", lambda, delta, w)
	n := 1
	if seq == nil {
		return n
	}
	cur := delta.Clone()
	for i := 0; i <= len(seq); i++ {
		if i > 0 {
			if err := seq[i-1].Apply(cur); err != nil {
				t.Fatalf("%s: step %d: %v", name, i-1, err)
			}
		}
		rest := seq[i:]
		wit, err := WitnessOfProof(cur, rest)
		if err != nil {
			t.Fatalf("%s: suffix %d: %v", name, i, err)
		}
		construct(fmt.Sprintf("suffix %d", i), lambda, cur, wit)
		n++
		if i == 0 || seq[i-1].Kind != Composition {
			continue
		}
		// Step i−1 is a composition and cur is δ after it.
		step := seq[i-1]
		got, errGot := Truncate(lambda, cur, wit, step.B, step.W)
		want, errWant := refTruncate(lambda, cur, wit, step.B, step.W)
		if d := sameTruncation(got, want, errGot, errWant); d != "" {
			t.Fatalf("%s: truncate at step %d: %s", name, i-1, d)
		}
		n++
		if errGot == nil {
			construct(fmt.Sprintf("truncated at step %d", i-1), got.Lambda, got.Delta, got.Witness)
			n++
		}
	}
	return n
}

// TestConstructMatchesReferenceOnCycles: the maximin witnesses of k-cycles,
// k = 3…6, under seeded random cardinalities plus one degree constraint,
// build the same proofs, suffix witnesses and truncations as the reference
// copies.
func TestConstructMatchesReferenceOnCycles(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	compared := 0
	for k := 3; k <= 6; k++ {
		trials := 6
		if k == 6 || testing.Short() {
			trials = 2
		}
		for trial := 0; trial < trials; trial++ {
			var dcs []DC
			for i := 0; i < k; i++ {
				dcs = append(dcs, DC{Y: bitset.Of(i, (i+1)%k), LogN: query.LogOf(int64(2 + rng.Intn(200)))})
			}
			a := rng.Intn(k)
			dcs = append(dcs, DC{X: bitset.Of(a), Y: bitset.Of(a, (a+1)%k), LogN: query.LogOf(int64(1 + rng.Intn(8)))})
			targets := []bitset.Set{bitset.Full(k)}
			if trial%2 == 1 { // a disjunctive head: two bags of the cycle
				targets = []bitset.Set{bitset.Full(k) &^ bitset.Of(0), bitset.Full(k) &^ bitset.Of(k/2)}
			}
			res, err := MaximinBound(k, dcs, targets)
			if err != nil {
				t.Fatalf("k=%d trial %d: %v", k, trial, err)
			}
			compared += DiffAgainstReference(t, fmt.Sprintf("k=%d trial %d", k, trial), res.Lambda, res.Delta, res.Witness)
		}
	}
	t.Logf("%d constructions and truncations compared", compared)
}

// TestConstructMatchesReferenceWithZeroCoordinates: explicit zero entries in
// λ, δ, σ and µ — a λ that carries one must still read ‖λ‖₁ > 0 only from
// its positive coordinates.
func TestConstructMatchesReferenceWithZeroCoordinates(t *testing.T) {
	lam, del := exampleIneq()
	w, err := FindWitness(4, lam, del)
	if err != nil {
		t.Fatal(err)
	}
	lam = lam.Clone()
	lam[Marginal(bitset.Of(0, 1))] = new(big.Rat)
	del = del.Clone()
	del[Marginal(bitset.Of(2))] = new(big.Rat)
	del[Pair{X: bitset.Of(1), Y: bitset.Of(1, 3)}] = new(big.Rat)
	w.Mu[Pair{X: bitset.Of(0), Y: bitset.Of(0, 1, 2, 3)}] = new(big.Rat)
	w.Sigma[Sig(bitset.Of(0), bitset.Of(1))] = new(big.Rat)
	DiffAgainstReference(t, "zero coordinates", lam, del, w)

	onlyZero := NewVec()
	onlyZero[Marginal(bitset.Of(0, 1, 2, 3))] = new(big.Rat)
	seq, err := ConstructProof(onlyZero, del, w)
	if err != nil || len(seq) != 0 {
		t.Fatalf("λ = 0: %v, %v; want an empty sequence", seq, err)
	}
	DiffAgainstReference(t, "λ = 0", onlyZero, del, w)
}

// TestConstructMatchesReferenceOnDenseWitnesses: witnesses far from an LP
// vertex — random σ, µ and conditioned δ, with δ_{Z|∅} raised until every
// inflow is non-negative and λ taking part of the inflow of a few Z — so
// that several µ_{X,Z}, δ_{Y|Z} and σ_{Z,J} compete at one Z and the scans'
// tie-breaks decide.
func TestConstructMatchesReferenceOnDenseWitnesses(t *testing.T) {
	rng := rand.New(rand.NewSource(5119))
	weight := func() *big.Rat { return big.NewRat(int64(1+rng.Intn(4)), int64(1+rng.Intn(2))) }
	trials := 150
	if testing.Short() {
		trials = 40
	}
	compared := 0
	for trial := 0; trial < trials; trial++ {
		n := 3 + rng.Intn(3)
		full := bitset.Full(n)
		set := func() bitset.Set { return bitset.Set(1 + rng.Intn(int(full))) }
		lam, del, w := NewVec(), NewVec(), NewWitness()
		for len(w.Sigma) < 2+rng.Intn(2*n) {
			if i, j := set(), set(); i.Incomparable(j) {
				addTo(w.Sigma, Sig(i, j), weight())
			}
		}
		for k := 0; k < 2*n; k++ {
			x, y := set(), set()
			if !x.ProperSubsetOf(y) {
				continue
			}
			if rng.Intn(2) == 0 {
				addTo(w.Mu, Pair{X: x, Y: y}, weight())
			} else {
				del.Add(Pair{X: x, Y: y}, weight())
			}
		}
		in := Inflows(del, w)
		for z := bitset.Set(1); z <= full; z++ {
			if v := in[z]; v != nil && v.Sign() < 0 {
				del.Add(Marginal(z), new(big.Rat).Neg(v))
			}
		}
		for k := 0; k < n; k++ {
			del.Add(Marginal(set()), weight())
		}
		in = Inflows(del, w)
		for z := bitset.Set(1); z <= full; z++ {
			if v := in[z]; v != nil && v.Sign() > 0 && rng.Intn(3) == 0 {
				lam.Add(Marginal(z), new(big.Rat).Mul(v, big.NewRat(int64(1+rng.Intn(2)), 2)))
			}
		}
		if err := CheckWitness(lam, del, w); err != nil {
			t.Fatalf("trial %d: generator: %v", trial, err)
		}
		compared += DiffAgainstReference(t, fmt.Sprintf("trial %d", trial), lam, del, w)
	}
	t.Logf("%d constructions and truncations compared", compared)
}
