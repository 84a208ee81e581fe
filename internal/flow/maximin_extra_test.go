package flow

import (
	"math/big"
	"testing"

	"panda/internal/bitset"
)

// TestMaximinTriangleAGM: the single-target bound of the triangle equals
// its AGM exponent 3/2 (Prop 3.2 seen from the flow side).
func TestMaximinTriangleAGM(t *testing.T) {
	one := rat(1, 1)
	dcs := []DC{
		{X: 0, Y: bitset.Of(0, 1), LogN: one},
		{X: 0, Y: bitset.Of(1, 2), LogN: one},
		{X: 0, Y: bitset.Of(0, 2), LogN: one},
	}
	res, err := MaximinBound(3, dcs, []bitset.Set{bitset.Full(3)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bound.Cmp(rat(3, 2)) != 0 {
		t.Fatalf("triangle bound = %v, want 3/2", res.Bound)
	}
	// The whole pipeline round-trips.
	seq, err := ConstructProof(res.Lambda, res.Delta, res.Witness)
	if err != nil {
		t.Fatal(err)
	}
	mustProve(t, res.Lambda, res.Delta, seq)
}

// TestMaximinDuplicateTargets: duplicates must not change the bound.
func TestMaximinDuplicateTargets(t *testing.T) {
	dcs := exampleC4DCs()
	a := []bitset.Set{bitset.Of(0, 1, 2), bitset.Of(1, 2, 3)}
	b := []bitset.Set{bitset.Of(0, 1, 2), bitset.Of(1, 2, 3), bitset.Of(0, 1, 2)}
	ra, err := MaximinBound(4, dcs, a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := MaximinBound(4, dcs, b)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Bound.Cmp(rb.Bound) != 0 {
		t.Fatalf("duplicate targets changed the bound: %v vs %v", ra.Bound, rb.Bound)
	}
}

// TestMaximinFDOnlyBoundZero: if FDs collapse everything to a constant, the
// bound is 0.
func TestMaximinFDOnlyBoundZero(t *testing.T) {
	zero := new(big.Rat)
	dcs := []DC{
		{X: 0, Y: bitset.Of(0), LogN: zero},               // |Π_0| ≤ 1
		{X: bitset.Of(0), Y: bitset.Of(0, 1), LogN: zero}, // 0 → 1
	}
	res, err := MaximinBound(2, dcs, []bitset.Set{bitset.Full(2)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bound.Sign() != 0 {
		t.Fatalf("bound = %v, want 0", res.Bound)
	}
}

// TestMaximinBadInputs covers validation.
func TestMaximinBadInputs(t *testing.T) {
	if _, err := MaximinBound(2, nil, nil); err == nil {
		t.Fatal("no targets accepted")
	}
	bad := []DC{{X: bitset.Of(0, 1), Y: bitset.Of(0, 1), LogN: rat(1, 1)}}
	if _, err := MaximinBound(2, bad, []bitset.Set{bitset.Full(2)}); err == nil {
		t.Fatal("X = Y accepted")
	}
	neg := []DC{{X: 0, Y: bitset.Of(0, 1), LogN: rat(-1, 1)}}
	if _, err := MaximinBound(2, neg, []bitset.Set{bitset.Full(2)}); err == nil {
		t.Fatal("negative log bound accepted")
	}
}

// TestLinearBoundMatchesMaximinSingle: LinearBound with weight 1 on one set
// equals the single-target maximin bound.
func TestLinearBoundMatchesMaximinSingle(t *testing.T) {
	dcs := exampleC4DCs()
	b := bitset.Of(0, 1, 2)
	res, err := MaximinBound(4, dcs, []bitset.Set{b})
	if err != nil {
		t.Fatal(err)
	}
	lin, h, err := LinearBound(4, dcs, map[bitset.Set]*big.Rat{b: rat(1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if lin.Cmp(res.Bound) != 0 {
		t.Fatalf("linear %v ≠ maximin %v", lin, res.Bound)
	}
	if !h.IsPolymatroid() {
		t.Fatal("LinearBound h* not a polymatroid")
	}
	if h.At(b).Cmp(lin) != 0 {
		t.Fatalf("h*(B) = %v ≠ bound %v", h.At(b), lin)
	}
}

// TestLinearBoundZeroObjective returns 0 for an empty objective.
func TestLinearBoundZeroObjective(t *testing.T) {
	v, _, err := LinearBound(3, nil, nil)
	if err != nil || v.Sign() != 0 {
		t.Fatalf("%v %v", v, err)
	}
}

// TestHStarAchievesMinimum: the optimal polymatroid's minimum over targets
// equals the bound exactly (complementary slackness made visible).
func TestHStarAchievesMinimum(t *testing.T) {
	dcs := exampleC4DCs()
	targets := []bitset.Set{bitset.Of(0, 1, 2), bitset.Of(1, 2, 3)}
	res, err := MaximinBound(4, dcs, targets)
	if err != nil {
		t.Fatal(err)
	}
	min := res.HStar().At(targets[0])
	for _, b := range targets[1:] {
		if v := res.HStar().At(b); v.Cmp(min) < 0 {
			min = v
		}
	}
	if min.Cmp(res.Bound) != 0 {
		t.Fatalf("min_B h*(B) = %v ≠ bound %v", min, res.Bound)
	}
}
