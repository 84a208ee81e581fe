package entropy

import (
	"math"
	"math/big"
	"testing"

	"panda/internal/bitset"
)

func TestUniformEntropy(t *testing.T) {
	// Two iid fair bits: H(A)=H(B)=1, H(AB)=2.
	d := Uniform(2, [][]int64{{0, 0}, {0, 1}, {1, 0}, {1, 1}})
	if h := d.Marginal(bitset.Of(0)); math.Abs(h-1) > 1e-12 {
		t.Fatalf("H(A) = %v, want 1", h)
	}
	if h := d.Marginal(bitset.Of(0, 1)); math.Abs(h-2) > 1e-12 {
		t.Fatalf("H(AB) = %v, want 2", h)
	}
	if h := d.Marginal(0); h != 0 {
		t.Fatalf("H(∅) = %v", h)
	}
}

func TestPerfectlyCorrelated(t *testing.T) {
	// A = B uniform: H(A) = H(B) = H(AB) = 1.
	d := Uniform(2, [][]int64{{0, 0}, {1, 1}})
	for _, s := range []bitset.Set{bitset.Of(0), bitset.Of(1), bitset.Of(0, 1)} {
		if h := d.Marginal(s); math.Abs(h-1) > 1e-12 {
			t.Fatalf("H(%v) = %v, want 1", s, h)
		}
	}
}

// vector returns d's full entropy vector indexed by subset mask — an
// entropic function (a point of Γ*_n, up to float error).
func vector(d *Distribution) []float64 {
	full := bitset.Full(d.N)
	out := make([]float64, int(full)+1)
	for s := bitset.Set(1); s <= full; s++ {
		out[s] = d.Marginal(s)
	}
	return out
}

// isApproxPolymatroid checks the elemental Shannon inequalities on a float
// entropy vector within tolerance — every entropic vector must pass
// (Proposition 2.3).
func isApproxPolymatroid(v []float64, n int, tol float64) bool {
	full := bitset.Full(n)
	for s := bitset.Set(0); s <= full; s++ {
		for i := 0; i < n; i++ {
			if s.Contains(i) {
				continue
			}
			if v[s.Add(i)] < v[s]-tol {
				return false
			}
			for j := i + 1; j < n; j++ {
				if s.Contains(j) {
					continue
				}
				if v[s.Add(i)]+v[s.Add(j)] < v[s.Add(i).Add(j)]+v[s]-tol {
					return false
				}
			}
		}
	}
	return true
}

func TestVectorIsPolymatroid(t *testing.T) {
	// An arbitrary correlated distribution must produce a (float)
	// polymatroid — Proposition 2.3's Γ*n ⊆ Γn, checked numerically.
	d := Uniform(3, [][]int64{{0, 0, 1}, {0, 1, 1}, {1, 0, 0}, {1, 1, 1}, {2, 0, 0}})
	v := vector(d)
	if !isApproxPolymatroid(v, 3, 1e-9) {
		t.Fatal("entropy vector violates Shannon inequalities")
	}
}

func TestStabilizerOrders(t *testing.T) {
	// Matrix with 4 columns; row 0 = (0,0,1,1): |G_0| = 2!·2! = 4.
	g, err := NewGroupSystem([][]int64{{0, 0, 1, 1}, {0, 1, 0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if got := g.StabilizerOrder(bitset.Of(0)); got.Cmp(big.NewInt(4)) != 0 {
		t.Fatalf("|G_0| = %v, want 4", got)
	}
	// Both rows together: all 4 columns distinct → trivial stabilizer.
	if got := g.StabilizerOrder(bitset.Of(0, 1)); got.Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("|G_01| = %v, want 1", got)
	}
	// |G| = |G_∅| = 4! = 24.
	if got := g.StabilizerOrder(0); got.Cmp(big.NewInt(24)) != 0 {
		t.Fatalf("|G| = %v, want 24", got)
	}
}

// TestLemma43DegreeFormula materializes the instance and checks that the
// measured degrees equal |G_Z|/|G_Y| exactly, and that relation sizes equal
// |G|/|G_F|.
func TestLemma43DegreeFormula(t *testing.T) {
	g, err := NewGroupSystem([][]int64{{0, 0, 1, 1}, {0, 1, 0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	schemas := []bitset.Set{bitset.Of(0), bitset.Of(1), bitset.Of(0, 1)}
	rels, err := g.Instance(schemas)
	if err != nil {
		t.Fatal(err)
	}
	// |R_F| = |G| / |G_F|.
	gAll := g.StabilizerOrder(0)
	for i, f := range schemas {
		want := new(big.Int).Quo(gAll, g.StabilizerOrder(f))
		if big.NewInt(int64(rels[i].Size())).Cmp(want) != 0 {
			t.Fatalf("|R_%v| = %d, want %v", f, rels[i].Size(), want)
		}
	}
	// deg_{R_{01}}(01 | 0) = |G_0| / |G_01| = 4.
	want, err := g.DegreeFormula(bitset.Of(0, 1), bitset.Of(0))
	if err != nil {
		t.Fatal(err)
	}
	got := rels[2].Degree(bitset.Of(0, 1), bitset.Of(0))
	if big.NewInt(int64(got)).Cmp(want) != 0 {
		t.Fatalf("measured degree %d ≠ formula %v", got, want)
	}
}

// TestGroupEntropyMatchesUniformMatrix: the Chan–Yeung construction starts
// from a distribution written as a matrix with r·p(a) column copies; the
// joint relation R_[n] must have size |G|/|G_[n]| = multinomial(r; counts),
// consistent with the entropy scaling of Lemma 4.4.
func TestGroupMultinomialSize(t *testing.T) {
	// Distribution on 2 bits uniform over {00, 01, 10, 11}, r = 4 → one
	// column per outcome; |R_{01}| = 4!/1 = 24.
	g, err := NewGroupSystem([][]int64{{0, 0, 1, 1}, {0, 1, 0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	rels, err := g.Instance([]bitset.Set{bitset.Of(0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if rels[0].Size() != 24 {
		t.Fatalf("|R_01| = %d, want 24", rels[0].Size())
	}
}

func TestGroupSystemErrors(t *testing.T) {
	if _, err := NewGroupSystem(nil); err == nil {
		t.Fatal("empty matrix accepted")
	}
	if _, err := NewGroupSystem([][]int64{{1, 2}, {1}}); err == nil {
		t.Fatal("ragged matrix accepted")
	}
	g, _ := NewGroupSystem([][]int64{{0, 1, 2, 3, 4, 5, 6, 7, 8}})
	if _, err := g.Instance([]bitset.Set{bitset.Of(0)}); err == nil {
		t.Fatal("9! permutations accepted")
	}
}

// TestGroupFDCondition (Lemma 4.3, last part): with row 1 a function of
// row 0, the FD {0} → {1} holds in the materialized instance.
func TestGroupFDCondition(t *testing.T) {
	// Row 1 = row 0 mod 2 → functionally determined.
	g, err := NewGroupSystem([][]int64{{0, 1, 2, 3}, {0, 1, 0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	rels, err := g.Instance([]bitset.Set{bitset.Of(0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if d := rels[0].Degree(bitset.Of(0, 1), bitset.Of(0)); d != 1 {
		t.Fatalf("FD violated: degree %d", d)
	}
	// Formula agrees: |G_0|/|G_01| = 1.
	want, err := g.DegreeFormula(bitset.Of(0, 1), bitset.Of(0))
	if err != nil {
		t.Fatal(err)
	}
	if want.Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("formula says %v", want)
	}
}
