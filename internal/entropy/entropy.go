// Package entropy implements the information-theoretic substrate of
// Section 4: finite joint distributions with exact marginal-entropy
// queries, uniform distributions over tuple lists, and the
// Chan–Yeung group-characterizable database construction (Definition 4.2,
// Lemma 4.3) used to prove the asymptotic tightness of the entropic bound
// (Lemma 4.4). Entropies are float64 (they involve logarithms); everything
// combinatorial (group sizes, degrees) is exact.
package entropy

import (
	"fmt"
	"math"
	"math/big"

	"panda/internal/bitset"
	"panda/internal/relation"
)

// Distribution is a finite joint distribution over n integer variables.
type Distribution struct {
	N     int
	Rows  [][]int64 // support tuples
	Probs []float64 // probabilities, summing to ~1
}

// Uniform builds the uniform distribution over the given tuples.
func Uniform(n int, rows [][]int64) *Distribution {
	d := &Distribution{N: n, Rows: rows, Probs: make([]float64, len(rows))}
	for i := range rows {
		d.Probs[i] = 1 / float64(len(rows))
	}
	return d
}

// Marginal returns the marginal entropy H(A_S) in bits. Variables are
// positions 0..N−1.
func (d *Distribution) Marginal(s bitset.Set) float64 {
	if s == 0 {
		return 0
	}
	vars := s.Vars()
	acc := map[string]float64{}
	key := make([]byte, 8*len(vars))
	for i, row := range d.Rows {
		for k, v := range vars {
			val := row[v]
			for b := 0; b < 8; b++ {
				key[8*k+b] = byte(val >> (8 * b))
			}
		}
		acc[string(key)] += d.Probs[i]
	}
	h := 0.0
	for _, p := range acc {
		if p > 0 {
			h -= p * math.Log2(p)
		}
	}
	return h
}

// GroupSystem is the Chan–Yeung construction: the symmetric group S_m
// acting on the m columns of a matrix whose rows are the variables;
// G_i is the stabilizer of row i.
type GroupSystem struct {
	N    int
	M    int       // number of columns
	Rows [][]int64 // n rows × m columns
}

// NewGroupSystem validates and wraps a matrix.
func NewGroupSystem(rows [][]int64) (*GroupSystem, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, fmt.Errorf("entropy: empty matrix")
	}
	m := len(rows[0])
	for _, r := range rows {
		if len(r) != m {
			return nil, fmt.Errorf("entropy: ragged matrix")
		}
	}
	return &GroupSystem{N: len(rows), M: m, Rows: rows}, nil
}

// StabilizerOrder returns |G_F| = Π_{joint values} (multiplicity)!, the
// order of the subgroup fixing all rows in F (permutations may only
// permute identical columns of the F-submatrix). F = ∅ gives |G| = m!.
func (g *GroupSystem) StabilizerOrder(f bitset.Set) *big.Int {
	counts := map[string]int{}
	key := make([]byte, 0, 8*f.Card())
	for c := 0; c < g.M; c++ {
		key = key[:0]
		for _, r := range f.Vars() {
			v := g.Rows[r][c]
			for b := 0; b < 8; b++ {
				key = append(key, byte(v>>(8*b)))
			}
		}
		counts[string(key)]++
	}
	out := big.NewInt(1)
	for _, c := range counts {
		out.Mul(out, factorial(c))
	}
	return out
}

func factorial(k int) *big.Int {
	out := big.NewInt(1)
	for i := 2; i <= k; i++ {
		out.Mul(out, big.NewInt(int64(i)))
	}
	return out
}

// DegreeFormula returns |G_Z| / |G_Y| — by Lemma 4.3 the exact degree
// deg_{R_Y}(Y | a_Z) for every tuple a_Z, for Z ⊂ Y.
func (g *GroupSystem) DegreeFormula(y, z bitset.Set) (*big.Int, error) {
	gz := g.StabilizerOrder(z)
	gy := g.StabilizerOrder(y)
	q, r := new(big.Int).QuoRem(gz, gy, new(big.Int))
	if r.Sign() != 0 {
		return nil, fmt.Errorf("entropy: |G_Z| not divisible by |G_Y| (G_Y ⊄ G_Z?)")
	}
	return q, nil
}

// Instance materializes the relations R_F for the requested attribute sets
// by enumerating all m! permutations (Definition 4.2): the coset g·G_i is
// identified with the permuted row vector j ↦ rows[i][g⁻¹(j)], hashed to an
// integer value. Feasible for m ≤ 8.
func (g *GroupSystem) Instance(schemas []bitset.Set) ([]*relation.Relation, error) {
	if g.M > 8 {
		return nil, fmt.Errorf("entropy: %d! permutations is too many (m ≤ 8)", g.M)
	}
	rels := make([]*relation.Relation, len(schemas))
	for i, f := range schemas {
		rels[i] = relation.New(fmt.Sprintf("R%v", f), f)
	}
	// Coset ids: hash permuted row → dense id per variable.
	ids := make([]map[string]int64, g.N)
	for i := range ids {
		ids[i] = map[string]int64{}
	}
	cosetID := func(v int, perm []int) int64 {
		key := make([]byte, 8*g.M)
		for j := 0; j < g.M; j++ {
			// σ ∈ g·G_v ⟺ they induce the same relabeled row
			// j ↦ rows[v][g⁻¹(j)].
			val := g.Rows[v][perm[j]]
			for b := 0; b < 8; b++ {
				key[8*j+b] = byte(val >> (8 * b))
			}
		}
		m := ids[v]
		id, ok := m[string(key)]
		if !ok {
			id = int64(len(m))
			m[string(key)] = id
		}
		return id
	}
	perm := make([]int, g.M)
	for i := range perm {
		perm[i] = i
	}
	var rec func(k int)
	rec = func(k int) {
		if k == g.M {
			for ri, f := range schemas {
				t := make([]relation.Value, 0, f.Card())
				for _, v := range f.Vars() {
					t = append(t, cosetID(v, perm))
				}
				rels[ri].Insert(t)
			}
			return
		}
		for i := k; i < g.M; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	return rels, nil
}
