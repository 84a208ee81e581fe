// Package workload builds the queries, rules, and database instances used
// across the paper's examples and our experiment harness: the 4-cycle query
// of Example 1.2 with its Appendix-A tight instances, the disjunctive rule
// of Example 1.4, the Example 7.4 bipartite-cycle graphs, the Zhang–Yeung
// query shape, and random instances.
package workload

import (
	"math/rand"

	"panda/internal/bitset"
	"panda/internal/hypergraph"
	"panda/internal/query"
	"panda/internal/relation"
)

// FourCycleQuery returns the full 4-cycle query Q(A1..A4) of Example 1.2.
func FourCycleQuery() *query.Conjunctive {
	s := query.Schema{
		NumVars:  4,
		VarNames: []string{"A1", "A2", "A3", "A4"},
		Atoms: []query.Atom{
			{Name: "R12", Vars: bitset.Of(0, 1)},
			{Name: "R23", Vars: bitset.Of(1, 2)},
			{Name: "R34", Vars: bitset.Of(2, 3)},
			{Name: "R41", Vars: bitset.Of(3, 0)},
		},
	}
	return &query.Conjunctive{Schema: s, Free: bitset.Full(4)}
}

// BooleanFourCycle returns the Boolean variant of Example 1.10.
func BooleanFourCycle() *query.Conjunctive {
	q := FourCycleQuery()
	q.Free = 0
	return q
}

// PathRule returns the disjunctive rule of Example 1.4:
// T123 ∨ T234 ← R12, R23, R34.
func PathRule() *query.Disjunctive {
	s := query.Schema{
		NumVars:  4,
		VarNames: []string{"A1", "A2", "A3", "A4"},
		Atoms: []query.Atom{
			{Name: "R12", Vars: bitset.Of(0, 1)},
			{Name: "R23", Vars: bitset.Of(1, 2)},
			{Name: "R34", Vars: bitset.Of(2, 3)},
		},
	}
	return &query.Disjunctive{
		Schema:  s,
		Targets: []bitset.Set{bitset.Of(0, 1, 2), bitset.Of(1, 2, 3)},
	}
}

// CycleWorstCase builds the Example 1.10 adversarial instance for the
// 4-cycle: R12 = R34 = [m]×[1], R23 = R41 = [1]×[m]. The join holds m²
// cycles (a1, 0, a3, 0).
func CycleWorstCase(q *query.Conjunctive, m int) *query.Instance {
	ins := query.NewInstance(&q.Schema)
	for i := 0; i < m; i++ {
		v := relation.Value(i)
		ins.Relations[0].Insert([]relation.Value{v, 0}) // R12(A1,A2)
		ins.Relations[1].Insert([]relation.Value{0, v}) // R23(A2,A3)
		ins.Relations[2].Insert([]relation.Value{v, 0}) // R34(A3,A4)
		ins.Relations[3].Insert([]relation.Value{v, 0}) // R41 cols (A1,A4): A4 = 0
	}
	return ins
}

// PathWorstCase is Example 1.8's adversarial input for the path rule of
// Example 1.4: R12 = R23 = [1]×[m], R34 = [m]×[1]. The join holds only the m
// tuples (0, 0, a3, 0), yet either orientation of the rule's proof sequence,
// from R12's end or from R34's, composes a quadratic intermediate unless the
// budget truncates it, so the input is worst case for whichever one a plan
// runs.
func PathWorstCase(p *query.Disjunctive, m int) *query.Instance {
	ins := query.NewInstance(&p.Schema)
	for i := 0; i < m; i++ {
		v := relation.Value(i)
		ins.Relations[0].Insert([]relation.Value{0, v})
		ins.Relations[1].Insert([]relation.Value{0, v})
		ins.Relations[2].Insert([]relation.Value{v, 0})
	}
	return ins
}

// AppendixABoundA is the tight instance for Example 1.2 bound (a):
// R12 = R34 = [m]×[1], R23 = R41 = [1]×[m]; output m².
func AppendixABoundA(q *query.Conjunctive, m int) *query.Instance {
	return CycleWorstCase(q, m)
}

// AppendixABoundC is the tight instance for bound (c) (with FDs A1 ↔ A2):
// K = ⌊√N⌋, R12 = {(i,i)}, R23 = R34 = R41 = [K]×[K]; output K³ = N^{3/2}.
func AppendixABoundC(q *query.Conjunctive, k int) *query.Instance {
	ins := query.NewInstance(&q.Schema)
	for i := 0; i < k; i++ {
		ins.Relations[0].Insert([]relation.Value{relation.Value(i), relation.Value(i)})
		for j := 0; j < k; j++ {
			ins.Relations[1].Insert([]relation.Value{relation.Value(i), relation.Value(j)})
			ins.Relations[2].Insert([]relation.Value{relation.Value(i), relation.Value(j)})
			ins.Relations[3].Insert([]relation.Value{relation.Value(j), relation.Value(i)}) // cols (A1,A4)
		}
	}
	return ins
}

// AppendixABoundB generalizes bound (b): R12 = {(i,j) : (j−i) mod K < D}.
func AppendixABoundB(q *query.Conjunctive, k, d int) *query.Instance {
	ins := AppendixABoundC(q, k)
	// Replace R12 with the banded relation.
	r12 := relation.New("R12", bitset.Of(0, 1))
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			if (j-i%k+k)%k < d {
				r12.Insert([]relation.Value{relation.Value(i), relation.Value(j)})
			}
		}
	}
	ins.Relations[0] = r12
	return ins
}

// RandomBinary fills every atom of the schema with n random binary tuples
// over [dom].
func RandomBinary(rng *rand.Rand, s *query.Schema, n, dom int) *query.Instance {
	ins := query.NewInstance(s)
	for i, a := range s.Atoms {
		k := a.Vars.Card()
		for t := 0; t < n; t++ {
			row := make([]relation.Value, k)
			for j := range row {
				row[j] = relation.Value(rng.Intn(dom))
			}
			ins.Relations[i].Insert(row)
		}
	}
	return ins
}

// Example74Graph builds the Example 7.4 hypergraph: 2k independent sets of
// m vertices arranged in a cycle with complete bipartite graphs between
// consecutive sets. With m = 1 it degenerates to the 2k-cycle.
func Example74Graph(m, k int) *hypergraph.Hypergraph {
	n := 2 * k * m
	set := func(block, i int) int { return block*m + i }
	var edges []bitset.Set
	for b := 0; b < 2*k; b++ {
		nb := (b + 1) % (2 * k)
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				edges = append(edges, bitset.Of(set(b, i), set(nb, j)))
			}
		}
	}
	return hypergraph.New(n, edges...)
}

// CycleQuery builds the n-cycle conjunctive query.
func CycleQuery(n int) *query.Conjunctive {
	s := query.Schema{NumVars: n}
	for i := 0; i < n; i++ {
		s.Atoms = append(s.Atoms, query.Atom{
			Name: "R" + string(rune('0'+i)),
			Vars: bitset.Of(i, (i+1)%n),
		})
	}
	return &query.Conjunctive{Schema: s, Free: bitset.Full(n)}
}

// TriangleQuery builds the triangle query.
func TriangleQuery() *query.Conjunctive {
	s := query.Schema{
		NumVars:  3,
		VarNames: []string{"A", "B", "C"},
		Atoms: []query.Atom{
			{Name: "R", Vars: bitset.Of(0, 1)},
			{Name: "S", Vars: bitset.Of(1, 2)},
			{Name: "T", Vars: bitset.Of(0, 2)},
		},
	}
	return &query.Conjunctive{Schema: s, Free: bitset.Full(3)}
}

// MinModelLowerBound returns the counting lower bound on |P(D)| (Eq. 5):
// every body tuple must be covered by some target projection, and a single
// B-tuple covers at most cover_B body tuples, so
// max_B |T_B| ≥ |J| / Σ_B cover_B for any model.
func MinModelLowerBound(p *query.Disjunctive, ins *query.Instance) int {
	join := ins.FullJoin()
	if join.Size() == 0 {
		return 0
	}
	total := 0
	for _, b := range p.Targets {
		// cover_B = max body tuples per B-projection.
		cover := 0
		counts := map[string]int{}
		pos := make([]int, 0, b.Card())
		for i, c := range join.Cols() {
			if b.Contains(c) {
				pos = append(pos, i)
			}
		}
		for row := range join.All() {
			k := ""
			for _, pi := range pos {
				k += string(rune(row[pi])) + "|"
			}
			counts[k]++
			if counts[k] > cover {
				cover = counts[k]
			}
		}
		total += cover
	}
	if total == 0 {
		return 0
	}
	return (join.Size() + total - 1) / total
}
