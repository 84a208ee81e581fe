// Package bounds implements the output-size bounds of Sections 2–4: the
// vertex bound (28), integral edge cover bound (29), AGM / fractional edge
// cover bound (30), the subadditive-cone bound of Proposition 3.2, the
// degree-aware polymatroid bound DAPB (39), and the Zhang–Yeung machinery
// behind Theorem 1.3 / Lemma 4.5 (polymatroid vs entropic gap).
//
// All bounds are computed exactly over rationals, in log₂ units: a bound
// value β means |Q| ≤ 2^β.
package bounds

import (
	"fmt"
	"math/big"

	"panda/internal/bitset"
	"panda/internal/flow"
	"panda/internal/hypergraph"
	"panda/internal/lp"
)

// VertexBound returns log VB(Q) = n·log N (Eq. 28).
func VertexBound(n int, logN *big.Rat) *big.Rat {
	return new(big.Rat).Mul(big.NewRat(int64(n), 1), logN)
}

// edgeCosts validates a per-edge cost vector; nil means every edge costs 1.
func edgeCosts(h *hypergraph.Hypergraph, costs []*big.Rat) ([]*big.Rat, error) {
	if costs == nil {
		one := big.NewRat(1, 1)
		costs = make([]*big.Rat, len(h.Edges))
		for j := range costs {
			costs[j] = one
		}
	}
	if len(costs) != len(h.Edges) {
		return nil, fmt.Errorf("bounds: %d edges but %d costs", len(h.Edges), len(costs))
	}
	return costs, nil
}

// IntegralCover returns the cheapest integral edge cover of the vertex set b
// by the edges' restrictions to it (Eq. 32 on H_b), edge j costing costs[j] —
// nil costs count edges, giving ρ(H_b). Exact set-cover DP over the subsets
// of b; an edge may be used at any multiplicity.
func IntegralCover(h *hypergraph.Hypergraph, b bitset.Set, costs []*big.Rat) (*big.Rat, error) {
	costs, err := edgeCosts(h, costs)
	if err != nil {
		return nil, err
	}
	dp := make([]*big.Rat, int(b)+1) // a subset of b is ≤ b as an integer
	dp[0] = new(big.Rat)
	c := new(big.Rat)
	for s := bitset.Set(0); s <= b; s++ {
		if dp[s] == nil {
			continue
		}
		for j, e := range h.Edges {
			t := s.Union(e.Intersect(b))
			if t == s {
				continue
			}
			c.Add(dp[s], costs[j])
			if dp[t] == nil {
				dp[t] = new(big.Rat).Set(c)
			} else if c.Cmp(dp[t]) < 0 {
				dp[t].Set(c)
			}
		}
	}
	if dp[b] == nil {
		return nil, fmt.Errorf("bounds: edges do not cover %v", b)
	}
	return dp[b], nil
}

// FractionalCover solves the fractional edge cover LP of Eq. (33) restricted
// to the vertex set b exactly: minimize Σ_j costs[j]·x_j subject to
// Σ_{j: v∈F_j} x_j ≥ 1 for every v ∈ b — nil costs give ρ*(H_b). It returns
// the optimum and the per-edge weights x, aligned with h.Edges.
func FractionalCover(h *hypergraph.Hypergraph, b bitset.Set, costs []*big.Rat) (*big.Rat, []*big.Rat, error) {
	costs, err := edgeCosts(h, costs)
	if err != nil {
		return nil, nil, err
	}
	prob := lp.NewProblem(len(h.Edges), false)
	for j, c := range costs {
		prob.SetObj(j, c)
	}
	one := big.NewRat(1, 1)
	var row []lp.Term
	for _, v := range b.Vars() {
		row = row[:0]
		for j, e := range h.Edges {
			if e.Contains(v) {
				row = append(row, lp.Term{Var: int32(j), Coef: 1})
			}
		}
		if len(row) == 0 {
			return nil, nil, fmt.Errorf("bounds: vertex %d uncovered by any edge", v)
		}
		prob.AddIntConstraint(row, lp.Ge, one)
	}
	sol, err := prob.Solve()
	if err != nil {
		return nil, nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, nil, fmt.Errorf("bounds: cover LP %v", sol.Status)
	}
	return sol.Objective, sol.X, nil
}

// IntegralCoverBound returns ρ(Q, (N_F)) (Eq. 32): the cheapest integral
// edge cover of all vertices, weighted by log N_F.
func IntegralCoverBound(h *hypergraph.Hypergraph, logNs []*big.Rat) (*big.Rat, error) {
	if len(logNs) != len(h.Edges) {
		return nil, fmt.Errorf("bounds: %d edges but %d sizes", len(h.Edges), len(logNs))
	}
	return IntegralCover(h, bitset.Full(h.N), logNs)
}

// AGM returns the AGM bound ρ*(Q, (N_F)) (Eq. 33): the fractional edge
// cover LP over all vertices with per-edge weights log N_F.
func AGM(h *hypergraph.Hypergraph, logNs []*big.Rat) (*big.Rat, error) {
	if len(logNs) != len(h.Edges) {
		return nil, fmt.Errorf("bounds: %d edges but %d sizes", len(h.Edges), len(logNs))
	}
	v, _, err := FractionalCover(h, bitset.Full(h.N), logNs)
	return v, err
}

// Polymatroid returns the degree-aware polymatroid bound DAPB(Q) of
// Eq. (39): max{h([n]) | h ∈ Γn ∩ HDC}, solved exactly. For pure
// cardinality constraints this equals the AGM bound (Proposition 3.2).
func Polymatroid(n int, dcs []flow.DC) (*big.Rat, error) {
	res, err := flow.MaximinBound(n, dcs, []bitset.Set{bitset.Full(n)})
	if err != nil {
		return nil, err
	}
	return res.Bound, nil
}

// Modular returns max{h([n]) | h ∈ Mn ∩ HCC} for cardinality constraints:
// by LP duality this is again the AGM bound (proof of Prop 3.2 /
// Lemma 3.1). Computed directly as an LP over vertex weights.
func Modular(n int, dcs []flow.DC) (*big.Rat, error) {
	prob := lp.NewProblem(n, true)
	one := big.NewRat(1, 1)
	for v := 0; v < n; v++ {
		prob.SetObj(v, one)
	}
	covered := bitset.Set(0)
	for _, dc := range dcs {
		if dc.X != 0 {
			return nil, fmt.Errorf("bounds: Modular needs cardinality constraints only")
		}
		row := map[int]*big.Rat{}
		for _, v := range dc.Y.Vars() {
			row[v] = one
		}
		covered = covered.Union(dc.Y)
		prob.AddConstraint(row, lp.Le, dc.LogN)
	}
	if covered != bitset.Full(n) {
		return nil, fmt.Errorf("bounds: constraints do not cover all variables")
	}
	sol, err := prob.Solve()
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("bounds: modular LP %v", sol.Status)
	}
	return sol.Objective, nil
}

// Subadditive returns max{h([n]) | h ∈ SAn ∩ HCC}: the bound over the
// subadditive cone, which Proposition 3.2 (Eq. 43) proves equal to the
// integral edge cover bound. The LP uses all pairwise subadditivity rows
// h(X∪Y) ≤ h(X) + h(Y) plus elemental monotonicity.
func Subadditive(n int, dcs []flow.DC) (*big.Rat, error) {
	full := bitset.Full(n)
	nv := int(full) // variables h(Z), Z = 1..full (h(∅) = 0 implicit)
	idx := func(z bitset.Set) int { return int(z) - 1 }
	prob := lp.NewProblem(nv, true)
	prob.SetObj(idx(full), big.NewRat(1, 1))
	one := big.NewRat(1, 1)
	negOne := big.NewRat(-1, 1)
	// Subadditivity h(X∪Y) − h(X) − h(Y) ≤ 0 for incomparable X, Y.
	for x := bitset.Set(1); x <= full; x++ {
		for y := x + 1; y <= full; y++ {
			if !x.Incomparable(y) {
				continue
			}
			u := x.Union(y)
			row := map[int]*big.Rat{}
			add := func(z bitset.Set, c *big.Rat) {
				if cur, ok := row[idx(z)]; ok {
					cur.Add(cur, c)
				} else {
					row[idx(z)] = new(big.Rat).Set(c)
				}
			}
			add(u, one)
			add(x, negOne)
			add(y, negOne)
			prob.AddConstraint(row, lp.Le, new(big.Rat))
		}
	}
	// Elemental monotonicity h(S) ≤ h(S ∪ {i}).
	for s := bitset.Set(1); s <= full; s++ {
		for i := 0; i < n; i++ {
			if s.Contains(i) {
				continue
			}
			row := map[int]*big.Rat{
				idx(s):        new(big.Rat).Set(one),
				idx(s.Add(i)): new(big.Rat).Set(negOne),
			}
			prob.AddConstraint(row, lp.Le, new(big.Rat))
		}
	}
	for _, dc := range dcs {
		if dc.X != 0 {
			return nil, fmt.Errorf("bounds: Subadditive needs cardinality constraints only")
		}
		row := map[int]*big.Rat{idx(dc.Y): new(big.Rat).Set(one)}
		prob.AddConstraint(row, lp.Le, dc.LogN)
	}
	sol, err := prob.Solve()
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("bounds: subadditive LP %v (constraints must cover all variables)", sol.Status)
	}
	return sol.Objective, nil
}
