// Package widths implements the width parameters of Sections 2.1.3 and 7
// under the unified minimax/maximin framework of Definition 7.1:
//
//	tw   — s-width, s(B) = |B| − 1                       (minimax)
//	ghtw — ρ-width, integral edge cover per bag          (minimax)
//	fhtw — ρ*-width, fractional edge cover per bag       (minimax)
//	subw — max_{h∈ED∩Γn} min_TD max_bag h(bag)           (maximin)
//	adw  — same with modular h                            (maximin)
//
// and their degree-aware generalizations of Definition 7.6 (da-fhtw,
// da-subw), where the inner optimization is the exact polymatroid LP of
// internal/flow. Maximin widths use Lemma 7.12: the min over tree
// decompositions becomes a max over inclusion-minimal bag transversals.
package widths

import (
	"fmt"
	"math/big"
	"sort"

	"panda/internal/bitset"
	"panda/internal/bounds"
	"panda/internal/flow"
	"panda/internal/hypergraph"
	"panda/internal/lp"
)

// edDCs builds the normalized edge-domination constraints h(F) ≤ 1 of
// Definition 2.4, the Y-axis level "ED" of Figure 9.
func edDCs(h *hypergraph.Hypergraph) []flow.DC {
	one := big.NewRat(1, 1)
	out := make([]flow.DC, 0, len(h.Edges))
	for _, e := range h.Edges {
		out = append(out, flow.DC{X: 0, Y: e, LogN: one})
	}
	return out
}

// plan bundles the decomposition machinery shared by all widths.
type plan struct {
	h      *hypergraph.Hypergraph
	tds    []*hypergraph.Decomposition
	bags   []bitset.Set
	bagIdx map[bitset.Set]int
	tdBags [][]int
}

func newPlan(h *hypergraph.Hypergraph) (*plan, error) {
	tds, err := h.AllDecompositions()
	if err != nil {
		return nil, err
	}
	if len(tds) == 0 {
		return nil, fmt.Errorf("widths: no tree decompositions")
	}
	p := &plan{h: h, tds: tds, bagIdx: map[bitset.Set]int{}}
	for _, d := range tds {
		var idxs []int
		for _, b := range d.Bags {
			i, ok := p.bagIdx[b]
			if !ok {
				i = len(p.bags)
				p.bagIdx[b] = i
				p.bags = append(p.bags, b)
			}
			idxs = append(idxs, i)
		}
		p.tdBags = append(p.tdBags, idxs)
	}
	return p, nil
}

// over computes one width of h: f over a fresh enumeration of h's tree
// decompositions. Summarize shares one enumeration between all of them.
func over[T any](h *hypergraph.Hypergraph, f func(*plan) (T, error)) (T, error) {
	p, err := newPlan(h)
	if err != nil {
		var zero T
		return zero, err
	}
	return f(p)
}

// minimax computes min over decompositions of max over bags of cost.
func (p *plan) minimax(cost func(bitset.Set) (*big.Rat, error)) (*big.Rat, error) {
	cache := make([]*big.Rat, len(p.bags))
	for i, b := range p.bags {
		c, err := cost(b)
		if err != nil {
			return nil, err
		}
		cache[i] = c
	}
	var best *big.Rat
	for ti := range p.tds {
		worst := new(big.Rat)
		for _, bi := range p.tdBags[ti] {
			if cache[bi].Cmp(worst) > 0 {
				worst = cache[bi]
			}
		}
		if best == nil || worst.Cmp(best) < 0 {
			best = worst
		}
	}
	return best, nil
}

// Treewidth returns tw(H) (the classic value: max bag size − 1, minimized
// over decompositions).
func Treewidth(h *hypergraph.Hypergraph) (int, error) { return over(h, (*plan).treewidth) }

func (p *plan) treewidth() (int, error) {
	v, err := p.minimax(func(b bitset.Set) (*big.Rat, error) {
		return big.NewRat(int64(b.Card()), 1), nil
	})
	if err != nil {
		return 0, err
	}
	return int(v.Num().Int64()) - 1, nil
}

// integralCover computes ρ(H_B): the minimum number of edges whose
// restrictions to B cover B.
func integralCover(h *hypergraph.Hypergraph, b bitset.Set) (*big.Rat, error) {
	return bounds.IntegralCover(h, b, nil)
}

// GHTW returns the generalized hypertree width: min over decompositions of
// max over bags of ρ(H_bag).
func GHTW(h *hypergraph.Hypergraph) (int, error) { return over(h, (*plan).ghtw) }

func (p *plan) ghtw() (int, error) {
	v, err := p.minimax(func(b bitset.Set) (*big.Rat, error) { return integralCover(p.h, b) })
	if err != nil {
		return 0, err
	}
	return int(v.Num().Int64()), nil
}

// FractionalCover computes ρ*(H_B) exactly: the fractional edge cover LP of
// Eq. (33) restricted to B.
func FractionalCover(h *hypergraph.Hypergraph, b bitset.Set) (*big.Rat, error) {
	v, _, err := bounds.FractionalCover(h, b, nil)
	return v, err
}

// FHTW returns the fractional hypertree width fhtw(H) exactly.
func FHTW(h *hypergraph.Hypergraph) (*big.Rat, error) { return over(h, (*plan).fhtw) }

func (p *plan) fhtw() (*big.Rat, error) {
	return p.minimax(func(b bitset.Set) (*big.Rat, error) { return FractionalCover(p.h, b) })
}

// DaFhtw returns the degree-aware fractional hypertree width of
// Definition 7.6: min over decompositions of max over bags of the exact
// polymatroid bound max{h(B) | h ∈ Γn ∩ HDC}.
func DaFhtw(h *hypergraph.Hypergraph, dcs []flow.DC) (*big.Rat, error) {
	return over(h, func(p *plan) (*big.Rat, error) {
		return p.minimax(func(b bitset.Set) (*big.Rat, error) {
			r, err := flow.MaximinBound(h.N, dcs, []bitset.Set{b})
			if err != nil {
				return nil, err
			}
			return r.Bound, nil
		})
	})
}

// maximin computes max over inclusion-minimal bag transversals of
// inner(targets) — the Lemma 7.12 reformulation shared by subw, adw and
// da-subw. When bagUB is non-nil it must return an upper bound on
// inner(targets) for the single-bag transversal {b}; since
// max_h min_B h(B) ≤ min_B max_h h(B), the minimum of bagUB over a
// transversal's bags bounds its value, letting dominated transversals be
// skipped without solving their LP.
func (p *plan) maximin(inner func([]bitset.Set) (*big.Rat, error), bagUB func(bitset.Set) (*big.Rat, error)) (*big.Rat, error) {
	trs, err := hypergraph.MinimalTransversals(p.bags, p.tdBags)
	if err != nil {
		return nil, err
	}
	var ubs []*big.Rat
	if bagUB != nil {
		ubs = make([]*big.Rat, len(p.bags))
		for i, b := range p.bags {
			if ubs[i], err = bagUB(b); err != nil {
				return nil, err
			}
		}
	}
	trUB := func(tr []int) *big.Rat {
		if ubs == nil {
			return nil
		}
		var m *big.Rat
		for _, bi := range tr {
			if m == nil || ubs[bi].Cmp(m) < 0 {
				m = ubs[bi]
			}
		}
		return m
	}
	// Visit transversals in decreasing upper-bound order so pruning bites
	// early.
	order := make([]int, len(trs))
	for i := range order {
		order[i] = i
	}
	if ubs != nil {
		sort.Slice(order, func(a, b int) bool {
			return trUB(trs[order[a]]).Cmp(trUB(trs[order[b]])) > 0
		})
	}
	var best *big.Rat
	for _, oi := range order {
		tr := trs[oi]
		if best != nil {
			if ub := trUB(tr); ub != nil && ub.Cmp(best) <= 0 {
				continue
			}
		}
		targets := make([]bitset.Set, len(tr))
		for i, bi := range tr {
			targets[i] = p.bags[bi]
		}
		v, err := inner(targets)
		if err != nil {
			return nil, err
		}
		if best == nil || v.Cmp(best) > 0 {
			best = v
		}
	}
	if best == nil {
		return nil, fmt.Errorf("widths: no transversals")
	}
	return best, nil
}

// Subw returns the submodular width subw(H) exactly (Definition 2.8 via
// Lemma 7.12 and the exact polymatroid LP).
func Subw(h *hypergraph.Hypergraph) (*big.Rat, error) {
	return DaSubw(h, edDCs(h))
}

// DaSubw returns the degree-aware submodular width of Definition 7.6.
func DaSubw(h *hypergraph.Hypergraph, dcs []flow.DC) (*big.Rat, error) {
	return over(h, func(p *plan) (*big.Rat, error) { return p.daSubw(dcs) })
}

func (p *plan) daSubw(dcs []flow.DC) (*big.Rat, error) {
	inner := func(targets []bitset.Set) (*big.Rat, error) {
		r, err := flow.MaximinBound(p.h.N, dcs, targets)
		if err != nil {
			return nil, err
		}
		return r.Bound, nil
	}
	return p.maximin(inner, func(b bitset.Set) (*big.Rat, error) {
		return inner([]bitset.Set{b})
	})
}

// Adw returns the adaptive width adw(H): the maximin width over modular
// edge-dominated functions (Definition 2.8). For a fixed transversal the
// inner problem is the small LP
// max w s.t. w ≤ Σ_{v∈B} x_v (per target), Σ_{v∈F} x_v ≤ 1 (per edge).
func Adw(h *hypergraph.Hypergraph) (*big.Rat, error) { return over(h, (*plan).adw) }

func (p *plan) adw() (*big.Rat, error) {
	h := p.h
	one := big.NewRat(1, 1)
	inner := func(targets []bitset.Set) (*big.Rat, error) {
		// Variables: x_0..x_{n−1}, w at index n.
		prob := lp.NewProblem(h.N+1, true)
		prob.SetObj(h.N, one)
		for _, b := range targets {
			row := map[int]*big.Rat{h.N: one}
			for _, v := range b.Vars() {
				row[v] = big.NewRat(-1, 1)
			}
			prob.AddConstraint(row, lp.Le, new(big.Rat))
		}
		for _, e := range h.Edges {
			row := map[int]*big.Rat{}
			for _, v := range e.Vars() {
				row[v] = one
			}
			prob.AddConstraint(row, lp.Le, one)
		}
		sol, err := prob.Solve()
		if err != nil {
			return nil, err
		}
		if sol.Status != lp.Optimal {
			return nil, fmt.Errorf("widths: adw LP %v", sol.Status)
		}
		return sol.Objective, nil
	}
	return p.maximin(inner, func(b bitset.Set) (*big.Rat, error) {
		return inner([]bitset.Set{b})
	})
}

// Summary computes the whole classic hierarchy for a hypergraph; used by
// the Figure 4 / Corollary 7.5 experiment.
type Summary struct {
	TW      int
	GHTW    int
	FHTW    *big.Rat
	Subw    *big.Rat
	Adw     *big.Rat
	NumTDs  int
	NumBags int
}

// Summarize computes all classic widths of h over one enumeration of its
// tree decompositions.
func Summarize(h *hypergraph.Hypergraph) (*Summary, error) {
	p, err := newPlan(h)
	if err != nil {
		return nil, err
	}
	s := &Summary{NumTDs: len(p.tds), NumBags: len(p.bags)}
	if s.TW, err = p.treewidth(); err != nil {
		return nil, err
	}
	if s.GHTW, err = p.ghtw(); err != nil {
		return nil, err
	}
	if s.FHTW, err = p.fhtw(); err != nil {
		return nil, err
	}
	if s.Subw, err = p.daSubw(edDCs(h)); err != nil {
		return nil, err
	}
	if s.Adw, err = p.adw(); err != nil {
		return nil, err
	}
	return s, nil
}
