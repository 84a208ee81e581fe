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
//
// Engine is that framework, once: the indexed decompositions, the min-max,
// the minimal transversals and the one transversal walk. Every width here
// runs on it, and so does the planner (internal/plan), whose fhtw and subw
// plans are the same min-max and walk with a proof sequence kept per LP.
package widths

import (
	"context"
	"fmt"
	"math/big"
	"sort"

	"panda/internal/bitset"
	"panda/internal/bounds"
	"panda/internal/flow"
	"panda/internal/hypergraph"
	"panda/internal/lp"
)

// Engine is the decomposition machinery of Definition 7.1 over one
// hypergraph: its tree decompositions and the distinct bags among them.
type Engine struct {
	h *hypergraph.Hypergraph
	// TDs are h's tree decompositions; Bags the distinct bags among them in
	// first-appearance order; TDBags[t][i] is the index of TDs[t].Bags[i]
	// in Bags.
	TDs    []*hypergraph.Decomposition
	Bags   []bitset.Set
	TDBags [][]int
}

// NewEngine enumerates h's tree decompositions and indexes their bags. The
// enumeration honours ctx: it returns ctx.Err() once ctx is done.
func NewEngine(ctx context.Context, h *hypergraph.Hypergraph) (*Engine, error) {
	tds, err := h.AllDecompositions(ctx)
	if err != nil {
		return nil, err
	}
	if len(tds) == 0 {
		return nil, fmt.Errorf("widths: no tree decompositions")
	}
	e := &Engine{h: h, TDs: tds}
	bagIdx := map[bitset.Set]int{}
	for _, d := range tds {
		var idxs []int
		for _, b := range d.Bags {
			i, ok := bagIdx[b]
			if !ok {
				i = len(e.Bags)
				bagIdx[b] = i
				e.Bags = append(e.Bags, b)
			}
			idxs = append(idxs, i)
		}
		e.TDBags = append(e.TDBags, idxs)
	}
	return e, nil
}

// Targets returns the bags a transversal tr names, as indices into bags.
func Targets(bags []bitset.Set, tr []int) []bitset.Set {
	out := make([]bitset.Set, len(tr))
	for i, bi := range tr {
		out[i] = bags[bi]
	}
	return out
}

// SolveBags solves every bag on its own, as the one-target problem
// solve([]bitset.Set{bag}): the per-bag costs of a min-max and the bounds of
// a transversal walk.
func SolveBags[R any](e *Engine, solve func([]bitset.Set) (R, error)) ([]R, error) {
	out := make([]R, len(e.Bags))
	for i, b := range e.Bags {
		r, err := solve([]bitset.Set{b})
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// Minimax is the min over decompositions of the max over their bags of
// value(bags[i]), bags aligned with e.Bags. It returns the first
// decomposition that reaches the minimum, and the minimum.
func Minimax[R any](e *Engine, bags []R, value func(R) *big.Rat) (int, *big.Rat) {
	chosen, best := -1, (*big.Rat)(nil)
	for ti, idxs := range e.TDBags {
		worst := new(big.Rat)
		for _, bi := range idxs {
			if v := value(bags[bi]); v.Cmp(worst) > 0 {
				worst = v
			}
		}
		if chosen == -1 || worst.Cmp(best) < 0 {
			chosen, best = ti, worst
		}
	}
	return chosen, best
}

// Transversals enumerates the inclusion-minimal bag transversals of
// Lemma 7.12, as indices into Bags, until ctx is done.
func (e *Engine) Transversals(ctx context.Context) ([][]int, error) {
	return hypergraph.MinimalTransversals(ctx, e.Bags, e.TDBags)
}

// Walk visits the transversals trs and hands visit each one's solve r, with
// its index ti. bags, aligned with e.Bags, is each bag solved on its own
// (SolveBags) or nil. With bags, the walk goes in decreasing order of upper
// bound, a transversal's bound being the smallest value among its bags
// (max_h min_B h(B) ≤ min_B max_h h(B)); a one-bag transversal's solve is its
// bag's, so it is never solved a second time; and rest, the next
// transversal's bound, bounds every one not yet visited (nil when none is
// left). Without bags, trs are visited in their own order, each solved, and
// rest is nil. The walk ends when visit returns false.
func Walk[R any](e *Engine, trs [][]int, bags []R, value func(R) *big.Rat,
	solve func([]bitset.Set) (R, error), visit func(ti int, r R, rest *big.Rat) bool) error {
	order := make([]int, len(trs))
	ub := make([]*big.Rat, len(trs))
	for ti := range order {
		order[ti] = ti
	}
	if bags != nil {
		for ti, tr := range trs {
			for _, bi := range tr {
				if v := value(bags[bi]); ub[ti] == nil || v.Cmp(ub[ti]) < 0 {
					ub[ti] = v
				}
			}
		}
		sort.SliceStable(order, func(a, b int) bool { return ub[order[a]].Cmp(ub[order[b]]) > 0 })
	}
	for k, ti := range order {
		var r R
		if tr := trs[ti]; bags != nil && len(tr) == 1 {
			r = bags[tr[0]]
		} else {
			var err error
			if r, err = solve(Targets(e.Bags, tr)); err != nil {
				return err
			}
		}
		var rest *big.Rat
		if k+1 < len(order) {
			rest = ub[order[k+1]]
		}
		if !visit(ti, r, rest) {
			return nil
		}
	}
	return nil
}

func identity(v *big.Rat) *big.Rat { return v }

// over computes one width of h on a fresh engine. Summarize shares one
// engine between all of them.
func over[T any](h *hypergraph.Hypergraph, f func(*Engine) (T, error)) (T, error) {
	e, err := NewEngine(context.Background(), h)
	if err != nil {
		var zero T
		return zero, err
	}
	return f(e)
}

// minimax is the minimax width of a per-bag cost.
func (e *Engine) minimax(cost func([]bitset.Set) (*big.Rat, error)) (*big.Rat, error) {
	costs, err := SolveBags(e, cost)
	if err != nil {
		return nil, err
	}
	_, w := Minimax(e, costs, identity)
	return w, nil
}

// maximin is the Lemma 7.12 maximin width of inner, shared by subw, adw and
// da-subw: the walk, bounded by inner on each bag alone, stops once no
// transversal left can raise the max.
func (e *Engine) maximin(inner func([]bitset.Set) (*big.Rat, error)) (*big.Rat, error) {
	trs, err := e.Transversals(context.Background())
	if err != nil {
		return nil, err
	}
	ubs, err := SolveBags(e, inner)
	if err != nil {
		return nil, err
	}
	var best *big.Rat
	err = Walk(e, trs, ubs, identity, inner, func(_ int, v, rest *big.Rat) bool {
		if best == nil || v.Cmp(best) > 0 {
			best = v
		}
		return rest != nil && rest.Cmp(best) > 0
	})
	if err != nil {
		return nil, err
	}
	if best == nil {
		return nil, fmt.Errorf("widths: no transversals")
	}
	return best, nil
}

// Treewidth returns tw(H) (the classic value: max bag size − 1, minimized
// over decompositions).
func Treewidth(h *hypergraph.Hypergraph) (int, error) { return over(h, (*Engine).treewidth) }

func (e *Engine) treewidth() (int, error) {
	v, err := e.minimax(func(b []bitset.Set) (*big.Rat, error) {
		return big.NewRat(int64(b[0].Card()), 1), nil
	})
	if err != nil {
		return 0, err
	}
	return int(v.Num().Int64()) - 1, nil
}

// GHTW returns the generalized hypertree width: min over decompositions of
// max over bags of ρ(H_bag), the minimum number of edges whose restrictions
// to the bag cover it.
func GHTW(h *hypergraph.Hypergraph) (int, error) { return over(h, (*Engine).ghtw) }

func (e *Engine) ghtw() (int, error) {
	v, err := e.minimax(func(b []bitset.Set) (*big.Rat, error) { return bounds.IntegralCover(e.h, b[0], nil) })
	if err != nil {
		return 0, err
	}
	return int(v.Num().Int64()), nil
}

// FHTW returns the fractional hypertree width fhtw(H) exactly: min over
// decompositions of max over bags of ρ*(H_bag), the fractional edge cover
// LP of Eq. (33) restricted to the bag.
func FHTW(h *hypergraph.Hypergraph) (*big.Rat, error) { return over(h, (*Engine).fhtw) }

func (e *Engine) fhtw() (*big.Rat, error) {
	return e.minimax(func(b []bitset.Set) (*big.Rat, error) {
		v, _, err := bounds.FractionalCover(e.h, b[0], nil)
		return v, err
	})
}

// polymatroid is the exact polymatroid bound max{min_B h(B) | h ∈ Γn ∩ HDC}
// over dcs, the inner problem of the degree-aware widths.
func polymatroid(n int, dcs []flow.DC) func([]bitset.Set) (*big.Rat, error) {
	return func(targets []bitset.Set) (*big.Rat, error) {
		r, err := flow.MaximinBound(n, dcs, targets)
		if err != nil {
			return nil, err
		}
		return r.Bound, nil
	}
}

// DaFhtw returns the degree-aware fractional hypertree width of
// Definition 7.6: min over decompositions of max over bags of the exact
// polymatroid bound max{h(B) | h ∈ Γn ∩ HDC}.
func DaFhtw(h *hypergraph.Hypergraph, dcs []flow.DC) (*big.Rat, error) {
	return over(h, func(e *Engine) (*big.Rat, error) { return e.minimax(polymatroid(h.N, dcs)) })
}

// Subw returns the submodular width subw(H) exactly (Definition 2.8 via
// Lemma 7.12 and the exact polymatroid LP), under the normalized
// edge-domination constraints h(F) ≤ 1 of Definition 2.4.
func Subw(h *hypergraph.Hypergraph) (*big.Rat, error) { return over(h, (*Engine).subw) }

func (e *Engine) subw() (*big.Rat, error) {
	one := big.NewRat(1, 1)
	ed := make([]flow.DC, 0, len(e.h.Edges))
	for _, f := range e.h.Edges {
		ed = append(ed, flow.DC{X: 0, Y: f, LogN: one})
	}
	return e.maximin(polymatroid(e.h.N, ed))
}

// DaSubw returns the degree-aware submodular width of Definition 7.6.
func DaSubw(h *hypergraph.Hypergraph, dcs []flow.DC) (*big.Rat, error) {
	return over(h, func(e *Engine) (*big.Rat, error) { return e.maximin(polymatroid(h.N, dcs)) })
}

// Adw returns the adaptive width adw(H): the maximin width over modular
// edge-dominated functions (Definition 2.8). For a fixed transversal the
// inner problem is the small LP
// max w s.t. w ≤ Σ_{v∈B} x_v (per target), Σ_{v∈F} x_v ≤ 1 (per edge).
func Adw(h *hypergraph.Hypergraph) (*big.Rat, error) { return over(h, (*Engine).adw) }

func (e *Engine) adw() (*big.Rat, error) {
	h := e.h
	one := big.NewRat(1, 1)
	return e.maximin(func(targets []bitset.Set) (*big.Rat, error) {
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
		for _, f := range h.Edges {
			row := map[int]*big.Rat{}
			for _, v := range f.Vars() {
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

// Summarize computes all classic widths of h on one engine.
func Summarize(h *hypergraph.Hypergraph) (*Summary, error) {
	e, err := NewEngine(context.Background(), h)
	if err != nil {
		return nil, err
	}
	s := &Summary{NumTDs: len(e.TDs), NumBags: len(e.Bags)}
	if s.TW, err = e.treewidth(); err != nil {
		return nil, err
	}
	if s.GHTW, err = e.ghtw(); err != nil {
		return nil, err
	}
	if s.FHTW, err = e.fhtw(); err != nil {
		return nil, err
	}
	if s.Subw, err = e.subw(); err != nil {
		return nil, err
	}
	if s.Adw, err = e.adw(); err != nil {
		return nil, err
	}
	return s, nil
}
