package plan

import (
	"context"
	"errors"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"panda/internal/bitset"
	"panda/internal/flow"
	"panda/internal/hypergraph"
	"panda/internal/query"
	"panda/internal/widths"
)

// cardinalitiesOnly reports whether every constraint has X = ∅, the case in
// which the planner values a bag by its fractional cover.
func cardinalitiesOnly(cons []query.DegreeConstraint) bool {
	for _, c := range cons {
		if c.X != 0 {
			return false
		}
	}
	return true
}

// distinct returns bags without repeats, in first-appearance order.
func distinct(bags []bitset.Set) []bitset.Set {
	var out []bitset.Set
	for _, b := range bags {
		if !slices.Contains(out, b) {
			out = append(out, b)
		}
	}
	return out
}

// TestBagBoundsMatchThePolymatroidLP is the differential of widths.BagBounds'
// cover path. Under cardinality constraints only, a bag's fractional edge
// cover priced at log N must equal the polymatroid LP's bound exactly
// (Proposition 3.2), with no polymatroid LP solved, and a bag with a variable
// no constraint covers must be flow.ErrUnbounded on both paths. It checks
// every bag, and the full set, of each goldenShapes entry whose constraints
// are all cardinalities, and of 200 seeded random hypergraphs: up to 6
// variables (at 6 the full set alone), arities 1–3, sizes 2–10⁴, a
// constraint now and then on part of an edge or dropped (leaving variables
// uncovered). A shape with one X ≠ ∅
// constraint — c4-deg, and each random hypergraph given one — must still
// solve one polymatroid LP per bag.
func TestBagBoundsMatchThePolymatroidLP(t *testing.T) {
	ctx := context.Background()
	// bagBounds runs BagBounds over bags, counting the polymatroid LPs.
	bagBounds := func(n int, dcs []flow.DC, bags []bitset.Set) ([]widths.BagBound, int, error) {
		lps := 0
		bbs, err := widths.BagBounds(ctx, &widths.Engine{Bags: bags}, n, dcs, func(ts []bitset.Set) (*flow.MaximinResult, error) {
			lps++
			return flow.MaximinBoundContext(ctx, n, dcs, ts)
		})
		return bbs, lps, err
	}
	// covers checks the cover path on [n] and, when every is set, on every
	// bag of h's decompositions, one bag at a time so each failure is its
	// own; it returns how many bags it checked and how many were unbounded.
	covers := func(t *testing.T, h *hypergraph.Hypergraph, dcs []flow.DC, every bool) (checked, unbounded int) {
		t.Helper()
		bags := []bitset.Set{bitset.Full(h.N)}
		if every {
			e, err := widths.NewEngine(ctx, h)
			if err != nil {
				t.Fatal(err)
			}
			bags = append(bags, e.Bags...)
		}
		for _, b := range bags {
			bbs, lps, cerr := bagBounds(h.N, dcs, []bitset.Set{b})
			res, lerr := flow.MaximinBoundContext(ctx, h.N, dcs, []bitset.Set{b})
			checked++
			switch {
			case lps != 0:
				t.Errorf("bag %v: %d polymatroid LPs solved under cardinalities only", b, lps)
			case lerr != nil || cerr != nil:
				if !errors.Is(lerr, flow.ErrUnbounded) || !errors.Is(cerr, flow.ErrUnbounded) {
					t.Errorf("bag %v: LP error %v, cover error %v; want flow.ErrUnbounded from both", b, lerr, cerr)
				}
				unbounded++
			case bbs[0].LP != nil || bbs[0].Bound.Cmp(res.Bound) != 0:
				t.Errorf("bag %v: cover bound %v, LP bound %v", b, bbs[0].Bound.RatString(), res.Bound.RatString())
			}
		}
		return checked, unbounded
	}
	// perBag checks that a constraint with X ≠ ∅ sends every bag of h to
	// solve once, its result kept on the bag's BagBound. The solve is a
	// stand-in numbering its calls: which LP runs is not what is checked.
	perBag := func(t *testing.T, h *hypergraph.Hypergraph, dcs []flow.DC) {
		t.Helper()
		e, err := widths.NewEngine(ctx, h)
		if err != nil {
			t.Fatal(err)
		}
		lps := 0
		bbs, err := widths.BagBounds(ctx, e, h.N, dcs, func([]bitset.Set) (*flow.MaximinResult, error) {
			lps++
			return &flow.MaximinResult{Bound: big.NewRat(int64(lps), 1)}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if lps != len(e.Bags) {
			t.Errorf("with X ≠ ∅: %d LPs for %d bags", lps, len(e.Bags))
		}
		for i, bb := range bbs {
			if bb.LP == nil || bb.LP.Bound != bb.Bound || bb.Bound.Cmp(big.NewRat(int64(i+1), 1)) != 0 {
				t.Errorf("with X ≠ ∅: bag %v does not hold its own LP", e.Bags[i])
			}
		}
	}

	t.Run("golden", func(t *testing.T) {
		for _, sh := range goldenShapes(t) {
			s := &sh.pr.Rule.Schema
			dcs, err := FlowDCs(s, sh.cons)
			if err != nil {
				t.Fatal(err)
			}
			if cardinalitiesOnly(sh.cons) {
				if _, unbounded := covers(t, s.Hypergraph(), dcs, true); unbounded != 0 {
					t.Errorf("%s: %d unbounded bags", sh.name, unbounded)
				}
			} else {
				perBag(t, s.Hypergraph(), dcs)
			}
		}
	})

	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(19))
		checked, unbounded := 0, 0
		for i := 0; i < 200; i++ {
			n := 1 + rng.Intn(6)
			var edges []bitset.Set
			for m := 1 + rng.Intn(n+2); len(edges) < m; {
				var f bitset.Set
				for arity := 1 + rng.Intn(min(3, n)); f.Card() < arity; {
					f = f.Add(rng.Intn(n))
				}
				edges = append(edges, f)
			}
			var seen bitset.Set
			for _, f := range edges {
				seen = seen.Union(f)
			}
			for v := 0; v < n; v++ {
				if !seen.Contains(v) {
					edges = append(edges, bitset.Of(v))
				}
			}
			var dcs []flow.DC
			for _, f := range edges {
				y := f
				switch r := rng.Intn(10); {
				case r == 0:
					continue // f is left without a constraint
				case r == 1:
					for y = 0; y == 0; {
						y = f & bitset.Set(rng.Intn(1<<n))
					}
				}
				dcs = append(dcs, flow.DC{Y: y, LogN: query.LogOf(2 + rng.Int63n(9999))})
			}
			h := hypergraph.New(n, edges...)
			// A 6-variable polymatroid LP at these sizes takes about 25 ms:
			// at n = 6 only the full set is checked.
			c, u := covers(t, h, dcs, n < 6)
			checked, unbounded = checked+c, unbounded+u
			for _, f := range edges {
				if f.Card() > 1 {
					x := bitset.Of(f.Vars()[rng.Intn(f.Card())])
					perBag(t, h, append(dcs, flow.DC{X: x, Y: f, LogN: query.LogOf(1 + rng.Int63n(100))}))
					break
				}
			}
		}
		// The corpus must exercise both outcomes.
		if unbounded == 0 || unbounded == checked {
			t.Errorf("%d of %d bags unbounded", unbounded, checked)
		}
		t.Logf("%d bags, %d unbounded", checked, unbounded)
	})
}
