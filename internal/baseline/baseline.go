// Package baseline implements the classic tree-decomposition-first
// evaluation strategy the paper contrasts PANDA with (Section 1.4 and
// Example 1.10): pick one tree decomposition, materialize every bag by
// directly joining the input relations it contains, then run Yannakakis.
// On adversarial inputs this pays the full fhtw cost (N² for the 4-cycle)
// because the strategy is stuck with its single tree.
package baseline

import (
	"context"
	"fmt"

	"panda/internal/bitset"
	"panda/internal/hypergraph"
	"panda/internal/query"
	"panda/internal/relation"
	"panda/internal/yannakakis"
)

// Stats reports the cost drivers of a tree-plan run.
type Stats struct {
	MaxIntermediate int
	BagSizes        []int
}

// EvalTreePlan evaluates a full or Boolean conjunctive query with the
// fixed-decomposition plan. If td is nil, the decomposition minimizing the
// worst-case bag materialization (by fractional-cover heuristics: here
// simply the first enumerated) is used. Returns the output relation (nil
// for Boolean), the Boolean answer, and stats.
func EvalTreePlan(q *query.Conjunctive, ins *query.Instance, td *hypergraph.Decomposition) (*relation.Relation, bool, *Stats, error) {
	h := q.Hypergraph()
	if td == nil {
		tds, err := h.AllDecompositions(context.Background())
		if err != nil {
			return nil, false, nil, err
		}
		if len(tds) == 0 {
			return nil, false, nil, fmt.Errorf("baseline: no tree decomposition")
		}
		td = tds[0]
	}
	if err := td.Validate(h); err != nil {
		return nil, false, nil, err
	}
	stats := &Stats{}
	bags := make([]*relation.Relation, len(td.Bags))
	for i, b := range td.Bags {
		t, err := materializeBag(q, ins, b)
		if err != nil {
			return nil, false, nil, err
		}
		if t.Size() > stats.MaxIntermediate {
			stats.MaxIntermediate = t.Size()
		}
		stats.BagSizes = append(stats.BagSizes, t.Size())
		bags[i] = t
	}
	if q.IsBoolean() {
		ok, err := yannakakis.NonEmpty(bags, td.Parent)
		return nil, ok, stats, err
	}
	out, err := yannakakis.Join(bags, td.Parent)
	if err != nil {
		return nil, false, nil, err
	}
	return out, out.Size() > 0, stats, nil
}

// materializeBag joins the projections of all input relations overlapping
// the bag — the textbook bag computation whose worst case is what width
// parameters measure.
func materializeBag(q *query.Conjunctive, ins *query.Instance, b bitset.Set) (*relation.Relation, error) {
	var acc *relation.Relation
	covered := bitset.Set(0)
	for i, a := range q.Atoms {
		ov := a.Vars.Intersect(b)
		if ov == 0 {
			continue
		}
		p := ins.Relations[i].Project(ov)
		if acc == nil {
			acc = p
		} else {
			acc = acc.Join(p)
		}
		covered = covered.Union(ov)
	}
	if acc == nil || covered != b {
		return nil, fmt.Errorf("baseline: bag %v not covered by atoms", b)
	}
	return acc, nil
}
