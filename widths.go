package panda

import (
	"math/big"

	"panda/internal/plan"
	"panda/internal/widths"
)

// WidthReport collects the width parameters of a query's hypergraph
// (Sections 2.1.3 and 7). Classic widths are in normalized units (edge
// bounds = 1); the Corollary 7.5 chain 1+tw ≥ ghtw ≥ fhtw ≥ subw ≥ adw
// always holds.
type WidthReport struct {
	Treewidth int
	GHTW      int
	FHTW      *big.Rat
	Subw      *big.Rat
	Adw       *big.Rat
}

// Widths computes the classic width hierarchy of the query.
func Widths(q *Query) (*WidthReport, error) {
	s, err := widths.Summarize(q.Hypergraph())
	if err != nil {
		return nil, err
	}
	return &WidthReport{
		Treewidth: s.TW,
		GHTW:      s.GHTW,
		FHTW:      s.FHTW,
		Subw:      s.Subw,
		Adw:       s.Adw,
	}, nil
}

// DaFhtw computes the degree-aware fractional hypertree width of the query
// under the given constraints (Definition 7.6), in log₂ units.
func DaFhtw(q *Query, dcs []Constraint) (*big.Rat, error) {
	fdcs, err := plan.FlowDCs(&q.Schema, dcs)
	if err != nil {
		return nil, err
	}
	return widths.DaFhtw(q.Hypergraph(), fdcs)
}

// DaSubw computes the degree-aware submodular width of the query under the
// given constraints (Definition 7.6), in log₂ units. PANDA's ModeSubw
// runtime exponent is governed by this value (Theorem 1.9).
func DaSubw(q *Query, dcs []Constraint) (*big.Rat, error) {
	fdcs, err := plan.FlowDCs(&q.Schema, dcs)
	if err != nil {
		return nil, err
	}
	return widths.DaSubw(q.Hypergraph(), fdcs)
}
