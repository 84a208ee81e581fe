package panda

import (
	"fmt"
	"math/big"

	"panda/internal/bounds"
	"panda/internal/flow"
	"panda/internal/plan"
)

// BoundReport collects the size-bound hierarchy of a query under given
// constraints, all in log₂ units (a value β means |Q| ≤ 2^β). Entries that
// do not apply (e.g. AGM under proper degree constraints) are nil.
type BoundReport struct {
	Vertex        *big.Rat // n · log N
	IntegralCover *big.Rat // ρ(Q, N_F)      — cardinality constraints only
	AGM           *big.Rat // ρ*(Q, N_F)     — cardinality constraints only
	Polymatroid   *big.Rat // DAPB(Q): max h([n]) over Γn ∩ HDC
}

// Bounds computes the size-bound hierarchy for a full conjunctive query.
// Cardinality-only bounds (AGM, integral cover) are computed when every
// constraint is a cardinality constraint.
func Bounds(q *Query, dcs []Constraint) (*BoundReport, error) {
	fdcs, err := plan.FlowDCs(&q.Schema, dcs)
	if err != nil {
		return nil, err
	}
	rep := &BoundReport{}
	poly, err := bounds.Polymatroid(q.NumVars, fdcs)
	if err != nil {
		return nil, err
	}
	rep.Polymatroid = poly

	cardOnly := true
	maxLog := new(big.Rat)
	for _, c := range dcs {
		if !c.IsCardinality() {
			cardOnly = false
		}
		if c.LogN.Cmp(maxLog) > 0 {
			maxLog = c.LogN
		}
	}
	rep.Vertex = bounds.VertexBound(q.NumVars, maxLog)
	if cardOnly {
		h := q.Hypergraph()
		// Align per-edge logs with atoms: use each atom's tightest
		// cardinality constraint.
		logs := make([]*big.Rat, len(q.Atoms))
		for i, a := range q.Atoms {
			for _, c := range dcs {
				if c.Y == a.Vars && (logs[i] == nil || c.LogN.Cmp(logs[i]) < 0) {
					logs[i] = c.LogN
				}
			}
			if logs[i] == nil {
				return nil, fmt.Errorf("panda: atom %s has no cardinality constraint", a.Name)
			}
		}
		if rep.AGM, err = bounds.AGM(h, logs); err != nil {
			return nil, err
		}
		if rep.IntegralCover, err = bounds.IntegralCoverBound(h, logs); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// RuleBound computes the polymatroid bound LogSizeBound_{Γn∩HDC}(P) of a
// disjunctive datalog rule (Theorem 1.5's Eq. 9), exactly.
func RuleBound(p *Rule, dcs []Constraint) (*big.Rat, error) {
	fdcs, err := plan.FlowDCs(&p.Schema, dcs)
	if err != nil {
		return nil, err
	}
	res, err := flow.MaximinBound(p.NumVars, fdcs, p.Targets)
	if err != nil {
		return nil, err
	}
	return res.Bound, nil
}

// ZhangYeungGap returns Theorem 1.3's two bounds for the Zhang–Yeung query
// in log N units: the polymatroid bound (4) and the certified entropic
// upper bound (43/11).
func ZhangYeungGap() (polymatroid, entropic *big.Rat, err error) {
	return bounds.Theorem13Gap()
}
