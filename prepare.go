package panda

import (
	"panda/internal/flow"
	"panda/internal/plan"
	"panda/internal/query"
)

// Plan vocabulary: the data-independent planning phase (exact LP solves,
// proof-sequence construction, tree-decomposition choice) runs once per
// query shape and is reified as a QueryPlan, which a DB caches by canonical
// signature — a disjunctive rule's plan included (ModeRule). The aliases
// below name the pieces of a plan for callers that inspect one
// (DB.PlanContext, DB.PlanRuleContext, Stmt.ExplainContext); the functions
// are the stateless helpers around planning.

// QueryPlan is a reified query plan: tree decomposition(s), per-bag
// fractional edge covers, PANDA proof sequences, and an exact width
// certificate.
type QueryPlan = plan.Plan

// RulePlan is the reified planning output for a single disjunctive rule:
// an element of QueryPlan.Rules (the only one, for a ModeRule plan).
type RulePlan = plan.PreparedRule

// PlanCover is an exact fractional edge cover of one plan bag.
type PlanCover = plan.Cover

// PlanMode selects the evaluation strategy a plan encodes.
type PlanMode = plan.Mode

// Plan modes.
const (
	ModeAuto = plan.ModeAuto // cost-based: ModeFull for full queries; else the smaller of the fhtw/subw certificates
	ModeFull = plan.ModeFull // PANDA + semijoin reduction (Corollary 7.10)
	ModeFhtw = plan.ModeFhtw // fractional-hypertree-width plan (Corollary 7.11)
	ModeSubw = plan.ModeSubw // submodular-width plan (Theorem 1.9)
)

// PlannerStats snapshots a session's plan-cache and planning counters.
type PlannerStats = plan.Stats

// PlanCacheLoadStats reports what a plan-cache import did: entries loaded,
// entries skipped, and the first rejection reason (dispatch on it with
// errors.Is against ErrPlanVersion / ErrPlanDigest).
type PlanCacheLoadStats = plan.CacheLoadStats

// PlanFormatVersion is the wire-format version of encoded plans and plan-
// cache snapshots; decoders reject other versions.
const PlanFormatVersion = plan.FormatVersion

// ProofStep is one weighted Shannon-flow proof step (Definition 5.7).
type ProofStep = flow.Step

// Proof-step kinds (rules 13–16 of the paper).
const (
	StepSubmodularity = flow.Submodularity
	StepMonotonicity  = flow.Monotonicity
	StepComposition   = flow.Composition
	StepDecomposition = flow.Decomposition
)

// DefaultCardinalities appends |R| ≤ n for every atom lacking a declared
// cardinality constraint, so data-independent planning (panda plan, Bounds)
// has a bounded LP even before any data exists. It returns the completed
// set and the names of the atoms the default was assumed for.
func DefaultCardinalities(s *Schema, dcs []Constraint, n int64) ([]Constraint, []string) {
	out := query.CompleteCardinalities(s, dcs, func(int) int64 { return n })
	var assumed []string
	for _, c := range out[len(dcs):] {
		assumed = append(assumed, s.Atoms[c.Guard].Name)
	}
	return out, assumed
}
