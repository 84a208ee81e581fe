package core

import (
	"math/big"

	"panda/internal/bitset"
	"panda/internal/plan"
	"panda/internal/query"
	"panda/internal/relation"
)

// This file is the data-dependent half of the prepare/execute split: the
// planning phase (LP solves, proof-sequence construction, decomposition
// choice) lives in internal/plan and produces a reified plan.Plan; the
// Executor in executor.go interprets that plan over a concrete instance
// under a context. What lives here is what the Executor shares across
// plans: constraint completion, the trivial answers, the ExecResult shape.

// CompleteConstraints appends (∅, F, |R_F|) for every atom whose exact
// cardinality constraint is missing — these are always true of the instance
// and can only tighten the bound. The result is a complete constraint set
// suitable for plan.Prepare.
func CompleteConstraints(s *query.Schema, ins *query.Instance, dcs []query.DegreeConstraint) []query.DegreeConstraint {
	return query.CompleteCardinalities(s, dcs, func(i int) int64 { return int64(ins.Relations[i].Size()) })
}

// unitRelation returns the nullary relation {()}.
func unitRelation() *relation.Relation {
	r := relation.New("T∅", 0)
	r.Insert([]relation.Value{})
	return r
}

func dedupeSets(in []bitset.Set) []bitset.Set {
	seen := map[bitset.Set]bool{}
	var out []bitset.Set
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// ExecResult is the outcome of executing a reified plan over an instance.
// Every plan fills it the same way, so callers assemble an answer without
// reaching back into the plan or re-deriving anything from Out.
type ExecResult struct {
	// Out is the answer of a plan that joins tree decompositions, already
	// projected onto the plan's free variables (Out.Attrs() == p.Free); nil
	// for Boolean queries and for ModeRule plans.
	Out *relation.Relation
	// NonEmpty is the final non-emptiness answer: Out has rows, the Boolean
	// query is satisfied, or (ModeRule) some target table is non-empty.
	NonEmpty bool
	// Tables are the answer of a ModeRule plan, its rule's model tables per
	// target; nil for every other plan, whose answer is Out (a model ModeFull
	// computes is an intermediate of the semijoin reduction, not an answer).
	Tables map[bitset.Set]*relation.Relation
	// Bound is the polymatroid bound of a plan that is one rule over the whole
	// query — ModeRule and ModeFull, where it equals Width; nil otherwise
	// (plan.Plan.Bound).
	Bound *big.Rat
	// Width is the executed plan's width certificate in log₂ units.
	Width *big.Rat
	// Mode is the strategy the executed plan encoded.
	Mode plan.Mode
	// Stats accumulates the engine work across all executed rules.
	Stats *Stats
	// Timings holds per-stage wall-clock timings (per-proof-step-kind
	// engine time, rule fan-out, merge); nil unless Options.StageTimings
	// was set. Unlike Stats, timings vary run to run.
	Timings *Timings
}

// Accumulate folds src into s: counts add, the largest intermediate wins, and
// src's trace follows s's. It is the one merge of Stats — the executor's over
// its tasks, a maintenance round's over its executions.
func (s *Stats) Accumulate(src *Stats) {
	for k, v := range src.StepsByKind {
		s.StepsByKind[k] += v
	}
	s.Joins += src.Joins
	s.Projections += src.Projections
	s.Partitions += src.Partitions
	s.Subproblems += src.Subproblems
	s.Restarts += src.Restarts
	s.BaseCases += src.BaseCases
	if src.MaxIntermediate > s.MaxIntermediate {
		s.MaxIntermediate = src.MaxIntermediate
	}
	s.Trace = append(s.Trace, src.Trace...)
}
