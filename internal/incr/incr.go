// Package incr implements semi-naive incremental maintenance for prepared
// conjunctive plans over insert-only deltas.
//
// For a monotone conjunctive query Q = π_F(R_1 ⋈ … ⋈ R_k), any output
// tuple that is new after inserts uses at least one newly inserted row at
// some atom position i. So the new outputs are covered by the union over i
// of Q evaluated on the "mixed" instance that restricts atom i to its
// delta Δ_i and leaves every other atom at its full NEW extension:
//
//	Q(I_new) \ Q(I_old)  ⊆  ⋃_i Q(R_1', …, Δ_i, …, R_k')
//
// and every mixed result is a subset of Q(I_new), so dedup-merging the
// union into the old materialization reproduces Q(I_new) exactly — without
// ever re-executing over the full instance. Each non-delta atom is further
// semijoin-reduced against Δ_i on shared variables (sound: the atom's
// support row in any output tuple agrees with a Δ_i row on exactly those
// variables), which makes a maintenance round cost proportional to the
// delta and its join neighborhood instead of the total data size.
//
// The plan is treated as immutable and is NOT re-prepared: a round executes
// the plan it is handed — a standing query's pinned plan, or a prepared
// statement's plan for the current catalog — and performs zero LP solves.
// Executing a plan whose cardinality constraints are stale is sound —
// PANDA's model-hood is data-independent; the constraints only govern the
// runtime bound — which the parity tests pin down. A plan whose constraints
// bound the NEW instance also bounds every mixed instance of the round (each
// relation of one is a subset of the NEW one's, and degree constraints are
// upper bounds), so its runtime guarantee holds there too.
//
// Insert-only soundness is the contract: deletions and relation
// drop/recreate are outside this package and must be handled by the caller
// with a full re-execution and a materialization reset.
package incr

import (
	"context"
	"fmt"

	"panda/internal/core"
	"panda/internal/plan"
	"panda/internal/query"
	"panda/internal/relation"
)

// Round is the outcome of one maintenance round.
type Round struct {
	// Delta holds the candidate new output tuples, projected onto the
	// plan's free variables; nil when the plan is Boolean (no output
	// relation) or when no atom had a delta. Tuples already present in the
	// caller's materialization are included — the caller's dedup-merge
	// decides what is genuinely new.
	Delta *relation.Relation
	// NonEmpty reports whether any mixed execution produced tuples; for
	// Boolean plans this is the semi-naive increment of the OK answer
	// (OK_new = OK_old ∨ NonEmpty).
	NonEmpty bool
	// AtomsExecuted counts the mixed-instance plan executions performed
	// (atoms whose delta was non-empty).
	AtomsExecuted int
	// Stats merges the engine work of those executions in atom order; it is
	// empty when none ran.
	Stats *core.Stats
	// Timings sums their stage timings; nil unless the executor records
	// them (core.Options.StageTimings), and empty when none ran.
	Timings *core.Timings
}

// newRound is the round that has executed nothing.
func newRound(exec *core.Executor) *Round {
	round := &Round{Stats: core.NewStats()}
	if exec.Opt.StageTimings {
		round.Timings = core.NewTimings()
	}
	return round
}

// Advance is the one maintenance step of an answer that only grew — a
// standing query's round, a prepared statement's memo: ok is the answer's
// non-emptiness before the deltas. A satisfied Boolean plan stays satisfied
// under inserts, so its round executes nothing and is empty; any other
// answer gets a Maintain round.
func Advance(ctx context.Context, exec *core.Executor, p *plan.Plan, s *query.Schema, full *query.Instance, deltas []*relation.Relation, ok bool) (*Round, error) {
	if p.Free == 0 && ok {
		return newRound(exec), nil
	}
	return Maintain(ctx, exec, p, s, full, deltas)
}

// Maintain runs one semi-naive maintenance round: full is the bound NEW
// instance (deltas already appended), deltas[i] the per-atom delta relation
// (nil or empty to skip atom i; same schema as full.Relations[i]). The
// prepared plan p must belong to the schema s and is executed as-is — no
// replanning, no LP solves. A round whose delta would pass the row limit
// fails with relation.ErrTooManyRows.
func Maintain(ctx context.Context, exec *core.Executor, p *plan.Plan, s *query.Schema, full *query.Instance, deltas []*relation.Relation) (_ *Round, err error) {
	defer relation.RecoverLimit(&err)
	if len(full.Relations) != len(s.Atoms) || len(deltas) != len(s.Atoms) {
		return nil, fmt.Errorf("incr: instance has %d relations and %d deltas for %d atoms",
			len(full.Relations), len(deltas), len(s.Atoms))
	}
	round := newRound(exec)
	for i, d := range deltas {
		if d == nil || d.Size() == 0 {
			continue
		}
		mixed := &query.Instance{Relations: make([]*relation.Relation, len(s.Atoms))}
		for j, r := range full.Relations {
			switch {
			case j == i:
				mixed.Relations[j] = d
			case r.Attrs().Intersect(d.Attrs()) != 0:
				// Only rows agreeing with some delta row on the shared
				// variables can support a new output tuple.
				mixed.Relations[j] = r.Semijoin(d)
			default:
				mixed.Relations[j] = r
			}
		}
		ex, err := exec.Execute(ctx, p, mixed)
		if err != nil {
			return nil, err
		}
		round.AtomsExecuted++
		round.NonEmpty = round.NonEmpty || ex.NonEmpty
		round.Stats.Accumulate(ex.Stats)
		if round.Timings != nil {
			round.Timings.Accumulate(ex.Timings)
		}
		if ex.Out == nil {
			continue
		}
		if round.Delta == nil {
			round.Delta = relation.New("Δ"+s.Atoms[0].Name, ex.Out.Attrs())
		}
		round.Delta.InsertAll(ex.Out)
	}
	return round, nil
}
