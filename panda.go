// Package panda is a from-scratch reproduction of
//
//	“What do Shannon-type Inequalities, Submodular Width, and Disjunctive
//	Datalog have to do with one another?” — M. Abo Khamis, H. Q. Ngo,
//	D. Suciu, PODS 2017 (arXiv:1612.02503).
//
// It provides, as a library:
//
//   - exact output-size bounds for conjunctive queries and disjunctive
//     datalog rules under cardinality constraints, functional dependencies
//     and general degree constraints (AGM, integral cover, polymatroid /
//     DAPB — all solved by exact rational LP);
//   - Shannon-flow inequalities with machine-checked proof sequences
//     (Theorem 5.9) and truncation (Lemma 5.11);
//   - the PANDA algorithm (Algorithm 1), which evaluates disjunctive
//     datalog rules in time governed by the polymatroid bound, plus the
//     width-based plans of Corollaries 7.10/7.11/7.13 that evaluate full
//     and Boolean conjunctive queries at the degree-aware fractional
//     hypertree width and submodular width (Theorem 1.9);
//   - the width-parameter zoo of Section 7: tw, ghtw, fhtw, subw, adw and
//     their degree-aware generalizations, all exact;
//   - prepared plans: the data-independent planning phase — LP solves,
//     proof-sequence construction, tree decomposition choice — runs once, is
//     reified as a QueryPlan, and is cached in a concurrency-safe,
//     single-flighted plan cache keyed by a canonical, renaming-invariant
//     signature, so repeated traffic pays planning once.
//
// # The DB session API
//
// DB is the one way to plan or evaluate: a long-lived session in the spirit
// of database/sql that owns a catalog of named relations (CreateRelation,
// Insert, LoadCSV/LoadCSVDir, DropRelation) and a plan cache, and runs every
// query shape through one path:
//
//	db := panda.Open()
//	db.CreateRelation("R", 2)
//	db.Insert("R", []panda.Value{1, 2})
//	stmt, err := db.Prepare("Q(A,C) :- R(A,B), R(B,C).")
//	res, err := stmt.QueryContext(ctx) // or db.QueryContext(ctx, src) in one call
//
// Programmatically built queries and rules run against an explicit Instance
// through db.Eval / db.EvalRule, and db.PlanContext / db.PlanRuleContext are
// the dry runs that return the reified QueryPlan without executing it (a
// rule is planned, cached and shipped like any query). Full, Boolean and
// projection conjunctive queries and disjunctive datalog rules all return
// one *Result (output relation, Boolean answer, width certificate, per-rule
// tables, stats). Errors wrap structured sentinels (ErrUnknownRelation,
// ErrArity, ErrUnboundedLP, …) for errors.Is dispatch, and functional
// options (WithMode, WithTrace, WithParallelism, WithPlannerCapacity, …)
// tune a session or a single call. Repeated traffic — including queries and
// rules that merely rename variables — hits the session's plan cache and
// executes with zero LP solves.
//
// Execution is context-first: QueryContext/EvalContext/EvalRuleContext
// check cancellation between the engine's proof steps, so deadlines and
// cancellation abort long-running queries promptly with ctx.Err(); the
// context-free forms delegate with context.Background(). WithParallelism
// fans a plan's independent per-bag / per-transversal rule executions out
// across a bounded worker pool with a deterministic merge — the answer is
// byte-identical to a sequential run.
//
// The subpackages under internal/ hold the substrates (exact simplex,
// relational algebra, hypergraph/tree-decomposition machinery, entropy and
// group systems); this package is the stable facade.
package panda

import (
	"math/rand"

	"panda/internal/bitset"
	"panda/internal/core"
	"panda/internal/query"
	"panda/internal/relation"
	"panda/internal/workload"
)

// Set is a set of query variables (a bitmask over the variable universe).
type Set = bitset.Set

// Vars builds a variable set from indices.
func Vars(vs ...int) Set { return bitset.Of(vs...) }

// AllVars returns the full variable set {0, …, n−1}.
func AllVars(n int) Set { return bitset.Full(n) }

// Schema declares the body atoms of a query or rule.
type Schema = query.Schema

// Atom is a single body atom R(A_F).
type Atom = query.Atom

// Query is a conjunctive query; Free = AllVars(n) makes it full, Free = 0
// Boolean.
type Query = query.Conjunctive

// Rule is a disjunctive datalog rule ⋁ T_B(A_B) ← ⋀ R_F(A_F).
type Rule = query.Disjunctive

// Instance binds one relation per atom.
type Instance = query.Instance

// Relation is an in-memory relation with set semantics.
type Relation = relation.Relation

// Value is an attribute value.
type Value = relation.Value

// Constraint is a degree constraint (X, Y, N_{Y|X}); cardinality
// constraints and FDs are special cases.
type Constraint = query.DegreeConstraint

// Stats reports what a run did.
type Stats = core.Stats

// NewInstance allocates empty relations for a schema.
func NewInstance(s *Schema) *Instance { return query.NewInstance(s) }

// Cardinality builds the constraint |R_Y| ≤ n guarded by atom g.
func Cardinality(y Set, n int64, guard int) Constraint { return query.Cardinality(y, n, guard) }

// FD builds the functional dependency X → Y guarded by atom g.
func FD(x, y Set, guard int) Constraint { return query.FD(x, y, guard) }

// Degree builds deg(A_Y | A_X) ≤ n guarded by atom g.
func Degree(x, y Set, n int64, guard int) Constraint { return query.Degree(x, y, n, guard) }

// Parse reads the textual query format (see internal/query.Parse).
func Parse(src string) (*query.ParseResult, error) { return query.Parse(src) }

// Workload re-exports: the paper's running examples.

// FourCycleQuery is Example 1.2's query.
func FourCycleQuery() *Query { return workload.FourCycleQuery() }

// BooleanFourCycle is Example 1.10's query.
func BooleanFourCycle() *Query { return workload.BooleanFourCycle() }

// PathRule is Example 1.4's disjunctive rule.
func PathRule() *Rule { return workload.PathRule() }

// TriangleQuery is the triangle join.
func TriangleQuery() *Query { return workload.TriangleQuery() }

// CycleWorstCase is the Example 1.10 adversarial instance.
func CycleWorstCase(q *Query, m int) *Instance { return workload.CycleWorstCase(q, m) }

// RandomInstance fills a schema with random tuples.
func RandomInstance(seed int64, s *Schema, n, dom int) *Instance {
	return workload.RandomBinary(rand.New(rand.NewSource(seed)), s, n, dom)
}
