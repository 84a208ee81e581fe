package panda

import (
	"errors"

	"panda/internal/flow"
	"panda/internal/plan"
	"panda/internal/query"
	"panda/internal/relation"
)

// Structured sentinel errors of the DB surface. Every error returned by the
// catalog and Query paths wraps one of these where applicable, so callers
// dispatch with errors.Is instead of matching message text.
var (
	// ErrClosed reports use of a DB after Close.
	ErrClosed = errors.New("panda: database is closed")

	// ErrUnknownRelation reports a query atom or catalog operation naming
	// a relation the session does not hold.
	ErrUnknownRelation = query.ErrUnknownRelation

	// ErrRelationExists reports CreateRelation on a name already in the
	// catalog.
	ErrRelationExists = errors.New("panda: relation already exists")

	// ErrArity reports a tuple, CSV row or atom whose arity disagrees with
	// the relation's declared arity.
	ErrArity = query.ErrArity

	// ErrTooManyRows reports an insert or CSV load that would grow a
	// relation past the storage engine's row limit (2³¹−2 rows: row ids are
	// int32). The batch is refused whole.
	ErrTooManyRows = relation.ErrTooManyRows

	// ErrTooManyValues reports an insert or CSV load whose values the
	// process-wide intern table might have no ids left for (2³²−1 distinct
	// values: value ids are uint32; the check counts every cell of the batch
	// as a new value). The batch is refused whole.
	ErrTooManyValues = relation.ErrTooManyValues

	// ErrUnboundedLP reports that planning's polymatroid-bound LP is
	// unbounded: the constraint set does not bound every target, typically
	// because an atom lacks a cardinality constraint. The catalog-bound
	// Query path cannot hit it (instance cardinalities are always added);
	// it surfaces from DB.PlanContext and RuleBound with incomplete
	// constraint sets.
	ErrUnboundedLP = flow.ErrUnbounded

	// ErrNotConjunctive reports a Stmt method that needs a conjunctive
	// query applied to a disjunctive rule (e.g. an explicit WithMode).
	ErrNotConjunctive = errors.New("panda: statement is a disjunctive rule")

	// ErrPlanVersion reports an encoded plan or plan-cache snapshot whose
	// format version is not PlanFormatVersion. Cache loads skip such
	// entries; strict importers (the server's PUT /v1/plans) reject them.
	ErrPlanVersion = plan.ErrCodecVersion

	// ErrPlanDigest reports an encoded plan whose payload bytes disagree
	// with the digest recorded in its envelope.
	ErrPlanDigest = plan.ErrCodecDigest
)
