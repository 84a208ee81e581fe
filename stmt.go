package panda

import (
	"context"
	"fmt"
	"math/big"
	"slices"
	"sync/atomic"
	"time"

	"panda/internal/core"
	"panda/internal/incr"
	"panda/internal/plan"
	"panda/internal/query"
	"panda/internal/relation"
)

// Stmt is a prepared statement: a parsed query or rule whose catalog
// bindings (relation names and arities) have been validated against the
// session. Running it plans through the session's plan cache — conjunctive
// queries and disjunctive rules alike: the first Query pays the LP solves,
// every later one (from this Stmt or any other statement with the same
// canonical signature) executes with zero planning work.
//
// A Stmt is safe for concurrent Query calls. Execution over an identical
// read-only snapshot is deterministic, so it memoizes the Result against the
// catalog's per-relation ticks: steady-state traffic on an unchanged catalog
// streams a cached result without binding, planning or running the engine.
// A mutation to a relation the statement does not read leaves the memo as
// it is. A memoized Result is returned as-is, including Stats and Timings: a
// memo hit reports the work of the call that produced the result (a hit runs
// no stages of its own).
//
// Inserts into a relation the statement reads make the memo stale, not
// useless: a conjunctive query is monotone, so Q(I ∪ Δ) = Q(I) ∪ ⋃ᵢ Q(R₁′, …,
// Δᵢ, …, R_k′). When the option set is the same and every atom still reads
// the same catalog relation, the next Query binds the catalog together with
// the rows stamped since the memo's tick (one DB.bind), plans against the
// catalog as it stands — the plan a fresh run would take, through the same
// plan cache — and runs one semi-naive round with it (a satisfied Boolean
// query executes nothing). That choice, the round and the full execution
// otherwise are one refresh step, the one a Watch's round takes with its
// pinned plan. The round's rows are inserted in place into the relation the
// memo grows, and the answer reads a capacity-capped snapshot of it, with
// Mode, Width, Signature and Bound from the current plan: everything the
// answer is made of equals a fresh run's, and an answer published earlier
// never sees the rows appended after it. Stats and Timings are this call's —
// the round's and its planning wait — not those of the execution the round
// replaced. The plan's constraints bound the new catalog and so every mixed
// instance of the round, and the 2^OBJ budget stays on. A disjunctive rule
// (not monotone under inserts), a drop+recreate of a referenced relation,
// another option set and the first Query execute in full.
//
// One refresh is in flight per statement: callers that find the memo stale
// at once — N readers of a shape right after one insert — run one round, and
// the ones that waited return the answer it published.
//
// What a full execution leaves in the memo is what a reader needs: the scalar
// fields and, for Rel and every table, the rows at their size — the dedup
// table and the spare column capacity the engine built them with are dropped
// (Relation.Compact). A relation rebuilds on demand what a reader turns out
// to want: the dedup table on the first Contains, Equal or Insert (the first
// round rebuilds the grown relation's), the sorted row order on the first
// Iter, Rows or AllSorted — the latter kept with the relation, so later hits
// walk it without sorting.
type Stmt struct {
	db  *DB
	src string
	res *query.ParseResult
	cfg config

	flight chan struct{}        // holds the one refresh in flight
	memo   atomic.Pointer[memo] // nil until a Query succeeds; stored by the flight's holder
}

// memo is a published answer, the plan and options that produced it, and the
// catalog state it answers: the schema tick and the creation tick of the
// catalog relation each atom read (a tick, so a memo keeps no dropped
// relation alive). A Stmt and a Watch each keep one, and each advances it one
// refresh at a time; a Watch also wakes on the catalog's change channel to
// take that refresh, where a Stmt takes it when a caller finds the memo stale.
type memo struct {
	res  *Result
	plan *plan.Plan
	cfg  config
	tick uint64
	born []uint64
	// rows is the relation the answer grows in (nil for a Boolean query or a
	// rule); res.Rel is a capacity-capped snapshot of it. A memo a round
	// advanced shares it with the memo it came from, and only the refresh in
	// flight writes it.
	rows *relation.Relation
}

// grow is the one merge of a refresh: rows becomes the relation m's answer
// grows in, with delta — a round's rows, nil for none — inserted into it in
// place. The answer reads a new snapshot of it when it read none yet (a full
// execution's) or the merge added rows; a merge that adds nothing keeps the
// published snapshot, and with it any row order a reader worked out. A merge
// whose new rows would pass the row limit fails with ErrTooManyRows; the rows
// it inserted before are answer rows the published snapshot does not show,
// and the next merge into rows finds them there.
func (m *memo) grow(rows, delta *relation.Relation) (err error) {
	defer relation.RecoverLimit(&err)
	m.rows = rows
	if rows == nil {
		return nil
	}
	if delta != nil {
		rows.InsertAll(delta)
	}
	if m.res.Rel == rows || rows.Size() > m.res.Rel.Size() {
		m.res.Rel = rows.Snapshot(rows.Name)
	}
	return nil
}

// Prepare parses src (the textual query language of internal/query) and
// validates every body atom against the catalog, failing early with
// ErrUnknownRelation or ErrArity. Options captured here become the
// statement's defaults; Stmt.Query may override them per call.
func (db *DB) Prepare(src string, opts ...Option) (*Stmt, error) {
	res, err := query.Parse(src)
	if err != nil {
		return nil, err
	}
	if res.Conj == nil {
		if err := rejectExplicitMode(opts); err != nil {
			return nil, err
		}
	}
	cfg := db.cfg(opts)
	s := &res.Rule.Schema
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return nil, ErrClosed
	}
	for i, a := range s.Atoms {
		t, ok := db.catalog[a.Name]
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrUnknownRelation, a.Name)
		}
		if got, want := t.Attrs().Card(), s.Arity(i); got != want {
			return nil, fmt.Errorf("%w: relation %s has arity %d, atom %s needs %d",
				ErrArity, a.Name, got, a.Name, want)
		}
	}
	return &Stmt{db: db, src: src, res: res, cfg: cfg, flight: make(chan struct{}, 1)}, nil
}

// config materializes the effective config for one call on the statement,
// rejecting a per-call WithMode on a disjunctive rule.
func (st *Stmt) config(opts []Option) (config, error) {
	cfg := st.cfg
	if st.res.Conj == nil {
		if err := rejectExplicitMode(opts); err != nil {
			return cfg, err
		}
	}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg, nil
}

// QueryContext binds the current catalog contents to the statement's
// schema, verifies the declared constraints against the data, and runs the
// query under ctx: cache-hit planning (via the session plan cache) plus
// execution — or, for a memo that only grew, a maintenance round (see Stmt)
// — for conjunctive queries and disjunctive rules alike. The Result shape is
// the same in every case. A call that finds the memo stale while another
// refreshes it waits for that refresh, then returns its answer when no write
// landed since. A cancelled or expired context aborts the wait or the run
// promptly with ctx.Err(); the engine checks cancellation between proof
// steps and between rule executions.
func (st *Stmt) QueryContext(ctx context.Context, opts ...Option) (*Result, error) {
	cfg, err := st.config(opts)
	if err != nil {
		return nil, err
	}
	if _, res, err := st.current(cfg); res != nil || err != nil {
		return res, err
	}
	select {
	case st.flight <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-st.flight }()
	// The refresh this call waited for may have published the answer it wants.
	m, res, err := st.current(cfg)
	if res != nil || err != nil {
		return res, err
	}
	next, _, err := st.refresh(ctx, m, cfg, nil)
	if err != nil {
		return nil, err
	}
	st.memo.Store(next)
	return next.res, nil
}

// current reads the statement's schema tick and returns the memo together
// with its answer when that answers the tick under cfg (nil otherwise).
func (st *Stmt) current(cfg config) (*memo, *Result, error) {
	tick, err := st.db.schemaTick(&st.res.Rule.Schema)
	if err != nil {
		return nil, nil, err
	}
	m := st.memo.Load()
	if m != nil && m.tick == tick && m.cfg == cfg {
		return m, m.res, nil
	}
	return m, nil, nil
}

// refresh is the one step that takes an answer to the answer at the catalog
// as it stands, for a statement's memo and a watch alike; the caller holds
// the one refresh in flight on old, the answer at an earlier state (nil when
// there is none). It binds the catalog (Stmt.bind) — with the rows stamped
// since old's tick when old is a conjunctive answer under the same options,
// which may only have grown — and runs p, or when p is nil the plan for the
// bound catalog (a watch hands in the plan it pinned at open). When old only
// grew — the rows since its tick are bound and every atom reads the relation
// old read — it runs one semi-naive round (incr.Advance), merges it into the
// relation old grows and reports that it advanced. Otherwise it executes the
// plan in full. Either way the answer is shaped by answer, the one Result
// constructor, from the plan that ran: a round's Mode, Width, Bound,
// Signature and Columns are a full execution's by construction.
func (st *Stmt) refresh(ctx context.Context, old *memo, cfg config, p *plan.Plan) (*memo, bool, error) {
	var since *uint64
	if old != nil && old.cfg == cfg && st.res.Conj != nil {
		since = &old.tick
	}
	b, err := st.bind(since)
	if err != nil {
		return nil, false, err
	}
	var prepWait time.Duration
	if p == nil {
		if p, prepWait, err = st.db.prepareTimed(ctx, st.res.Conj, st.res.Rule, b.ins, st.res.Constraints, cfg); err != nil {
			return nil, false, err
		}
	}
	next := &memo{tick: b.tick, cfg: cfg, born: b.born, plan: p}
	if b.delta == nil || !slices.Equal(b.born, old.born) {
		res, err := execute(ctx, p, b.ins, cfg, prepWait)
		if err != nil {
			return nil, false, err
		}
		res.compact()
		next.res = res
		_ = next.grow(res.Rel, nil) // no delta, so nothing to insert and nothing to fail
		return next, false, nil
	}
	round, err := incr.Advance(ctx, cfg.executor(), p, &st.res.Rule.Schema, b.ins, b.delta.Relations, old.res.OK)
	if err != nil {
		return nil, false, err
	}
	next.res = answer(p, &core.ExecResult{
		Out:      old.res.Rel,
		NonEmpty: old.res.OK || round.NonEmpty,
		Stats:    round.Stats,
		Timings:  round.Timings,
	}, prepWait)
	if err := next.grow(old.rows, round.Delta); err != nil {
		return nil, false, err
	}
	return next, true, nil
}

// Query is QueryContext under context.Background().
func (st *Stmt) Query(opts ...Option) (*Result, error) {
	return st.QueryContext(context.Background(), opts...)
}

// bind reads the catalog for the statement's schema (DB.bind, with the rows
// stamped after *since when since is non-nil) and checks the declared
// constraints against the bound instance. Bound instances are read-only
// during execution; the binding's tick is the key the result memo pairs with.
func (st *Stmt) bind(since *uint64) (*binding, error) {
	s := &st.res.Rule.Schema
	b, err := st.db.bind(s, since)
	if err != nil {
		return nil, err
	}
	if err := b.ins.Check(s, st.res.Constraints); err != nil {
		return nil, err
	}
	return b, nil
}

// rejectExplicitMode fails with ErrNotConjunctive when the per-call
// options force a plan mode on a disjunctive rule. Only an explicit
// WithMode in opts counts: a session-wide WithMode default set at Open
// applies to the conjunctive queries it can apply to and is ignored for
// rules, as WithMode documents.
func rejectExplicitMode(opts []Option) error {
	var per config
	for _, o := range opts {
		o(&per)
	}
	if per.mode != ModeAuto {
		return fmt.Errorf("%w: WithMode applies to conjunctive queries", ErrNotConjunctive)
	}
	return nil
}

// PlanInfo summarizes the planning outcome of a statement: the strategy
// the planner committed to and its exact width certificate, without any
// execution work. It is the dry-run shape a query server returns from an
// explain endpoint.
type PlanInfo struct {
	// Mode is the committed strategy (ModeRule for disjunctive rules).
	Mode PlanMode
	// Width is the exact width certificate in log₂ units: the polymatroid
	// bound (ModeFull and rules), da-fhtw (ModeFhtw) or da-subw (ModeSubw).
	Width *big.Rat
	// Key is the canonical plan-cache signature.
	Key string
	// Digest is SignatureDigest(Key): the short hex shape identity that
	// Result.Signature and the server's per-shape telemetry key on.
	Digest string
}

// ExplainContext runs only the planning phase of the statement against the
// current catalog — cache-hit planning through the session plan cache, so
// an Explain warms it for later queries — and reports the committed mode
// and width certificate without executing anything. The instance
// cardinalities the certificate depends on are snapshotted from the
// catalog, exactly as QueryContext would see them.
func (st *Stmt) ExplainContext(ctx context.Context, opts ...Option) (*PlanInfo, error) {
	cfg, err := st.config(opts)
	if err != nil {
		return nil, err
	}
	b, err := st.bind(nil)
	if err != nil {
		return nil, err
	}
	p, err := st.db.prepare(ctx, st.res.Conj, st.res.Rule, b.ins, st.res.Constraints, cfg)
	if err != nil {
		return nil, err
	}
	return &PlanInfo{Mode: p.Mode, Width: p.Width, Key: p.Key, Digest: SignatureDigest(p.Key)}, nil
}

// Source returns the statement's query text.
func (st *Stmt) Source() string { return st.src }

// IsRule reports whether the statement is a disjunctive datalog rule
// (multi-target head) rather than a conjunctive query.
func (st *Stmt) IsRule() bool { return st.res.Conj == nil }

// Constraints returns the degree constraints declared in the query text.
func (st *Stmt) Constraints() []Constraint { return st.res.Constraints }

// Schema returns the parsed schema (variable names, atoms).
func (st *Stmt) Schema() *Schema { return &st.res.Rule.Schema }

// Close releases the statement. It exists for database/sql symmetry; a
// Stmt holds no resources beyond its parse tree.
func (st *Stmt) Close() error { return nil }
