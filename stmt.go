package panda

import (
	"context"
	"fmt"
	"math/big"
	"slices"
	"sync"
	"time"

	"panda/internal/incr"
	"panda/internal/plan"
	"panda/internal/query"
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
// pinned plan. The answer is the memo's rows ∪ the round's, in one Union,
// with Mode, Width, Signature and Bound from the current plan: everything the
// answer is made of equals a fresh run's. The Union copies and rehashes the
// memo's rows — readers share them, so they are not grown in place as a
// watch's are — and the round saves least where the answer dwarfs what the
// inserts add. Stats and Timings are this call's — the round's and its
// planning wait — not those of the execution the round replaced. The plan's
// constraints bound the new catalog and so every mixed instance of the round,
// and the 2^OBJ budget stays on. A disjunctive rule (not monotone under
// inserts), a drop+recreate of a referenced relation, another option set and
// the first Query execute in full.
//
// What the memo holds is what a reader needs: the scalar fields and, for Rel
// and every table, the rows at their size — the dedup table and the spare
// column capacity the engine built them with are dropped before the Result
// is published (Relation.Compact). A relation rebuilds on demand what a
// reader turns out to want: the dedup table on the first Contains, Equal or
// Insert, the sorted row order on the first Iter, Rows or AllSorted — the
// latter kept with the relation, so later hits walk it without sorting.
type Stmt struct {
	db  *DB
	src string
	res *query.ParseResult
	cfg config

	mu   sync.Mutex
	memo *memo // nil until a Query succeeds
}

// memo is a published answer and the catalog state it answers: the schema
// tick, the option set, and the creation tick of the catalog relation each
// atom read (a tick, so a memo keeps no dropped relation alive). A Stmt and a
// Watch each keep one.
type memo struct {
	res  *Result
	tick uint64
	cfg  config
	born []uint64
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
	return &Stmt{db: db, src: src, res: res, cfg: cfg}, nil
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
// the same in every case. A cancelled or expired context aborts the run
// promptly with ctx.Err(); the engine checks cancellation between proof
// steps and between rule executions.
func (st *Stmt) QueryContext(ctx context.Context, opts ...Option) (*Result, error) {
	cfg, err := st.config(opts)
	if err != nil {
		return nil, err
	}
	tick, err := st.db.schemaTick(&st.res.Rule.Schema)
	if err != nil {
		return nil, err
	}
	st.mu.Lock()
	m := st.memo
	st.mu.Unlock()
	if m != nil && m.tick == tick && m.cfg == cfg {
		return m.res, nil
	}
	// A conjunctive memo under the same options may only have grown: bind the
	// rows since its tick as well, so refresh can advance it.
	var since *uint64
	if m != nil && m.cfg == cfg && st.res.Conj != nil {
		since = &m.tick
	}
	b, err := st.bind(since)
	if err != nil {
		return nil, err
	}
	next, round, err := st.refresh(ctx, m, b, cfg, nil)
	if err != nil {
		return nil, err
	}
	// Still private to this call: once it is in the memo, readers share it.
	if round == nil {
		next.res.compact()
	} else if round.Delta != nil && round.Delta.Size() > 0 { // nil for a Boolean query
		next.res.Rel = m.res.Rel.Union(round.Delta)
		next.res.Rel.Compact()
	}
	st.mu.Lock()
	// Concurrent calls may finish out of order: keep the newest snapshot's
	// result.
	if st.memo == nil || next.tick >= st.memo.tick {
		st.memo = next
	}
	st.mu.Unlock()
	return next.res, nil
}

// refresh is the one step that takes an answer to the answer at b's catalog
// state, for a statement's memo and a watch alike. old is the answer at an
// earlier state (nil when there is none); p is the plan to run, nil to plan
// against b's catalog (a watch hands in its pinned plan). When old only grew
// — b carries the rows since old's tick and every atom reads the relation old
// read — it runs one semi-naive round (incr.Advance) and returns it with an
// answer whose every field is set but Rel, still old's: the caller merges the
// round's Delta into it. Otherwise it executes p in full and returns no round.
func (st *Stmt) refresh(ctx context.Context, old *memo, b *binding, cfg config, p *plan.Plan) (*memo, *incr.Round, error) {
	var prepWait time.Duration
	if p == nil {
		var err error
		if p, prepWait, err = st.db.prepareTimed(ctx, st.res.Conj, st.res.Rule, b.ins, st.res.Constraints, cfg); err != nil {
			return nil, nil, err
		}
	}
	next := &memo{tick: b.tick, cfg: cfg, born: b.born}
	if old == nil || b.delta == nil || !slices.Equal(b.born, old.born) {
		res, err := execute(ctx, p, b.ins, cfg, prepWait)
		if err != nil {
			return nil, nil, err
		}
		next.res = res
		return next, nil, nil
	}
	round, err := incr.Advance(ctx, cfg.executor(), p, &st.res.Rule.Schema, b.ins, b.delta.Relations, old.res.OK)
	if err != nil {
		return nil, nil, err
	}
	if round.Timings != nil {
		round.Timings.PrepareWait = prepWait
	}
	next.res = &Result{
		Rel:       old.res.Rel,
		Columns:   old.res.Columns,
		OK:        old.res.OK || round.NonEmpty,
		Width:     p.Width,
		Mode:      p.Mode,
		Bound:     p.Bound(),
		Stats:     round.Stats,
		Signature: SignatureDigest(p.Key),
		Timings:   round.Timings,
	}
	return next, round, nil
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
