package panda

import (
	"context"
	"fmt"
	"math/big"
	"sync"

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
// Any mutation to a referenced relation moves its tick and invalidates the
// memo; a mutation to any other relation does not. A memoized Result is
// returned as-is, including Timings: a memo hit reports the stage timings
// of the execution that produced the result (timings are already excluded
// from the determinism guarantee, and a hit runs no stages of its own).
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

	mu      sync.Mutex
	memoRes *Result
	memoVer uint64
	memoCfg config
	memoOK  bool
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
// execution, for conjunctive queries and disjunctive rules alike. The
// Result shape is the same in every case. A cancelled or expired context
// aborts the run promptly with ctx.Err(); the engine checks cancellation
// between proof steps and between rule executions.
func (st *Stmt) QueryContext(ctx context.Context, opts ...Option) (*Result, error) {
	cfg, err := st.config(opts)
	if err != nil {
		return nil, err
	}
	ver, err := st.db.schemaTick(&st.res.Rule.Schema)
	if err != nil {
		return nil, err
	}
	st.mu.Lock()
	if st.memoOK && st.memoVer == ver && st.memoCfg == cfg {
		res := st.memoRes
		st.mu.Unlock()
		return res, nil
	}
	st.mu.Unlock()
	b, err := st.bind()
	if err != nil {
		return nil, err
	}
	res, err := st.db.eval(ctx, st.res.Conj, st.res.Rule, b.ins, st.res.Constraints, cfg)
	if err != nil {
		return nil, err
	}
	// Still private to this call: once it is in the memo, readers share it.
	res.compact()
	st.mu.Lock()
	// Concurrent calls may finish out of order: keep the newest snapshot's
	// result.
	if !st.memoOK || b.tick >= st.memoVer {
		st.memoRes, st.memoVer, st.memoCfg, st.memoOK = res, b.tick, cfg, true
	}
	st.mu.Unlock()
	return res, nil
}

// Query is QueryContext under context.Background().
func (st *Stmt) Query(opts ...Option) (*Result, error) {
	return st.QueryContext(context.Background(), opts...)
}

// bind reads the catalog for the statement's schema (DB.bind) and checks the
// declared constraints against the bound instance. Bound instances are
// read-only during execution; the binding's tick is the key the result memo
// pairs with.
func (st *Stmt) bind() (*binding, error) {
	s := &st.res.Rule.Schema
	b, err := st.db.bind(s, nil)
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
	b, err := st.bind()
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
