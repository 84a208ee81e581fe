package panda

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"panda/internal/bitset"
	"panda/internal/core"
	"panda/internal/plan"
	"panda/internal/query"
	"panda/internal/relation"
)

// DB is a long-lived query session in the spirit of database/sql: it owns a
// catalog of named relations (create / insert / CSV ingest / drop) and a
// shared plan cache, and answers the textual query language through one
// unified path — db.Prepare(src) parses a query into a *Stmt, and
// stmt.QueryContext(ctx) / db.QueryContext(ctx, src) run cache-hit planning
// plus execution, returning a single *Result shape for full, Boolean and
// projection conjunctive queries and disjunctive datalog rules alike (a
// rule is a plan like any other: prepare and eval below are the one
// planning and the one execution path for both). The
// context-free Query/Eval forms delegate with context.Background();
// serving-grade callers should pass a context so queries honor
// cancellation and deadlines, and may set WithParallelism to fan a plan's
// independent rule executions out across goroutines.
//
// A DB is safe for concurrent use by multiple goroutines. The planning
// phase (LP solves, proof sequences, decomposition choice) is cached in the
// session's plan cache keyed by a renaming-invariant canonical signature
// (the cache's only key, computed afresh by every planning call), so
// repeated traffic against an unchanged catalog — including queries and
// rules that merely rename variables — pays planning once and executes with
// zero LP solves thereafter. (Mutating a relation a query reads changes its
// derived cardinality constraint and therefore the plan key: the next run
// replans against the new sizes, by design.)
type DB struct {
	mu       sync.RWMutex
	planner  *plan.Planner
	catalog  map[string]*relation.Relation // column i ↔ attribute i
	version  uint64                        // bumped on every catalog mutation
	defaults config
	closed   bool
	// changed is closed, and replaced, at every version bump, and closed for
	// good by Close: a watch that read it before looking at the catalog
	// wakes on the first write after that look (see changes).
	changed chan struct{}

	// planLoad records what Open's WithPlanDir warm-load did, so embedders
	// (pandad's boot log) can surface skipped or failed snapshots instead
	// of silently serving cold.
	planLoadStats PlanCacheLoadStats
	planLoadErr   error
}

// config carries the tunables of a DB and of one query run; Open sets
// session defaults and each Query/Eval call may override them.
type config struct {
	mode        PlanMode
	core        core.Options
	parallelism int
	partitions  int
	plannerCap  int
	planDir     string
	watchQueue  int
}

// Option tunes a DB (at Open) or a single query run (at Prepare / Query /
// Eval), overriding the session defaults.
type Option func(*config)

// WithMode selects the evaluation strategy: ModeAuto (default) picks
// ModeFull for full queries and otherwise compares the exact fhtw and
// subw width certificates, committing the smaller (ties go to the cheaper
// fhtw execution); ModeFull / ModeFhtw / ModeSubw force a strategy.
// Disjunctive rules take no mode: an explicit per-call WithMode on a rule
// fails with ErrNotConjunctive, while a session-wide default set at Open
// is ignored for rules.
func WithMode(m PlanMode) Option { return func(c *config) { c.mode = m } }

// WithTrace records one line per relational operation in Result.Stats.Trace.
func WithTrace(on bool) Option { return func(c *config) { c.core.Trace = on } }

// WithBudgetDisabled turns off the 2^OBJ composition budget (the ablation
// switch): outputs stay correct but the runtime guarantee is forfeited.
func WithBudgetDisabled(on bool) Option { return func(c *config) { c.core.DisableBudget = on } }

// WithStageTimings records wall-clock stage timings — prepare-wait,
// per-proof-step-kind engine time, rule fan-out, merge — into
// Result.Timings. Off by default; when off, the execution path makes no
// clock calls. Timings are observability data, not part of the
// deterministic result: they vary run to run even though the rows, Stats
// and trace stay byte-identical.
func WithStageTimings(on bool) Option { return func(c *config) { c.core.StageTimings = on } }

// WithParallelism bounds how many of a plan's independent tasks — per-bag
// (ModeFhtw) and per-transversal (ModeSubw) rule executions, per-partition
// executions of a single rule (see WithPartitions), and the final
// per-decomposition Yannakakis passes of ModeSubw — may run concurrently;
// n ≤ 1 (the default) executes sequentially. The pool size is chosen per
// plan by a cost model (task count × certificate bound × input
// cardinalities), so cheap plans skip the pool. The fan-out is
// deterministic — results are merged in rule-index-then-partition-index
// order, so the output rows, OK answer, Width and Stats are byte-identical
// to a sequential run of the same configuration. Usable both as a session
// default at Open and per call.
func WithParallelism(n int) Option { return func(c *config) { c.parallelism = n } }

// WithPartitions splits each rule execution's data into n co-partitioned
// hash partitions: atoms covering the partition key (the most-covered join
// variable) are hash-partitioned on it, the rest are replicated, and the
// rule runs once per partition — inside the WithParallelism pool when one
// is configured. The merged result is exact: output rows, OK answer, width
// and mode match an unpartitioned run, and for a fixed n the run is fully
// deterministic at any parallelism (intermediate Stats may differ between
// different n — a partitioned proof does different, smaller work).
// n ≤ 1 (0 is the default) runs unpartitioned. Usable both as a session
// default at Open and per call.
func WithPartitions(n int) Option { return func(c *config) { c.partitions = n } }

// WithPlannerCapacity sizes the session's plan-cache LRU (0 selects the
// default capacity). Effective at Open only.
func WithPlannerCapacity(n int) Option { return func(c *config) { c.plannerCap = n } }

// WithPlanDir makes the session's plan cache persistent under dir:
// Open warm-loads the snapshot at <dir>/plans.json when one exists
// (best-effort — a missing, stale-version or corrupted snapshot is skipped,
// never fatal), and SnapshotPlans writes the current cache back atomically.
// Queries whose plans were loaded execute with zero LP solves, which is the
// warm-restart guarantee pandad builds on. Effective at Open only.
func WithPlanDir(dir string) Option { return func(c *config) { c.planDir = dir } }

// Open creates an empty session. Options set session-wide defaults; per-call
// options on Query/Prepare/Eval override them.
func Open(opts ...Option) *DB {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	db := &DB{
		planner:  plan.NewPlanner(cfg.plannerCap),
		catalog:  map[string]*relation.Relation{},
		defaults: cfg,
		changed:  make(chan struct{}),
	}
	if cfg.planDir != "" {
		// Warm-load is best-effort by design: a fresh directory has no
		// snapshot yet, and a bad one must not keep the session from
		// opening. The outcome is recorded for PlanLoadResult so a failed
		// or partially skipped warm start stays observable.
		db.planLoadStats, db.planLoadErr = db.LoadPlanDir()
	}
	return db
}

// PlanLoadResult reports what the WithPlanDir warm-load at Open did: the
// load stats (entries loaded/skipped/duplicated, first rejection reason)
// and the container-level error, if any. Zero values mean no plan
// directory was configured or no snapshot existed yet.
func (db *DB) PlanLoadResult() (PlanCacheLoadStats, error) {
	return db.planLoadStats, db.planLoadErr
}

// Close drops the catalog and marks the session closed; subsequent calls
// return ErrClosed. Closing an already-closed DB is a no-op.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if !db.closed {
		// Wake every watch so it observes the closed session and ends
		// instead of waiting for a write that will never come.
		close(db.changed)
	}
	db.closed = true
	db.catalog = nil
	return nil
}

// PlannerStats snapshots the session planner's hit/miss/LP counters; a
// query server's ops surface polls this to watch cache effectiveness.
func (db *DB) PlannerStats() PlannerStats { return db.planner.Stats() }

// PlanCacheLen reports how many plans the session's cache currently holds
// (fresh builds plus warm-loaded and imported ones).
func (db *DB) PlanCacheLen() int { return db.planner.Len() }

// cfg materializes the effective config for one call.
func (db *DB) cfg(opts []Option) config {
	c := db.defaults
	for _, o := range opts {
		o(&c)
	}
	return c
}

// ---- Catalog ----

// RelationInfo describes one catalog relation.
type RelationInfo struct {
	Name  string
	Arity int
	Size  int
}

// MaxArity bounds catalog relation arities (the bitset variable universe).
const MaxArity = 32

func checkArity(arity int) error {
	if arity < 1 || arity > MaxArity {
		return fmt.Errorf("%w: arity %d outside [1, %d]", ErrArity, arity, MaxArity)
	}
	return nil
}

// CreateRelation adds an empty relation with the given arity to the
// catalog. It fails with ErrRelationExists on a duplicate name.
func (db *DB) CreateRelation(name string, arity int) error {
	if err := checkArity(arity); err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if _, dup := db.catalog[name]; dup {
		return fmt.Errorf("%w: %s", ErrRelationExists, name)
	}
	t := relation.New(name, bitset.Full(arity))
	db.catalog[name] = t
	db.mutatedLocked(t)
	return nil
}

// DropRelation removes a relation from the catalog.
func (db *DB) DropRelation(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if _, ok := db.catalog[name]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownRelation, name)
	}
	delete(db.catalog, name)
	db.mutatedLocked(nil)
	return nil
}

// Insert adds tuples (in the relation's declared column order) with set
// semantics; duplicates are ignored. A call that adds no new tuple — an
// at-least-once feed re-sending a batch — is a no-op: the catalog version
// does not advance and no watcher is woken.
func (db *DB) Insert(name string, rows ...[]Value) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	t, ok := db.catalog[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownRelation, name)
	}
	// Validate every row before mutating so the insert is atomic: a
	// partial insert that errored out would otherwise leave the catalog
	// changed without a version bump, and cached statement snapshots
	// would keep serving the pre-insert state.
	arity := t.Attrs().Card()
	for _, row := range rows {
		if len(row) != arity {
			return fmt.Errorf("%w: tuple %v has %d values, relation %s needs %d",
				ErrArity, row, len(row), name, arity)
		}
	}
	if err := t.CheckRoom(len(rows)); err != nil {
		return err
	}
	if insertRows(t, rows) {
		db.mutatedLocked(t)
	}
	return nil
}

// insertRows adds rows to t and reports whether any of them was new.
func insertRows(t *relation.Relation, rows [][]Value) (added bool) {
	for _, row := range rows {
		if t.Insert(row) {
			added = true
		}
	}
	return added
}

// mutatedLocked publishes a catalog mutation: it advances the version,
// stamps the changed relation with it (nil for a drop) and wakes every watch
// by closing the change channel, installing a fresh one for the next write.
// Callers hold db.mu.
func (db *DB) mutatedLocked(t *relation.Relation) {
	db.version++
	if t != nil {
		t.Stamp(db.version)
	}
	close(db.changed)
	db.changed = make(chan struct{})
}

// changes returns the channel the next catalog mutation (or Close) closes.
// Reading it before a look at the catalog is what makes a wakeup sound: any
// write after the look closes the channel read before it.
func (db *DB) changes() <-chan struct{} {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.changed
}

// Relations lists the catalog, sorted by name. It fails with ErrClosed
// after Close so an empty catalog and a closed session stay
// distinguishable.
func (db *DB) Relations() ([]RelationInfo, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return nil, ErrClosed
	}
	out := make([]RelationInfo, 0, len(db.catalog))
	for name, t := range db.catalog {
		out = append(out, RelationInfo{Name: name, Arity: t.Attrs().Card(), Size: t.Size()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// ---- CSV ingest (lifted out of cmd/panda) ----

// LoadCSV reads comma-separated integer tuples into the named relation; it
// is LoadCSVContext under context.Background().
func (db *DB) LoadCSV(name string, r io.Reader) (int, error) {
	return db.LoadCSVContext(context.Background(), name, r)
}

// LoadCSVContext reads comma-separated integer tuples into the named
// relation, creating it (with the first row's arity) when absent. Blank
// lines and lines starting with # are skipped. The load is atomic: on any
// parse or arity error — or a cancelled context — nothing is inserted and
// no relation is created. It returns the number of data rows read (before
// set-semantics deduplication); like Insert, a load into an existing
// relation that adds no new tuple is a no-op. Cancellation is checked
// periodically while parsing, so a large ingest aborts promptly with
// ctx.Err().
func (db *DB) LoadCSVContext(ctx context.Context, name string, r io.Reader) (int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return 0, err
	}
	// Stage and validate every row before touching the catalog.
	var rows [][]Value
	var lines []int
	for ln, line := range strings.Split(string(data), "\n") {
		if ln%4096 == 0 {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
		}
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, ",")
		row := make([]Value, len(parts))
		for k, p := range parts {
			v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("relation %s line %d: %v", name, ln+1, err)
			}
			row[k] = v
		}
		if len(rows) > 0 && len(row) != len(rows[0]) {
			return 0, fmt.Errorf("%w: relation %s line %d: %d fields, want %d",
				ErrArity, name, ln+1, len(row), len(rows[0]))
		}
		rows = append(rows, row)
		lines = append(lines, ln+1)
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return 0, ErrClosed
	}
	t, exists := db.catalog[name]
	if !exists {
		if len(rows) == 0 {
			return 0, fmt.Errorf("relation %s: no rows to infer an arity from", name)
		}
		if err := checkArity(len(rows[0])); err != nil {
			return 0, fmt.Errorf("relation %s line %d: %w", name, lines[0], err)
		}
		// A fresh relation is preallocated for the whole row set.
		t = relation.NewBuilder(name, bitset.Full(len(rows[0])), len(rows)).Build()
	} else if len(rows) > 0 && len(rows[0]) != t.Attrs().Card() {
		return 0, fmt.Errorf("%w: relation %s line %d: %d fields, want %d",
			ErrArity, name, lines[0], len(rows[0]), t.Attrs().Card())
	}
	if err := t.CheckRoom(len(rows)); err != nil {
		return 0, err
	}
	if insertRows(t, rows) {
		db.catalog[name] = t // a fresh relation enters the catalog here
		db.mutatedLocked(t)
	}
	return len(rows), nil
}

// LoadCSVFile loads one <name>.csv file; the relation name is the base name
// without the extension.
func (db *DB) LoadCSVFile(path string) (string, int, error) {
	name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	f, err := os.Open(path)
	if err != nil {
		return name, 0, err
	}
	defer f.Close()
	n, err := db.LoadCSV(name, f)
	if err != nil {
		return name, n, fmt.Errorf("%s: %w", path, err)
	}
	return name, n, nil
}

// LoadCSVDir loads every *.csv file in dir as a relation named after the
// file. This is the CLI's data-dir convention, available to any embedder.
// Each file loads atomically (see LoadCSV), but a failure mid-directory
// leaves relations from earlier files in the catalog.
func (db *DB) LoadCSVDir(dir string) error {
	paths, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("panda: no *.csv files in %s", dir)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, _, err := db.LoadCSVFile(p); err != nil {
			return err
		}
	}
	return nil
}

// ---- Plan persistence ----

// PlanSnapshotFile is the file name SnapshotPlans writes (and Open's
// warm-load reads) inside the WithPlanDir directory.
const PlanSnapshotFile = "plans.json"

// SavePlans writes the session planner's whole plan cache to w in the
// versioned panda-plan-cache format. Another session — a restarted server,
// or a replica fed from a planning tier — re-seeds from it with LoadPlans
// and answers the covered queries with zero LP solves.
func (db *DB) SavePlans(w io.Writer) error {
	if db.isClosed() {
		return ErrClosed
	}
	return db.planner.SaveCache(w)
}

// SavePlan writes a snapshot holding the one plan under key, which is how
// the fleet tier ships a first-sighted plan. When the cache no longer holds
// key (evicted since it was planned) it writes nothing and reports false.
func (db *DB) SavePlan(w io.Writer, key string) (bool, error) {
	if db.isClosed() {
		return false, ErrClosed
	}
	return db.planner.SavePlan(w, key)
}

// LoadPlans imports a plan-cache snapshot into the session planner.
// Entries with a format-version or digest mismatch — or keys the cache
// already holds — are skipped, never fatal; the stats report the split and
// the first rejection reason.
func (db *DB) LoadPlans(r io.Reader) (PlanCacheLoadStats, error) {
	if db.isClosed() {
		return PlanCacheLoadStats{}, ErrClosed
	}
	return db.planner.LoadCache(r)
}

// LoadPlanDir loads the PlanSnapshotFile snapshot from the configured plan
// directory. A missing snapshot is not an error (the directory simply has
// not been written yet); a session without a plan directory is.
func (db *DB) LoadPlanDir() (PlanCacheLoadStats, error) {
	dir := db.defaults.planDir
	if dir == "" {
		return PlanCacheLoadStats{}, fmt.Errorf("panda: session has no plan directory (use WithPlanDir)")
	}
	f, err := os.Open(filepath.Join(dir, PlanSnapshotFile))
	if err != nil {
		if os.IsNotExist(err) {
			return PlanCacheLoadStats{}, nil
		}
		return PlanCacheLoadStats{}, err
	}
	defer f.Close()
	return db.LoadPlans(f)
}

// SnapshotPlans writes the current plan cache to the configured plan
// directory, atomically: the snapshot lands in a temporary file first and
// is renamed over PlanSnapshotFile, so a crash mid-write can never leave a
// truncated snapshot for the next boot (truncation would be skipped on
// load anyway — the envelope digests see to that — but the previous
// snapshot surviving intact is strictly better).
func (db *DB) SnapshotPlans() error {
	dir := db.defaults.planDir
	if dir == "" {
		return fmt.Errorf("panda: session has no plan directory (use WithPlanDir)")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, PlanSnapshotFile+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := db.SavePlans(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(dir, PlanSnapshotFile))
}

// ---- Per-relation ticks ----

// schemaTick reports the catalog tick a statement over s depends on: the
// max per-relation tick across the relations the schema actually
// references. Mutations to unrelated relations leave it unchanged, so a
// memoized snapshot stays valid across them; any mutation to a referenced
// relation — including a drop+recreate, which stamps a strictly newer tick
// — moves it forward. A referenced relation missing from the catalog fails
// with ErrUnknownRelation.
func (db *DB) schemaTick(s *Schema) (uint64, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return 0, ErrClosed
	}
	var tick uint64
	for _, a := range s.Atoms {
		t, ok := db.catalog[a.Name]
		if !ok {
			return 0, fmt.Errorf("%w: %s", ErrUnknownRelation, a.Name)
		}
		tick = max(tick, t.Tick())
	}
	return tick, nil
}

// binding is one consistent read of the catalog for a schema.
type binding struct {
	ins  *Instance // the catalog bound to the schema
	tick uint64    // the schema tick ins reflects
	// born is the creation tick (Relation.Born) of the catalog relation each
	// atom read, in atom order: a later read finding another is how a watch
	// or a statement's memo detects drop+recreate. A tick, not the relation:
	// what is kept of a read must not keep a dropped relation's rows alive.
	born []uint64
	// delta is the rows stamped after the tick the caller named, bound like
	// ins; nil when no tick was named.
	delta *Instance
}

// bind is the one path from the catalog to an instance: under a single
// read-lock hold it binds the catalog to the schema (an O(arity) column
// snapshot per atom on the common path — see query.BindInstance) and, when
// since is non-nil, binds the rows that arrived after tick *since the same
// way, over each relation's column suffix (Relation.Since), so the two
// instances describe one catalog state.
func (db *DB) bind(s *Schema, since *uint64) (*binding, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return nil, ErrClosed
	}
	ins, err := query.BindInstance(s, func(name string) (*relation.Relation, bool) {
		t, ok := db.catalog[name]
		return t, ok
	})
	if err != nil {
		return nil, err
	}
	b := &binding{ins: ins, born: make([]uint64, len(s.Atoms))}
	for i, a := range s.Atoms {
		t := db.catalog[a.Name]
		b.born[i] = t.Born()
		b.tick = max(b.tick, t.Tick())
	}
	if since != nil {
		// Every name resolved a moment ago, under this same hold.
		b.delta, err = query.BindInstance(s, func(name string) (*relation.Relation, bool) {
			return db.catalog[name].Since(*since), true
		})
		if err != nil {
			return nil, err
		}
	}
	return b, nil
}

// ---- Query paths ----

// QueryContext parses and runs src against the catalog: Prepare +
// Stmt.QueryContext in one call. The context governs both planning (a
// cache miss abandons its LP solves when ctx expires) and execution (the
// engine checks cancellation between proof steps); a cancelled or expired
// context aborts the query with ctx.Err(). Repeated traffic still hits the
// plan cache — the planner keys on the canonical query signature, not on
// the Stmt identity.
func (db *DB) QueryContext(ctx context.Context, src string, opts ...Option) (*Result, error) {
	stmt, err := db.Prepare(src, opts...)
	if err != nil {
		return nil, err
	}
	return stmt.QueryContext(ctx)
}

// Query is QueryContext under context.Background().
func (db *DB) Query(src string, opts ...Option) (*Result, error) {
	return db.QueryContext(context.Background(), src, opts...)
}

// EvalContext runs a programmatically built conjunctive query against an
// explicit instance under ctx, sharing the session's plan cache. Missing
// atom cardinalities are derived from the instance; dcs may be nil.
func (db *DB) EvalContext(ctx context.Context, q *Query, ins *Instance, dcs []Constraint, opts ...Option) (*Result, error) {
	return db.eval(ctx, q, nil, ins, dcs, db.cfg(opts))
}

// Eval is EvalContext under context.Background().
func (db *DB) Eval(q *Query, ins *Instance, dcs []Constraint, opts ...Option) (*Result, error) {
	return db.EvalContext(context.Background(), q, ins, dcs, opts...)
}

// EvalRuleContext runs PANDA on a programmatically built disjunctive rule
// against an explicit instance under ctx, through the same plan cache and
// executor as EvalContext, returning the unified Result shape (Mode ==
// ModeRule; the model lives in Result.Tables). An explicit WithMode in opts
// fails with ErrNotConjunctive.
func (db *DB) EvalRuleContext(ctx context.Context, p *Rule, ins *Instance, dcs []Constraint, opts ...Option) (*Result, error) {
	if err := rejectExplicitMode(opts); err != nil {
		return nil, err
	}
	return db.eval(ctx, nil, p, ins, dcs, db.cfg(opts))
}

// EvalRule is EvalRuleContext under context.Background().
func (db *DB) EvalRule(p *Rule, ins *Instance, dcs []Constraint, opts ...Option) (*Result, error) {
	return db.EvalRuleContext(context.Background(), p, ins, dcs, opts...)
}

func (db *DB) isClosed() bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.closed
}

// executor materializes the core executor one call runs with.
func (cfg config) executor() *core.Executor {
	return &core.Executor{Parallelism: cfg.parallelism, Partitions: cfg.partitions, Opt: cfg.core}
}

// PlanContext is the programmatic dry run: it plans q exactly as
// EvalContext would — same mode validation, same completed constraint set,
// same session plan cache (so it warms the cache for later runs) — and
// returns the reified plan without executing it. A nil ins plans against dcs
// alone, which must then bound every atom (see DefaultCardinalities) or the
// planning LP fails with ErrUnboundedLP.
func (db *DB) PlanContext(ctx context.Context, q *Query, ins *Instance, dcs []Constraint, opts ...Option) (*QueryPlan, error) {
	return db.prepare(ctx, q, nil, ins, dcs, db.cfg(opts))
}

// PlanRuleContext is PlanContext for a disjunctive rule: the ModeRule plan
// (the rule's proof sequence as Rules[0], its polymatroid bound as Width)
// from the session plan cache, without executing it.
func (db *DB) PlanRuleContext(ctx context.Context, p *Rule, ins *Instance, dcs []Constraint) (*QueryPlan, error) {
	return db.prepare(ctx, nil, p, ins, dcs, db.defaults)
}

// prepare is the one planning preamble of every execute (eval, Stmt.Watch)
// and dry-run (PlanContext, Stmt.ExplainContext) path: cache-hit planning of
// a conjunctive query q — or, when q is nil, of the disjunctive rule r —
// against the instance's completed constraint set. One body keeps an explain
// from ever diverging from the query it describes.
func (db *DB) prepare(ctx context.Context, q *Query, r *Rule, ins *Instance, dcs []Constraint, cfg config) (*plan.Plan, error) {
	if db.isClosed() {
		return nil, ErrClosed
	}
	if q == nil {
		if ins != nil {
			dcs = core.CompleteConstraints(&r.Schema, ins, dcs)
		}
		return db.planner.PrepareRuleContext(ctx, r, dcs)
	}
	if cfg.mode == ModeFull && !q.IsFull() {
		return nil, fmt.Errorf("panda: ModeFull needs a full query (free %s)", q.VarLabel(q.Free))
	}
	if ins != nil {
		dcs = core.CompleteConstraints(&q.Schema, ins, dcs)
	}
	return db.planner.PrepareContext(ctx, q, dcs, cfg.mode)
}

// prepareTimed is prepare for a call that answers: it also reports how long
// the call waited for its plan, the Timings.PrepareWait stage, when the
// configuration records stage timings (and makes no clock call otherwise).
func (db *DB) prepareTimed(ctx context.Context, q *Query, r *Rule, ins *Instance, dcs []Constraint, cfg config) (*plan.Plan, time.Duration, error) {
	if !cfg.core.StageTimings {
		p, err := db.prepare(ctx, q, r, ins, dcs, cfg)
		return p, 0, err
	}
	start := time.Now()
	p, err := db.prepare(ctx, q, r, ins, dcs, cfg)
	return p, time.Since(start), err
}

// eval plans (prepare) and executes a conjunctive query q — or, when q is
// nil, the disjunctive rule r.
func (db *DB) eval(ctx context.Context, q *Query, r *Rule, ins *Instance, dcs []Constraint, cfg config) (*Result, error) {
	p, prepWait, err := db.prepareTimed(ctx, q, r, ins, dcs, cfg)
	if err != nil {
		return nil, err
	}
	return execute(ctx, p, ins, cfg, prepWait)
}

// execute runs p over ins in full; prepWait is what planning p cost the call.
func execute(ctx context.Context, p *plan.Plan, ins *Instance, cfg config, prepWait time.Duration) (*Result, error) {
	ex, err := cfg.executor().Execute(ctx, p, ins)
	if err != nil {
		return nil, err
	}
	return answer(p, ex, prepWait), nil
}

// answer shapes the one Result of every path that answers — a full execution
// and a maintenance round alike: Width, Mode, Bound, Signature and the names
// of Rel's columns (the plan's free variables in ascending order) come from
// p, the plan that answered; the rows (a rule's model Tables, a query's Rel
// over the free variables), OK and the work done from ex. prepWait is what
// planning p cost the call (Timings.PrepareWait).
func answer(p *plan.Plan, ex *core.ExecResult, prepWait time.Duration) *Result {
	if ex.Timings != nil {
		ex.Timings.PrepareWait = prepWait
	}
	var cols []string
	if ex.Out != nil {
		cols = make([]string, 0, p.Free.Card())
		for _, v := range p.Free.Vars() {
			cols = append(cols, p.Schema.VarLabel(bitset.Of(v)))
		}
	}
	return &Result{
		Rel:       ex.Out,
		Columns:   cols,
		OK:        ex.NonEmpty,
		Width:     p.Width,
		Mode:      p.Mode,
		Tables:    ex.Tables,
		Bound:     p.Bound(),
		Stats:     ex.Stats,
		Signature: SignatureDigest(p.Key),
		Timings:   ex.Timings,
	}
}
