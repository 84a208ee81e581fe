package panda

import (
	"context"
	"math/big"
	"slices"
	"sync"

	"panda/internal/core"
	"panda/internal/incr"
	"panda/internal/plan"
	"panda/internal/query"
	"panda/internal/relation"
)

// Standing queries: a Watch owns a materialized result for one statement
// and keeps it current as the catalog mutates, pushing row-deltas to a
// subscription channel. Maintenance is semi-naive (internal/incr): the plan
// is prepared once when the watch opens and pinned — every maintenance
// round executes that same plan over per-atom insert deltas with zero
// planning work, so a server full of hot watches performs no LP solves
// after warm-up. Insert-only growth is maintained incrementally; a
// DropRelation or drop+recreate of a referenced relation falls back to a
// full re-execution and resets the materialization (emitted with Resync
// set). Disjunctive rules are not monotone under inserts — a new body
// tuple may shift which target covers existing tuples — so rule watches
// re-execute their pinned plan in full every round and every emission
// carries the complete model with Resync set.

// DefaultWatchQueue is the delta-channel capacity a watch opens with when
// WithWatchQueue is not given.
const DefaultWatchQueue = 64

// WithWatchQueue sizes a watch's bounded delta queue (the subscription
// channel capacity); n ≤ 0 selects DefaultWatchQueue. When a slow consumer
// lets the queue fill, the maintainer evicts the oldest undelivered delta
// and replaces its own emission with a resync carrying the complete
// current state — the stream stays bounded and a consumer that applies
// every received delta (honoring Resync) always converges to the true
// materialization.
func WithWatchQueue(n int) Option { return func(c *config) { c.watchQueue = n } }

// WatchDelta is one change notification on a watch's subscription channel.
type WatchDelta struct {
	// Tick is the catalog tick (max per-relation tick over the statement's
	// relations) the watch's materialization reflects after this delta.
	Tick uint64
	// Rows holds the newly added output tuples in sorted order — or, when
	// Resync is set, the complete current row set. Nil for Boolean queries
	// and rules.
	Rows [][]Value
	// OK is the result's non-emptiness after this delta.
	OK bool
	// Resync marks a full-state emission: the consumer must replace its
	// materialization with Rows (or Tables) instead of merging. Sent after
	// a drop/recreate of a referenced relation, on queue overflow, and on
	// every rule-watch round.
	Resync bool
	// Tables carries the complete model tables of a rule watch (always
	// with Resync set); nil for conjunctive watches.
	Tables map[Set]*Relation
}

// WatchStats counts a watch's maintenance activity.
type WatchStats struct {
	// IncrRounds counts semi-naive maintenance rounds.
	IncrRounds uint64
	// FullRounds counts full re-executions (rule rounds, fallback rounds,
	// structural resyncs).
	FullRounds uint64
	// Resyncs counts full-state emissions (structural, overflow, rule).
	Resyncs uint64
	// DeltasEmitted counts deliveries into the subscription channel.
	DeltasEmitted uint64
}

// Watch is a standing query: a live materialized result plus a
// subscription channel of row-deltas. Open one with DB.Watch or
// Stmt.Watch; Close tears the maintainer down and closes the channel.
// A Watch is safe for concurrent use.
type Watch struct {
	db   *DB
	st   *Stmt
	cfg  config
	p    *plan.Plan // pinned at open
	exec *core.Executor

	deltas  chan WatchDelta
	stop    chan struct{}
	done    chan struct{}
	ctx     context.Context
	cancel  context.CancelFunc
	watchID uint64
	once    sync.Once

	columns []string

	// Maintainer-private state (only the loop goroutine touches these).
	ins        *query.Instance
	lastPtrs   map[string]*relation.Relation
	tickSeen   uint64
	needResync bool

	// Shared state, guarded by mu.
	mu     sync.Mutex
	mat    *relation.Relation
	ok     bool
	tables map[Set]*Relation
	bound  *big.Rat
	tick   uint64
	err    error
	stats  WatchStats
}

// Watch opens a standing query over src: Prepare plus Stmt.Watch in one
// call. The returned handle already holds the initial materialization (the
// snapshot); deltas arrive on Deltas as the catalog mutates.
func (db *DB) Watch(src string, opts ...Option) (*Watch, error) {
	st, err := db.Prepare(src, opts...)
	if err != nil {
		return nil, err
	}
	return st.Watch()
}

// Watch opens a standing query for the prepared statement. Planning runs
// once here (a cache hit for already-seen shapes) and the plan is pinned:
// maintenance never replans, so constraint values frozen at open govern
// the runtime bound — not correctness — for the watch's whole life.
func (st *Stmt) Watch(opts ...Option) (*Watch, error) {
	cfg, err := st.config(opts)
	if err != nil {
		return nil, err
	}
	queue := cfg.watchQueue
	if queue <= 0 {
		queue = DefaultWatchQueue
	}
	// The pinned plan's 2^OBJ composition budget was certified against the
	// cardinalities at open; once the catalog outgrows them, the budget
	// check could truncate a maintenance execution into failure. Outputs
	// are budget-independent, so watches run with the budget disabled: the
	// runtime guarantee is pinned to the open-time constraints (exactly
	// what plan pinning means), correctness is not.
	cfg.core.DisableBudget = true

	// Register for mutation wakeups before snapshotting, so a mutation
	// landing between the snapshot and the loop start still pokes the
	// (buffered) wake channel and the first round catches it up.
	id, wake := st.db.registerWatcher()
	started := false
	defer func() {
		if !started {
			st.db.unregisterWatcher(id)
		}
	}()

	s := &st.res.Rule.Schema
	ins, tick, ptrs, err := st.db.watchBind(s)
	if err != nil {
		return nil, err
	}
	if err := ins.Check(s, st.res.Constraints); err != nil {
		return nil, err
	}

	ctx, cancel := context.WithCancel(context.Background())
	w := &Watch{
		db:       st.db,
		st:       st,
		cfg:      cfg,
		exec:     cfg.executor(),
		deltas:   make(chan WatchDelta, queue),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		ctx:      ctx,
		cancel:   cancel,
		watchID:  id,
		ins:      ins,
		lastPtrs: ptrs,
		tickSeen: tick,
		tick:     tick,
	}
	w.p, err = st.db.prepare(ctx, st.res.Conj, st.res.Rule, ins, st.res.Constraints, cfg)
	if err != nil {
		cancel()
		return nil, err
	}
	ex, err := w.exec.Execute(ctx, w.p, ins)
	if err != nil {
		cancel()
		return nil, err
	}
	// The executor output is freshly built; the watch owns it.
	w.mat, w.tables, w.ok = w.shape(ex)
	w.columns = columnsOf(w.p, w.mat)
	w.bound = ex.Bound
	started = true
	go w.loop(wake)
	return w, nil
}

// shape splits an execution of the pinned plan into the watch's state: the
// output relation (conjunctive plans) or the model tables (rule plans), and
// the non-emptiness answer.
func (w *Watch) shape(ex *core.ExecResult) (out *Relation, tables map[Set]*Relation, ok bool) {
	if w.p.Mode == ModeRule {
		return nil, ex.Tables, ex.NonEmpty
	}
	return ex.Out, nil, ex.NonEmpty
}

// watchBind snapshots, under one read lock, everything a watch needs to
// start or resync: the bound instance, the schema tick it reflects, and
// the catalog relation pointers (a later pointer change is how the
// maintainer detects drop+recreate).
func (db *DB) watchBind(s *query.Schema) (*query.Instance, uint64, map[string]*relation.Relation, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return nil, 0, nil, ErrClosed
	}
	ins, err := query.BindInstance(s, func(name string) (*relation.Relation, bool) {
		t, ok := db.catalog[name]
		return t, ok
	})
	if err != nil {
		return nil, 0, nil, err
	}
	ptrs := make(map[string]*relation.Relation, len(s.Atoms))
	for _, a := range s.Atoms {
		ptrs[a.Name] = db.catalog[a.Name]
	}
	return ins, db.schemaTickLocked(s), ptrs, nil
}

// Deltas is the subscription channel. It is closed when the watch
// terminates (Close, DB.Close, or a maintenance error — see Err).
func (w *Watch) Deltas() <-chan WatchDelta { return w.deltas }

// Result returns the current materialized result. The row data is copied,
// so the caller's Result stays stable while maintenance continues.
func (w *Watch) Result() *Result {
	res, _ := w.Snapshot()
	return res
}

// Snapshot returns the current materialized result together with the
// catalog tick it reflects; a consumer that applies every delta with
// Tick greater than the snapshot tick reconstructs the live state. State,
// tick and the round's delta are published together (see Tick), so no delta
// with a greater tick was enqueued before the snapshot was taken.
func (w *Watch) Snapshot() (*Result, uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	res := &Result{
		OK:        w.ok,
		Mode:      w.p.Mode,
		Width:     w.p.Width,
		Signature: SignatureDigest(w.p.Key),
		Bound:     w.bound,
		Tables:    w.tables,
	}
	if w.mat != nil {
		res.Rel = w.mat.Clone(w.mat.Name)
		res.Columns = w.columns
	}
	return res, w.tick
}

// Tick reports the catalog tick the materialization currently reflects.
// A maintenance round publishes its state, its tick and its delta under one
// lock hold, so the order is a contract: once Tick() ≥ t, every delta with
// Tick ≤ t is already in the Deltas channel (or was evicted from a full
// queue into a later resync) and Result reflects at least tick t.
func (w *Watch) Tick() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.tick
}

// Stats snapshots the watch's maintenance counters.
func (w *Watch) Stats() WatchStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// Err reports why the watch terminated: nil after a clean Close (or
// while still running), ErrClosed when the session was closed underneath
// it, or the maintenance error that killed it. Meaningful once Deltas is
// closed.
func (w *Watch) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Close stops the maintainer, waits for it to finish, and closes the
// delta channel. Closing twice is a no-op.
func (w *Watch) Close() error {
	w.once.Do(func() {
		close(w.stop)
		w.cancel()
	})
	<-w.done
	return nil
}

// ---- Maintainer ----

func (w *Watch) loop(wake chan struct{}) {
	defer func() {
		w.db.unregisterWatcher(w.watchID)
		close(w.deltas)
		close(w.done)
	}()
	for {
		select {
		case <-w.stop:
			return
		case <-wake:
			if !w.round() {
				return
			}
		}
	}
}

// fail records a terminal maintenance error — unless the watch is being
// closed, in which case the error is just the teardown echoing back.
func (w *Watch) fail(err error) {
	select {
	case <-w.stop:
		return
	default:
	}
	w.mu.Lock()
	w.err = err
	w.mu.Unlock()
}

// watchNameSnap is one referenced relation's state captured under the
// catalog read lock: the live pointer, and the rows stamped after the
// maintainer's last seen tick (decoded under the lock into a fresh copy —
// safe to read outside it).
type watchNameSnap struct {
	ptr   *relation.Relation
	rows  [][]Value
	arity int
}

type watchSnap struct {
	closed    bool
	missing   bool
	recreated bool
	tick      uint64
	names     map[string]watchNameSnap
}

func (w *Watch) snapshot() watchSnap {
	db := w.db
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return watchSnap{closed: true}
	}
	s := &w.st.res.Rule.Schema
	snap := watchSnap{names: make(map[string]watchNameSnap, len(s.Atoms))}
	for _, a := range s.Atoms {
		t, ok := db.catalog[a.Name]
		if !ok {
			snap.missing = true
			continue
		}
		if w.lastPtrs[a.Name] != t {
			snap.recreated = true
		}
		snap.names[a.Name] = watchNameSnap{ptr: t, rows: t.RowsSince(w.tickSeen), arity: t.Attrs().Card()}
		if tk := t.Tick(); tk > snap.tick {
			snap.tick = tk
		}
	}
	return snap
}

// round processes one wakeup; it returns false when the watch must
// terminate.
func (w *Watch) round() bool {
	snap := w.snapshot()
	if snap.closed {
		w.fail(ErrClosed)
		return false
	}
	if snap.missing {
		// A referenced relation is gone. Queries would fail now, but the
		// drop may be the first half of a drop+recreate reload: keep the
		// last materialization and resync when the catalog is whole again.
		w.needResync = true
		return true
	}
	if snap.recreated || w.needResync {
		return w.fullRound(true)
	}
	if snap.tick == w.tickSeen {
		return true // coalesced or spurious wakeup; nothing new
	}
	// A full re-execution per round is also the reference the incremental
	// path is held to: emissions keep delta semantics (newly added rows
	// only), so a watch forced onto it (config.watchFallback, which no
	// public option sets) and an incremental watch over the same traffic
	// must emit identical streams.
	if w.p.Mode == ModeRule || w.cfg.watchFallback {
		return w.fullRound(false)
	}
	return w.incrRound(snap)
}

// fullRound rebinds the catalog and re-executes the pinned plan from
// scratch. structural marks a resync (drop/recreate recovery, and every
// rule round) — the emission replaces the consumer's state; a
// non-structural full round (fallback mode) keeps delta emission semantics.
func (w *Watch) fullRound(structural bool) bool {
	s := &w.st.res.Rule.Schema
	ins, tick, ptrs, err := w.db.watchBind(s)
	if err != nil {
		w.fail(err)
		return false
	}
	if err := ins.Check(s, w.st.res.Constraints); err != nil {
		w.fail(err)
		return false
	}
	ex, err := w.exec.Execute(w.ctx, w.p, ins)
	if err != nil {
		w.fail(err)
		return false
	}
	out, tables, ok := w.shape(ex)
	structural = structural || w.p.Mode == ModeRule

	w.mu.Lock()
	prev := w.mat
	// Insert-only fallback rounds only ever add rows; anything vanishing
	// means the catalog changed shape underneath us — resync.
	if !structural && prev != nil && out != nil {
		for row := range prev.All() {
			if !out.Contains(row) {
				structural = true
				break
			}
		}
	}
	var added [][]Value
	if out != nil && !structural {
		for row := range out.AllSorted() {
			if prev == nil || !prev.Contains(row) {
				added = append(added, slices.Clone(row))
			}
		}
	}
	okChanged := ok != w.ok
	w.mat, w.tables, w.ok, w.bound, w.tick = out, tables, ok, ex.Bound, tick
	w.stats.FullRounds++
	switch {
	case structural:
		w.stats.Resyncs++
		w.sendLocked(WatchDelta{Tick: tick, OK: ok, Resync: true, Rows: sortedRows(out), Tables: tables})
	case len(added) > 0 || okChanged:
		w.sendLocked(WatchDelta{Tick: tick, Rows: added, OK: ok})
	}
	w.mu.Unlock()
	w.ins, w.lastPtrs, w.tickSeen, w.needResync = ins, ptrs, tick, false
	return true
}

// incrRound is the semi-naive path: bind only the delta rows, extend the
// maintained instance, execute the pinned plan per delta atom, and merge
// the genuinely new output rows into the materialization.
func (w *Watch) incrRound(snap watchSnap) bool {
	s := &w.st.res.Rule.Schema

	// A satisfied Boolean watch stays satisfied under inserts: skip the
	// execution entirely and just advance the tick.
	if w.p.Free == 0 {
		w.mu.Lock()
		satisfied := w.ok
		if satisfied {
			w.stats.IncrRounds++
		}
		w.mu.Unlock()
		if satisfied {
			w.advance(snap)
			return true
		}
	}

	deltaIns, err := query.BindInstanceRows(s, func(name string) ([][]Value, int, bool) {
		nd, ok := snap.names[name]
		if !ok {
			return nil, 0, false
		}
		return nd.rows, nd.arity, true
	})
	if err != nil {
		w.fail(err)
		return false
	}
	// Extend the maintained full instance first: semi-naive needs full
	// NEW extensions at the non-delta atoms.
	for i, d := range deltaIns.Relations {
		w.ins.Relations[i].InsertAll(d)
	}
	round, err := incr.Maintain(w.ctx, w.exec, w.p, s, w.ins, deltaIns.Relations)
	if err != nil {
		w.fail(err)
		return false
	}

	w.mu.Lock()
	var fresh *relation.Relation
	if round.Delta != nil {
		if w.mat == nil {
			w.mat = relation.New("watch", round.Delta.Attrs())
		}
		for row := range round.Delta.All() {
			if w.mat.Insert(row) {
				if fresh == nil {
					fresh = relation.New("Δwatch", round.Delta.Attrs())
				}
				fresh.Insert(row)
			}
		}
	}
	ok := w.ok || round.NonEmpty
	if w.mat != nil {
		ok = w.mat.Size() > 0
	}
	okChanged := ok != w.ok
	w.ok, w.tick = ok, snap.tick
	w.stats.IncrRounds++
	if fresh != nil || okChanged {
		w.sendLocked(WatchDelta{Tick: snap.tick, OK: ok, Rows: sortedRows(fresh)})
	}
	w.mu.Unlock()
	w.advance(snap)
	return true
}

// advance moves the maintainer's bookkeeping past a processed snapshot.
func (w *Watch) advance(snap watchSnap) {
	for name, nd := range snap.names {
		w.lastPtrs[name] = nd.ptr
	}
	w.tickSeen = snap.tick
	w.mu.Lock()
	if snap.tick > w.tick {
		w.tick = snap.tick
	}
	w.mu.Unlock()
}

// sendLocked delivers a delta with bounded-queue overflow semantics: when
// the channel is full, the oldest undelivered delta is evicted and the
// emission is upgraded to a resync carrying the complete current state, so a
// consumer never observes a gap it cannot recover from. The maintainer is
// the only sender, so one eviction always frees a slot and no channel
// operation here blocks. The caller holds w.mu — the same hold that
// published the round's state and tick, which is what makes Tick's ordering
// contract hold.
func (w *Watch) sendLocked(d WatchDelta) {
	for {
		select {
		case w.deltas <- d:
			w.stats.DeltasEmitted++
			return
		default:
		}
		select {
		case <-w.deltas:
		default:
		}
		if !d.Resync {
			d = WatchDelta{Tick: d.Tick, OK: w.ok, Resync: true, Rows: sortedRows(w.mat), Tables: w.tables}
		}
		w.stats.Resyncs++
	}
}
