package panda

import (
	"context"
	"errors"
	"math/big"
	"slices"
	"sync"

	"panda/internal/core"
	"panda/internal/incr"
	"panda/internal/plan"
	"panda/internal/relation"
)

// Standing queries: a Watch owns a materialized result for one statement
// and keeps it current as the catalog mutates, pushing row-deltas to a
// subscription channel. The plan is prepared once when the watch opens and
// pinned — every maintenance round executes that same plan with zero planning
// work, so a server full of hot watches performs no LP solves after warm-up.
// A round is one statement bind (DB.bind): the catalog as it stands and, from
// the same lock hold, the rows that arrived since the previous round — each
// relation's column suffix, bound like the full instance; a wakeup whose
// write touched no relation the statement reads binds nothing. Insert-only
// growth is maintained semi-naively over that delta (incr.Advance, the step a
// Stmt's memo takes too); a drop+recreate of a referenced relation
// re-executes in full and replaces the materialization (emitted with Resync
// set). Disjunctive rules are not monotone under inserts — a new body tuple
// may shift which target covers existing tuples — so a rule watch asks for no
// delta, re-executes its pinned plan in full every round, and every emission
// carries the complete model with Resync set. Between rounds a watch holds
// its materialization, its pinned plan and one catalog pointer per atom — no
// copy of what it reads.

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
	// FullRounds counts full re-executions (rule rounds, structural
	// resyncs).
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

	// Maintainer-private state (only the loop goroutine touches these): the
	// creation tick of the catalog relation each atom last read, and whether
	// a relation went missing since.
	born       []uint64
	needResync bool

	// Shared state, guarded by mu. The maintainer is its only writer, so it
	// reads tick and ok without the lock.
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

	b, err := st.bind(nil)
	if err != nil {
		return nil, err
	}

	ctx, cancel := context.WithCancel(context.Background())
	w := &Watch{
		db:      st.db,
		st:      st,
		exec:    cfg.executor(),
		deltas:  make(chan WatchDelta, queue),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		ctx:     ctx,
		cancel:  cancel,
		watchID: id,
		born:    b.born,
		tick:    b.tick,
	}
	w.p, err = st.db.prepare(ctx, st.res.Conj, st.res.Rule, b.ins, st.res.Constraints, cfg)
	if err != nil {
		cancel()
		return nil, err
	}
	ex, err := w.exec.Execute(ctx, w.p, b.ins)
	if err != nil {
		cancel()
		return nil, err
	}
	// The executor output is freshly built; the watch owns it: the output
	// relation of a conjunctive plan or the model tables of a rule.
	w.mat, w.tables, w.ok, w.bound = ex.Out, ex.Tables, ex.NonEmpty, ex.Bound
	w.columns = columnsOf(w.p, w.mat)
	started = true
	go w.loop(wake)
	return w, nil
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

// round processes one wakeup with one read of the catalog; it returns false
// when the watch must terminate. A wakeup by a write to a relation the watch
// does not read is told apart by the schema tick alone, before anything is
// bound (a recreate stamps a newer tick, so it is never mistaken for one).
func (w *Watch) round() bool {
	s := &w.st.res.Rule.Schema
	tick, err := w.db.schemaTick(s)
	if err == nil && tick == w.tick && !w.needResync {
		return true // coalesced, spurious or unrelated wakeup; nothing new
	}
	rule := w.p.Mode == ModeRule
	var since *uint64
	if !rule { // a rule round re-executes in full: no delta to bind
		since = &w.tick
	}
	b, err := w.db.bind(s, since)
	switch {
	case errors.Is(err, ErrUnknownRelation):
		// A referenced relation is gone. Queries would fail now, but the
		// drop may be the first half of a drop+recreate reload: keep the
		// last materialization and resync when the catalog is whole again.
		w.needResync = true
		return true
	case err != nil:
		w.fail(err)
		return false
	case w.needResync || !slices.Equal(b.born, w.born):
		return w.fullRound(b)
	case rule:
		return w.fullRound(b)
	}
	return w.incrRound(b)
}

// fullRound re-executes the pinned plan from scratch over the bound catalog
// and replaces the materialization: the recovery from a drop+recreate, and
// every rule round. The emission is a resync — the consumer replaces its
// state too.
func (w *Watch) fullRound(b *binding) bool {
	if err := b.ins.Check(&w.st.res.Rule.Schema, w.st.res.Constraints); err != nil {
		w.fail(err)
		return false
	}
	ex, err := w.exec.Execute(w.ctx, w.p, b.ins)
	if err != nil {
		w.fail(err)
		return false
	}
	w.mu.Lock()
	w.mat, w.tables, w.ok, w.bound, w.tick = ex.Out, ex.Tables, ex.NonEmpty, ex.Bound, b.tick
	w.stats.FullRounds++
	w.sendLocked(WatchDelta{Tick: b.tick, OK: ex.NonEmpty, Resync: true, Rows: sortedRows(ex.Out), Tables: ex.Tables})
	w.mu.Unlock()
	w.born, w.needResync = b.born, false
	return true
}

// incrRound is the semi-naive path: advance the materialization by the
// bound delta with the pinned plan (incr.Advance, the step a Stmt's memo
// takes too), and merge the genuinely new output rows into it.
func (w *Watch) incrRound(b *binding) bool {
	round, err := incr.Advance(w.ctx, w.exec, w.p, &w.st.res.Rule.Schema, b.ins, b.delta.Relations, w.ok)
	if err != nil {
		w.fail(err)
		return false
	}

	w.mu.Lock()
	defer w.mu.Unlock()
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
	w.ok, w.tick = ok, b.tick
	w.stats.IncrRounds++
	if fresh != nil || okChanged {
		w.sendLocked(WatchDelta{Tick: b.tick, OK: ok, Rows: sortedRows(fresh)})
	}
	return true
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
			if d.Resync {
				w.stats.Resyncs++ // once per full-state emission, whatever made it one
			}
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
	}
}
