package panda

import (
	"context"
	"errors"
	"sync"

	"panda/internal/plan"
	"panda/internal/relation"
)

// Standing queries: a Watch is a statement's memo with a subscriber. It keeps
// one answer current as the catalog mutates and pushes row-deltas to a
// subscription channel. The plan is prepared once when the watch opens and
// pinned — every maintenance round executes that same plan with zero planning
// work, so a server full of hot watches performs no LP solves after warm-up.
// A round is the step a Stmt's Query takes (Stmt.bind, then Stmt.refresh):
// one read of the catalog and, from the same lock hold, the rows that arrived
// since the previous round, with the declared constraints checked against the
// catalog; a wakeup whose write touched no relation the statement reads binds
// nothing. Insert-only growth is maintained semi-naively over that delta; a
// drop+recreate of a referenced relation stamps a newer creation tick, so the
// round after it re-executes in full and replaces the materialization
// (emitted with Resync set). Disjunctive rules are not monotone under inserts
// — a new body tuple may shift which target covers existing tuples — so a
// rule watch asks for no delta, re-executes its pinned plan in full every
// round, and every emission carries the complete model with Resync set.
// Between rounds a watch holds its materialization, its pinned plan and the
// creation tick of the relation each atom read — no copy of what it reads.

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
// A round that finds the catalog violating a declared constraint ends the
// watch: Deltas closes and Err wraps the error db.Query reports for the same
// text. A Watch is safe for concurrent use.
type Watch struct {
	db  *DB
	st  *Stmt
	p   *plan.Plan // pinned at open
	cfg config

	deltas  chan WatchDelta
	done    chan struct{}
	ctx     context.Context // cancelled by Close alone
	cancel  context.CancelFunc
	watchID uint64

	// mat is the relation a conjunctive watch grows round by round (nil for
	// a Boolean query or a rule). Only the maintainer touches it; readers get
	// capacity-capped snapshots of it, which its appends never write into.
	mat *relation.Relation

	// Shared state, guarded by mu. The maintainer is its only writer, so it
	// reads memo without the lock.
	mu    sync.Mutex
	memo  *memo // the published answer; its Rel is a snapshot of mat
	err   error
	stats WatchStats
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
	p, err := st.db.prepare(context.Background(), st.res.Conj, st.res.Rule, b.ins, st.res.Constraints, cfg)
	if err != nil {
		return nil, err
	}
	m, _, err := st.refresh(context.Background(), nil, b, cfg, p)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	w := &Watch{
		db:      st.db,
		st:      st,
		p:       p,
		cfg:     cfg,
		deltas:  make(chan WatchDelta, queue),
		done:    make(chan struct{}),
		ctx:     ctx,
		cancel:  cancel,
		watchID: id,
	}
	w.own(m)
	w.memo = m
	started = true
	go w.loop(wake)
	return w, nil
}

// Deltas is the subscription channel. It is closed when the watch
// terminates (Close, DB.Close, or a maintenance error — see Err).
func (w *Watch) Deltas() <-chan WatchDelta { return w.deltas }

// Result returns the current materialized result. It is a snapshot view, not
// a copy: its Rel shares the watch's row storage up to the rows it holds,
// and stays stable while maintenance appends past them. Stats and Timings
// are those of the round that produced it, as for a Stmt's memo hit. The
// caller must not write to it.
func (w *Watch) Result() *Result {
	res, _ := w.Snapshot()
	return res
}

// Snapshot returns the current materialized result (see Result) together
// with the catalog tick it reflects; a consumer that applies every delta
// with Tick greater than the snapshot tick reconstructs the live state.
// State, tick and the round's delta are published together (see Tick), so
// no delta with a greater tick was enqueued before the snapshot was taken.
func (w *Watch) Snapshot() (*Result, uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.memo.res, w.memo.tick
}

// Tick reports the catalog tick the materialization currently reflects.
// A maintenance round publishes its state, its tick and its delta under one
// lock hold, so the order is a contract: once Tick() ≥ t, every delta with
// Tick ≤ t is already in the Deltas channel (or was evicted from a full
// queue into a later resync) and Result reflects at least tick t.
func (w *Watch) Tick() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.memo.tick
}

// Stats snapshots the watch's maintenance counters.
func (w *Watch) Stats() WatchStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// Err reports why the watch terminated: nil after a clean Close (or
// while still running), ErrClosed when the session was closed underneath
// it, or the maintenance error that killed it — a violated declared
// constraint among them. Meaningful once Deltas is closed.
func (w *Watch) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Close stops the maintainer, waits for it to finish, and closes the
// delta channel. Closing twice is a no-op.
func (w *Watch) Close() error {
	w.cancel()
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
		case <-w.ctx.Done():
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
	if w.ctx.Err() != nil {
		return
	}
	w.mu.Lock()
	w.err = err
	w.mu.Unlock()
}

// own makes a fully executed answer the watch's: its output relation becomes
// the one the maintainer grows, and the answer reads a snapshot of it.
func (w *Watch) own(m *memo) {
	w.mat = m.res.Rel
	if w.mat != nil {
		m.res.Rel = w.mat.Snapshot(w.mat.Name)
	}
}

// round processes one wakeup with one read of the catalog; it returns false
// when the watch must terminate. A wakeup by a write to a relation the watch
// does not read is told apart by the schema tick alone, before anything is
// bound (a recreate stamps a newer tick, so it is never mistaken for one).
func (w *Watch) round() bool {
	old := w.memo
	tick, err := w.db.schemaTick(&w.st.res.Rule.Schema)
	if err == nil && tick == old.tick {
		return true // coalesced, spurious or unrelated wakeup; nothing new
	}
	var since *uint64
	if w.p.Mode != ModeRule { // a rule round re-executes in full: no delta to bind
		since = &old.tick
	}
	b, err := w.st.bind(since)
	if errors.Is(err, ErrUnknownRelation) {
		// A referenced relation is gone. Queries would fail now, but the
		// drop may be the first half of a drop+recreate reload: keep the
		// last materialization. The recreate stamps a newer tick and
		// creation tick, so the round it wakes re-executes in full.
		return true
	}
	if err != nil {
		w.fail(err)
		return false
	}
	m, round, err := w.st.refresh(w.ctx, old, b, w.cfg, w.p)
	if err != nil {
		w.fail(err)
		return false
	}
	d := WatchDelta{Tick: m.tick, OK: m.res.OK}
	if round == nil {
		// A full execution replaces the materialization; the consumer
		// replaces its state too.
		w.own(m)
		d.Resync, d.Rows, d.Tables = true, sortedRows(m.res.Rel), m.res.Tables
	} else if round.Delta != nil {
		// Merge the round into the materialization in place: the rows it
		// appends are the genuinely new ones.
		n := w.mat.Size()
		w.mat.InsertAll(round.Delta)
		if w.mat.Size() > n {
			d.Rows = sortedRows(w.mat.SnapshotFrom(w.mat.Name, n))
			m.res.Rel = w.mat.Snapshot(w.mat.Name)
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.memo = m
	if round == nil {
		w.stats.FullRounds++
	} else {
		w.stats.IncrRounds++
	}
	if d.Resync || d.Rows != nil || d.OK != old.res.OK {
		w.sendLocked(d)
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
			res := w.memo.res
			d = WatchDelta{Tick: d.Tick, OK: res.OK, Resync: true, Rows: sortedRows(res.Rel), Tables: res.Tables}
		}
	}
}
