package plan

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"

	"panda/internal/bitset"
	"panda/internal/query"
)

// Stats is a snapshot of a Planner's cache and planning counters.
type Stats struct {
	Hits       uint64 // Prepare calls answered from the cache (zero LP solves)
	Misses     uint64 // Prepare calls that built a fresh plan
	Evictions  uint64 // plans dropped by the LRU policy
	LPSolves   uint64 // exact simplex solves performed across all builds
	PlansBuilt uint64 // plans constructed; always == Misses (builds are single-flighted per signature)
	// LPSolvesSaved is the cumulative count of exact simplex solves that
	// cache hits avoided: each hit adds the LP cost the entry's original
	// build paid. It is the ops-surface measure of what the cache is worth.
	LPSolvesSaved uint64
}

// DefaultCacheSize is the plan capacity of NewPlanner(0).
const DefaultCacheSize = 128

// ErrPlanRequired reports a cache miss under a ShippedOnly context: the
// caller lacks the plan and was told not to build it.
var ErrPlanRequired = errors.New("plan: plan not held")

type shippedOnlyKey struct{}

// ShippedOnly marks ctx so that a Planner answers a cache miss under it with
// ErrPlanRequired instead of planning: a fleet replica serves shipped plans
// and says which one it lacks, so the planning tier builds each plan once.
func ShippedOnly(ctx context.Context) context.Context {
	return context.WithValue(ctx, shippedOnlyKey{}, true)
}

// Planner prepares plans — for conjunctive queries and for disjunctive
// rules alike — through a concurrency-safe bounded cache keyed by the
// canonical signature of (query shape, free variables or rule targets,
// constraint set, mode). A hit performs no LP solves and no proof
// construction — the cached canonical plan is rebound to the caller's
// variable space, which is pure bookkeeping. The signature index is the
// only map keyed by query identity: every Prepare canonicalizes (see
// canonicalize; microseconds for the shapes in this tree) and a hit takes
// the lock once.
//
// Builds are single-flighted per signature: concurrent first sightings of
// one shape elect a leader that pays the LP solves, the rest wait (each
// under its own context) and are answered from the installed entry as
// hits. A leader that is cancelled or fails hands the build to the next
// waiter, so one plan is built per shape however the herd is scheduled. A
// call under a ShippedOnly context elects no leader: its miss answers
// ErrPlanRequired.
//
// Eviction is plain LRU: a hit, a fresh build or an import puts the entry at
// the front of one list, and the entry at the back goes when the cache is
// over capacity. One map, no clocks: the planner counts no installs and ages
// no entries, because a plan's signature is its only name — in the cache, in
// a snapshot and on the wire (SavePlan ships the entry under a key).
type Planner struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List               // front = most recently used
	index map[string]*list.Element // canonical Key → element; value is *entry
	// building holds the in-flight build of each signature key being
	// planned right now; an entry lives from the index miss that elected
	// its leader until that leader installs the plan or gives up.
	building map[string]*build
	stats    Stats

	// buildStarted, when set, runs on the leader's goroutine after it has
	// claimed a signature and before it plans; tests use it to hold a build
	// open so the herd behind it is forced rather than hoped for.
	buildStarted func(key string)
}

// build is one in-flight planning run. done is closed when the leader
// finishes either way; err is then the planning failure every waiter shares
// (planning is a function of the key alone), or nil when the plan was
// installed or the leader merely gave up on its own context.
type build struct {
	done    chan struct{}
	err     error
	waiters int // calls parked on done (guarded by Planner.mu); tests wait on it to know the herd has formed
}

// entry is one cached plan; it is immutable once installed.
type entry struct {
	key    string
	plan   *Plan  // canonical space
	lpCost uint64 // LP solves the original build paid; credited per hit
}

// NewPlanner returns a Planner whose cache holds up to capacity plans
// (DefaultCacheSize when capacity ≤ 0).
func NewPlanner(capacity int) *Planner {
	if capacity <= 0 {
		capacity = DefaultCacheSize
	}
	return &Planner{
		cap:      capacity,
		ll:       list.New(),
		index:    map[string]*list.Element{},
		building: map[string]*build{},
	}
}

// evictOverCap drops the least recently used entries beyond capacity. Caller
// holds pl.mu.
func (pl *Planner) evictOverCap() {
	for pl.ll.Len() > pl.cap {
		ent := pl.ll.Remove(pl.ll.Back()).(*entry)
		delete(pl.index, ent.key)
		pl.stats.Evictions++
	}
}

// Prepare returns a plan for q under cons: the cached plan of q's canonical
// signature, built from the canonical spelling on the first sighting of the
// shape, so every spelling of one shape runs one plan. The returned plan is
// always in the caller's variable space and safe for concurrent Execute
// calls.
func (pl *Planner) Prepare(q *query.Conjunctive, cons []query.DegreeConstraint, mode Mode) (*Plan, error) {
	return pl.PrepareContext(context.Background(), q, cons, mode)
}

// PrepareContext is Prepare honoring ctx: a cache hit never blocks on it,
// but a miss threads the context into the underlying planning phase so its
// LP solves can be abandoned when the caller goes away.
func (pl *Planner) PrepareContext(ctx context.Context, q *query.Conjunctive, cons []query.DegreeConstraint, mode Mode) (*Plan, error) {
	return pl.prepare(ctx, &q.Schema, []bitset.Set{q.Free}, cons, ResolveMode(q, mode))
}

// PrepareRuleContext is PrepareContext for a disjunctive rule: the same
// cache, single-flight and rebind, under ModeRule. The constraint set must
// be complete (see PrepareRule). The returned plan carries the rule as
// Rules[0] and its polymatroid bound as Width.
func (pl *Planner) PrepareRuleContext(ctx context.Context, r *query.Disjunctive, cons []query.DegreeConstraint) (*Plan, error) {
	return pl.prepare(ctx, &r.Schema, r.Targets, cons, ModeRule)
}

// prepare is prepareDirect through the cache. heads is the free set of a
// conjunctive query or the targets of a rule (mode == ModeRule); mode is
// resolved.
func (pl *Planner) prepare(ctx context.Context, s *query.Schema, heads []bitset.Set, cons []query.DegreeConstraint, mode Mode) (*Plan, error) {
	ctx, sig, err := front(ctx, s, heads, cons, mode)
	if err != nil {
		return nil, err
	}
	for {
		pl.mu.Lock()
		if el, ok := pl.index[sig.Key]; ok {
			cached := pl.hit(el)
			pl.mu.Unlock()
			return cached.fromCanonical(sig, s), nil
		}
		if ctx.Value(shippedOnlyKey{}) != nil {
			pl.mu.Unlock()
			return nil, ErrPlanRequired
		}
		b, inflight := pl.building[sig.Key]
		if !inflight {
			// Claim the build under the same lock hold as the index miss, so
			// no second first-sighter can slip in between.
			b = &build{done: make(chan struct{})}
			pl.building[sig.Key] = b
			pl.mu.Unlock()
			return pl.lead(ctx, b, sig, s, heads, cons, mode)
		}
		b.waiters++
		pl.mu.Unlock()
		select {
		case <-b.done:
			if b.err != nil {
				return nil, b.err
			}
			// Installed (the next pass hits it) or abandoned (the next pass
			// elects a new leader, possibly this call).
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// hit records a cache hit on el and returns its canonical plan; caller
// holds pl.mu.
func (pl *Planner) hit(el *list.Element) *Plan {
	pl.ll.MoveToFront(el)
	ent := el.Value.(*entry)
	pl.stats.Hits++
	pl.stats.LPSolvesSaved += ent.lpCost
	return ent.plan
}

// lead runs the planning phase on the canonical input of sig as the elected
// leader of b, installs the plan and returns it rebound by fromCanonical, as
// a hit would. However it ends — installed, failed, cancelled, or a panic
// unwinding through it — the claim is released and the waiters are woken.
func (pl *Planner) lead(ctx context.Context, b *build, sig *Signature, s *query.Schema, heads []bitset.Set, cons []query.DegreeConstraint, mode Mode) (*Plan, error) {
	defer func() {
		pl.mu.Lock()
		delete(pl.building, sig.Key)
		pl.mu.Unlock()
		close(b.done)
	}()
	if pl.buildStarted != nil {
		pl.buildStarted(sig.Key)
	}
	canon, bs, err := planCanonical(ctx, sig, s, heads, cons, mode)
	if err != nil {
		if ctx.Err() == nil {
			b.err = err
		}
		return nil, err
	}
	canon.Key = sig.Key
	cost := uint64(bs.LPSolves)
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.stats.Misses++
	pl.stats.PlansBuilt++
	pl.stats.LPSolves += cost
	if _, imported := pl.index[sig.Key]; !imported { // a LoadCache may have installed the key while this build ran
		pl.index[sig.Key] = pl.ll.PushFront(&entry{key: sig.Key, plan: canon, lpCost: cost})
	}
	pl.evictOverCap()
	return canon.fromCanonical(sig, s), nil
}

// Stats returns a snapshot of the planner's counters.
func (pl *Planner) Stats() Stats {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.stats
}

// Len reports how many plans the cache currently holds.
func (pl *Planner) Len() int {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.ll.Len()
}

// Keys returns the cached signature keys, most recently used first; useful
// for tests asserting the LRU eviction order.
func (pl *Planner) Keys() []string {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	out := make([]string, 0, pl.ll.Len())
	for el := pl.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*entry).key)
	}
	return out
}

func (s Stats) String() string {
	return fmt.Sprintf("hits=%d misses=%d evictions=%d lp-solves=%d lp-saved=%d plans-built=%d",
		s.Hits, s.Misses, s.Evictions, s.LPSolves, s.LPSolvesSaved, s.PlansBuilt)
}
