package plan

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"panda/internal/bitset"
	"panda/internal/flow"
	"panda/internal/query"
)

// TestPlannerHitSkipsLP: the second Prepare of an identical query must be a
// cache hit with zero additional LP solves — the acceptance criterion of
// the prepared-query subsystem.
func TestPlannerHitSkipsLP(t *testing.T) {
	pl := NewPlanner(8)
	q, cons := cycleQuery(4, nil, nil, 100)
	if _, err := pl.Prepare(q, cons, ModeFhtw); err != nil {
		t.Fatal(err)
	}
	st := pl.Stats()
	if st.Misses != 1 || st.Hits != 0 || st.LPSolves == 0 {
		t.Fatalf("after first Prepare: %v", st)
	}
	solved := st.LPSolves
	p2, err := pl.Prepare(q, cons, ModeFhtw)
	if err != nil {
		t.Fatal(err)
	}
	st = pl.Stats()
	if st.Hits != 1 {
		t.Fatalf("second Prepare was not a hit: %v", st)
	}
	if st.LPSolves != solved {
		t.Fatalf("cache hit ran %d LP solves", st.LPSolves-solved)
	}
	if p2 == nil || p2.Width == nil || len(p2.Rules) == 0 {
		t.Fatal("hit returned a hollow plan")
	}
}

// TestLPSolvesSavedAccounting: every hit credits the LP cost the entry's
// original build paid, so a server's ops surface can read off what the
// cache is worth in solver work.
func TestLPSolvesSavedAccounting(t *testing.T) {
	pl := NewPlanner(8)
	q, cons := cycleQuery(4, nil, nil, 100)
	if _, err := pl.Prepare(q, cons, ModeSubw); err != nil {
		t.Fatal(err)
	}
	st := pl.Stats()
	if st.LPSolvesSaved != 0 {
		t.Fatalf("build credited savings: %v", st)
	}
	cost := st.LPSolves
	if cost == 0 {
		t.Fatal("build reported zero LP solves")
	}
	const hits = 3
	for i := 0; i < hits; i++ {
		if _, err := pl.Prepare(q, cons, ModeSubw); err != nil {
			t.Fatal(err)
		}
	}
	st = pl.Stats()
	if st.Hits != hits || st.LPSolvesSaved != hits*cost {
		t.Fatalf("after %d hits: saved %d, want %d (%v)", hits, st.LPSolvesSaved, hits*cost, st)
	}
}

// TestPlannerRenamedHit: a variable-renamed query must hit the cache and
// come back rebound to its own variable space.
func TestPlannerRenamedHit(t *testing.T) {
	pl := NewPlanner(8)
	q1, c1 := cycleQuery(4, nil, nil, 100)
	p1, err := pl.Prepare(q1, c1, ModeSubw)
	if err != nil {
		t.Fatal(err)
	}
	q2, c2 := cycleQuery(4, []int{2, 0, 3, 1}, []int{1, 3, 0, 2}, 100)
	p2, err := pl.Prepare(q2, c2, ModeSubw)
	if err != nil {
		t.Fatal(err)
	}
	st := pl.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("renamed query missed: %v", st)
	}
	if p1.Width.Cmp(p2.Width) != 0 {
		t.Fatalf("widths diverge: %v vs %v", p1.Width, p2.Width)
	}
	// The rebound plan must live in q2's space: every rule target and bag
	// is a union of q2 atom variable sets, and guards index q2's atoms.
	for _, r := range p2.Rules {
		for _, b := range r.Targets {
			covered := b
			for _, a := range q2.Atoms {
				covered = covered.Minus(a.Vars)
			}
			if covered != 0 {
				t.Fatalf("target %v outside q2's atom universe", b)
			}
		}
	}
	for _, c := range p2.Cons {
		if c.Guard < 0 || c.Guard >= len(q2.Atoms) || !c.Y.SubsetOf(q2.Atoms[c.Guard].Vars) {
			t.Fatalf("rebound constraint %+v has an invalid guard", c)
		}
	}
	if len(p2.Schema.Atoms) != len(q2.Atoms) {
		t.Fatal("rebound schema lost atoms")
	}
	for i, a := range p2.Schema.Atoms {
		if a.Name != q2.Atoms[i].Name || a.Vars != q2.Atoms[i].Vars {
			t.Fatalf("rebound schema atom %d is %+v, want %+v", i, a, q2.Atoms[i])
		}
	}
}

// TestEqualKeysEqualCertificates pins what one key promises. Two planners
// fed renamed spellings of a shape, with cardinality 8+3j on atom j, cache
// their plans under one key, and the cached canonical plans certify one
// width. They need not be one plan: each planner builds in its caller's
// variable space, so bag, rule and proof order may differ, and fhtw's
// min-max takes the first decomposition of least width in that space (on
// the 4-cycle the two planners pick different ones, with different bag
// bounds). Outside fhtw the rule bounds agree as a multiset.
func TestEqualKeysEqualCertificates(t *testing.T) {
	ctx := context.Background()
	for _, src := range []string{
		"Q(A,B,C) :- R(A,B), S(B,C), T(A,C).",
		"Q() :- R(A,B), S(B,C), T(A,C).",
		"Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D), U(D,A).",
		"Q() :- R(A,B), S(B,C), T(C,D), U(D,A).",
		"Q(A,D) :- R(A,B), S(B,C), T(C,D).",
		"T1(A,B,C) v T2(B,C,D) :- R(A,B), S(B,C), T(C,D).",
	} {
		pr, err := query.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		s, heads, modes := &pr.Rule.Schema, pr.Rule.Targets, []Mode{ModeRule}
		if pr.Conj != nil {
			s, heads, modes = &pr.Conj.Schema, []bitset.Set{pr.Conj.Free}, []Mode{ModeAuto, ModeFhtw, ModeSubw}
		}
		var cons []query.DegreeConstraint
		for j, a := range s.Atoms {
			cons = append(cons, query.Cardinality(a.Vars, int64(8+3*j), j))
		}
		rs, rheads, rcons := renameInput(s, heads, cons)
		for _, mode := range modes {
			pa, pb := NewPlanner(2), NewPlanner(2)
			a, err := pa.prepare(ctx, s, heads, cons, mode)
			if err != nil {
				t.Fatal(err)
			}
			b, err := pb.prepare(ctx, rs, rheads, rcons, mode)
			if err != nil {
				t.Fatal(err)
			}
			if a.Key != b.Key {
				t.Fatalf("%s under %v: renamed spellings keyed %q and %q", src, mode, a.Key, b.Key)
			}
			ca, cb := pa.index[a.Key].Value.(*entry).plan, pb.index[b.Key].Value.(*entry).plan
			if ca.Width.Cmp(cb.Width) != 0 {
				t.Errorf("%s under %v: one key, widths %v and %v", src, mode, ca.Width, cb.Width)
			}
			if ba, bb := ruleBounds(ca), ruleBounds(cb); mode != ModeFhtw && !slices.Equal(ba, bb) {
				t.Errorf("%s under %v: one key, rule bounds %v and %v", src, mode, ba, bb)
			}
		}
	}
}

// ruleBounds is the sorted multiset of p's rule bounds.
func ruleBounds(p *Plan) []string {
	var out []string
	for _, r := range p.Rules {
		out = append(out, r.Bound.RatString())
	}
	slices.Sort(out)
	return out
}

// TestPlannerRuleHit: a disjunctive rule goes through the same cache as a
// conjunctive query. The first sighting pays its one LP solve; the same
// rule, and a renamed/reordered spelling of it, are hits rebound into the
// caller's space.
func TestPlannerRuleHit(t *testing.T) {
	ctx := context.Background()
	pl := NewPlanner(8)
	r, cons := pathRule(nil, nil, false, 100)
	first, err := pl.PrepareRuleContext(ctx, r, cons)
	if err != nil {
		t.Fatal(err)
	}
	direct, bs, err := PrepareRule(&r.Schema, cons, r.Targets)
	if err != nil {
		t.Fatal(err)
	}
	if st := pl.Stats(); st.Misses != 1 || st.PlansBuilt != 1 || st.LPSolves != uint64(bs.LPSolves) || bs.LPSolves != 1 {
		t.Fatalf("first sighting: %v (direct build: %d LP solves)", st, bs.LPSolves)
	}
	if first.Mode != ModeRule || len(first.Rules) != 1 || first.Key == "" || first.Width.Cmp(direct.Bound) != 0 {
		t.Fatalf("rule plan: mode %v, %d rules, key %q, width %v (direct bound %v)", first.Mode, len(first.Rules), first.Key, first.Width, direct.Bound)
	}
	if _, err := pl.PrepareRuleContext(ctx, r, cons); err != nil {
		t.Fatal(err)
	}
	rr, rcons := pathRule([]int{2, 0, 3, 1}, []int{2, 0, 1}, true, 100)
	renamed, err := pl.PrepareRuleContext(ctx, rr, rcons)
	if err != nil {
		t.Fatal(err)
	}
	if st := pl.Stats(); st.Hits != 2 || st.PlansBuilt != 1 || st.LPSolves != 1 || st.LPSolvesSaved != 2 {
		t.Fatalf("repeat and renamed rule were not free hits: %v", st)
	}
	// The hit is in the renamed caller's space: its targets (as a set — the
	// cached plan keeps the first spelling's order), its atoms, its guards.
	got := slices.Clone(renamed.Rules[0].Targets)
	want := slices.Clone(rr.Targets)
	slices.Sort(got)
	slices.Sort(want)
	if renamed.Key != first.Key || !slices.Equal(got, want) {
		t.Fatalf("renamed hit has targets %v, want %v (key match %t)", got, want, renamed.Key == first.Key)
	}
	for i, c := range renamed.Cons {
		if !c.Y.SubsetOf(renamed.Schema.Atoms[c.Guard].Vars) || renamed.Schema.Atoms[c.Guard].Name != rr.Atoms[c.Guard].Name {
			t.Fatalf("rebound constraint %d is not guarded by the caller's atom: %+v", i, c)
		}
	}
}

// TestPlannerRepeatedReorderedHit: a reordered query hits the shared
// canonical entry, on its first sighting and on a repeat of the same text
// alike; every rebind must be valid in the caller's space and one plan is
// built.
func TestPlannerRepeatedReorderedHit(t *testing.T) {
	pl := NewPlanner(8)
	q1, c1 := cycleQuery(4, nil, nil, 100)
	q2, c2 := cycleQuery(4, nil, []int{2, 0, 3, 1}, 100)
	if _, err := pl.Prepare(q1, c1, ModeFhtw); err != nil {
		t.Fatal(err)
	}
	check := func(p *Plan) {
		t.Helper()
		for _, c := range p.Cons {
			if c.Guard < 0 || c.Guard >= len(q2.Atoms) || !c.Y.SubsetOf(q2.Atoms[c.Guard].Vars) {
				t.Fatalf("rebound constraint %+v invalid for q2", c)
			}
		}
	}
	for range 2 {
		p2, err := pl.Prepare(q2, c2, ModeFhtw)
		if err != nil {
			t.Fatal(err)
		}
		check(p2)
	}
	if st := pl.Stats(); st.Hits != 2 || st.Misses != 1 || st.PlansBuilt != 1 {
		t.Fatalf("expected 2 hits / 1 miss / 1 plan built, got %v", st)
	}
}

// TestPlannerLRUEviction: the least recently used plan is evicted first, and
// touching a plan refreshes it.
func TestPlannerLRUEviction(t *testing.T) {
	pl := NewPlanner(2)
	mk := func(card int64) (string, error) {
		q, cons := cycleQuery(3, nil, nil, card)
		p, err := pl.Prepare(q, cons, ModeFull)
		if err != nil {
			return "", err
		}
		return p.Key, nil
	}
	kA, err := mk(4)
	if err != nil {
		t.Fatal(err)
	}
	kB, err := mk(8)
	if err != nil {
		t.Fatal(err)
	}
	// Touch A so B becomes least recently used.
	if _, err := mk(4); err != nil {
		t.Fatal(err)
	}
	kC, err := mk(16)
	if err != nil {
		t.Fatal(err)
	}
	keys := pl.Keys()
	if len(keys) != 2 || keys[0] != kC || keys[1] != kA {
		t.Fatalf("LRU order %v, want [C=%s A=%s]", keys, kC, kA)
	}
	st := pl.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	// B was evicted: preparing it again must miss.
	misses := st.Misses
	if _, err := mk(8); err != nil {
		t.Fatal(err)
	}
	if got := pl.Stats().Misses; got != misses+1 {
		t.Fatalf("evicted plan did not miss (misses %d → %d)", misses, got)
	}
	if pl.Len() != 2 {
		t.Fatalf("cache holds %d plans, want 2", pl.Len())
	}
	_ = kB
}

// TestPlannerConcurrent hammers one planner from many goroutines mixing
// repeated and distinct queries; run with -race.
func TestPlannerConcurrent(t *testing.T) {
	pl := NewPlanner(4)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				card := int64(4 << uint(i%3)) // three distinct signatures
				q, cons := cycleQuery(4, nil, nil, card)
				p, err := pl.Prepare(q, cons, ModeFhtw)
				if err != nil {
					errs <- err
					return
				}
				if p.Width == nil || len(p.Rules) == 0 {
					errs <- fmt.Errorf("goroutine %d got hollow plan", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := pl.Stats()
	if st.Hits+st.Misses != 64 {
		t.Fatalf("hits+misses = %d, want 64 (%v)", st.Hits+st.Misses, st)
	}
	if st.Misses < 3 {
		t.Fatalf("expected at least 3 misses for 3 signatures: %v", st)
	}
}

// herd drives the single-flight tests: it holds the first build of a planner
// open inside the buildStarted hook, so every other first-sighter of the
// shape is provably parked behind it before the test lets anything proceed.
type herd struct {
	pl      *Planner
	started chan string   // one send per build that starts
	release chan struct{} // close to let the held (first) build run
}

func newHerd() *herd {
	h := &herd{pl: NewPlanner(8), started: make(chan string, 64), release: make(chan struct{})}
	first := true // only ever touched on a leader's goroutine, one leader at a time per key
	h.pl.buildStarted = func(key string) {
		h.started <- key
		if first {
			first = false
			<-h.release
		}
	}
	return h
}

// awaitWaiters blocks until n calls are parked on key's in-flight build.
func (h *herd) awaitWaiters(t *testing.T, key string, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		h.pl.mu.Lock()
		b := h.pl.building[key]
		parked := b != nil && b.waiters == n
		h.pl.mu.Unlock()
		if parked {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d parked waiters", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// prepareAsync runs one Prepare on its own goroutine and delivers its error.
func (h *herd) prepareAsync(ctx context.Context, q *query.Conjunctive, cons []query.DegreeConstraint) <-chan error {
	return h.async(func() error {
		_, err := h.pl.PrepareContext(ctx, q, cons, ModeFhtw)
		return err
	})
}

// async runs one planner call on its own goroutine and delivers its error.
func (h *herd) async(call func() error) <-chan error {
	done := make(chan error, 1)
	go func() { done <- call() }()
	return done
}

// TestPlannerSingleFlight forces a herd of first sightings of one shape —
// a conjunctive query, and a disjunctive rule: the leader's build is held
// open until every follower is parked behind it, then released. One build,
// one miss, N−1 hits — and a follower cancelled mid-wait gets its own
// ctx.Err() without disturbing anyone else.
func TestPlannerSingleFlight(t *testing.T) {
	// perm(i) is the i-th renaming the followers arrive under: the flight
	// is per signature, not per text.
	perm := func(i int) []int { return []int{i % 4, (i + 1) % 4, (i + 2) % 4, (i + 3) % 4} }
	t.Run("query", func(t *testing.T) {
		testSingleFlight(t, func(pl *Planner, ctx context.Context, i int) error {
			q, cons := cycleQuery(4, perm(i), nil, 100)
			_, err := pl.PrepareContext(ctx, q, cons, ModeFhtw)
			return err
		})
	})
	t.Run("rule", func(t *testing.T) {
		testSingleFlight(t, func(pl *Planner, ctx context.Context, i int) error {
			r, cons := pathRule(perm(i), nil, i%2 == 1, 100)
			_, err := pl.PrepareRuleContext(ctx, r, cons)
			return err
		})
	})
}

// testSingleFlight drives the herd with prepare(pl, ctx, i), the i-th
// spelling of one shape.
func testSingleFlight(t *testing.T, prepare func(pl *Planner, ctx context.Context, i int) error) {
	const followers = 7
	h := newHerd()
	leader := h.async(func() error { return prepare(h.pl, context.Background(), 0) })
	key := <-h.started

	ctx, cancel := context.WithCancel(context.Background())
	quitter := h.async(func() error { return prepare(h.pl, ctx, 0) })
	var rest []<-chan error
	for i := 0; i < followers; i++ {
		rest = append(rest, h.async(func() error { return prepare(h.pl, context.Background(), i) }))
	}
	h.awaitWaiters(t, key, followers+1)
	cancel()
	if err := <-quitter; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
	}
	select {
	case err := <-leader:
		t.Fatalf("leader finished while its build was held open: %v", err)
	default:
	}
	close(h.release)
	if err := <-leader; err != nil {
		t.Fatalf("leader: %v", err)
	}
	for i, ch := range rest {
		if err := <-ch; err != nil {
			t.Fatalf("follower %d: %v", i, err)
		}
	}
	st := h.pl.Stats()
	if st.PlansBuilt != 1 || st.Misses != 1 || st.Hits != followers {
		t.Fatalf("herd of %d: %v, want one build, one miss, %d hits", followers+1, st, followers)
	}
	if len(h.started) != 0 {
		t.Fatalf("%d extra builds started", len(h.started))
	}
}

// TestPlannerCancelledLeaderHandsOver: a leader whose context dies does not
// poison the flight — its followers elect a new leader among themselves and
// all succeed, still with exactly one installed build.
func TestPlannerCancelledLeaderHandsOver(t *testing.T) {
	const followers = 5
	h := newHerd()
	q, cons := cycleQuery(4, nil, nil, 100)
	ctx, cancel := context.WithCancel(context.Background())
	leader := h.prepareAsync(ctx, q, cons)
	key := <-h.started
	var rest []<-chan error
	for i := 0; i < followers; i++ {
		rest = append(rest, h.prepareAsync(context.Background(), q, cons))
	}
	h.awaitWaiters(t, key, followers)
	cancel()
	close(h.release)
	if err := <-leader; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled leader returned %v, want context.Canceled", err)
	}
	for i, ch := range rest {
		if err := <-ch; err != nil {
			t.Fatalf("follower %d failed behind a cancelled leader: %v", i, err)
		}
	}
	st := h.pl.Stats()
	if st.PlansBuilt != 1 || st.Misses != 1 || st.Hits != followers-1 {
		t.Fatalf("after hand-over: %v, want one build, one miss, %d hits", st, followers-1)
	}
	if got := len(h.started); got != 1 {
		t.Fatalf("%d builds started after the cancelled one, want 1", got)
	}
}

// TestPlannerFailedBuildIsShared: a planning failure is a property of the
// signature, not of the caller, so the herd behind a failing leader gets
// its error instead of re-running the doomed build one by one.
func TestPlannerFailedBuildIsShared(t *testing.T) {
	const followers = 4
	h := newHerd()
	q, _ := cycleQuery(4, nil, nil, 100) // no cardinalities: the LP is unbounded
	leader := h.prepareAsync(context.Background(), q, nil)
	key := <-h.started
	var rest []<-chan error
	for i := 0; i < followers; i++ {
		rest = append(rest, h.prepareAsync(context.Background(), q, nil))
	}
	h.awaitWaiters(t, key, followers)
	close(h.release)
	for i, ch := range append(rest, leader) {
		if err := <-ch; !errors.Is(err, flow.ErrUnbounded) {
			t.Fatalf("call %d returned %v, want flow.ErrUnbounded", i, err)
		}
	}
	if len(h.started) != 0 {
		t.Fatalf("%d followers re-ran the failed build", len(h.started))
	}
	if st := h.pl.Stats(); st != (Stats{}) {
		t.Fatalf("a failed build moved the counters: %v", st)
	}
}
