package plan

import (
	"encoding/json"
	"fmt"
	"io"
)

// Cache persistence: a Planner's contents — canonical-space plans keyed by
// their renaming-invariant signatures, each with the LP cost its build paid
// — can be snapshotted to a writer and re-seeded into another Planner (a
// restarted process, or a replica fed by a planning tier). The snapshot is
// an envelope of independently digested entries:
//
//	{"format": "panda-plan-cache", "version": V, "entries": [
//	  {"key": "<canonical signature>", "lp_cost": N, "digest": "…", "plan": {…}}, …]}
//
// LoadCache is deliberately forgiving: an entry with a version or digest
// mismatch, a malformed payload, or an inconsistent plan is skipped — never
// fatal — so one stale or corrupted entry cannot keep a server from warm-
// starting on the rest. Each loaded entry re-seeds its GreedyDual eviction
// priority from the recorded LP cost, so an expensive imported plan is as
// eviction-resistant as it was in the donor process, and every later cache
// hit on it credits LPSolvesSaved with that same cost.

type cacheEnvelope struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	// Clock is the exporting planner's cache clock at snapshot time. A
	// delta consumer (the router's push loop) records it as its watermark
	// and asks for "entries newer than Clock" next time; full snapshots
	// carry it too, so the first delta after a full import starts correct.
	// Absent (0) in snapshots written before the field existed.
	Clock   uint64       `json:"clock,omitempty"`
	Entries []cacheEntry `json:"entries"`
}

type cacheEntry struct {
	Key    string          `json:"key"`
	LPCost uint64          `json:"lp_cost"`
	Digest string          `json:"digest"`
	Plan   json.RawMessage `json:"plan"`
}

// CacheLoadStats reports what a LoadCache call did. FirstErr records why
// the first skipped entry was rejected (nil when nothing was skipped);
// callers that must fail loudly on any rejection — e.g. an import endpoint
// — dispatch on it with errors.Is(…, ErrCodecVersion / ErrCodecDigest).
type CacheLoadStats struct {
	// Loaded counts entries installed into the cache.
	Loaded int
	// Skipped counts entries rejected for cause: a version or digest
	// mismatch, a malformed payload, or a key/signature disagreement.
	Skipped int
	// Duplicates counts entries whose key the cache already held — benign
	// (the live plan is identical by construction) and therefore not a
	// rejection.
	Duplicates int
	// FirstErr is the rejection reason of the first skipped entry.
	FirstErr error
}

func (s CacheLoadStats) String() string {
	if s.FirstErr != nil {
		return fmt.Sprintf("loaded=%d skipped=%d duplicates=%d (first: %v)", s.Loaded, s.Skipped, s.Duplicates, s.FirstErr)
	}
	return fmt.Sprintf("loaded=%d skipped=%d duplicates=%d", s.Loaded, s.Skipped, s.Duplicates)
}

// SaveCache writes every cached plan to w, most recently used first, in the
// versioned panda-plan-cache format. The snapshot is taken atomically with
// respect to concurrent Prepare calls; the (immutable) plans are then
// encoded outside the planner lock.
func (pl *Planner) SaveCache(w io.Writer) error {
	return pl.SaveCacheSince(w, 0)
}

// SaveCacheSince writes only the entries installed after the given cache
// clock — the delta seam the fleet push loop is built on. since = 0 is a
// full snapshot. The envelope records the planner's clock as of the
// snapshot, taken atomically with the entry selection, so a consumer that
// imports the delta and remembers the envelope clock sees every entry
// exactly once across successive pulls.
func (pl *Planner) SaveCacheSince(w io.Writer, since uint64) error {
	pl.mu.Lock()
	type snap struct {
		key    string
		lpCost uint64
		plan   *Plan
	}
	snaps := make([]snap, 0, pl.ll.Len())
	for el := pl.ll.Front(); el != nil; el = el.Next() {
		ent := el.Value.(*entry)
		if ent.gen <= since {
			continue
		}
		snaps = append(snaps, snap{key: ent.key, lpCost: ent.lpCost, plan: ent.plan})
	}
	clock := pl.seq
	pl.mu.Unlock()

	env := cacheEnvelope{Format: cacheFormat, Version: FormatVersion, Clock: clock}
	for _, s := range snaps {
		wp, err := planOut(s.plan)
		if err != nil {
			return fmt.Errorf("plan: save cache entry %q: %w", s.key, err)
		}
		payload, err := json.Marshal(wp)
		if err != nil {
			return fmt.Errorf("plan: save cache entry %q: %w", s.key, err)
		}
		env.Entries = append(env.Entries, cacheEntry{
			Key:    s.key,
			LPCost: s.lpCost,
			Digest: digestOf(payload),
			Plan:   payload,
		})
	}
	return json.NewEncoder(w).Encode(&env)
}

// LoadCache reads a panda-plan-cache snapshot from r and installs its
// entries. It returns an error only when the container itself is unreadable
// (I/O failure, malformed JSON, wrong format tag); individual entries are
// skipped — with the reason recorded in the returned stats — on a version
// or digest mismatch, a malformed or inconsistent plan, or a key that
// disagrees with its plan's recorded signature. A key the cache already
// holds counts as a (benign) duplicate: live entries are never clobbered
// by an import.
func (pl *Planner) LoadCache(r io.Reader) (CacheLoadStats, error) {
	var stats CacheLoadStats
	data, err := io.ReadAll(r)
	if err != nil {
		return stats, err
	}
	var env cacheEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return stats, fmt.Errorf("plan: load cache: malformed envelope: %w", err)
	}
	if env.Format != cacheFormat {
		return stats, fmt.Errorf("plan: load cache: format %q, want %q", env.Format, cacheFormat)
	}
	skip := func(err error) {
		stats.Skipped++
		if stats.FirstErr == nil {
			stats.FirstErr = err
		}
	}
	if env.Version != FormatVersion {
		// A different format version makes the whole snapshot
		// untrustworthy; skip it all (counting at least one skip even for
		// an empty snapshot, so "nothing loaded because of a version
		// mismatch" is never mistaken for a clean no-op).
		stats.Skipped = max(1, len(env.Entries))
		stats.FirstErr = fmt.Errorf("%w: got %d, want %d", ErrCodecVersion, env.Version, FormatVersion)
		return stats, nil
	}
	type loaded struct {
		key    string
		lpCost uint64
		plan   *Plan
	}
	var plans []loaded
	for i, ent := range env.Entries {
		if digestOf(ent.Plan) != ent.Digest {
			skip(fmt.Errorf("%w (entry %d)", ErrCodecDigest, i))
			continue
		}
		var wp wirePlan
		if err := json.Unmarshal(ent.Plan, &wp); err != nil {
			skip(fmt.Errorf("plan: load cache entry %d: malformed payload: %w", i, err))
			continue
		}
		p, err := planIn(&wp)
		if err != nil {
			skip(fmt.Errorf("plan: load cache entry %d: %w", i, err))
			continue
		}
		if p.Key != ent.Key || ent.Key == "" {
			skip(fmt.Errorf("plan: load cache entry %d: key disagrees with the plan's signature", i))
			continue
		}
		plans = append(plans, loaded{key: ent.Key, lpCost: ent.LPCost, plan: p})
	}

	pl.mu.Lock()
	defer pl.mu.Unlock()
	for _, l := range plans {
		if _, dup := pl.index[l.key]; dup {
			stats.Duplicates++
			continue
		}
		// Entries arrive most recently used first; PushBack preserves that
		// order below any live entries, and the GreedyDual priority is
		// re-seeded from the recorded LP cost so an expensive imported plan
		// keeps its eviction resistance. Imports advance the cache clock
		// like fresh builds do, so a replica's own delta exports (and its
		// /v1/info plan clock) reflect pushed entries.
		pl.seq++
		el := pl.ll.PushBack(&entry{key: l.key, plan: l.plan, lpCost: l.lpCost, pri: pl.clock + l.lpCost, gen: pl.seq})
		pl.index[l.key] = el
		stats.Loaded++
	}
	pl.evictOverCap()
	return stats, nil
}
