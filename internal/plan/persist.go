package plan

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
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
// starting on the rest. Each loaded entry keeps the LP cost its build paid,
// so every later cache hit on it credits LPSolvesSaved with that same cost.

type cacheEnvelope struct {
	Format  string       `json:"format"`
	Version int          `json:"version"`
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
	// (the live plan certifies the same width, though it need not be the
	// same plan: see TestEqualKeysEqualCertificates) and therefore not a
	// rejection. Such an entry's digest is checked, but its plan is not
	// decoded, so a payload that would not decode is counted here and not
	// under Skipped.
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

// SaveCache writes cached plans to w in the versioned panda-plan-cache
// format: every plan, most recently used first, or — given keys — exactly
// the entries under those canonical signature keys, in the order asked (a
// key the cache does not hold exports nothing). The selection is taken
// atomically with respect to concurrent Prepare calls; the (immutable)
// entries are then encoded outside the planner lock. An export does not
// count as a use.
func (pl *Planner) SaveCache(w io.Writer, keys ...string) error {
	pl.mu.Lock()
	var ents []*entry
	if len(keys) == 0 {
		ents = make([]*entry, 0, pl.ll.Len())
		for el := pl.ll.Front(); el != nil; el = el.Next() {
			ents = append(ents, el.Value.(*entry))
		}
	}
	for _, k := range keys {
		if el, ok := pl.index[k]; ok {
			ents = append(ents, el.Value.(*entry))
		}
	}
	pl.mu.Unlock()
	return writeCache(w, ents)
}

// SavePlan is SaveCache of the one entry under key, for a caller that must
// not send a snapshot without it: when the cache does not hold key (it was
// evicted since the caller planned it) SavePlan writes nothing and reports
// false. This is how the fleet ships a plan: the planning tier plans a
// first-sighted query and answers with its entry alone.
func (pl *Planner) SavePlan(w io.Writer, key string) (bool, error) {
	pl.mu.Lock()
	el, ok := pl.index[key]
	var ent *entry
	if ok {
		ent = el.Value.(*entry)
	}
	pl.mu.Unlock()
	if !ok {
		return false, nil
	}
	return true, writeCache(w, []*entry{ent})
}

// writeCache encodes ents as one panda-plan-cache snapshot.
func writeCache(w io.Writer, ents []*entry) error {
	env := cacheEnvelope{Format: cacheFormat, Version: FormatVersion}
	for _, ent := range ents {
		wp, err := planOut(ent.plan)
		if err != nil {
			return fmt.Errorf("plan: save cache entry %q: %w", ent.key, err)
		}
		payload, err := json.Marshal(wp)
		if err != nil {
			return fmt.Errorf("plan: save cache entry %q: %w", ent.key, err)
		}
		env.Entries = append(env.Entries, cacheEntry{
			Key:    ent.key,
			LPCost: ent.lpCost,
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
// holds counts as a (benign) duplicate once its entry's digest checks out,
// and its plan is not decoded: live entries are never clobbered by an
// import, so a re-shipped plan costs a digest and a map lookup. An import is
// a use: the new entries go in above the live
// ones, in snapshot order, so a load past capacity drops the cache's own
// least recently used plans first and then the snapshot's tail — a replica
// at capacity keeps the plan it was just sent.
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
	var ents []*entry
	for i, ent := range env.Entries {
		if digestOf(ent.Plan) != ent.Digest {
			skip(fmt.Errorf("%w (entry %d)", ErrCodecDigest, i))
			continue
		}
		if pl.holds(ent.Key) {
			stats.Duplicates++
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
		ents = append(ents, &entry{key: ent.Key, plan: p, lpCost: ent.LPCost})
	}

	pl.mu.Lock()
	defer pl.mu.Unlock()
	for _, ent := range slices.Backward(ents) {
		if _, dup := pl.index[ent.key]; dup { // installed while this import decoded, or twice in it
			stats.Duplicates++
			continue
		}
		pl.index[ent.key] = pl.ll.PushFront(ent)
		stats.Loaded++
	}
	pl.evictOverCap()
	return stats, nil
}

// holds reports whether the cache holds key, without counting a use.
func (pl *Planner) holds(key string) bool {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	_, ok := pl.index[key]
	return ok
}
