package plan

import (
	"bytes"
	"encoding/json"
	"testing"
)

// decodeEnvelope pulls the envelope back out of a snapshot for assertions.
func decodeSnapEnv(t *testing.T, data []byte) *cacheEnvelope {
	t.Helper()
	var env cacheEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	return &env
}

// TestSaveCacheSinceDelta: the cache clock ticks once per installed entry,
// SaveCacheSince exports exactly the entries newer than the watermark, and
// the envelope records the clock the selection was made at.
func TestSaveCacheSinceDelta(t *testing.T) {
	pl := NewPlanner(8)
	qa, ca := cycleQuery(4, nil, nil, 100)
	if _, err := pl.Prepare(qa, ca, ModeFhtw); err != nil {
		t.Fatal(err)
	}
	c1 := pl.CacheClock()
	if c1 != 1 {
		t.Fatalf("clock after first install = %d, want 1", c1)
	}
	qb, cb := cycleQuery(3, nil, nil, 50)
	if _, err := pl.Prepare(qb, cb, ModeFhtw); err != nil {
		t.Fatal(err)
	}
	if got := pl.CacheClock(); got != 2 {
		t.Fatalf("clock after second install = %d, want 2", got)
	}
	// A cache hit installs nothing and must not move the clock.
	if _, err := pl.Prepare(qa, ca, ModeFhtw); err != nil {
		t.Fatal(err)
	}
	if got := pl.CacheClock(); got != 2 {
		t.Fatalf("clock moved on a cache hit: %d", got)
	}

	var full, delta, empty bytes.Buffer
	if err := pl.SaveCache(&full); err != nil {
		t.Fatal(err)
	}
	if err := pl.SaveCacheSince(&delta, c1); err != nil {
		t.Fatal(err)
	}
	if err := pl.SaveCacheSince(&empty, 2); err != nil {
		t.Fatal(err)
	}
	fe, de, ee := decodeSnapEnv(t, full.Bytes()), decodeSnapEnv(t, delta.Bytes()), decodeSnapEnv(t, empty.Bytes())
	if len(fe.Entries) != 2 || fe.Clock != 2 {
		t.Fatalf("full snapshot: %d entries clock %d, want 2/2", len(fe.Entries), fe.Clock)
	}
	if len(de.Entries) != 1 || de.Clock != 2 {
		t.Fatalf("delta since %d: %d entries clock %d, want 1/2", c1, len(de.Entries), de.Clock)
	}
	if len(ee.Entries) != 0 || ee.Clock != 2 {
		t.Fatalf("empty delta: %d entries clock %d, want 0/2", len(ee.Entries), ee.Clock)
	}
	// The delta must carry the SECOND shape (the triangle), not the first.
	sigB := mustSig(t, qb, cb, ModeFhtw)
	if de.Entries[0].Key != sigB.Key {
		t.Fatalf("delta exported key %q, want the newer entry %q", de.Entries[0].Key, sigB.Key)
	}
}

// TestLoadCacheAdvancesClockAndMerges: imports tick the clock like fresh
// builds (so a replica's own exports include pushed entries), re-importing
// an overlapping delta never clobbers live entries, and the delta a replica
// would re-export after importing covers what it imported.
func TestLoadCacheAdvancesClockAndMerges(t *testing.T) {
	donor := NewPlanner(8)
	qa, ca := cycleQuery(4, nil, nil, 100)
	qb, cb := cycleQuery(3, nil, nil, 50)
	if _, err := donor.Prepare(qa, ca, ModeFhtw); err != nil {
		t.Fatal(err)
	}
	if _, err := donor.Prepare(qb, cb, ModeFhtw); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := donor.SaveCache(&snap); err != nil {
		t.Fatal(err)
	}

	replica := NewPlanner(8)
	stats, err := replica.LoadCache(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Loaded != 2 || replica.CacheClock() != 2 {
		t.Fatalf("after import: %v, clock %d; want loaded=2 clock=2", stats, replica.CacheClock())
	}
	// Importing the same snapshot again: pure duplicates, clock unmoved.
	stats, err = replica.LoadCache(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Loaded != 0 || stats.Duplicates != 2 || replica.CacheClock() != 2 {
		t.Fatalf("re-import: %v, clock %d; want duplicates=2 clock=2", stats, replica.CacheClock())
	}
	if replica.Len() != 2 {
		t.Fatalf("replica holds %d plans, want 2", replica.Len())
	}
}
