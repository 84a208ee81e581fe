package plan

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
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

// TestVersionMismatchReportsSkippedKeys: a FormatVersion bump must name
// every dropped signature, because those keys are what the migration shim
// re-plans in the background.
func TestVersionMismatchReportsSkippedKeys(t *testing.T) {
	donor := NewPlanner(8)
	q, cons := cycleQuery(4, nil, nil, 100)
	if _, err := donor.Prepare(q, cons, ModeFhtw); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := donor.SaveCache(&buf); err != nil {
		t.Fatal(err)
	}
	bad := tamperCache(t, buf.Bytes(), func(env *cacheEnvelope) { env.Version = FormatVersion + 1 })
	fresh := NewPlanner(8)
	stats, err := fresh.LoadCache(bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(stats.FirstErr, ErrCodecVersion) {
		t.Fatalf("want ErrCodecVersion, got %v", stats.FirstErr)
	}
	want := mustSig(t, q, cons, ModeFhtw).Key
	if len(stats.SkippedKeys) != 1 || stats.SkippedKeys[0] != want {
		t.Fatalf("skipped keys %q, want [%q]", stats.SkippedKeys, want)
	}

	// The reported keys close the loop: re-planning them refills the cache
	// with zero traffic-time misses left to pay.
	for _, key := range stats.SkippedKeys {
		if _, err := fresh.ReplanKey(context.Background(), key); err != nil {
			t.Fatalf("replan %q: %v", key, err)
		}
	}
	if fresh.Len() != 1 {
		t.Fatalf("after replan: %d plans, want 1", fresh.Len())
	}
	solves := fresh.Stats().LPSolves
	if solves == 0 {
		t.Fatal("replan paid no LP solves (nothing was rebuilt)")
	}
	// A renaming of the original query must now be a pure hit.
	qr, cr := cycleQuery(4, []int{2, 3, 0, 1}, nil, 100)
	if _, err := fresh.Prepare(qr, cr, ModeFhtw); err != nil {
		t.Fatal(err)
	}
	st := fresh.Stats()
	if st.LPSolves != solves || st.Hits != 1 {
		t.Fatalf("renamed query after replan was not a free hit: %v", st)
	}
}

// TestParseSignatureKeyRoundTrip: parsing a canonical key back into a query
// and re-canonicalizing must land on the identical key — the property that
// makes background replans serve the original traffic.
func TestParseSignatureKeyRoundTrip(t *testing.T) {
	q4, c4 := cycleQuery(4, nil, nil, 100)
	q3, c3 := cycleQuery(3, nil, nil, 7)
	qb, cb := cycleQuery(4, nil, nil, 100)
	qb.Free = 0 // Boolean 4-cycle: stays ModeAuto under resolution
	rule, rcons := pathRule(nil, nil, false, 100)
	ruleSig, err := CanonicalizeRule(rule, rcons)
	if err != nil {
		t.Fatal(err)
	}
	ruleKey := ruleSig.Key
	cases := []struct {
		name string
		key  string
	}{
		{"fhtw-4-cycle", mustSig(t, q4, c4, ModeFhtw).Key},
		{"subw-4-cycle", mustSig(t, q4, c4, ModeSubw).Key},
		{"full-triangle", mustSig(t, q3, c3, ModeFull).Key},
		{"auto-boolean-4-cycle", mustSig(t, qb, cb, ModeAuto).Key},
		{"path-rule", ruleKey},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, heads, cons, mode, err := ParseSignatureKey(tc.key)
			if err != nil {
				t.Fatal(err)
			}
			again, err := canonicalize(s, heads, cons, mode)
			if err != nil {
				t.Fatal(err)
			}
			if again.Key != tc.key {
				t.Fatalf("round trip diverged:\n in  %q\n out %q", tc.key, again.Key)
			}
		})
	}
}

// TestParseSignatureKeyRejectsGarbage: malformed keys fail loudly instead
// of planning nonsense.
func TestParseSignatureKeyRejectsGarbage(t *testing.T) {
	q4, c4 := cycleQuery(4, nil, nil, 100)
	good := mustSig(t, q4, c4, ModeFhtw).Key
	bad := []string{
		"",
		"not a key",
		"m9;n4;F0000000f;A:00000003;C",          // mode out of range
		"m-2;n4;F0000000f;A:00000003;C",         // mode out of range
		"m2;n4;F00000003,0000000c;A:00000003;C", // two heads on a conjunctive key
		"m-1;n4;F;A:00000003;C",                 // a rule with no targets
		"m2;n40;F0000000f;A:00000003;C",         // variable count out of range
		"m2;n2;F0000000f;A:00000003;C",          // free set outside universe
		"m2;n4;F0000000f;A:00000003;C:00000001/00000003/5/g7",  // guard out of range
		"m2;n4;F0000000f;A:00000003;C:00000001/00000003/-1/g0", // negative log bound
		strings.Replace(good, ";C", "", 1),                     // missing section
	}
	for _, key := range bad {
		if _, _, _, _, err := ParseSignatureKey(key); err == nil {
			t.Errorf("ParseSignatureKey(%q) accepted garbage", key)
		}
	}
}
