package plan

import (
	"bytes"
	"encoding/json"
	"testing"
)

// decodeSnapEnv pulls the envelope back out of a snapshot for assertions.
func decodeSnapEnv(t *testing.T, data []byte) *cacheEnvelope {
	t.Helper()
	var env cacheEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	return &env
}

// TestSavePlanThenFullSnapshot: SaveCache exports the whole cache, most
// recently used first, and SavePlan the one entry asked for; neither export
// reorders the cache. A replica that imported one plan from SavePlan and is
// then sent the full snapshot counts that plan as a duplicate and loads the
// rest — nothing live is clobbered — and sent it again, counts every entry
// as a duplicate.
func TestSavePlanThenFullSnapshot(t *testing.T) {
	pl := NewPlanner(8)
	qa, ca := cycleQuery(4, nil, nil, 100)
	qb, cb := cycleQuery(3, nil, nil, 50)
	pa, err := pl.Prepare(qa, ca, ModeFhtw)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := pl.Prepare(qb, cb, ModeFhtw)
	if err != nil {
		t.Fatal(err)
	}
	order := pl.Keys()

	var full, one bytes.Buffer
	if err := pl.SaveCache(&full); err != nil {
		t.Fatal(err)
	}
	if saved, err := pl.SavePlan(&one, pa.Key); err != nil || !saved {
		t.Fatalf("SavePlan of a cached key: %t, %v", saved, err)
	}
	keysOf := func(buf *bytes.Buffer) []string {
		var keys []string
		for _, ent := range decodeSnapEnv(t, buf.Bytes()).Entries {
			keys = append(keys, ent.Key)
		}
		return keys
	}
	if got := keysOf(&full); len(got) != 2 || got[0] != pb.Key || got[1] != pa.Key {
		t.Fatalf("full snapshot exported %q, want both plans, most recently used first", got)
	}
	if got := keysOf(&one); len(got) != 1 || got[0] != pa.Key {
		t.Fatalf("SavePlan of %q carried %q", pa.Key, got)
	}
	if got := pl.Keys(); got[0] != order[0] || got[1] != order[1] {
		t.Fatalf("an export reordered the cache: %q → %q", order, got)
	}

	replica := NewPlanner(8)
	stats, err := replica.LoadCache(bytes.NewReader(one.Bytes()))
	if err != nil || stats.Loaded != 1 || stats.Skipped != 0 {
		t.Fatalf("one-plan import: %v (%v), want loaded=1", stats, err)
	}
	live := replica.index[pa.Key].Value.(*entry)
	stats, err = replica.LoadCache(bytes.NewReader(full.Bytes()))
	if err != nil || stats.Loaded != 1 || stats.Duplicates != 1 || stats.Skipped != 0 {
		t.Fatalf("full snapshot over a one-plan import: %v (%v), want loaded=1 duplicates=1", stats, err)
	}
	if replica.Len() != 2 || replica.index[pa.Key].Value.(*entry) != live {
		t.Fatal("the full snapshot clobbered the entry the replica already held")
	}
	stats, err = replica.LoadCache(bytes.NewReader(full.Bytes()))
	if err != nil || stats.Loaded != 0 || stats.Duplicates != 2 || replica.Len() != 2 {
		t.Fatalf("re-import of the full snapshot: %v (%v), want duplicates=2 and still 2 plans", stats, err)
	}
	if _, err := replica.Prepare(qa, ca, ModeFhtw); err != nil {
		t.Fatal(err)
	}
	if _, err := replica.Prepare(qb, cb, ModeFhtw); err != nil {
		t.Fatal(err)
	}
	if st := replica.Stats(); st.Hits != 2 || st.LPSolves != 0 {
		t.Fatalf("the replica planned what it was shipped: %v", st)
	}
}

// TestLoadCacheIsAUse: an import goes in above the live entries, so a cache
// at capacity gives up its own least recently used plan, not the plan it was
// just sent — what keeps a full replica from planning a shape the router
// shipped it a moment ago.
func TestLoadCacheIsAUse(t *testing.T) {
	donor := NewPlanner(8)
	qc, cc := cycleQuery(5, nil, nil, 100)
	pc, err := donor.Prepare(qc, cc, ModeFhtw)
	if err != nil {
		t.Fatal(err)
	}
	var shipped bytes.Buffer
	if saved, err := donor.SavePlan(&shipped, pc.Key); err != nil || !saved {
		t.Fatalf("SavePlan of a cached key: %t, %v", saved, err)
	}

	full := NewPlanner(2)
	var keys []string
	for _, k := range []int{3, 4} {
		q, cons := cycleQuery(k, nil, nil, 100)
		p, err := full.Prepare(q, cons, ModeFhtw)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, p.Key)
	}
	if stats, err := full.LoadCache(bytes.NewReader(shipped.Bytes())); err != nil || stats.Loaded != 1 {
		t.Fatalf("import into a full cache: %v (%v)", stats, err)
	}
	if got := full.Keys(); len(got) != 2 || got[0] != pc.Key || got[1] != keys[1] {
		t.Fatalf("cache holds %q after the import, want the import then the more recent live plan %q", got, keys[1])
	}
	if ev := full.Stats().Evictions; ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
}

// TestSavePlanReportsEviction: while the cache holds the key, SavePlan
// writes the snapshot of its one entry — for a one-plan cache, byte for byte
// what SaveCache writes; once the key is evicted it writes nothing and
// reports false, so a caller never sends a snapshot that lacks the plan it
// asked for.
func TestSavePlanReportsEviction(t *testing.T) {
	pl := NewPlanner(1)
	qa, ca := cycleQuery(4, nil, nil, 100)
	pa, err := pl.Prepare(qa, ca, ModeFhtw)
	if err != nil {
		t.Fatal(err)
	}
	var one, full bytes.Buffer
	if saved, err := pl.SavePlan(&one, pa.Key); err != nil || !saved {
		t.Fatalf("SavePlan of a cached key: %t, %v", saved, err)
	}
	if err := pl.SaveCache(&full); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one.Bytes(), full.Bytes()) {
		t.Fatalf("SavePlan wrote\n%s\nSaveCache of the one-plan cache wrote\n%s", one.Bytes(), full.Bytes())
	}

	qb, cb := cycleQuery(3, nil, nil, 50)
	if _, err := pl.Prepare(qb, cb, ModeFhtw); err != nil { // evicts pa
		t.Fatal(err)
	}
	var gone bytes.Buffer
	if saved, err := pl.SavePlan(&gone, pa.Key); err != nil || saved || gone.Len() != 0 {
		t.Fatalf("SavePlan of an evicted key: %t, %v, wrote %q", saved, err, gone.Bytes())
	}
}
