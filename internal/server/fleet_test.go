package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"testing"

	"panda"
)

// infoJSON mirrors the /v1/info body the fleet tier consumes.
type infoJSON struct {
	Name          string  `json:"name"`
	FormatVersion int     `json:"format_version"`
	CatalogEpoch  uint64  `json:"catalog_epoch"`
	PlansCached   int     `json:"plans_cached"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Planner       struct {
		Hits          uint64 `json:"hits"`
		Misses        uint64 `json:"misses"`
		LPSolves      uint64 `json:"lp_solves"`
		LPSolvesSaved uint64 `json:"lp_solves_saved"`
	} `json:"planner"`
}

func getInfo(t *testing.T, base string) infoJSON {
	t.Helper()
	code, body := get(t, base+"/v1/info")
	if code != http.StatusOK {
		t.Fatalf("/v1/info: %d %s", code, body)
	}
	var info infoJSON
	if err := json.Unmarshal([]byte(body), &info); err != nil {
		t.Fatalf("/v1/info is not valid JSON: %v\n%s", err, body)
	}
	return info
}

// TestHealthzAndInfo: the probe pair the router depends on. /healthz is 200
// while serving and 503 once draining (the same admission gate every
// endpoint shares); /v1/info reports identity, format version and how many
// plans the cache holds.
func TestHealthzAndInfo(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{Name: "replica-7"})
	if code, body := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz while serving: %d %s", code, body)
	}

	info := getInfo(t, ts.URL)
	if info.Name != "replica-7" {
		t.Fatalf("info name %q, want replica-7", info.Name)
	}
	if info.FormatVersion != panda.PlanFormatVersion {
		t.Fatalf("info format_version %d, want %d", info.FormatVersion, panda.PlanFormatVersion)
	}
	if info.PlansCached != 0 {
		t.Fatalf("fresh server holds %d plans, want 0", info.PlansCached)
	}

	q := panda.TriangleQuery()
	ins := panda.RandomInstance(11, &q.Schema, 40, 10)
	loadOverHTTP(t, ts.URL, &q.Schema, ins)
	if code, raw := post(t, ts.URL+"/v1/query", fmt.Sprintf(`{"query":%q}`, triangleSrc)); code != http.StatusOK {
		t.Fatalf("query: %d %s", code, raw)
	}
	info = getInfo(t, ts.URL)
	if info.PlansCached != 1 || info.Planner.Misses != 1 {
		t.Fatalf("after one planned query: %+v, want cached=1 misses=1", info)
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	code, body := get(t, ts.URL+"/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, `"code":"shutting_down"`) {
		t.Fatalf("/healthz while draining: %d %s, want 503 shutting_down", code, body)
	}
}

// TestCatalogEpoch: the catalog epoch counts APPLIED mutations — create,
// insert, drop bump it; a rejected mutation and plain queries do not — and
// both /healthz and /v1/info report it. Two processes that answered the
// same broadcast sequence identically therefore report identical epochs,
// which is what lets the router quarantine a replica that missed one.
func TestCatalogEpoch(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	healthzEpoch := func() uint64 {
		t.Helper()
		code, body := get(t, ts.URL+"/healthz")
		if code != http.StatusOK {
			t.Fatalf("/healthz: %d %s", code, body)
		}
		var hb struct {
			CatalogEpoch uint64 `json:"catalog_epoch"`
		}
		if err := json.Unmarshal([]byte(body), &hb); err != nil {
			t.Fatalf("/healthz body: %v\n%s", err, body)
		}
		return hb.CatalogEpoch
	}
	if e := healthzEpoch(); e != 0 {
		t.Fatalf("fresh server catalog epoch %d, want 0", e)
	}
	if code, body := post(t, ts.URL+"/v1/relations", `{"name":"R","arity":2}`); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	if e := healthzEpoch(); e != 1 {
		t.Fatalf("epoch after create %d, want 1", e)
	}
	if code, body := post(t, ts.URL+"/v1/relations/R/rows", `{"rows":[[1,2]]}`); code != http.StatusOK {
		t.Fatalf("insert: %d %s", code, body)
	}
	if e := healthzEpoch(); e != 2 {
		t.Fatalf("epoch after insert %d, want 2", e)
	}
	// A REJECTED mutation applied nothing and must not advance the epoch.
	if code, _ := post(t, ts.URL+"/v1/relations", `{"name":"R","arity":2}`); code != http.StatusConflict {
		t.Fatalf("duplicate create: %d, want 409", code)
	}
	// Queries are not mutations.
	if code, body := post(t, ts.URL+"/v1/query", `{"query":"Q(A,B) :- R(A,B)."}`); code != http.StatusOK {
		t.Fatalf("query: %d %s", code, body)
	}
	if e := healthzEpoch(); e != 2 {
		t.Fatalf("epoch after rejected create + query %d, want 2", e)
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/relations/R", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("drop: %d, want 204", resp.StatusCode)
	}
	if e := healthzEpoch(); e != 3 {
		t.Fatalf("epoch after drop %d, want 3", e)
	}
	if info := getInfo(t, ts.URL); info.CatalogEpoch != 3 {
		t.Fatalf("/v1/info catalog_epoch %d, want 3", info.CatalogEpoch)
	}
}

// TestDuplicateInsertStillAdvancesEpoch: a write that adds no new tuple is a
// no-op inside the DB, but the request was answered 2xx, and the epoch counts
// answered mutations — every node of a fleet saw the same broadcast, so they
// must keep agreeing on it whether or not the rows were new to them.
func TestDuplicateInsertStillAdvancesEpoch(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	if code, body := post(t, ts.URL+"/v1/relations", `{"name":"R","arity":2}`); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	for i, want := range []uint64{2, 3} { // the second insert is all duplicates
		if code, body := post(t, ts.URL+"/v1/relations/R/rows", `{"rows":[[1,2],[2,3]]}`); code != http.StatusOK {
			t.Fatalf("insert %d: %d %s", i, code, body)
		}
		if info := getInfo(t, ts.URL); info.CatalogEpoch != want {
			t.Fatalf("catalog_epoch after insert %d: %d, want %d", i, info.CatalogEpoch, want)
		}
	}
	if code, body := post(t, ts.URL+"/v1/query", `{"query":"Q(A,B) :- R(A,B)."}`); code != http.StatusOK || !strings.Contains(body, `[[1,2],[2,3]]`) {
		t.Fatalf("query after duplicate insert: %d %s", code, body)
	}
}

// TestExportPlansByKey: the "key" of a /v1/plan answer, whose "signature" is
// its digest, names one entry of the full GET /v1/plans export, which holds
// every planned key and nothing else. Plans are not exported by key: a
// request naming key — one, several, an unknown one, or with q — answers
// 400. Another server that imports the full export answers every planned
// shape with zero LP solves.
func TestExportPlansByKey(t *testing.T) {
	q := panda.TriangleQuery()
	ins := panda.RandomInstance(11, &q.Schema, 40, 10)
	_, ts, _ := newTestServer(t, Config{})
	loadOverHTTP(t, ts.URL, &q.Schema, ins)

	const pathSrc = `Q(X,Z) :- R(X,Y), S(Y,Z).`
	keyOf := func(src string) string {
		t.Helper()
		code, body := get(t, ts.URL+"/v1/plan?q="+url.QueryEscape(src))
		if code != http.StatusOK {
			t.Fatalf("plan %q: %d %s", src, code, body)
		}
		var info struct {
			Key       string `json:"key"`
			Signature string `json:"signature"`
		}
		if err := json.Unmarshal([]byte(body), &info); err != nil || info.Key == "" {
			t.Fatalf("plan %q answered no key: %v\n%s", src, err, body)
		}
		if info.Signature != panda.SignatureDigest(info.Key) {
			t.Fatalf("signature %q is not the digest of key %q", info.Signature, info.Key)
		}
		return info.Key
	}
	triangleKey, pathKey := keyOf(triangleSrc), keyOf(pathSrc)

	code, snapshot := get(t, ts.URL+"/v1/plans")
	var full cacheSnapshotJSON
	if err := json.Unmarshal([]byte(snapshot), &full); code != http.StatusOK || err != nil {
		t.Fatalf("full export: %d %v\n%s", code, err, snapshot)
	}
	var exported []string
	for _, ent := range full.Entries {
		exported = append(exported, ent.Key)
	}
	planned := []string{triangleKey, pathKey}
	slices.Sort(planned)
	slices.Sort(exported)
	if !slices.Equal(exported, planned) {
		t.Fatalf("full export carried %q, want every planned key %q", exported, planned)
	}

	for _, params := range []url.Values{
		{"key": {triangleKey}},
		{"key": {pathKey, triangleKey}},
		{"key": {"nope"}},
		{"q": {triangleSrc}, "key": {triangleKey}},
	} {
		if code, body := get(t, ts.URL+"/v1/plans?"+params.Encode()); code != http.StatusBadRequest {
			t.Fatalf("export ?%s: %d %s, want 400", params.Encode(), code, body)
		}
	}

	_, tsB, dbB := newTestServer(t, Config{})
	loadOverHTTP(t, tsB.URL, &q.Schema, ins)
	if code, body := putPlans(t, tsB.URL, snapshot); code != http.StatusOK || !strings.Contains(body, `"loaded":2`) {
		t.Fatalf("import of the full export: %d %s", code, body)
	}
	for _, src := range []string{triangleSrc, pathSrc} {
		if code, raw := post(t, tsB.URL+"/v1/query", fmt.Sprintf(`{"query":%q}`, src)); code != http.StatusOK {
			t.Fatalf("query %q on the importer: %d %s", src, code, raw)
		}
	}
	if st := dbB.PlannerStats(); st.LPSolves != 0 || st.Misses != 0 || st.Hits != 2 {
		t.Fatalf("the importer planned a shipped shape: %v", st)
	}
}

// TestExportPlansByQuery: GET /v1/plans?q=<text>[&mode=…] plans the text as
// GET /v1/plan does and answers with a snapshot of that one plan — the key
// /v1/plan names, for a query, a rule and a forced mode — and fails with the
// same statuses: 400 for a parse error or a bad mode, 404 for an unknown
// relation. Another server that imports the answer runs the query as a
// zero-LP hit. This is the one request of the router's warm-up.
func TestExportPlansByQuery(t *testing.T) {
	q := panda.TriangleQuery()
	ins := panda.RandomInstance(11, &q.Schema, 40, 10)
	_, ts, _ := newTestServer(t, Config{})
	loadOverHTTP(t, ts.URL, &q.Schema, ins)

	const ruleSrc = `T1(A,B) v T2(B,C) :- R(A,B), S(B,C).`
	var triangleSnapshot string
	for _, c := range []struct{ src, mode string }{{triangleSrc, ""}, {ruleSrc, ""}, {triangleSrc, "subw"}} {
		params := url.Values{"q": {c.src}}
		if c.mode != "" {
			params.Set("mode", c.mode)
		}
		code, body := get(t, ts.URL+"/v1/plan?"+params.Encode())
		if code != http.StatusOK {
			t.Fatalf("plan %q mode %q: %d %s", c.src, c.mode, code, body)
		}
		var info struct {
			Key string `json:"key"`
		}
		if err := json.Unmarshal([]byte(body), &info); err != nil || info.Key == "" {
			t.Fatalf("plan %q mode %q answered no key: %v\n%s", c.src, c.mode, err, body)
		}
		code, body = get(t, ts.URL+"/v1/plans?"+params.Encode())
		if code != http.StatusOK {
			t.Fatalf("export %q mode %q: %d %s", c.src, c.mode, code, body)
		}
		var env cacheSnapshotJSON
		if err := json.Unmarshal([]byte(body), &env); err != nil {
			t.Fatal(err)
		}
		if len(env.Entries) != 1 || env.Entries[0].Key != info.Key {
			t.Fatalf("export %q mode %q holds %d entries, want the one under /v1/plan's key %q:\n%s", c.src, c.mode, len(env.Entries), info.Key, body)
		}
		if c.src == triangleSrc && c.mode == "" {
			triangleSnapshot = body
		}
	}
	for _, c := range []struct {
		query string
		code  int
	}{
		{"?" + url.Values{"q": {"not a query"}}.Encode(), http.StatusBadRequest},
		{"?" + url.Values{"q": {triangleSrc}, "mode": {"bogus"}}.Encode(), http.StatusBadRequest},
		{"?q=", http.StatusBadRequest},
		{"?" + url.Values{"q": {`Q(A,B) :- Nope(A,B).`}}.Encode(), http.StatusNotFound},
	} {
		if code, body := get(t, ts.URL+"/v1/plans"+c.query); code != c.code {
			t.Fatalf("export %s: %d %s, want %d", c.query, code, body, c.code)
		}
	}

	_, tsB, dbB := newTestServer(t, Config{})
	loadOverHTTP(t, tsB.URL, &q.Schema, ins)
	if code, body := putPlans(t, tsB.URL, triangleSnapshot); code != http.StatusOK || !strings.Contains(body, `"loaded":1`) {
		t.Fatalf("import of the by-query export: %d %s", code, body)
	}
	if code, raw := post(t, tsB.URL+"/v1/query", fmt.Sprintf(`{"query":%q}`, triangleSrc)); code != http.StatusOK {
		t.Fatalf("query on the importer: %d %s", code, raw)
	}
	if st := dbB.PlannerStats(); st.LPSolves != 0 || st.Misses != 0 || st.Hits != 1 {
		t.Fatalf("the importer planned the shipped shape: %v", st)
	}
}

// TestImportVersionMismatchPlansLazily: a snapshot with a bumped
// FormatVersion is rejected whole and installs nothing; the replica keeps
// serving, pays the dropped plan's LP solves at its first query, and
// answers a renaming of it from the cache.
func TestImportVersionMismatchPlansLazily(t *testing.T) {
	q := panda.TriangleQuery()
	ins := panda.RandomInstance(11, &q.Schema, 40, 10)
	_, tsA, _ := newTestServer(t, Config{})
	loadOverHTTP(t, tsA.URL, &q.Schema, ins)
	if code, raw := post(t, tsA.URL+"/v1/query", fmt.Sprintf(`{"query":%q}`, triangleSrc)); code != http.StatusOK {
		t.Fatalf("seed query: %d %s", code, raw)
	}
	code, snapshot := get(t, tsA.URL+"/v1/plans")
	if code != http.StatusOK {
		t.Fatal("export failed")
	}
	var env cacheSnapshotJSON
	if err := json.Unmarshal([]byte(snapshot), &env); err != nil {
		t.Fatal(err)
	}
	env.Version = panda.PlanFormatVersion + 1
	bad, err := json.Marshal(&env)
	if err != nil {
		t.Fatal(err)
	}

	_, tsB, dbB := newTestServer(t, Config{})
	loadOverHTTP(t, tsB.URL, &q.Schema, ins)
	code, body := putPlans(t, tsB.URL, string(bad))
	if code != http.StatusUnprocessableEntity || !strings.Contains(body, `"code":"plan_version"`) {
		t.Fatalf("import: %d %s, want 422 plan_version", code, body)
	}
	if info := getInfo(t, tsB.URL); info.PlansCached != 0 {
		t.Fatalf("a rejected snapshot installed %d plans", info.PlansCached)
	}

	for _, src := range []string{triangleSrc, `Q(X,Y,Z) :- R(X,Y), S(Y,Z), T(X,Z).`} {
		if code, raw := post(t, tsB.URL+"/v1/query", fmt.Sprintf(`{"query":%q}`, src)); code != http.StatusOK {
			t.Fatalf("query %q after the rejected import: %d %s", src, code, raw)
		}
	}
	if st := dbB.PlannerStats(); st.PlansBuilt != 1 || st.LPSolves == 0 || st.Hits != 1 {
		t.Fatalf("want one plan built at the first query and the renaming a hit, got %v", st)
	}
}
