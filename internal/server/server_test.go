package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"panda"
)

// newTestServer stands up a Server over a fresh session and an httptest
// listener; the caller gets both (the Server for white-box access, the URL
// for HTTP traffic).
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *panda.DB) {
	t.Helper()
	db := panda.Open(panda.WithPlannerCapacity(32))
	if cfg.DB == nil {
		cfg.DB = db
	} else {
		db = cfg.DB
	}
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		db.Close()
	})
	return s, ts, db
}

func post(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// queryHTTP posts a /v1/query request and decodes the streamed response.
func queryHTTP(t *testing.T, base, body string) (int, *queryResponseJSON, string) {
	t.Helper()
	code, raw := post(t, base+"/v1/query", body)
	var qr queryResponseJSON
	if code == http.StatusOK {
		if err := json.Unmarshal([]byte(raw), &qr); err != nil {
			t.Fatalf("response is not valid JSON: %v\n%s", err, raw)
		}
	}
	return code, &qr, raw
}

type queryResponseJSON struct {
	Mode    string          `json:"mode"`
	OK      bool            `json:"ok"`
	Width   string          `json:"width"`
	Columns []string        `json:"columns"`
	Rows    [][]panda.Value `json:"rows"`
	Tables  []struct {
		Target string          `json:"target"`
		Size   int             `json:"size"`
		Rows   [][]panda.Value `json:"rows"`
	} `json:"tables"`
	Stats     map[string]any     `json:"stats"`
	Truncated bool               `json:"truncated"`
	Signature string             `json:"signature"`
	Timings   map[string]float64 `json:"timings"`
}

// loadOverHTTP pushes a workload instance into the server through the
// public relation endpoints — the ingest path a real client uses.
func loadOverHTTP(t *testing.T, base string, s *panda.Schema, ins *panda.Instance) {
	t.Helper()
	for i, a := range s.Atoms {
		body := fmt.Sprintf(`{"name":%q,"arity":%d}`, a.Name, a.Vars.Card())
		code, resp := post(t, base+"/v1/relations", body)
		if code == http.StatusConflict {
			continue // self-join: both atoms read one table
		}
		if code != http.StatusCreated {
			t.Fatalf("create %s: %d %s", a.Name, code, resp)
		}
		rows, err := json.Marshal(ins.Relations[i].Rows())
		if err != nil {
			t.Fatal(err)
		}
		code, resp = post(t, base+"/v1/relations/"+a.Name+"/rows", fmt.Sprintf(`{"rows":%s}`, rows))
		if code != http.StatusOK {
			t.Fatalf("insert %s: %d %s", a.Name, code, resp)
		}
	}
}

// loadReference copies the same instance into a plain DB, the reference the
// golden-parity tests compare the HTTP path against.
func loadReference(t *testing.T, db *panda.DB, s *panda.Schema, ins *panda.Instance) {
	t.Helper()
	for i, a := range s.Atoms {
		if err := db.CreateRelation(a.Name, a.Vars.Card()); err != nil && !errors.Is(err, panda.ErrRelationExists) {
			t.Fatal(err)
		}
		if err := db.Insert(a.Name, ins.Relations[i].Rows()...); err != nil {
			t.Fatal(err)
		}
	}
}

// The db_test fixtures, in ascending-variable argument order.
const (
	fourCycleSrc        = `Q(A1,A2,A3,A4) :- R12(A1,A2), R23(A2,A3), R34(A3,A4), R41(A1,A4).`
	booleanFourCycleSrc = `Q() :- R12(A1,A2), R23(A2,A3), R34(A3,A4), R41(A1,A4).`
	triangleSrc         = `Q(A,B,C) :- R(A,B), S(B,C), T(A,C).`
	pathRuleSrc         = `T1(A1,A2,A3) v T2(A2,A3,A4) :- R12(A1,A2), R23(A2,A3), R34(A3,A4).`
)

// TestServerGoldenParity: the HTTP path must return byte-identical rows,
// width and mode to a direct db.Query on the same catalog, for every result
// shape the eval goldens pin — the 4-cycle (full), the triangle (ModeAuto),
// the Boolean 4-cycle and the path rule.
func TestServerGoldenParity(t *testing.T) {
	cases := []struct {
		name string
		src  string
		sch  *panda.Schema
		ins  *panda.Instance
	}{
		{"four-cycle", fourCycleSrc, &panda.FourCycleQuery().Schema, panda.CycleWorstCase(panda.FourCycleQuery(), 12)},
		{"boolean-four-cycle", booleanFourCycleSrc, &panda.BooleanFourCycle().Schema, panda.CycleWorstCase(panda.BooleanFourCycle(), 16)},
		{"triangle", triangleSrc, &panda.TriangleQuery().Schema, panda.RandomInstance(8, &panda.TriangleQuery().Schema, 50, 12)},
		{"path-rule", pathRuleSrc, &panda.PathRule().Schema, panda.RandomInstance(5, &panda.PathRule().Schema, 30, 6)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, ts, _ := newTestServer(t, Config{})
			loadOverHTTP(t, ts.URL, tc.sch, tc.ins)

			ref := panda.Open()
			defer ref.Close()
			loadReference(t, ref, tc.sch, tc.ins)
			stmt, err := ref.Prepare(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			want, err := stmt.Query()
			if err != nil {
				t.Fatal(err)
			}

			code, got, raw := queryHTTP(t, ts.URL, fmt.Sprintf(`{"query":%q}`, tc.src))
			if code != http.StatusOK {
				t.Fatalf("query: %d %s", code, raw)
			}
			if got.Mode != want.Mode.String() {
				t.Errorf("mode %q, want %q", got.Mode, want.Mode.String())
			}
			if got.Width != want.Width.RatString() {
				t.Errorf("width %q, want %q", got.Width, want.Width.RatString())
			}
			if got.OK != want.OK {
				t.Errorf("ok %v, want %v", got.OK, want.OK)
			}
			if want.Rel != nil {
				if !reflect.DeepEqual(got.Columns, want.Columns) {
					t.Errorf("columns %v, want %v", got.Columns, want.Columns)
				}
				if !rowsEqual(got.Rows, want.Rows()) {
					t.Errorf("rows diverge: %d vs %d", len(got.Rows), len(want.Rows()))
				}
			}
			if want.Mode == panda.ModeRule {
				if len(got.Tables) != len(want.Tables) {
					t.Fatalf("%d tables, want %d", len(got.Tables), len(want.Tables))
				}
				sch := stmt.Schema()
				i := 0
				for _, b := range sortedTargets(want.Tables) {
					tb := got.Tables[i]
					if tb.Target != "T_"+sch.VarLabel(b) || tb.Size != want.Tables[b].Size() {
						t.Errorf("table %d is %s/%d, want T_%s/%d", i, tb.Target, tb.Size, sch.VarLabel(b), want.Tables[b].Size())
					}
					if !rowsEqual(tb.Rows, (&panda.Result{Rel: want.Tables[b]}).Rows()) {
						t.Errorf("table %s rows diverge", tb.Target)
					}
					i++
				}
			}
		})
	}
}

func sortedTargets(tables map[panda.Set]*panda.Relation) []panda.Set {
	out := make([]panda.Set, 0, len(tables))
	for b := range tables {
		out = append(out, b)
	}
	for i := range out {
		for j := i + 1; j < len(out); j++ {
			if out[j] < out[i] {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}

func rowsEqual(a, b [][]panda.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestServerGoldenBytes pins the head of the response body for the CLI
// test fixture (R = {(1,2),(2,3)}, S = {(2,5)}), so the wire format matches
// the `panda eval` goldens field for field: same rows, same exact width
// (2^1), same committed mode.
func TestServerGoldenBytes(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	for _, load := range []string{
		`{"name":"R","arity":2}`, `{"name":"S","arity":2}`,
	} {
		if code, resp := post(t, ts.URL+"/v1/relations", load); code != http.StatusCreated {
			t.Fatalf("create: %d %s", code, resp)
		}
	}
	if code, resp := post(t, ts.URL+"/v1/relations/R/rows", `{"rows":[[1,2],[2,3]]}`); code != http.StatusOK {
		t.Fatalf("insert R: %d %s", code, resp)
	}
	if code, resp := post(t, ts.URL+"/v1/relations/S/csv", "2,5\n# comment\n\n"); code != http.StatusOK {
		t.Fatalf("csv S: %d %s", code, resp)
	}
	for _, tc := range []struct{ src, prefix string }{
		{`Q(A,B,C) :- R(A,B), S(B,C).`,
			`{"mode":"full","ok":true,"width":"1","columns":["A","B","C"],"rows":[[1,2,5]],"stats":`},
		{`Q(A,C) :- R(A,B), S(B,C).`,
			`{"mode":"fhtw","ok":true,"width":"1","columns":["A","C"],"rows":[[1,5]],"stats":`},
		{`Q() :- R(A,B), S(B,C).`,
			`{"mode":"fhtw","ok":true,"width":"1","stats":`},
		{`T1(A,B) v T2(B,C) :- R(A,B), S(B,C).`,
			`{"mode":"rule","ok":true,"width":"0","tables":[{"target":"T_AB","size":0,"rows":[]},{"target":"T_BC","size":1,"rows":[[2,5]]}],"stats":`},
	} {
		code, raw := post(t, ts.URL+"/v1/query", fmt.Sprintf(`{"query":%q}`, tc.src))
		if code != http.StatusOK {
			t.Fatalf("query %s: %d %s", tc.src, code, raw)
		}
		if !strings.HasPrefix(raw, tc.prefix) {
			t.Errorf("body for %s:\n got %.200s\nwant prefix %s", tc.src, raw, tc.prefix)
		}
	}
}

// stripTimings removes the wall-clock "timings" object from a /v1/query
// body so deterministic-parity assertions can compare the rest
// byte-for-byte. It insists the field was present: losing it silently
// would hollow out the tests that use this.
func stripTimings(t *testing.T, body string) string {
	t.Helper()
	i := strings.LastIndex(body, `,"timings":{`)
	if i < 0 {
		t.Fatalf("body has no timings object: %s", body)
	}
	return body[:i] + "}\n"
}

// metricValue extracts one un-labelled sample from a Prometheus exposition.
func metricValue(t *testing.T, body, name string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`)
	m := re.FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("metric %s not found in:\n%s", name, body)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestServerRepeatQueryZeroLPSolves: the acceptance criterion — a repeated
// /v1/query request is served from the plan cache with zero additional LP
// solves, observable through /metrics.
func TestServerRepeatQueryZeroLPSolves(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	q := panda.TriangleQuery()
	loadOverHTTP(t, ts.URL, &q.Schema, panda.RandomInstance(11, &q.Schema, 40, 10))

	body := fmt.Sprintf(`{"query":%q}`, triangleSrc)
	if code, raw := post(t, ts.URL+"/v1/query", body); code != http.StatusOK {
		t.Fatalf("first query: %d %s", code, raw)
	}
	_, m1 := get(t, ts.URL+"/metrics")
	solves := metricValue(t, m1, "panda_planner_lp_solves_total")
	if solves == 0 {
		t.Fatalf("first query did not plan:\n%s", m1)
	}
	saved := metricValue(t, m1, "panda_planner_lp_solves_saved_total")

	// Repeat the exact text, then a variable renaming: both must be free.
	if code, raw := post(t, ts.URL+"/v1/query", body); code != http.StatusOK {
		t.Fatalf("repeat query: %d %s", code, raw)
	}
	renamed := fmt.Sprintf(`{"query":%q}`, `Q(X,Y,Z) :- R(X,Y), S(Y,Z), T(X,Z).`)
	if code, raw := post(t, ts.URL+"/v1/query", renamed); code != http.StatusOK {
		t.Fatalf("renamed query: %d %s", code, raw)
	}
	_, m2 := get(t, ts.URL+"/metrics")
	if got := metricValue(t, m2, "panda_planner_lp_solves_total"); got != solves {
		t.Errorf("repeated queries ran %v extra LP solves", got-solves)
	}
	if got := metricValue(t, m2, "panda_planner_lp_solves_saved_total"); got <= saved {
		t.Errorf("cache hits credited no saved solves (%v -> %v)", saved, got)
	}
	// The exact repeat is served from the statement's result memo without
	// consulting the planner at all; only the renamed query (a distinct
	// statement) reaches the planner and lands a signature cache hit.
	if hits := metricValue(t, m2, "panda_planner_hits_total"); hits < 1 {
		t.Errorf("planner hits = %v, want >= 1", hits)
	}
	if hits := metricValue(t, m2, "panda_stmt_cache_hits_total"); hits < 1 {
		t.Errorf("stmt cache hits = %v, want >= 1", hits)
	}
	// The middleware counted every request with its status.
	if !strings.Contains(m2, `panda_http_requests_total{endpoint="query",code="200"} 3`) {
		t.Errorf("per-endpoint request counter missing:\n%s", m2)
	}
	if c := metricValue(t, m2, `panda_http_request_duration_seconds_count{endpoint="query"}`); c != 3 {
		t.Errorf("latency count = %v, want 3", c)
	}
}

// TestServerPlanEndpoint: a dry-run prepare reports the committed mode and
// exact width certificate without executing, and warms the plan cache for
// the query that follows.
func TestServerPlanEndpoint(t *testing.T) {
	_, ts, db := newTestServer(t, Config{})
	q := panda.TriangleQuery()
	loadOverHTTP(t, ts.URL, &q.Schema, panda.RandomInstance(11, &q.Schema, 40, 10))

	code, body := get(t, ts.URL+"/v1/plan?q="+urlQuery(triangleSrc))
	if code != http.StatusOK {
		t.Fatalf("plan: %d %s", code, body)
	}
	var resp struct {
		Mode      string `json:"mode"`
		Width     string `json:"width"`
		Signature string `json:"signature"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Mode == "" || resp.Width == "" || resp.Signature == "" {
		t.Fatalf("hollow plan response: %s", body)
	}
	solves := db.PlannerStats().LPSolves
	if solves == 0 {
		t.Fatal("dry-run prepare did not plan")
	}
	if code, raw := post(t, ts.URL+"/v1/query", fmt.Sprintf(`{"query":%q}`, triangleSrc)); code != http.StatusOK {
		t.Fatalf("query after plan: %d %s", code, raw)
	}
	if got := db.PlannerStats().LPSolves; got != solves {
		t.Errorf("query after plan re-planned (+%d LP solves)", got-solves)
	}
	// A disjunctive rule reports its polymatroid bound as the width.
	pq := panda.PathRule()
	loadOverHTTP(t, ts.URL, &pq.Schema, panda.RandomInstance(5, &pq.Schema, 30, 6))
	code, body = get(t, ts.URL+"/v1/plan?q="+urlQuery(pathRuleSrc))
	if code != http.StatusOK {
		t.Fatalf("rule plan: %d %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Mode != "rule" || resp.Width == "" || resp.Signature == "" {
		t.Fatalf("rule plan response: %s", body)
	}
	// The dry run planned the rule through the session cache: executing it
	// is a hit, and the answer names the same shape.
	solves = db.PlannerStats().LPSolves
	code, body = post(t, ts.URL+"/v1/query", fmt.Sprintf(`{"query":%q}`, pathRuleSrc))
	if code != http.StatusOK || !strings.Contains(body, fmt.Sprintf(`,"signature":%q`, resp.Signature)) {
		t.Fatalf("rule query after plan: %d, want signature %s in %s", code, resp.Signature, body)
	}
	if got := db.PlannerStats().LPSolves; got != solves {
		t.Errorf("rule query after plan re-planned (+%d LP solves)", got-solves)
	}
}

func urlQuery(src string) string { return url.QueryEscape(src) }

// TestServerCatalogEndpoints: the relation lifecycle over HTTP — create,
// list, CSV ingest, drop — including the 409 on duplicate create and the
// 404 on dropping a missing relation.
func TestServerCatalogEndpoints(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	if code, b := post(t, ts.URL+"/v1/relations", `{"name":"R","arity":2}`); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, b)
	}
	if code, b := post(t, ts.URL+"/v1/relations", `{"name":"R","arity":2}`); code != http.StatusConflict || !strings.Contains(b, "relation_exists") {
		t.Fatalf("duplicate create: %d %s", code, b)
	}
	if code, b := post(t, ts.URL+"/v1/relations/R/csv", "1,2\n3,4\n"); code != http.StatusOK || !strings.Contains(b, `"rows":2`) {
		t.Fatalf("csv: %d %s", code, b)
	}
	code, b := get(t, ts.URL+"/v1/relations")
	if code != http.StatusOK || !strings.Contains(b, `{"name":"R","arity":2,"size":2}`) {
		t.Fatalf("list: %d %s", code, b)
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
		t.Fatalf("drop: %d", resp.StatusCode)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double drop: %d", resp.StatusCode)
	}
}

// TestServerErrorMapping: each structured sentinel surfaces as its own HTTP
// status with a stable machine-readable code, malformed bodies are 400, and
// an overrun per-request deadline is 504 carrying the context error.
func TestServerErrorMapping(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	if code, b := post(t, ts.URL+"/v1/relations", `{"name":"R","arity":2}`); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, b)
	}

	// Sentinel → status over the wire.
	for _, tc := range []struct {
		name, body string
		status     int
		code       string
	}{
		{"unknown relation", `{"query":"Q(A,B) :- Missing(A,B)."}`, http.StatusNotFound, "unknown_relation"},
		{"arity mismatch", `{"query":"Q(A,B,C) :- R(A,B,C)."}`, http.StatusUnprocessableEntity, "arity_mismatch"},
		{"mode on rule", `{"query":"T1(A) v T2(B) :- R(A,B).","mode":"subw"}`, http.StatusBadRequest, "not_conjunctive"},
		{"parse error", `{"query":"this is not a query"}`, http.StatusBadRequest, "bad_request"},
		{"malformed JSON", `{"query":`, http.StatusBadRequest, "bad_request"},
		{"unknown field", `{"query":"Q(A,B) :- R(A,B).","mod":"subw"}`, http.StatusBadRequest, "bad_request"},
		{"bad mode", `{"query":"Q(A,B) :- R(A,B).","mode":"fast"}`, http.StatusBadRequest, "bad_request"},
	} {
		code, b := post(t, ts.URL+"/v1/query", tc.body)
		if code != tc.status || !strings.Contains(b, tc.code) {
			t.Errorf("%s: got %d %s, want %d with code %s", tc.name, code, b, tc.status, tc.code)
		}
	}
	if code, b := post(t, ts.URL+"/v1/relations/R/rows", `{"rows":[[1,2,3]]}`); code != http.StatusUnprocessableEntity || !strings.Contains(b, "arity_mismatch") {
		t.Errorf("wrong-arity insert: %d %s", code, b)
	}
	if code, b := post(t, ts.URL+"/v1/relations", `{"name":"Z","arity":0}`); code != http.StatusUnprocessableEntity {
		t.Errorf("zero-arity create: %d %s", code, b)
	}
	if code, b := post(t, ts.URL+"/v1/relations/Missing/rows", `{"rows":[[1,2]]}`); code != http.StatusNotFound {
		t.Errorf("insert into missing: %d %s", code, b)
	}
	if code, b := get(t, ts.URL+"/v1/plan"); code != http.StatusBadRequest {
		t.Errorf("plan without q: %d %s", code, b)
	}

}

// TestErrorTable: every sentinel of the facade's errors.go and the two
// context errors map — wrapped, as handlers see them — to one status and one
// code, including the ones the catalog-bound HTTP path cannot reach
// (ErrUnboundedLP needs an incomplete constraint set; ErrClosed a closed
// session); anything else is a plain bad request.
func TestErrorTable(t *testing.T) {
	for _, tc := range []struct {
		err    error
		status int
		code   string
	}{
		{panda.ErrClosed, http.StatusServiceUnavailable, "closed"},
		{panda.ErrUnknownRelation, http.StatusNotFound, "unknown_relation"},
		{panda.ErrRelationExists, http.StatusConflict, "relation_exists"},
		{panda.ErrArity, http.StatusUnprocessableEntity, "arity_mismatch"},
		{panda.ErrTooManyRows, http.StatusRequestEntityTooLarge, "too_many_rows"},
		{panda.ErrTooManyValues, http.StatusRequestEntityTooLarge, "too_many_values"},
		{panda.ErrUnboundedLP, http.StatusFailedDependency, "unbounded_lp"},
		{panda.ErrNotConjunctive, http.StatusBadRequest, "not_conjunctive"},
		{panda.ErrPlanVersion, http.StatusBadRequest, "plan_version"},
		{panda.ErrPlanDigest, http.StatusBadRequest, "plan_digest"},
		{context.DeadlineExceeded, http.StatusGatewayTimeout, "deadline_exceeded"},
		{context.Canceled, 499, "canceled"},
		{&http.MaxBytesError{Limit: maxBodyBytes}, http.StatusRequestEntityTooLarge, "body_too_large"},
		{errors.New("no sentinel"), http.StatusBadRequest, "bad_request"},
	} {
		err := fmt.Errorf("wrapped: %w", tc.err)
		if status, code := classify(err); status != tc.status || code != tc.code {
			t.Errorf("classify(%v) = %d %q, want %d %q", tc.err, status, code, tc.status, tc.code)
		}
		if got := codeOf(err); got != tc.code {
			t.Errorf("codeOf(%v) = %q, want %q", tc.err, got, tc.code)
		}
	}
	// A deadline that expires inside a catalog call is still a deadline.
	both := fmt.Errorf("%w: %w", panda.ErrUnknownRelation, context.DeadlineExceeded)
	if status, code := classify(both); status != http.StatusGatewayTimeout || code != "deadline_exceeded" {
		t.Errorf("classify(%v) = %d %q: the table is ordered, context errors first", both, status, code)
	}
}

// repeated reads unit over and over, without end.
type repeated struct {
	unit string
	off  int
}

func (r *repeated) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = r.unit[r.off]
		r.off = (r.off + 1) % len(r.unit)
	}
	return len(p), nil
}

// TestServerRefusesAnOversizedBody: a rows batch whose JSON body runs past
// maxBodyBytes is answered 413 body_too_large, as the router answers an
// oversized body, and inserts nothing.
func TestServerRefusesAnOversizedBody(t *testing.T) {
	_, ts, db := newTestServer(t, Config{})
	if code, b := post(t, ts.URL+"/v1/relations", `{"name":"R","arity":2}`); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, b)
	}
	body := io.MultiReader(strings.NewReader(`{"rows":[`),
		io.LimitReader(&repeated{unit: "[1,2],"}, maxBodyBytes), strings.NewReader(`[1,2]]}`))
	resp, err := http.Post(ts.URL+"/v1/relations/R/rows", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(b), `"code":"body_too_large"`) {
		t.Fatalf("oversized rows body: %d %s, want 413 body_too_large", resp.StatusCode, b)
	}
	infos, err := db.Relations()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Size != 0 {
		t.Fatalf("relations after the refused batch: %+v, want R empty", infos)
	}
}

// TestServerTimeout: a per-request deadline that expires mid-request is
// reported as 504 with the context error in the body.
func TestServerTimeout(t *testing.T) {
	_, ts, db := newTestServer(t, Config{Timeout: time.Nanosecond})
	if err := db.CreateRelation("R", 2); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("R", []panda.Value{1, 2}); err != nil {
		t.Fatal(err)
	}
	code, b := post(t, ts.URL+"/v1/query", `{"query":"Q(A,B) :- R(A,B)."}`)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("timeout status: %d %s", code, b)
	}
	if !strings.Contains(b, "deadline_exceeded") || !strings.Contains(b, context.DeadlineExceeded.Error()) {
		t.Fatalf("timeout body lacks the context error: %s", b)
	}
}

// TestServerShutdownDrain: Shutdown waits for an in-flight query to finish
// (the client still gets its 200 and full body) while refusing new
// requests with 503.
func TestServerShutdownDrain(t *testing.T) {
	s, ts, db := newTestServer(t, Config{})
	if err := db.CreateRelation("R", 2); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("R", []panda.Value{1, 2}); err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	release := make(chan struct{})
	s.queryStarted = func() {
		close(started)
		<-release
	}

	type result struct {
		code int
		body string
	}
	slow := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(`{"query":"Q(A,B) :- R(A,B)."}`))
		if err != nil {
			slow <- result{0, err.Error()}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		slow <- result{resp.StatusCode, string(b)}
	}()
	<-started

	shdone := make(chan error, 1)
	go func() { shdone <- s.Shutdown(context.Background()) }()

	// Wait for draining to take effect, then confirm new traffic is
	// refused while the slow query is still in flight.
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, _ := get(t, ts.URL+"/metrics")
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(5 * time.Millisecond)
	}
	select {
	case err := <-shdone:
		t.Fatalf("Shutdown returned (%v) with a query still in flight", err)
	case <-slow:
		t.Fatal("in-flight query finished before release")
	default:
	}

	close(release)
	if err := <-shdone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	r := <-slow
	if r.code != http.StatusOK || !strings.Contains(r.body, `"rows":[[1,2]]`) {
		t.Fatalf("drained query: %d %s", r.code, r.body)
	}
}

// TestServerParallelismParity: a parallel execution request returns the
// identical body to the sequential one (the executor merge is
// deterministic).
func TestServerParallelismParity(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	q := panda.BooleanFourCycle()
	loadOverHTTP(t, ts.URL, &q.Schema, panda.CycleWorstCase(q, 16))
	_, seq := post(t, ts.URL+"/v1/query", fmt.Sprintf(`{"query":%q}`, booleanFourCycleSrc))
	_, par := post(t, ts.URL+"/v1/query", fmt.Sprintf(`{"query":%q,"parallelism":4}`, booleanFourCycleSrc))
	// Everything through "signature" is deterministic; the trailing
	// "timings" object is wall-clock and legitimately varies run to run.
	seq, par = stripTimings(t, seq), stripTimings(t, par)
	if seq != par {
		t.Fatalf("parallel body diverges:\n%s\nvs\n%s", seq, par)
	}
}
