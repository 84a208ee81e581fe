package server

import (
	"net/http"
	"os"
	"regexp"
	"testing"
)

// timingSample matches the /metrics samples whose value depends on how long
// something took: histogram sums and every finite-bound bucket (which
// bucket an observation lands in is a function of its latency). The
// le="+Inf" buckets and the _count series are pure event counts and stay.
var timingSample = regexp.MustCompile(`(?m)^(\w+_sum(?:\{[^}]*\})?|\w+_bucket\{(?:[^}]*,)?le="[0-9.e+-]+"\}) \S+$`)

// TestMetricsGolden pins pandad's whole /metrics exposition — every series
// name, label set, HELP/TYPE line and their order — for one scripted,
// sequential session that touches every series: catalog mutations, repeated
// and renamed queries, a rule, a forced mode, a truncated answer, client
// errors, a dry-run plan, a standing query with one delta, and a shape
// table small enough to evict into the "other" rollup.
func TestMetricsGolden(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{ShapeTableSize: 2})
	must := func(want, got int, body string) {
		t.Helper()
		if got != want {
			t.Fatalf("status %d, want %d: %s", got, want, body)
		}
	}
	for _, name := range []string{"R", "S", "T"} {
		code, body := post(t, ts.URL+"/v1/relations", `{"name":"`+name+`","arity":2}`)
		must(http.StatusCreated, code, body)
	}
	code, body := post(t, ts.URL+"/v1/relations", `{"name":"R","arity":2}`)
	must(http.StatusConflict, code, body)
	code, body = post(t, ts.URL+"/v1/relations/R/rows", `{"rows":[[1,2],[2,3],[4,5]]}`)
	must(http.StatusOK, code, body)
	code, body = post(t, ts.URL+"/v1/relations/S/rows", `{"rows":[[2,3],[3,4],[5,6]]}`)
	must(http.StatusOK, code, body)
	code, body = post(t, ts.URL+"/v1/relations/T/csv", "1,3\n2,4\n")
	must(http.StatusOK, code, body)

	const tri = `{"query":"Q(A,B,C) :- R(A,B), S(B,C), T(A,C)."}`
	for range 3 {
		code, body = post(t, ts.URL+"/v1/query", tri)
		must(http.StatusOK, code, body)
	}
	for _, q := range []string{
		`{"query":"P(X,Y,Z) :- R(X,Y), S(Y,Z), T(X,Z)."}`,
		`{"query":"Q(A,B,C) :- R(A,B), S(B,C).","max_rows":1}`,
		`{"query":"Q(A,B,C) :- R(A,B), S(B,C), T(A,C).","mode":"subw"}`,
		`{"query":"Q() :- R(A,B), S(B,C)."}`,
		`{"query":"T1(A,B) v T2(B,C) :- R(A,B), S(B,C)."}`,
	} {
		code, body = post(t, ts.URL+"/v1/query", q)
		must(http.StatusOK, code, body)
	}
	code, body = post(t, ts.URL+"/v1/query", `{"query":"Q(A) :- Missing(A)."}`)
	must(http.StatusNotFound, code, body)
	code, body = post(t, ts.URL+"/v1/query", `{"query":"not a query"}`)
	must(http.StatusBadRequest, code, body)
	code, body = get(t, ts.URL+"/v1/plan?q="+urlQuery("Q(A,C) :- R(A,B), S(B,C)."))
	must(http.StatusOK, code, body)
	code, body = get(t, ts.URL+"/v1/shapes")
	must(http.StatusOK, code, body)
	code, body = get(t, ts.URL+"/v1/relations")
	must(http.StatusOK, code, body)

	ws := openWatch(t, ts.URL, tri)
	if l, raw, _ := ws.next(t); !l.Snapshot {
		t.Fatalf("first watch line is not a snapshot: %s", raw)
	}
	code, body = post(t, ts.URL+"/v1/relations/T/rows", `{"rows":[[4,6]]}`)
	must(http.StatusOK, code, body)
	if l, raw, _ := ws.next(t); len(l.Rows) != 1 {
		t.Fatalf("watch delta: %s", raw)
	}
	ws.resp.Body.Close()
	s.inflight.Wait() // the watch handler has returned and been counted

	scrape(t, ts.URL) // so the exposition shows its own endpoint
	got := timingSample.ReplaceAllString(scrape(t, ts.URL), "$1 <t>")
	want, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("/metrics exposition differs from testdata/metrics.golden; got:\n%s", got)
	}
}
