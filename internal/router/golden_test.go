package router

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"regexp"
	"testing"
	"time"
)

// aliasTransport lets the router address the test fakes by fixed host names:
// replica names are metric labels and rendezvous identities, so the golden
// needs them stable where httptest hands out random ports.
type aliasTransport map[string]string // alias host → real host

func (a aliasTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	real, ok := a[req.URL.Host]
	if !ok {
		return http.DefaultTransport.RoundTrip(req)
	}
	req = req.Clone(req.Context())
	req.URL.Host = real
	return http.DefaultTransport.RoundTrip(req)
}

func hostOf(t *testing.T, raw string) string {
	t.Helper()
	u, err := url.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	return u.Host
}

// secondsSample matches the one router series whose value is a duration.
var secondsSample = regexp.MustCompile(`(?m)^(panda_router_request_seconds_total\{[^}]*\}) \S+$`)

// TestMetricsGolden pins pandarouter's whole /metrics exposition — series
// names, label sets, HELP/TYPE lines and order — for one scripted,
// sequential session that moves every series: routed shapes on both
// replicas, a rule, shipped plans, unparseable text, a relayed 404, a mutation one
// replica misses (quarantine), a 503 failover with its retry and recovery,
// and requests with nobody left to serve them.
func TestMetricsGolden(t *testing.T) {
	planner := newFakePlanner(t)
	a, b := newFakeReplica(t), newFakeReplica(t)
	r, err := New(Config{
		Replicas:     []string{"http://replica-a", "http://replica-b"},
		Planner:      "http://planner",
		ProbeEvery:   time.Hour,
		ProxyTimeout: 500 * time.Millisecond,
		Client: &http.Client{Transport: aliasTransport{
			"planner":   hostOf(t, planner.ts.URL),
			"replica-a": hostOf(t, a.ts.URL),
			"replica-b": hostOf(t, b.ts.URL),
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	ts := httptest.NewServer(r)
	t.Cleanup(ts.Close)
	query := func(want int, src string) {
		t.Helper()
		if code, body := postQuery(t, ts.URL, src); code != want {
			t.Fatalf("query %q: status %d, want %d: %s", src, code, want, body)
		}
	}

	// The fake planner answers every pull with two plan entries, so each
	// ensure ships two, to the replica that refused the read for lack of them.
	planner.entries.Store(2)
	shapes := []string{
		triangleSrc,
		`P(X,Y,Z) :- R(X,Y), S(Y,Z), T(X,Z).`, // a renaming: same shape
		`Q(A,B,C) :- R(A,B), S(B,C).`,
		`Q(A,B) :- R(A,B).`,
		`Q() :- R(A,B), S(B,C).`,
		`T1(A,B) v T2(B,C) :- R(A,B), S(B,C).`,
	}
	for range 2 {
		for _, src := range shapes {
			query(http.StatusOK, src)
		}
	}
	// Unparseable text routes by its raw bytes (the replica owns the real
	// error), so it exercises label quoting; the fakes have no /v1/plan, so
	// the dry run is relayed as their 404.
	query(http.StatusOK, `not a "query"`)
	if code, body := httpDo(t, http.MethodGet, ts.URL+"/v1/plan?q="+url.QueryEscape(triangleSrc), ""); code != http.StatusNotFound {
		t.Fatalf("plan: %d %s", code, body)
	}

	// replica-b answers one request 503: its shards retry on replica-a until
	// a probe round brings it back.
	b.mode.Store("busy")
	for _, src := range shapes {
		query(http.StatusOK, src)
	}
	b.mode.Store("ok")
	r.probeAll()

	// replica-a misses a broadcast: quarantined on the spot, live but not
	// routable, and its shard moves to replica-b.
	a.mutMode.Store("fail")
	if code, body := postRaw(t, ts.URL+"/v1/relations/R/rows", `{"rows":[[1,2]]}`); code != http.StatusOK {
		t.Fatalf("mutation: %d %s", code, body)
	}
	for _, src := range shapes {
		query(http.StatusOK, src)
	}
	// replica-b starts draining: nobody is left.
	b.mode.Store("busy")
	query(http.StatusBadGateway, triangleSrc)
	query(http.StatusBadGateway, triangleSrc)

	metricsText(t, ts.URL) // so the exposition shows its own endpoint
	got := secondsSample.ReplaceAllString(metricsText(t, ts.URL), "$1 <t>")
	want, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("/metrics exposition differs from testdata/metrics.golden; got:\n%s", got)
	}
}
