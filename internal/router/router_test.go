package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

const triangleSrc = `Q(A,B,C) :- R(A,B), S(B,C), T(A,C).`

// fakePlanner answers the planner interactions the router performs:
// GET /v1/plans warm-ups (?q=…; scriptably hangable), answered with a
// snapshot of scriptably many opaque entries, each named by the text's routing
// shape — plan CONTENT is exercised by the in-process fleet test; these unit
// tests isolate routing and failover — plan imports, and catalog mutations,
// which advance a catalog epoch reported on /healthz like the real pandad.
type fakePlanner struct {
	ts    *httptest.Server
	warms atomic.Int64
	epoch atomic.Uint64
	// planMode: "ok" answers warm-ups immediately, "hang" sleeps past the
	// router's proxy deadline.
	planMode atomic.Value
	// entries is how many entries a GET /v1/plans answer holds (default 1).
	entries atomic.Int64
	// pulls records the raw query string of every GET /v1/plans.
	pullMu sync.Mutex
	pulls  []string
}

func (f *fakePlanner) pulled() []string {
	f.pullMu.Lock()
	defer f.pullMu.Unlock()
	return slices.Clone(f.pulls)
}

// snapshotOf is a plan-cache snapshot of n opaque entries, each naming key.
func snapshotOf(key string, n int) string {
	entries := make([]string, n)
	for i := range entries {
		entries[i] = fmt.Sprintf(`{"key":%q}`, key)
	}
	return `{"format":"panda-plan-cache","version":1,"entries":[` + strings.Join(entries, ",") + `]}`
}

func newFakePlanner(t *testing.T) *fakePlanner {
	t.Helper()
	f := &fakePlanner{}
	f.planMode.Store("ok")
	f.entries.Store(1)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"status":"ok","catalog_epoch":%d}`, f.epoch.Load())
	})
	mux.HandleFunc("GET /v1/plans", func(w http.ResponseWriter, r *http.Request) {
		f.pullMu.Lock()
		f.pulls = append(f.pulls, r.URL.RawQuery)
		f.pullMu.Unlock()
		params := r.URL.Query()
		var key string
		if params.Has("q") {
			if f.planMode.Load() == "hang" {
				time.Sleep(2 * time.Second)
			}
			f.warms.Add(1)
			key, _ = shapeOf(params.Get("q"), params.Get("mode"))
		}
		io.WriteString(w, snapshotOf(key, int(f.entries.Load())))
	})
	mux.HandleFunc("PUT /v1/plans", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		io.WriteString(w, `{"loaded":1,"skipped":0,"duplicates":0}`)
	})
	mux.HandleFunc("GET /v1/relations", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"relations":[{"name":"R","arity":2,"size":0}]}`)
	})
	mux.HandleFunc("POST /v1/relations", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		f.epoch.Add(1)
		w.WriteHeader(http.StatusCreated)
		io.WriteString(w, `{"name":"R","arity":2}`)
	})
	mux.HandleFunc("POST /v1/relations/{name}/rows", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if r.PathValue("name") != "R" { // the catalog holds R alone
			w.WriteHeader(http.StatusNotFound)
			io.WriteString(w, `{"error":"unknown relation","code":"unknown_relation"}`)
			return
		}
		f.epoch.Add(1)
		io.WriteString(w, `{"rows":1}`)
	})
	f.ts = httptest.NewServer(mux)
	t.Cleanup(f.ts.Close)
	return f
}

// fakeReplica is a stub backend whose /v1/query behaviour is scripted. Like
// a pandad it holds the plans it was shipped — here the routing shapes their
// snapshot entries name — and answers a read marked Panda-Plan: shipped of a
// shape it holds no plan for with 409 plan_required. An applied catalog
// mutation moves every plan key, so it forgets them all; so does a restart.
type fakeReplica struct {
	ts       *httptest.Server
	queries  atomic.Int64 // /v1/query requests past the plan check
	refusals atomic.Int64 // /v1/query requests answered 409 plan_required
	plans    atomic.Int64 // PUT /v1/plans imports received
	epoch    atomic.Uint64
	// mode: "ok" answers 200 with the replica's URL in the body, "busy"
	// answers 503 to queries and plan imports alike (a draining pandad),
	// "hang" sleeps past any proxy deadline.
	mode atomic.Value
	// mutMode: "ok" applies catalog mutations (epoch advances) and plan
	// imports, "fail" answers 500 without applying — the replica misses the
	// broadcast or the shipment — and "hold" parks each plan import: it
	// signals held, then waits for release before it applies.
	mutMode       atomic.Value
	held, release chan struct{}

	mu     sync.Mutex
	shapes map[string]bool // the shapes whose plans the replica holds
}

// restart forgets every plan, as a pandad that restarts without a plan
// directory does.
func (f *fakeReplica) restart() {
	f.mu.Lock()
	defer f.mu.Unlock()
	clear(f.shapes)
}

func (f *fakeReplica) holds(shape string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.shapes[shape]
}

func newFakeReplica(t *testing.T) *fakeReplica {
	t.Helper()
	f := &fakeReplica{held: make(chan struct{}), release: make(chan struct{}), shapes: map[string]bool{}}
	f.mode.Store("ok")
	f.mutMode.Store("ok")
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"status":"ok","catalog_epoch":%d}`, f.epoch.Load())
	})
	mux.HandleFunc("PUT /v1/plans", func(w http.ResponseWriter, r *http.Request) {
		var snapshot struct {
			Entries []struct {
				Key string `json:"key"`
			} `json:"entries"`
		}
		json.NewDecoder(r.Body).Decode(&snapshot)
		if f.mode.Load() == "busy" {
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, `{"error":"server is shutting down","code":"shutting_down"}`)
			return
		}
		switch f.mutMode.Load() {
		case "fail":
			w.WriteHeader(http.StatusInternalServerError)
			io.WriteString(w, `{"error":"disk on fire","code":"internal"}`)
			return
		case "hold":
			select {
			case f.held <- struct{}{}:
			case <-r.Context().Done():
				return
			}
			select {
			case <-f.release:
			case <-r.Context().Done():
				return
			}
		}
		f.plans.Add(1)
		f.mu.Lock()
		for _, e := range snapshot.Entries {
			f.shapes[e.Key] = true
		}
		f.mu.Unlock()
		io.WriteString(w, `{"loaded":0,"skipped":0,"duplicates":0}`)
	})
	mux.HandleFunc("GET /v1/shapes", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"shapes":[{"digest":%q,"queries":1}]}`, f.ts.URL)
	})
	mutation := func(w http.ResponseWriter, r *http.Request, created bool) {
		io.Copy(io.Discard, r.Body)
		if f.mutMode.Load() == "fail" {
			w.WriteHeader(http.StatusInternalServerError)
			io.WriteString(w, `{"error":"disk on fire","code":"internal"}`)
			return
		}
		f.epoch.Add(1)
		f.restart()
		if created {
			w.WriteHeader(http.StatusCreated)
		}
		io.WriteString(w, `{}`)
	}
	mux.HandleFunc("POST /v1/relations", func(w http.ResponseWriter, r *http.Request) {
		mutation(w, r, true)
	})
	mux.HandleFunc("POST /v1/relations/{name}/rows", func(w http.ResponseWriter, r *http.Request) {
		if r.PathValue("name") != "R" { // the catalog holds R alone
			w.WriteHeader(http.StatusNotFound)
			io.WriteString(w, `{"error":"unknown relation","code":"unknown_relation"}`)
			return
		}
		mutation(w, r, false)
	})
	mux.HandleFunc("POST /v1/query", func(w http.ResponseWriter, r *http.Request) {
		var qb queryBody
		json.NewDecoder(r.Body).Decode(&qb)
		mode := f.mode.Load()
		if mode != "busy" && r.Header.Get("Panda-Plan") == "shipped" {
			if shape, _ := shapeOf(qb.Query, qb.Mode); !f.holds(shape) {
				f.refusals.Add(1)
				w.WriteHeader(http.StatusConflict)
				io.WriteString(w, `{"error":"plan: plan not held","code":"plan_required"}`)
				return
			}
		}
		f.queries.Add(1)
		switch mode {
		case "busy":
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, `{"error":"server is shutting down","code":"shutting_down"}`)
		case "hang":
			time.Sleep(2 * time.Second)
		default:
			fmt.Fprintf(w, `{"ok":true,"served_by":%q}`, f.ts.URL)
		}
	})
	f.ts = httptest.NewServer(mux)
	t.Cleanup(f.ts.Close)
	return f
}

// newTestRouter builds a router over the fakes with the probe loop
// effectively off (an hour-long period) so tests drive every transition
// explicitly.
func newTestRouter(t *testing.T, planner string, replicas ...*fakeReplica) *Router {
	t.Helper()
	names := make([]string, len(replicas))
	for i, f := range replicas {
		names[i] = f.ts.URL
	}
	r, err := New(Config{
		Replicas:     names,
		Planner:      planner,
		ProbeEvery:   time.Hour,
		ProxyTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

// backendByName is the router's backend for a replica name; nil for none.
func (r *Router) backendByName(name string) *backend {
	for _, b := range r.replicas {
		if b.name == name {
			return b
		}
	}
	return nil
}

// TestRouteRanksAsRankWithoutAllocating: the ranking a routed request walks
// is Rank's order over the replica names, score is FNV-1a 64 of the name,
// a NUL and the key, and a ranking of a small fleet allocates nothing.
func TestRouteRanksAsRankWithoutAllocating(t *testing.T) {
	var names []string
	for i := 0; i < 5; i++ {
		names = append(names, fmt.Sprintf("http://127.0.0.1:%d", 8200+i))
	}
	r, err := New(Config{Replicas: names, Planner: "http://127.0.0.1:8100", ProbeEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	name := func(i int) string { return r.replicas[i].name }
	for _, key := range corpusShapes(t, 50) {
		h := fnv.New64a()
		h.Write([]byte(names[0] + "\x00" + key))
		if got := score(names[0], key); got != h.Sum64() {
			t.Fatalf("score(%q, %q) = %x, FNV-1a 64 %x", names[0], key, got, h.Sum64())
		}
		var room [8]scored
		var got []string
		for _, o := range rank(room[:0], len(r.replicas), name, key) {
			got = append(got, r.replicas[o.i].name)
		}
		if want := Rank(names, key); !slices.Equal(got, want) {
			t.Fatalf("route order for %q:\n %v\nRank:\n %v", key, got, want)
		}
	}
	key := corpusShapes(t, 1)[0]
	if n := testing.AllocsPerRun(100, func() {
		var room [8]scored
		rank(room[:0], len(r.replicas), name, key)
	}); n != 0 {
		t.Fatalf("ranking five replicas allocates %v times", n)
	}
}

func postQuery(t *testing.T, base, src string) (int, string) {
	t.Helper()
	resp, err := http.Post(base+"/v1/query", "application/json", strings.NewReader(fmt.Sprintf(`{"query":%q}`, src)))
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

// rankedFakes orders the fakes by the router's own ranking for the
// triangle shape, so each test can script "the first choice" and "the
// second choice" deterministically despite httptest's random ports.
func rankedFakes(t *testing.T, fakes ...*fakeReplica) []*fakeReplica {
	t.Helper()
	shape, err := shapeOf(triangleSrc, "")
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(fakes))
	byName := map[string]*fakeReplica{}
	for i, f := range fakes {
		names[i] = f.ts.URL
		byName[f.ts.URL] = f
	}
	out := make([]*fakeReplica, 0, len(fakes))
	for _, name := range Rank(names, shape) {
		out = append(out, byName[name])
	}
	return out
}

// TestRouterShapeAffinity: repeated queries for one shape land on one
// replica; the other replica never sees them. The first is refused for lack
// of the plan, which is shipped there and nowhere else.
func TestRouterShapeAffinity(t *testing.T) {
	planner := newFakePlanner(t)
	a, b := newFakeReplica(t), newFakeReplica(t)
	r := newTestRouter(t, planner.ts.URL, a, b)
	ts := httptest.NewServer(r)
	t.Cleanup(ts.Close)

	ranked := rankedFakes(t, a, b)
	for i := 0; i < 5; i++ {
		code, body := postQuery(t, ts.URL, triangleSrc)
		if code != http.StatusOK || !strings.Contains(body, ranked[0].ts.URL) {
			t.Fatalf("query %d: %d %s, want 200 from %s", i, code, body, ranked[0].ts.URL)
		}
	}
	if got := ranked[0].queries.Load(); got != 5 {
		t.Fatalf("first-ranked replica served %d queries, want 5", got)
	}
	if got := ranked[1].queries.Load(); got != 0 {
		t.Fatalf("second-ranked replica served %d queries, want 0", got)
	}
	// The planner was warmed exactly once: the replica holds the plan from
	// the first read on and answers the repeats at once.
	if got := planner.warms.Load(); got != 1 {
		t.Fatalf("planner warmed %d times, want 1", got)
	}
	if ra, rb := ranked[0].refusals.Load(), ranked[1].refusals.Load(); ra != 1 || rb != 0 {
		t.Fatalf("refusals %d/%d, want the first read's alone", ra, rb)
	}
	// The plan went to the replica that serves the shape, and only there.
	if ga, gb := ranked[0].plans.Load(), ranked[1].plans.Load(); ga != 1 || gb != 0 {
		t.Fatalf("imports %d/%d, want the plan shipped to the first-ranked replica alone", ga, gb)
	}
}

// TestRouterRuleShape: a disjunctive rule and an atom-reordered,
// variable-renamed, target-swapped spelling of it are one shape — routed to
// one replica, warmed on the planner once (the replica's plan serves both
// spellings) — distinct from the conjunctive query over the same body.
func TestRouterRuleShape(t *testing.T) {
	const (
		rule    = `T1(A,B,C) v T2(B,C,D) :- R(A,B), S(B,C), T(C,D).`
		renamed = `U2(Y,Z,W) v U1(X,Y,Z) :- T(Z,W), R(X,Y), S(Y,Z).`
		conj    = `Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D).`
	)
	shape, err := shapeOf(rule, "")
	if err != nil {
		t.Fatal(err)
	}
	if again, err := shapeOf(renamed, ""); err != nil || again != shape {
		t.Fatalf("renamed rule has shape %q (%v), want %q", again, err, shape)
	}
	if other, err := shapeOf(conj, ""); err != nil || other == shape {
		t.Fatalf("conjunctive query shares the rule's shape %q (%v)", other, err)
	}

	planner := newFakePlanner(t)
	a, b := newFakeReplica(t), newFakeReplica(t)
	ts := httptest.NewServer(newTestRouter(t, planner.ts.URL, a, b))
	t.Cleanup(ts.Close)
	for _, src := range []string{rule, renamed, rule} {
		if code, body := postQuery(t, ts.URL, src); code != http.StatusOK {
			t.Fatalf("%s: %d %s", src, code, body)
		}
	}
	if qa, qb := a.queries.Load(), b.queries.Load(); qa+qb != 3 || (qa != 0 && qb != 0) {
		t.Fatalf("one rule shape was served by both replicas (%d, %d)", qa, qb)
	}
	if got := planner.warms.Load(); got != 1 {
		t.Fatalf("planner warmed %d times for one rule shape, want 1", got)
	}
}

// TestRouterFailoverOn503: the first-ranked replica answering 503 (a
// draining pandad) is marked down and the request retries on the next-
// ranked healthy replica — the client sees one clean 200. The draining
// replica answers the read itself 503, before anything is shipped to it, so
// only the survivor is shipped the plan and the planner is warmed once.
func TestRouterFailoverOn503(t *testing.T) {
	planner := newFakePlanner(t)
	a, b := newFakeReplica(t), newFakeReplica(t)
	r := newTestRouter(t, planner.ts.URL, a, b)
	ts := httptest.NewServer(r)
	t.Cleanup(ts.Close)

	ranked := rankedFakes(t, a, b)
	ranked[0].mode.Store("busy")
	code, body := postQuery(t, ts.URL, triangleSrc)
	if code != http.StatusOK || !strings.Contains(body, ranked[1].ts.URL) {
		t.Fatalf("failover query: %d %s, want 200 from %s", code, body, ranked[1].ts.URL)
	}
	// The downed replica is remembered: the next request goes straight to
	// the survivor, no second 503 round-trip.
	before := ranked[0].queries.Load()
	if code, _ := postQuery(t, ts.URL, triangleSrc); code != http.StatusOK {
		t.Fatalf("post-failover query: %d", code)
	}
	if got := ranked[0].queries.Load(); got != before {
		t.Fatalf("downed replica was tried again (%d → %d requests)", before, got)
	}
	if before != 1 {
		t.Fatalf("the draining replica was sent %d queries, want the one it answered 503", before)
	}

	// The survivor refused its first read of the shape, was shipped the plan
	// once and served the read; the draining replica was shipped nothing.
	if ga, gb := ranked[0].plans.Load(), ranked[1].plans.Load(); ga != 0 || gb != 1 {
		t.Fatalf("imports %d/%d, want the survivor's one", ga, gb)
	}
	if got := planner.warms.Load(); got != 1 {
		t.Fatalf("planner warmed %d times, want 1: the survivor's", got)
	}

	m := metricsText(t, ts.URL)
	if !strings.Contains(m, fmt.Sprintf("panda_router_failovers_total{replica=%q} 1", ranked[0].ts.URL)) {
		t.Fatalf("metrics missing the failover count:\n%s", m)
	}
	if !strings.Contains(m, "panda_router_retries_total 1") {
		t.Fatalf("metrics missing the bounded retry count:\n%s", m)
	}
}

// TestRouterFailoverOnTimeout: a hanging replica trips the per-attempt
// proxy deadline and fails over like a transport error.
func TestRouterFailoverOnTimeout(t *testing.T) {
	planner := newFakePlanner(t)
	a, b := newFakeReplica(t), newFakeReplica(t)
	r := newTestRouter(t, planner.ts.URL, a, b)
	ts := httptest.NewServer(r)
	t.Cleanup(ts.Close)

	ranked := rankedFakes(t, a, b)
	ranked[0].mode.Store("hang")
	code, body := postQuery(t, ts.URL, triangleSrc)
	if code != http.StatusOK || !strings.Contains(body, ranked[1].ts.URL) {
		t.Fatalf("timeout failover: %d %s, want 200 from %s", code, body, ranked[1].ts.URL)
	}
}

// TestRouterNoHealthyReplica: when every candidate is down the router
// answers 502 with the stable JSON code, not a hung request or a raw
// proxy error.
func TestRouterNoHealthyReplica(t *testing.T) {
	planner := newFakePlanner(t)
	a, b := newFakeReplica(t), newFakeReplica(t)
	r := newTestRouter(t, planner.ts.URL, a, b)
	ts := httptest.NewServer(r)
	t.Cleanup(ts.Close)

	a.mode.Store("busy")
	b.mode.Store("busy")
	code, body := postQuery(t, ts.URL, triangleSrc)
	if code != http.StatusBadGateway {
		t.Fatalf("all-down query: %d %s, want 502", code, body)
	}
	var errBody struct {
		Code string `json:"code"`
	}
	if err := json.Unmarshal([]byte(body), &errBody); err != nil || errBody.Code != "no_healthy_replica" {
		t.Fatalf("all-down body %s, want code no_healthy_replica", body)
	}
	m := metricsText(t, ts.URL)
	if !strings.Contains(m, "panda_router_no_healthy_replica_total 1") {
		t.Fatalf("metrics missing the 502 count:\n%s", m)
	}
}

// TestRouterRecoversViaProbe: a downed replica that starts answering
// /healthz again is restored by the probe loop and serves its shard again.
func TestRouterRecoversViaProbe(t *testing.T) {
	planner := newFakePlanner(t)
	a, b := newFakeReplica(t), newFakeReplica(t)
	r := newTestRouter(t, planner.ts.URL, a, b)
	ts := httptest.NewServer(r)
	t.Cleanup(ts.Close)

	ranked := rankedFakes(t, a, b)
	ranked[0].mode.Store("busy")
	if code, _ := postQuery(t, ts.URL, triangleSrc); code != http.StatusOK {
		t.Fatal("failover request failed")
	}
	ranked[0].mode.Store("ok")
	r.probeAll() // the loop is parked at an hour; drive one round by hand
	code, body := postQuery(t, ts.URL, triangleSrc)
	if code != http.StatusOK || !strings.Contains(body, ranked[0].ts.URL) {
		t.Fatalf("post-recovery query: %d %s, want 200 from the restored first choice %s", code, body, ranked[0].ts.URL)
	}
}

func metricsText(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// postRaw sends one request through the router without a test fatal on
// HTTP-level errors, for tests that assert on the status code directly.
func postRaw(t *testing.T, url, body string) (int, string) {
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

// TestRouterQuarantinesReplicaThatMissedBroadcast: a replica that fails a
// catalog-mutation broadcast (here: answers 500 while the planner applied
// the mutation) is serving a diverged catalog. It must be quarantined on
// the spot AND must NOT be auto-rejoined by the probe loop while its
// /healthz answers 200 — its catalog epoch still lags the planner's. Only
// once the epochs agree again (a resync) does it return to rotation.
func TestRouterQuarantinesReplicaThatMissedBroadcast(t *testing.T) {
	planner := newFakePlanner(t)
	a, b := newFakeReplica(t), newFakeReplica(t)
	r := newTestRouter(t, planner.ts.URL, a, b)
	ts := httptest.NewServer(r)
	t.Cleanup(ts.Close)

	ranked := rankedFakes(t, a, b)
	ranked[0].mutMode.Store("fail")
	code, body := postRaw(t, ts.URL+"/v1/relations", `{"name":"R","arity":2}`)
	if code != http.StatusCreated {
		t.Fatalf("mutation through the router: %d %s, want the planner's 201", code, body)
	}

	// The first-ranked replica missed the mutation: its shard must fail
	// over even though it is live.
	for i := 0; i < 3; i++ {
		code, body := postQuery(t, ts.URL, triangleSrc)
		if code != http.StatusOK || !strings.Contains(body, ranked[1].ts.URL) {
			t.Fatalf("query %d after missed broadcast: %d %s, want 200 from %s", i, code, body, ranked[1].ts.URL)
		}
	}
	if got := ranked[0].queries.Load(); got != 0 {
		t.Fatalf("diverged replica served %d queries, want 0", got)
	}

	// The probe loop must NOT rejoin it: /healthz is 200 but the catalog
	// epoch (0) lags the planner's (1).
	r.probeAll()
	r.probeAll()
	if code, body := postQuery(t, ts.URL, triangleSrc); code != http.StatusOK || !strings.Contains(body, ranked[1].ts.URL) {
		t.Fatalf("post-probe query: %d %s, want 200 from %s", code, body, ranked[1].ts.URL)
	}
	if got := ranked[0].queries.Load(); got != 0 {
		t.Fatalf("probe loop rejoined a diverged replica (%d queries served)", got)
	}
	m := metricsText(t, ts.URL)
	if !strings.Contains(m, fmt.Sprintf("panda_router_quarantines_total{replica=%q} 1", ranked[0].ts.URL)) {
		t.Fatalf("metrics missing the quarantine count:\n%s", m)
	}
	if !strings.Contains(m, fmt.Sprintf("panda_router_replica_routable{replica=%q} 0", ranked[0].ts.URL)) {
		t.Fatalf("metrics still report the diverged replica routable:\n%s", m)
	}

	// Resync: the replica's catalog catches up (epoch matches again) and
	// the next probe round restores it.
	ranked[0].mutMode.Store("ok")
	ranked[0].epoch.Store(planner.epoch.Load())
	r.probeAll()
	if code, body := postQuery(t, ts.URL, triangleSrc); code != http.StatusOK || !strings.Contains(body, ranked[0].ts.URL) {
		t.Fatalf("post-resync query: %d %s, want 200 from the restored %s", code, body, ranked[0].ts.URL)
	}
}

// TestRouterQuarantinesStaleRestartViaProbe: a replica that restarts with
// a pre-mutation catalog (epoch reset) answers /healthz 200 immediately,
// but the probe loop must keep it out of rotation — after one round of
// grace for the probe-during-broadcast race — because its epoch lags the
// planner's.
func TestRouterQuarantinesStaleRestartViaProbe(t *testing.T) {
	planner := newFakePlanner(t)
	a, b := newFakeReplica(t), newFakeReplica(t)
	r := newTestRouter(t, planner.ts.URL, a, b)
	ts := httptest.NewServer(r)
	t.Cleanup(ts.Close)

	// One mutation lands everywhere: epochs agree at 1.
	if code, body := postRaw(t, ts.URL+"/v1/relations", `{"name":"R","arity":2}`); code != http.StatusCreated {
		t.Fatalf("mutation: %d %s", code, body)
	}
	ranked := rankedFakes(t, a, b)

	// "Restart" the first-ranked replica with its original (stale) catalog.
	ranked[0].epoch.Store(0)
	backend := r.backendByName(ranked[0].ts.URL)
	r.probeAll() // round 1: within grace, still routable
	if !backend.isRoutable() {
		t.Fatal("replica quarantined on the first mismatched probe; grace round missing")
	}
	r.probeAll() // round 2: quarantined
	if backend.isRoutable() {
		t.Fatal("replica with a stale catalog epoch was left in rotation")
	}
	if code, body := postQuery(t, ts.URL, triangleSrc); code != http.StatusOK || !strings.Contains(body, ranked[1].ts.URL) {
		t.Fatalf("query after stale restart: %d %s, want 200 from %s", code, body, ranked[1].ts.URL)
	}
	if got := ranked[0].queries.Load(); got != 0 {
		t.Fatalf("stale replica served %d queries, want 0", got)
	}
}

// TestRouterReturningReplicaGetsItsPlanOnNextRead: a replica that goes down,
// or is quarantined, and is found again by a probe round is shipped a shape's
// plan on that shape's next read when it came back without it (a restart),
// one warm-up, and nothing when it kept it. It is sent nothing else, and the
// planner's whole cache is never pulled.
func TestRouterReturningReplicaGetsItsPlanOnNextRead(t *testing.T) {
	planner := newFakePlanner(t)
	a, b := newFakeReplica(t), newFakeReplica(t)
	r := newTestRouter(t, planner.ts.URL, a, b)
	ts := httptest.NewServer(r)
	t.Cleanup(ts.Close)
	ranked := rankedFakes(t, a, b)
	a, b = ranked[0], ranked[1] // a serves the triangle
	read := func(when string, from *fakeReplica, wantA, wantB int64) {
		t.Helper()
		if code, body := postQuery(t, ts.URL, triangleSrc); code != http.StatusOK || !strings.Contains(body, from.ts.URL) {
			t.Fatalf("%s: %d %s, want 200 from %s", when, code, body, from.ts.URL)
		}
		if ga, gb := a.plans.Load(), b.plans.Load(); ga != wantA || gb != wantB {
			t.Fatalf("%s: %d/%d imports, want %d/%d", when, ga, gb, wantA, wantB)
		}
	}

	read("first sighting", a, 1, 0)
	read("held", a, 1, 0)

	// a restarts without its plans and a probe round finds it again, with no
	// read between: the shape's next read ships it to a, once.
	a.restart()
	r.markDown(r.backendByName(a.ts.URL))
	r.probeAll()
	read("after a is back", a, 2, 0)
	read("held after a is back", a, 2, 0)

	// a is marked down and found again with its cache intact: nothing ships.
	r.markDown(r.backendByName(a.ts.URL))
	r.probeAll()
	read("after a is back with its plans", a, 2, 0)

	// a restarts with a catalog epoch that lags the planner's for two probe
	// rounds (quarantined), then catches up and the next round restores it.
	planner.epoch.Store(1)
	b.epoch.Store(1)
	a.restart()
	r.probeAll()
	r.probeAll()
	a.epoch.Store(1)
	r.probeAll()
	read("after a recovers", a, 3, 0)
	read("held after a recovers", a, 3, 0)

	// a goes down again and its shard fails over to b, which is shipped the
	// plan first; a comes back with its plan and is shipped nothing.
	r.markDown(r.backendByName(a.ts.URL))
	read("while a is down", b, 3, 1)
	r.probeAll()
	read("after a is back again", a, 3, 1)

	pulls := planner.pulled()
	if len(pulls) != 4 {
		t.Fatalf("pulls %q, want four, one per shipment", pulls)
	}
	for _, q := range pulls {
		if q != "q="+url.QueryEscape(triangleSrc) {
			t.Fatalf("pulls %q, want every one the warm-up of the query's text", pulls)
		}
	}
	want := fmt.Sprintf(`{"name":%q,"healthy":true,"quarantined":false,"catalog_epoch":1}`, a.ts.URL)
	if _, info := httpDo(t, http.MethodGet, ts.URL+"/v1/info", ""); !strings.Contains(info, want) {
		t.Fatalf("/v1/info %s, want it to report %s", info, want)
	}
}

// TestRouterShardFlipShipsOnce: a shape whose shard moves from replica b to
// a and back to b is shipped to each replica once: b still holds the plan when
// the shape returns to it, so it imports nothing more.
func TestRouterShardFlipShipsOnce(t *testing.T) {
	planner := newFakePlanner(t)
	a, b := newFakeReplica(t), newFakeReplica(t)
	r := newTestRouter(t, planner.ts.URL, a, b)
	ts := httptest.NewServer(r)
	t.Cleanup(ts.Close)
	ranked := rankedFakes(t, a, b)
	a, b = ranked[0], ranked[1]
	read := func(when string, from *fakeReplica) {
		t.Helper()
		if code, body := postQuery(t, ts.URL, triangleSrc); code != http.StatusOK || !strings.Contains(body, from.ts.URL) {
			t.Fatalf("%s: %d %s, want 200 from %s", when, code, body, from.ts.URL)
		}
	}

	r.markDown(r.backendByName(a.ts.URL)) // the shard starts on b
	read("on b", b)
	r.probeAll()
	read("back on a", a)
	r.markDown(r.backendByName(a.ts.URL))
	read("on b again", b)
	read("on b, held", b)
	if ga, gb := a.plans.Load(), b.plans.Load(); ga != 1 || gb != 1 {
		t.Fatalf("imports %d/%d, want one on each replica", ga, gb)
	}
	if got := planner.warms.Load(); got != 2 {
		t.Fatalf("planner warmed %d times, want 2", got)
	}
}

// TestRouterOversizedBody413: a /v1/query body over the proxy cap answers
// 413 with its own stable code, not a generic 400.
func TestRouterOversizedBody413(t *testing.T) {
	planner := newFakePlanner(t)
	a := newFakeReplica(t)
	r := newTestRouter(t, planner.ts.URL, a)
	ts := httptest.NewServer(r)
	t.Cleanup(ts.Close)

	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(make([]byte, maxProxyBodyBytes+1)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d %s, want 413", resp.StatusCode, body)
	}
	var errBody struct {
		Code string `json:"code"`
	}
	if err := json.Unmarshal(body, &errBody); err != nil || errBody.Code != "body_too_large" {
		t.Fatalf("oversized body answer %s, want code body_too_large", body)
	}
	if got := a.queries.Load(); got != 0 {
		t.Fatalf("oversized body reached the replica (%d queries)", got)
	}
}

// TestRouterMemoizedShapeUnaffectedByHungWarmup: a hung planner connection
// during a first-sighting warm-up must not head-of-line block queries for
// shapes whose plans the replica already holds — a warm-up holds up the read
// it was made for and nothing else.
func TestRouterMemoizedShapeUnaffectedByHungWarmup(t *testing.T) {
	planner := newFakePlanner(t)
	a, b := newFakeReplica(t), newFakeReplica(t)
	r := newTestRouter(t, planner.ts.URL, a, b)
	ts := httptest.NewServer(r)
	t.Cleanup(ts.Close)

	// Ship the triangle's plan while the planner is responsive.
	if code, _ := postQuery(t, ts.URL, triangleSrc); code != http.StatusOK {
		t.Fatal("first triangle query failed")
	}

	// Now the planner hangs on warm-ups, and a NEW shape arrives: its
	// warm-up stalls until the router-side deadline.
	planner.planMode.Store("hang")
	stalled := make(chan struct{})
	go func() {
		defer close(stalled)
		resp, err := http.Post(ts.URL+"/v1/query", "application/json",
			strings.NewReader(`{"query":"Q(X,Z) :- R(X,Y), S(Y,Z)."}`))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	time.Sleep(50 * time.Millisecond) // let the warm-up get in flight

	// The shipped shape must answer promptly regardless.
	client := &http.Client{Timeout: 250 * time.Millisecond}
	resp, err := client.Post(ts.URL+"/v1/query", "application/json",
		strings.NewReader(fmt.Sprintf(`{"query":%q}`, triangleSrc)))
	if err != nil {
		t.Fatalf("held shape's query blocked behind the hung warm-up: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("held shape's query during warm-up: %d", resp.StatusCode)
	}
	<-stalled
}

// TestRouterReusesReplicaConnections: the router built without a Config.Client
// keeps enough idle connections per replica that rounds of concurrent reads
// reuse the connections the first round dialled. With two idle connections
// per host (http.DefaultTransport's), every round past the first would dial
// all but two of its reads afresh.
func TestRouterReusesReplicaConnections(t *testing.T) {
	const readers, rounds = 8, 5
	planner := newFakePlanner(t)
	var dials atomic.Int64
	replica := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/query" {
			time.Sleep(20 * time.Millisecond) // keep the round's reads in flight together
		}
		io.Copy(io.Discard, r.Body)
		io.WriteString(w, `{"status":"ok","catalog_epoch":0}`)
	}))
	replica.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			dials.Add(1)
		}
	}
	replica.Start()
	t.Cleanup(replica.Close)
	r, err := New(Config{
		Replicas:   []string{replica.URL},
		Planner:    planner.ts.URL,
		ProbeEvery: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	front := httptest.NewServer(r)
	t.Cleanup(front.Close)

	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for i := 0; i < readers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := http.Post(front.URL+"/v1/query", "application/json",
					strings.NewReader(fmt.Sprintf(`{"query":%q}`, triangleSrc)))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("round %d: status %d", round, resp.StatusCode)
				}
			}()
		}
		wg.Wait()
	}
	// The first round dials at most one connection per reader; later rounds
	// may each lose a connection to a race with its return to the idle pool.
	if got := dials.Load(); got > readers+rounds {
		t.Fatalf("%d rounds of %d concurrent reads dialled the replica %d times, want at most %d",
			rounds, readers, got, readers+rounds)
	}
}

// TestRouterShapesTagsReplicas: GET /v1/shapes concatenates the replicas'
// shape tables, each entry tagged with the replica that serves it (the fake
// names its one digest after itself). A replica known to be down is not
// asked, and one that fails to answer is marked down and left out: the view
// degrades instead of failing.
func TestRouterShapesTagsReplicas(t *testing.T) {
	planner := newFakePlanner(t)
	a, b, down, gone := newFakeReplica(t), newFakeReplica(t), newFakeReplica(t), newFakeReplica(t)
	r := newTestRouter(t, planner.ts.URL, a, down, b, gone)
	ts := httptest.NewServer(r)
	t.Cleanup(ts.Close)
	r.markDown(r.backendByName(down.ts.URL))
	gone.ts.Close()

	code, body := httpDo(t, http.MethodGet, ts.URL+"/v1/shapes", "")
	if code != http.StatusOK {
		t.Fatalf("/v1/shapes: %d %s", code, body)
	}
	var view struct {
		Shapes []struct {
			Digest  string `json:"digest"`
			Queries int    `json:"queries"`
			Replica string `json:"replica"`
		} `json:"shapes"`
	}
	if err := json.Unmarshal([]byte(body), &view); err != nil {
		t.Fatalf("/v1/shapes body: %v\n%s", err, body)
	}
	if len(view.Shapes) != 2 {
		t.Fatalf("/v1/shapes %s, want the entries of the two live replicas", body)
	}
	for i, f := range []*fakeReplica{a, b} {
		if sh := view.Shapes[i]; sh.Replica != f.ts.URL || sh.Digest != f.ts.URL || sh.Queries != 1 {
			t.Fatalf("/v1/shapes entry %d is %+v, want %s's own entry tagged with it", i, sh, f.ts.URL)
		}
	}
	if r.backendByName(gone.ts.URL).isHealthy() {
		t.Fatal("the replica that did not answer /v1/shapes is still marked healthy")
	}
}

// TestRouterPlannerReads: GET /v1/relations and GET /v1/plans are the
// planning tier's to answer — its query string passed on, its answer relayed
// as it is — and with the planner gone both answer 502 planner_unreachable.
// The router's own /healthz still answers 200: it speaks for the router
// process, not for the tiers behind it.
func TestRouterPlannerReads(t *testing.T) {
	planner := newFakePlanner(t)
	a := newFakeReplica(t)
	r := newTestRouter(t, planner.ts.URL, a)
	ts := httptest.NewServer(r)
	t.Cleanup(ts.Close)

	if code, body := httpDo(t, http.MethodGet, ts.URL+"/v1/relations", ""); code != http.StatusOK || !strings.Contains(body, `"name":"R"`) {
		t.Fatalf("/v1/relations: %d %s, want the planner's catalog", code, body)
	}
	pulls := len(planner.pulled())
	key, err := shapeOf(triangleSrc, "")
	if err != nil {
		t.Fatal(err)
	}
	query := url.Values{"q": {triangleSrc}}.Encode()
	if code, body := httpDo(t, http.MethodGet, ts.URL+"/v1/plans?"+query, ""); code != http.StatusOK || body != snapshotOf(key, 1) {
		t.Fatalf("/v1/plans: %d %s, want the planner's snapshot", code, body)
	}
	if got := planner.pulled(); len(got) != pulls+1 || got[pulls] != query {
		t.Fatalf("planner pulls %q, want one more, for %s", got, query)
	}

	planner.ts.Close()
	for _, path := range []string{"/v1/relations", "/v1/plans"} {
		if code, body := httpDo(t, http.MethodGet, ts.URL+path, ""); code != http.StatusBadGateway || !strings.Contains(body, "planner_unreachable") {
			t.Fatalf("%s with the planner gone: %d %s, want 502 planner_unreachable", path, code, body)
		}
	}
	if code, body := httpDo(t, http.MethodGet, ts.URL+"/healthz", ""); code != http.StatusOK || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("the router's own /healthz: %d %s", code, body)
	}
}

// TestRouterRefusedShipmentIsNotMemoized: a first sighting whose shipment
// the serving replica refuses (500) is still proxied there, unmarked, to plan
// as a last resort; the replica still lacks the plan, so it refuses the next
// read and the router warms and ships again. Once the replica accepts, reads
// ship nothing more, and the other replica is shipped nothing.
func TestRouterRefusedShipmentIsNotMemoized(t *testing.T) {
	planner := newFakePlanner(t)
	a, b := newFakeReplica(t), newFakeReplica(t)
	ts := httptest.NewServer(newTestRouter(t, planner.ts.URL, a, b))
	t.Cleanup(ts.Close)
	ranked := rankedFakes(t, a, b)
	a, b = ranked[0], ranked[1] // a serves the triangle
	read := func(when string, warms, imports int64) {
		t.Helper()
		if code, body := postQuery(t, ts.URL, triangleSrc); code != http.StatusOK || !strings.Contains(body, a.ts.URL) {
			t.Fatalf("%s: %d %s, want 200 from %s", when, code, body, a.ts.URL)
		}
		if got := planner.warms.Load(); got != warms {
			t.Fatalf("%s: planner warmed %d times, want %d", when, got, warms)
		}
		if ga, gb := a.plans.Load(), b.plans.Load(); ga != imports || gb != 0 {
			t.Fatalf("%s: imports %d/%d, want %d/0", when, ga, gb, imports)
		}
	}

	a.mutMode.Store("fail")
	read("first sighting, refused", 1, 0)
	read("second read, refused again", 2, 0)
	a.mutMode.Store("ok")
	read("third read, accepted", 3, 1)
	read("held", 3, 1)
}

// TestRouterShipmentOverlappingOutageIsNotMemoized: a shipment whose PUT is
// still in flight while its replica is marked down and probed back is judged
// by what the replica holds, not by when the outage fell: the PUT landed, so
// the read it was made for is served marked, and the next reads ship nothing.
// Once the replica restarts without its plans, the next read ships again.
func TestRouterShipmentOverlappingOutageIsNotMemoized(t *testing.T) {
	planner := newFakePlanner(t)
	a := newFakeReplica(t)
	r, err := New(Config{Replicas: []string{a.ts.URL}, Planner: planner.ts.URL, ProbeEvery: time.Hour, ProxyTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	ts := httptest.NewServer(r)
	t.Cleanup(ts.Close)

	a.mutMode.Store("hold")
	served := make(chan int)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(fmt.Sprintf(`{"query":%q}`, triangleSrc)))
		if err != nil {
			served <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		served <- resp.StatusCode
	}()
	<-a.held // the shipment's PUT has reached a
	r.markDown(r.backendByName(a.ts.URL))
	r.probeAll()
	a.mutMode.Store("ok")
	a.release <- struct{}{}
	if code := <-served; code != http.StatusOK {
		t.Fatalf("the read whose shipment overlapped the outage: %d, want 200", code)
	}
	if got := a.refusals.Load(); got != 1 {
		t.Fatalf("a refused %d reads, want 1: the retry after the shipment was answered", got)
	}

	read := func(when string, want int64) {
		t.Helper()
		if code, body := postQuery(t, ts.URL, triangleSrc); code != http.StatusOK {
			t.Fatalf("%s: %d %s", when, code, body)
		}
		if got, imports := planner.warms.Load(), a.plans.Load(); got != want || imports != want {
			t.Fatalf("%s: %d warm-ups and %d imports, want %d of each", when, got, imports, want)
		}
	}
	read("after the outage", 1)
	read("held", 1)
	a.restart()
	read("after a restart", 2)
	read("held after the restart", 2)
}

// TestRouterEntrylessWarmupIsNotMemoized: a warm-up answered 200 with a
// snapshot that holds no plan ships nothing. It counts as a planner error and
// the read goes unmarked; the replica still lacks the plan, so the next
// sighting warms it again. Once the planner answers with the plan, the shape
// is ensured once and the replica answers the reads after it.
func TestRouterEntrylessWarmupIsNotMemoized(t *testing.T) {
	planner := newFakePlanner(t)
	planner.entries.Store(0)
	a, b := newFakeReplica(t), newFakeReplica(t)
	ts := httptest.NewServer(newTestRouter(t, planner.ts.URL, a, b))
	t.Cleanup(ts.Close)
	wantCounts := func(when string, warms int64, ensured, errs int) {
		t.Helper()
		if got := planner.warms.Load(); got != warms {
			t.Fatalf("%s: planner warmed %d times, want %d", when, got, warms)
		}
		m := metricsText(t, ts.URL)
		for _, want := range []string{
			fmt.Sprintf("panda_router_shapes_ensured_total %d\n", ensured),
			fmt.Sprintf("panda_router_planner_errors_total %d\n", errs),
		} {
			if !strings.Contains(m, want) {
				t.Fatalf("%s: metrics missing %q:\n%s", when, want, m)
			}
		}
	}

	for i := 0; i < 2; i++ {
		if code, body := postQuery(t, ts.URL, triangleSrc); code != http.StatusOK {
			t.Fatalf("query %d: %d %s", i, code, body)
		}
	}
	wantCounts("after two entry-less warm-ups", 2, 0, 2)
	if ga, gb := a.plans.Load(), b.plans.Load(); ga != 0 || gb != 0 {
		t.Fatalf("an entry-less snapshot was pushed (%d/%d imports)", ga, gb)
	}

	planner.entries.Store(1)
	for i := 0; i < 2; i++ {
		if code, body := postQuery(t, ts.URL, triangleSrc); code != http.StatusOK {
			t.Fatalf("query %d with the plan: %d %s", i, code, body)
		}
	}
	wantCounts("once the planner answers with the plan", 3, 1, 2)
}

// TestRouterRejectedMutationKeepsShapes: a mutation the fleet rejects
// changed no catalog and no plan key, so the replica still holds the shape's
// plan and the next read ships nothing; after a mutation the fleet applied,
// the replica lacks the plan of the moved key and the next read ships it.
func TestRouterRejectedMutationKeepsShapes(t *testing.T) {
	planner := newFakePlanner(t)
	a, b := newFakeReplica(t), newFakeReplica(t)
	ts := httptest.NewServer(newTestRouter(t, planner.ts.URL, a, b))
	t.Cleanup(ts.Close)
	readThenWantEnsured := func(when string, want int) {
		t.Helper()
		if code, body := postQuery(t, ts.URL, triangleSrc); code != http.StatusOK {
			t.Fatalf("%s: query %d %s", when, code, body)
		}
		if m, line := metricsText(t, ts.URL), fmt.Sprintf("panda_router_shapes_ensured_total %d\n", want); !strings.Contains(m, line) {
			t.Fatalf("%s: metrics missing %q:\n%s", when, line, m)
		}
	}

	readThenWantEnsured("first sighting", 1)
	if code, body := postRaw(t, ts.URL+"/v1/relations/Nope/rows", `{"rows":[[1,2]]}`); code != http.StatusNotFound {
		t.Fatalf("insert into an unknown relation: %d %s, want the planner's 404", code, body)
	}
	readThenWantEnsured("after the rejected insert", 1)
	if code, body := postRaw(t, ts.URL+"/v1/relations/R/rows", `{"rows":[[1,2]]}`); code != http.StatusOK {
		t.Fatalf("insert: %d %s", code, body)
	}
	readThenWantEnsured("after the applied insert", 2)
}

// meeting lets two requests wait for each other: meet returns true once a
// second caller has arrived, or false if none arrives within the bound (the
// waiter then leaves and the next arrival starts over).
type meeting struct {
	mu sync.Mutex
	ch chan struct{} // nil while nobody waits
}

func (m *meeting) meet(bound time.Duration) bool {
	m.mu.Lock()
	if ch := m.ch; ch != nil {
		m.ch = nil
		m.mu.Unlock()
		close(ch)
		return true
	}
	ch := make(chan struct{})
	m.ch = ch
	m.mu.Unlock()
	select {
	case <-ch:
		return true
	case <-time.After(bound):
		m.mu.Lock()
		defer m.mu.Unlock()
		if m.ch == ch {
			m.ch = nil
			return false
		}
		return true // the other arrived as the bound ran out
	}
}

// TestRouterFanOutsOverlap: the router sends a broadcast's replica legs — a
// plan import's and a row insert's — to all replicas at once. Each of the two
// replicas below holds its plan import and its row insert until the other
// replica's request of the same kind has arrived, so a router that sent them
// one after another would leave the first waiting out its bound. (A first
// sighting ships to one replica, so it has no legs to overlap.)
func TestRouterFanOutsOverlap(t *testing.T) {
	const bound = time.Second
	planner := newFakePlanner(t)
	var imports, inserts meeting
	var met, missed atomic.Int64
	replica := func() string {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
			io.WriteString(w, `{"status":"ok","catalog_epoch":0}`)
		})
		gated := func(m *meeting, answer string) http.HandlerFunc {
			return func(w http.ResponseWriter, r *http.Request) {
				io.Copy(io.Discard, r.Body)
				if m.meet(bound) {
					met.Add(1)
				} else {
					missed.Add(1)
				}
				io.WriteString(w, answer)
			}
		}
		mux.HandleFunc("PUT /v1/plans", gated(&imports, `{"loaded":1,"skipped":0,"duplicates":0}`))
		mux.HandleFunc("POST /v1/relations/{name}/rows", gated(&inserts, `{"rows":1}`))
		mux.HandleFunc("POST /v1/query", func(w http.ResponseWriter, r *http.Request) {
			io.WriteString(w, `{"ok":true}`)
		})
		ts := httptest.NewServer(mux)
		t.Cleanup(ts.Close)
		return ts.URL
	}
	r, err := New(Config{
		Replicas:     []string{replica(), replica()},
		Planner:      planner.ts.URL,
		ProbeEvery:   time.Hour,
		ProxyTimeout: 10 * bound,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	ts := httptest.NewServer(r)
	t.Cleanup(ts.Close)

	if code, body := httpDo(t, http.MethodPut, ts.URL+"/v1/plans", snapshotOf("k", 1)); code != http.StatusOK {
		t.Fatalf("plan import: %d %s", code, body)
	}
	if code, body := postRaw(t, ts.URL+"/v1/relations/R/rows", `{"rows":[[1,2]]}`); code != http.StatusOK {
		t.Fatalf("insert: %d %s", code, body)
	}
	if m, n := missed.Load(), met.Load(); m != 0 || n != 4 {
		t.Fatalf("%d replica requests waited out their bound and %d met their pair, want 0 and 4: the fan-outs ran one replica at a time", m, n)
	}
}
