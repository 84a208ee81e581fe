package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"panda"
)

// watchLineJSON decodes any line of a /v1/watch NDJSON stream: the snapshot
// header, a delta, or the terminal error line.
type watchLineJSON struct {
	Snapshot  bool            `json:"snapshot"`
	Tick      uint64          `json:"tick"`
	Mode      string          `json:"mode"`
	OK        bool            `json:"ok"`
	Width     string          `json:"width"`
	Signature string          `json:"signature"`
	Columns   []string        `json:"columns"`
	Rows      [][]panda.Value `json:"rows"`
	Resync    bool            `json:"resync"`
	Tables    []struct {
		Target string          `json:"target"`
		Size   int             `json:"size"`
		Rows   [][]panda.Value `json:"rows"`
	} `json:"tables"`
	Error string `json:"error"`
	Code  string `json:"code"`
}

// watchStream is a test client for the NDJSON stream: a reader goroutine
// pumps lines into a channel so tests can wait with a deadline.
type watchStream struct {
	resp  *http.Response
	lines chan string
}

func openWatch(t *testing.T, base, body string) *watchStream {
	t.Helper()
	resp, err := http.Post(base+"/v1/watch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("watch: %d %s", resp.StatusCode, b)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("watch content type %q", ct)
	}
	ws := &watchStream{resp: resp, lines: make(chan string, 256)}
	go func() {
		defer close(ws.lines)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
		for sc.Scan() {
			ws.lines <- sc.Text()
		}
	}()
	t.Cleanup(func() { resp.Body.Close() })
	return ws
}

// next returns the next decoded stream line, failing the test after a
// deadline; eof reports a cleanly closed stream instead of failing.
func (ws *watchStream) next(t *testing.T) (line watchLineJSON, raw string, eof bool) {
	t.Helper()
	select {
	case raw, ok := <-ws.lines:
		if !ok {
			return watchLineJSON{}, "", true
		}
		var l watchLineJSON
		if err := json.Unmarshal([]byte(raw), &l); err != nil {
			t.Fatalf("stream line is not valid JSON: %v\n%s", err, raw)
		}
		return l, raw, false
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for a watch stream line")
	}
	return watchLineJSON{}, "", false
}

// rowSet keys rows for order-independent set comparison.
func rowSet(rows [][]panda.Value) map[string]bool {
	m := make(map[string]bool, len(rows))
	for _, r := range rows {
		m[fmt.Sprint(r)] = true
	}
	return m
}

// TestServerWatchStreamParity drives the full subscription path: snapshot
// line, then delta lines as the catalog grows over HTTP, with the applied
// stream converging to a direct db.Query — and zero LP solves after the
// watch is open (maintenance runs the pinned plan).
func TestServerWatchStreamParity(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	for _, body := range []string{
		`{"name":"R","arity":2}`, `{"name":"S","arity":2}`, `{"name":"T","arity":2}`,
	} {
		if code, b := post(t, ts.URL+"/v1/relations", body); code != http.StatusCreated {
			t.Fatalf("create: %d %s", code, b)
		}
	}
	if code, b := post(t, ts.URL+"/v1/relations/R/rows", `{"rows":[[1,2]]}`); code != http.StatusOK {
		t.Fatalf("insert: %d %s", code, b)
	}
	if code, b := post(t, ts.URL+"/v1/relations/S/rows", `{"rows":[[2,3]]}`); code != http.StatusOK {
		t.Fatalf("insert: %d %s", code, b)
	}

	ws := openWatch(t, ts.URL, fmt.Sprintf(`{"query":%q}`, triangleSrc))
	snap, _, _ := ws.next(t)
	if !snap.Snapshot || snap.OK || len(snap.Rows) != 0 {
		t.Fatalf("bad snapshot line: %+v", snap)
	}
	if !reflect.DeepEqual(snap.Columns, []string{"A", "B", "C"}) {
		t.Fatalf("snapshot columns %v", snap.Columns)
	}
	_, m := get(t, ts.URL+"/metrics")
	if subs := metricValue(t, m, "panda_watch_subscriptions"); subs != 1 {
		t.Fatalf("subscriptions gauge = %v, want 1", subs)
	}
	solves := metricValue(t, m, "panda_planner_lp_solves_total")

	// Complete one triangle, then add a second disjoint one; the watch must
	// converge to exactly the direct-query answer.
	for _, ins := range []struct{ rel, rows string }{
		{"T", `[[1,3]]`},
		{"R", `[[4,5]]`}, {"S", `[[5,6]]`}, {"T", `[[4,6]]`},
	} {
		if code, b := post(t, ts.URL+"/v1/relations/"+ins.rel+"/rows", fmt.Sprintf(`{"rows":%s}`, ins.rows)); code != http.StatusOK {
			t.Fatalf("insert %s: %d %s", ins.rel, code, b)
		}
	}
	// Reference on a separate session: a direct query here would replan
	// (grown catalog → new constraint values) and muddy the zero-LP assert.
	ref := panda.Open()
	defer ref.Close()
	for rel, rows := range map[string][][]panda.Value{
		"R": {{1, 2}, {4, 5}}, "S": {{2, 3}, {5, 6}}, "T": {{1, 3}, {4, 6}},
	} {
		if err := ref.CreateRelation(rel, 2); err != nil {
			t.Fatal(err)
		}
		if err := ref.Insert(rel, rows...); err != nil {
			t.Fatal(err)
		}
	}
	want, err := ref.Query(triangleSrc)
	if err != nil {
		t.Fatal(err)
	}
	wantSet := rowSet(want.Rows())
	applied := rowSet(snap.Rows)
	tick := snap.Tick
	for !reflect.DeepEqual(applied, wantSet) {
		l, raw, eof := ws.next(t)
		if eof {
			t.Fatalf("stream closed before converging: have %v want %v", applied, wantSet)
		}
		if l.Tick < tick {
			t.Fatalf("tick went backwards (%d -> %d): %s", tick, l.Tick, raw)
		}
		tick = l.Tick
		if l.Resync {
			applied = rowSet(l.Rows)
			continue
		}
		for k := range rowSet(l.Rows) {
			applied[k] = true
		}
	}

	_, m = get(t, ts.URL+"/metrics")
	if got := metricValue(t, m, "panda_planner_lp_solves_total"); got != solves {
		t.Errorf("watch maintenance ran %v extra LP solves", got-solves)
	}
	if d := metricValue(t, m, "panda_watch_deltas_total"); d < 1 {
		t.Errorf("deltas counter = %v, want >= 1", d)
	}
}

// TestServerWatchDisconnect: a client that drops its connection tears the
// watch down server-side — the subscriptions gauge returns to zero.
func TestServerWatchDisconnect(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	if code, b := post(t, ts.URL+"/v1/relations", `{"name":"R","arity":2}`); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, b)
	}
	ws := openWatch(t, ts.URL, `{"query":"Q(A,B) :- R(A,B)."}`)
	if snap, _, _ := ws.next(t); !snap.Snapshot {
		t.Fatalf("bad snapshot line: %+v", snap)
	}
	ws.resp.Body.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		_, m := get(t, ts.URL+"/metrics")
		if metricValue(t, m, "panda_watch_subscriptions") == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("watch subscription never cleaned up after disconnect")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerWatchShutdownDrain: Shutdown must terminate open watch streams
// (they would otherwise hold the in-flight drain forever) and the client
// sees a clean end of stream.
func TestServerWatchShutdownDrain(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{})
	if code, b := post(t, ts.URL+"/v1/relations", `{"name":"R","arity":2}`); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, b)
	}
	ws := openWatch(t, ts.URL, `{"query":"Q(A,B) :- R(A,B)."}`)
	if snap, _, _ := ws.next(t); !snap.Snapshot {
		t.Fatalf("bad snapshot line: %+v", snap)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown with an open watch: %v", err)
	}
	if _, raw, eof := ws.next(t); !eof {
		t.Fatalf("stream still open after shutdown: %s", raw)
	}
}

// TestServerWatchGracefulHTTPShutdown: behind a real http.Server, as pandad
// runs it, an open watch stream must not hold up a graceful stop. net/http's
// Shutdown waits for open connections and the stream keeps its connection
// until the server's drain begins, so the drain is registered to begin with
// the listener's shutdown: both calls return nil, promptly, and the
// subscriber sees its stream end.
func TestServerWatchGracefulHTTPShutdown(t *testing.T) {
	db := panda.Open()
	t.Cleanup(func() { db.Close() })
	if err := db.CreateRelation("R", 2); err != nil {
		t.Fatal(err)
	}
	s := New(Config{DB: db})
	hs := &http.Server{Handler: s}
	hs.RegisterOnShutdown(s.BeginDrain)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()

	ws := openWatch(t, "http://"+ln.Addr().String(), `{"query":"Q(A,B) :- R(A,B)."}`)
	if snap, _, _ := ws.next(t); !snap.Snapshot {
		t.Fatalf("bad snapshot line: %+v", snap)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := hs.Shutdown(ctx); err != nil {
		t.Fatalf("listener shutdown with an open watch: %v (after %v)", err, time.Since(start))
	}
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain with an open watch: %v", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("graceful stop took %v with one watch subscriber", took)
	}
	if _, raw, eof := ws.next(t); !eof {
		t.Fatalf("stream still open after shutdown: %s", raw)
	}
	if err := <-served; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v", err)
	}
}

// TestServerWatchRuleStream: a disjunctive-rule watch streams complete
// models — every delta line carries resync with the full tables, matching
// a direct query on the same catalog.
func TestServerWatchRuleStream(t *testing.T) {
	_, ts, db := newTestServer(t, Config{})
	for _, body := range []string{
		`{"name":"R12","arity":2}`, `{"name":"R23","arity":2}`, `{"name":"R34","arity":2}`,
	} {
		if code, b := post(t, ts.URL+"/v1/relations", body); code != http.StatusCreated {
			t.Fatalf("create: %d %s", code, b)
		}
	}
	ws := openWatch(t, ts.URL, fmt.Sprintf(`{"query":%q}`, pathRuleSrc))
	snap, _, _ := ws.next(t)
	if !snap.Snapshot || snap.Mode != "rule" || snap.Tables == nil {
		t.Fatalf("bad rule snapshot line: %+v", snap)
	}

	for _, ins := range []struct{ rel, rows string }{
		{"R12", `[[1,2]]`}, {"R23", `[[2,3]]`}, {"R34", `[[3,4]]`},
	} {
		if code, b := post(t, ts.URL+"/v1/relations/"+ins.rel+"/rows", fmt.Sprintf(`{"rows":%s}`, ins.rows)); code != http.StatusOK {
			t.Fatalf("insert %s: %d %s", ins.rel, code, b)
		}
	}
	want, err := db.Query(pathRuleSrc)
	if err != nil {
		t.Fatal(err)
	}
	st, err := db.Prepare(pathRuleSrc)
	if err != nil {
		t.Fatal(err)
	}
	sch := st.Schema()

	// Every rule line is a resync; wait for one matching the final model.
	deadline := time.Now().Add(10 * time.Second)
	for {
		l, raw, eof := ws.next(t)
		if eof || time.Now().After(deadline) {
			t.Fatalf("stream ended before reaching the final model (eof=%v)", eof)
		}
		if !l.Resync || l.Tables == nil {
			t.Fatalf("rule delta line without resync tables: %s", raw)
		}
		match := len(l.Tables) == len(want.Tables)
		if match {
			i := 0
			for _, b := range sortedTargets(want.Tables) {
				tb := l.Tables[i]
				if tb.Target != "T_"+sch.VarLabel(b) || !rowsEqual(tb.Rows, (&panda.Result{Rel: want.Tables[b]}).Rows()) {
					match = false
					break
				}
				i++
			}
		}
		if match {
			break
		}
	}
}

// TestServerWatchErrors: request validation surfaces as plain JSON errors
// before any stream starts.
func TestServerWatchErrors(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	for _, tc := range []struct {
		name, body string
		status     int
		code       string
	}{
		{"missing query", `{}`, http.StatusBadRequest, "bad_request"},
		{"unknown relation", `{"query":"Q(A,B) :- Missing(A,B)."}`, http.StatusNotFound, "unknown_relation"},
		{"negative queue", `{"query":"Q(A,B) :- R(A,B).","queue":-1}`, http.StatusBadRequest, "bad_request"},
		// A channel of 1<<40 deltas is about 48 TiB, and failing to make
		// it is fatal. R is not in this catalog, so the size must be
		// refused before the query is bound: a check that came later
		// would answer 404, and still allocate nothing.
		{"oversized queue", `{"query":"Q(A,B) :- R(A,B).","queue":1099511627776}`, http.StatusBadRequest, "bad_request"},
		{"unknown field", `{"query":"Q(A,B) :- R(A,B).","mode":"subw"}`, http.StatusBadRequest, "bad_request"},
	} {
		code, b := post(t, ts.URL+"/v1/watch", tc.body)
		if code != tc.status || !strings.Contains(b, tc.code) {
			t.Errorf("%s: got %d %s, want %d with code %s", tc.name, code, b, tc.status, tc.code)
		}
	}
}

// TestServerQueryNDJSON pins the NDJSON wire format for /v1/query: a header
// line, one bare-array line per row, and a trailer line with the row count
// and stats — and that rules ignore the Accept header (tables don't fit a
// single row stream).
func TestServerQueryNDJSON(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	for _, load := range []string{`{"name":"R","arity":2}`, `{"name":"S","arity":2}`} {
		if code, b := post(t, ts.URL+"/v1/relations", load); code != http.StatusCreated {
			t.Fatalf("create: %d %s", code, b)
		}
	}
	if code, b := post(t, ts.URL+"/v1/relations/R/rows", `{"rows":[[1,2],[2,3]]}`); code != http.StatusOK {
		t.Fatalf("insert R: %d %s", code, b)
	}
	if code, b := post(t, ts.URL+"/v1/relations/S/rows", `{"rows":[[2,5]]}`); code != http.StatusOK {
		t.Fatalf("insert S: %d %s", code, b)
	}

	ndjson := func(body string) (*http.Response, []string) {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/query", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Accept", "application/x-ndjson")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		raw := strings.TrimSuffix(string(b), "\n")
		return resp, strings.Split(raw, "\n")
	}

	resp, lines := ndjson(`{"query":"Q(A,B,C) :- R(A,B), S(B,C)."}`)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/x-ndjson" {
		t.Fatalf("ndjson query: %d %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if len(lines) != 3 {
		t.Fatalf("ndjson framing: %d lines\n%s", len(lines), strings.Join(lines, "\n"))
	}
	wantHeader := `{"mode":"full","ok":true,"width":"1","columns":["A","B","C"],"signature":"`
	if !strings.HasPrefix(lines[0], wantHeader) {
		t.Errorf("header line:\n got %s\nwant prefix %s", lines[0], wantHeader)
	}
	if lines[1] != `[1,2,5]` {
		t.Errorf("row line: %s", lines[1])
	}
	if !strings.HasPrefix(lines[2], `{"rows":1,"stats":`) {
		t.Errorf("trailer line: %s", lines[2])
	}

	// max_rows truncation is reported in the trailer.
	_, lines = ndjson(`{"query":"Q(A,B) :- R(A,B).","max_rows":1}`)
	if len(lines) != 3 || !strings.HasPrefix(lines[2], `{"rows":1,"truncated":true`) {
		t.Errorf("truncated trailer:\n%s", strings.Join(lines, "\n"))
	}

	// A rule answers with the buffered JSON object even under the header.
	resp, lines = ndjson(`{"query":"T1(A,B) v T2(B,C) :- R(A,B), S(B,C)."}`)
	if resp.Header.Get("Content-Type") != "application/json" {
		t.Errorf("rule content type %q", resp.Header.Get("Content-Type"))
	}
	if len(lines) != 1 || !strings.HasPrefix(lines[0], `{"mode":"rule",`) {
		t.Errorf("rule body:\n%s", strings.Join(lines, "\n"))
	}
}
