package main

import (
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"
)

func mkSpan(id, op int, name string, start, end int64) span {
	return span{ID: id, Parent: unnested, Op: op, Name: name, StartNs: start, EndNs: end}
}

// Spans nest by interval containment within an operation, and a span's self
// time is its duration minus what its direct children cover, overlaps
// counted once.
func TestNestAndSelfTime(t *testing.T) {
	spans := []span{
		mkSpan(0, 0, "replica POST /v1/query", 30, 80), // recorded first: handlers finish inside out
		mkSpan(1, 0, "planner GET /v1/plan", 12, 25),
		mkSpan(2, 0, "router POST /v1/query", 10, 90),
		mkSpan(3, 0, opSpan, 0, 100),
		mkSpan(4, 1, opSpan, 100, 150), // the next operation: never a parent of op 0's spans
		mkSpan(5, 1, "router POST /v1/query", 105, 140),
	}
	nest(spans)
	wantParent := []int{2, 2, 3, -1, -1, 4}
	for i, want := range wantParent {
		if spans[i].Parent != want {
			t.Errorf("span %d (%s): parent %d, want %d", i, spans[i].Name, spans[i].Parent, want)
		}
	}
	self := selfTimes(spans)
	wantSelf := []int64{50, 13, 80 - 50 - 13, 100 - 80, 50 - 35, 35}
	for i, want := range wantSelf {
		if self[i] != want {
			t.Errorf("span %d (%s): self %d, want %d", i, spans[i].Name, self[i], want)
		}
	}
	sum := summarize(spans)
	if sum.rootNs != 150 {
		t.Errorf("root time %d, want 150", sum.rootNs)
	}
	if got, want := sum.coveragePct(), 100*float64(150-20-15)/150; got != want {
		t.Errorf("coverage %v, want %v", got, want)
	}
	var total float64
	for name := range sum.selfByName {
		total += sum.selfPct(name)
	}
	if total < 99.999 || total > 100.001 {
		t.Errorf("self shares sum to %v, want 100", total)
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: opSpan, StartNs: 0, EndNs: 100},
		{ID: 1, Parent: 0, Name: "a", StartNs: 10, EndNs: 60},
		{ID: 2, Parent: 0, Name: "b", StartNs: 40, EndNs: 70},  // overlaps a by 20
		{ID: 3, Parent: 0, Name: "c", StartNs: 90, EndNs: 130}, // overruns the parent by 30
	}
	if got := selfTimes(spans)[0]; got != 100-60-10 {
		t.Errorf("self = %d, want 30 (children cover [10,70) and [90,100))", got)
	}
}

// Program-reported stages become synthetic children laid out from the
// parent's start, clipped to it, and keep their explicit parent through nest.
func TestStagesAreClippedChildren(t *testing.T) {
	tr := newTracer()
	at := func(ns int64) time.Time { return tr.t0.Add(time.Duration(ns)) }
	id := tr.add("core.execute", unnested, at(100), at(200))
	tr.addStages(id, []stage{{"core.rule_fanout", 70}, {"core.merge", 50}})
	tr.add(opSpan, unnested, at(0), at(300))
	spans := tr.finish()
	if len(spans) != 4 {
		t.Fatalf("%d spans, want 4", len(spans))
	}
	fan, merge := spans[1], spans[2]
	if !fan.Synthetic || fan.Parent != id || fan.StartNs != 100 || fan.EndNs != 170 {
		t.Errorf("fan-out stage = %+v", fan)
	}
	if merge.Parent != id || merge.StartNs != 170 || merge.EndNs != 200 {
		t.Errorf("merge stage = %+v, want clipped to [170,200)", merge)
	}
	if spans[0].Parent != 3 {
		t.Errorf("execute span's parent = %d, want the op span", spans[0].Parent)
	}
	if self := selfTimes(spans); self[0] != 0 || self[3] != 200 {
		t.Errorf("self times %v, want execute 0 and op 200", self)
	}
}

// The middleware records one span per request, named by tier, method and
// path; deferred stages find it by that name; the trace file is written.
func TestMiddlewareAndDeferredStages(t *testing.T) {
	tr := newTracer()
	h := tr.middleware("replica", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Millisecond)
	}))
	tr.beginOp(7)
	t0 := time.Now()
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/query", nil))
	tr.add(opSpan, unnested, t0, time.Now())
	tr.deferStages("replica POST /v1/query", stage{"stmt.query", time.Millisecond}, []stage{{"engine", 400 * time.Microsecond}})
	spans := tr.finish()
	byName := map[string]span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	rep, ok := byName["replica POST /v1/query"]
	if !ok || rep.Op != 7 || rep.Parent != byName[opSpan].ID || rep.dur() < int64(2*time.Millisecond) {
		t.Fatalf("replica span = %+v (found %v)", rep, ok)
	}
	if st := byName["stmt.query"]; st.Parent != rep.ID || st.dur() != int64(time.Millisecond) || st.Op != 7 {
		t.Errorf("stmt.query = %+v, want a 1ms child of the replica span", st)
	}
	if eng := byName["engine"]; eng.Parent != byName["stmt.query"].ID || eng.dur() != int64(400*time.Microsecond) {
		t.Errorf("engine = %+v, want a 400us child of stmt.query", eng)
	}
	path, err := writeTrace(t.TempDir(), "unit", spans)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "trace-unit.json" {
		t.Errorf("trace written to %s", path)
	}
}
