package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// The traced run records spans from the benchmark's own files: around each
// call into a layer (library workloads) and in an http.Handler middleware
// around each tier the fleet mounts (serve workloads). Spans stay in memory
// and are written out once, when the workload ends.

const unnested = -2 // parent still to be found by interval containment

// span is one timed interval. Spans of one operation share Op.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for an operation's root span
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	// Synthetic marks a span whose duration the program reported
	// (Result.Timings, the response "timings" map, a /metrics delta) and
	// whose position inside its parent the benchmark laid out: the duration
	// is measured, the start is not.
	Synthetic bool `json:"synthetic,omitempty"`
}

func (s span) dur() int64 { return s.EndNs - s.StartNs }

// tracer collects spans. A nil *tracer is the tracing-off state: callers
// check for nil and record nothing, so the untraced run pays no clock calls.
type tracer struct {
	t0 time.Time

	mu       sync.Mutex
	op       int // the operation in flight; one client, so one at a time
	spans    []span
	deferred []deferredStages
}

// deferredStages are program-reported durations waiting for the span they
// belong under to be recorded (a tier's middleware records its span only
// when the handler returns, and finish knows them all).
type deferredStages struct {
	op     int
	parent string // the span name, within the operation, to hang child under
	child  stage
	grand  []stage
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// beginOp names the operation later spans belong to.
func (t *tracer) beginOp(op int) {
	t.mu.Lock()
	t.op = op
	t.mu.Unlock()
}

// add records a span under an explicit parent and returns its id.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	return t.addNs(name, parent, start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds(), false)
}

func (t *tracer) addNs(name string, parent int, startNs, endNs int64, synthetic bool) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, StartNs: startNs, EndNs: endNs, Synthetic: synthetic})
	return id
}

// addStages lays program-reported stage durations out back to back from the
// parent's start, as synthetic children. Stages that would overrun the
// parent are clipped to it so self time can never go negative.
func (t *tracer) addStages(parent int, stages []stage) {
	t.mu.Lock()
	p := t.spans[parent]
	t.mu.Unlock()
	at := p.StartNs
	for _, st := range stages {
		end := at + st.d.Nanoseconds()
		if end > p.EndNs {
			end = p.EndNs
		}
		if end > at {
			t.addNs(st.name, parent, at, end, true)
		}
		at = end
	}
}

type stage struct {
	name string
	d    time.Duration
}

// deferStages queues child (and grand, below child) for the span named
// parent of the operation in flight; finish attaches them.
func (t *tracer) deferStages(parent string, child stage, grand []stage) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.deferred = append(t.deferred, deferredStages{op: t.op, parent: parent, child: child, grand: grand})
}

// middleware wraps one tier's handler so every request it serves becomes a
// span named "<tier> <METHOD> <path>". The parent is found afterwards by
// interval containment (nest): with one client there is one request tree in
// flight, and the router forwards no request id to correlate by.
func (t *tracer) middleware(tier string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		t.add(tier+" "+r.Method+" "+r.URL.Path, unnested, start, time.Now())
	})
}

// nest gives every span recorded with parent == unnested the innermost span
// of the same operation whose interval contains it.
func nest(spans []span) {
	byOp := map[int][]int{}
	for i := range spans {
		byOp[spans[i].Op] = append(byOp[spans[i].Op], i)
	}
	for _, idx := range byOp {
		// Outer spans first: earlier start, and for equal starts later end.
		sort.SliceStable(idx, func(a, b int) bool {
			sa, sb := spans[idx[a]], spans[idx[b]]
			if sa.StartNs != sb.StartNs {
				return sa.StartNs < sb.StartNs
			}
			return sa.EndNs > sb.EndNs
		})
		var stack []int
		for _, i := range idx {
			s := &spans[i]
			if s.Synthetic {
				continue // placed by addStages under an explicit parent
			}
			for len(stack) > 0 && spans[stack[len(stack)-1]].EndNs < s.EndNs {
				stack = stack[:len(stack)-1]
			}
			if s.Parent == unnested {
				s.Parent = -1
				if len(stack) > 0 {
					s.Parent = stack[len(stack)-1]
				}
			}
			stack = append(stack, i)
		}
	}
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover (overlapping children count once).
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNs < spans[kids[b]].StartNs })
		covered, at := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(spans[k].StartNs, at), min(spans[k].EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// traceSummary is what the per-layer metrics read off a finished trace.
type traceSummary struct {
	rootNs     int64            // total duration of the operations' root spans
	selfByName map[string]int64 // self time summed per span name
}

// coveragePct is the share of operation time that child spans account for.
func (s traceSummary) coveragePct() float64 {
	if s.rootNs == 0 {
		return 0
	}
	return 100 * float64(s.rootNs-s.selfByName[opSpan]) / float64(s.rootNs)
}

// selfPct is the share of operation time spent in spans of the given names
// themselves (not in their children).
func (s traceSummary) selfPct(names ...string) float64 {
	if s.rootNs == 0 {
		return 0
	}
	var ns int64
	for _, n := range names {
		ns += s.selfByName[n]
	}
	return 100 * float64(ns) / float64(s.rootNs)
}

const opSpan = "op"

func summarize(spans []span) traceSummary {
	sum := traceSummary{selfByName: map[string]int64{}}
	self := selfTimes(spans)
	for i, s := range spans {
		if s.Parent == -1 {
			sum.rootNs += s.dur()
		}
		sum.selfByName[s.Name] += self[i]
	}
	return sum
}

// finish nests the recorded spans, attaches the deferred stages and returns
// the lot.
func (t *tracer) finish() []span {
	t.mu.Lock()
	nest(t.spans)
	deferred := t.deferred
	t.deferred = nil
	find := func(op int, name string) int {
		for i := len(t.spans) - 1; i >= 0; i-- {
			if t.spans[i].Op == op && t.spans[i].Name == name {
				return i
			}
		}
		return -1
	}
	t.mu.Unlock()
	for _, d := range deferred {
		parent := find(d.op, d.parent)
		if parent < 0 {
			continue
		}
		t.mu.Lock()
		t.op = d.op
		before := len(t.spans)
		t.mu.Unlock()
		t.addStages(parent, []stage{d.child})
		if len(t.spans) > before {
			t.addStages(before, d.grand)
		}
	}
	return t.spans
}

// writeTrace stores the spans as <dir>/trace-<workload>.json.
func writeTrace(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"workload": workload, "spans": spans}); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
