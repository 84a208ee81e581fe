package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"panda"
	"panda/internal/query"
	"panda/internal/server"
)

// serveSizes fixes a serve workload's catalog.
type serveSizes struct {
	rows, dom int
	// insertEvery makes every insertEvery-th operation of a client an
	// insert; 0 is the read-only mix.
	insertEvery int
	warmCycles  int
}

var (
	// serve-read: a catalog big enough that responses reach ≈200 KB, never
	// written to, so after set-up every query is a Stmt result-memo hit and
	// what is timed is the wire path.
	serveReadSizes = serveSizes{rows: 400, dom: 50, warmCycles: 40}
	// serve-mixed: a small catalog, so that planning, not execution,
	// dominates the re-plan every accepted insert forces. One operation in
	// twenty is an insert: the hot cluster of reads (memo hits, about three
	// quarters of operations) holds the median and the cold cluster (about
	// a fifth) holds the 99th percentile, neither near the boundary.
	serveMixedSizes = serveSizes{rows: 80, dom: 20, insertEvery: 20, warmCycles: 12}
)

// readRec is one answered query: which shape, the catalog states it may
// have seen, and the checksum of its answer.
type readRec struct {
	shape  uint8
	lo, hi uint32
	sum    uint64
}

type insertRec struct {
	rel string
	row []panda.Value
}

type serveClient struct {
	http  *http.Client
	buf   bytes.Buffer
	reads []readRec
}

// serve drives the fleet with closed-loop clients over HTTP.
type serve struct {
	name   string
	sizes  serveSizes
	fleet  *fleet
	base   catalog
	parsed []*query.ParseResult
	bodies [][]byte
	cl     []*serveClient
	tr     *tracer
	memo   *serveMemo

	// Inserts are applied one at a time, which numbers the catalog states:
	// state k is the base catalog plus the first k inserts. A read that
	// began after `done` inserts had been answered and ended before more
	// than `started` had been sent saw one of the states in between.
	insertMu sync.Mutex
	fresh    *freshRows
	inserts  []insertRec
	started  atomic.Uint32
	done     atomic.Uint32
	// The traced run's books (one client): lastRead[shape] counts the
	// inserts into the shape's relations as of its last read (see noteRead),
	// sampled is the read afterOp has yet to attach stages for, execSeen the
	// replicas' cumulative execution time at the last sample.
	lastRead []int
	sampled  readSample
	execSeen float64
}

type readSample struct {
	pending  bool
	executed bool
	body     []byte // the client's buffer: valid until its next request
}

func buildServe(name string, sizes serveSizes) func(int64, buildOpts) (workload, error) {
	return func(seed int64, o buildOpts) (workload, error) {
		w := &serve{name: name, sizes: sizes, tr: o.tr, memo: o.memo, lastRead: make([]int, len(serveShapes))}
		if w.memo == nil {
			w.memo = newServeMemo()
		}
		w.base, w.fresh = serveCatalog(seed, sizes.rows, sizes.dom)
		for i, sh := range serveShapes {
			pr, err := query.Parse(sh.src)
			if err != nil {
				return nil, fmt.Errorf("%s shape %s: %v", name, sh.name, err)
			}
			w.parsed = append(w.parsed, pr)
			w.bodies = append(w.bodies, sh.requestBody())
			w.lastRead[i] = -1
		}
		for c := 0; c < o.clients; c++ {
			w.cl = append(w.cl, &serveClient{
				http:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}},
				reads: make([]readRec, 0, latencyCap),
			})
		}
		f, err := newFleet(o.tr)
		if err != nil {
			return nil, err
		}
		w.fleet = f
		if err := loadOver(w.cl[0].http, f.front.URL, w.base); err != nil {
			w.close()
			return nil, err
		}
		// The first cycle sights (and so plans and ships) every shape; the
		// rest warm the mix, inserts included, on every client.
		for i := 0; i < o.warmup(sizes.warmCycles)*w.cycle(); i++ {
			for c := range w.cl {
				if w.op(c, i, nil).failed {
					w.close()
					return nil, fmt.Errorf("%s: warm-up operation %d failed", name, i)
				}
			}
		}
		return w, nil
	}
}

func (w *serve) clients() int { return len(w.cl) }

// readOrder is the sequence of shapes a client's reads walk through. The
// triangle comes twice in five, so that it holds reads 20%..60% by latency
// and the median read falls inside its cluster; four shapes in equal shares
// would put the median on the boundary between the second and the third,
// where it flips between two clusters from run to run.
var readOrder = []int{0, 1, 2, 3, 1}

func (w *serve) cycle() int {
	if w.sizes.insertEvery > 0 {
		return w.sizes.insertEvery
	}
	return len(readOrder)
}

func (w *serve) close() {
	for _, c := range w.cl {
		c.http.CloseIdleConnections()
	}
	if w.fleet != nil {
		w.fleet.close()
	}
}

func (w *serve) counters(bool) (counters, error) { return w.fleet.counters() }

func (w *serve) op(c, i int, tr *tracer) outcome {
	every := w.sizes.insertEvery
	if every > 0 && i%every == every-1 {
		return outcome{insert: true, failed: !w.insert(w.cl[c])}
	}
	reads := i
	if every > 0 {
		reads = i - i/every
	}
	return outcome{failed: !w.read(w.cl[c], readOrder[(reads+2*c)%len(readOrder)], tr)}
}

// insert sends one fresh row to the next relation in turn, through the
// router, which broadcasts it to the planning tier and every replica.
func (w *serve) insert(c *serveClient) bool {
	w.insertMu.Lock()
	defer w.insertMu.Unlock()
	rel := catalogNames[len(w.inserts)%len(catalogNames)]
	row, ok := w.fresh.next(rel)
	if !ok {
		return false
	}
	w.started.Add(1)
	status, err := c.roundTrip(w.fleet.front.URL+"/v1/relations/"+rel+"/rows", rowsBody([][]panda.Value{row}))
	if err != nil || status != http.StatusOK {
		return false
	}
	w.inserts = append(w.inserts, insertRec{rel, row})
	w.done.Add(1)
	return true
}

// read sends one query through the router and reads the response to its
// end. Whether the answer is right is settled by verify, from the checksum.
func (w *serve) read(c *serveClient, shape int, tr *tracer) bool {
	lo := w.done.Load()
	status, err := c.roundTrip(w.fleet.front.URL+"/v1/query", w.bodies[shape])
	hi := w.started.Load()
	if err != nil || status != http.StatusOK {
		return false
	}
	c.reads = append(c.reads, readRec{shape: uint8(shape), lo: lo, hi: hi, sum: bodyChecksum(c.buf.Bytes())})
	if w.tr != nil {
		w.sampled = readSample{pending: true, executed: w.noteRead(shape, int(lo)), body: c.buf.Bytes()}
	}
	return true
}

func (c *serveClient) roundTrip(url string, body []byte) (int, error) {
	resp, err := c.http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// afterOp runs between operations of the traced run, outside the timed
// region, so that reading the replicas' /metrics costs the operations
// nothing. It hangs what the program itself reports under the replica's
// query span: the time inside Stmt.QueryContext (the growth of
// panda_query_execution_seconds_sum across the request) and, below it, the
// response's planner and engine stage timings.
//
// The stage timings are attached only when the request executed. A result-
// memo hit returns the memoised Result as-is, so its "timings" describe the
// execution that produced it, not this request. With one client the run
// knows which reads executed: the first read of a shape, and the first after
// an insert into a relation the shape reads (memos are keyed by the ticks of
// the referenced relations only).
//
// The untraced phases of a traced run sample too (tr is nil, nothing is
// attached): both sides of trace.overhead_pct then pause the same way
// between operations.
func (w *serve) afterOp(tr *tracer) {
	if w.tr == nil {
		return
	}
	exec := w.fleet.execSeconds()
	execSeconds := exec - w.execSeen
	w.execSeen = exec
	s := w.sampled
	w.sampled = readSample{}
	if tr == nil || !s.pending {
		return
	}
	child := stage{"stmt.query", time.Duration(execSeconds * float64(time.Second))}
	var grand []stage
	if s.executed {
		var tail struct {
			Timings map[string]float64 `json:"timings"`
		}
		if err := json.Unmarshal(s.body, &tail); err == nil {
			engine := tail.Timings["rule_fanout"] + tail.Timings["merge"]
			if engine == 0 { // a rule: proof steps only, no fan-out phase
				for k, v := range tail.Timings {
					if strings.HasPrefix(k, "step_") {
						engine += v
					}
				}
			}
			grand = []stage{
				{"planner", time.Duration(tail.Timings["prepare_wait"] * float64(time.Second))},
				{"engine", time.Duration(engine * float64(time.Second))},
			}
		}
	}
	tr.deferStages("replica POST /v1/query", child, grand)
}

// noteRead reports whether a read of the shape in the given catalog state
// had to execute: whether, among the first `state` inserts, more went into
// relations the shape reads than at the shape's previous read. Only the
// traced run (one client) keeps this book.
func (w *serve) noteRead(shape, state int) bool {
	w.insertMu.Lock()
	defer w.insertMu.Unlock()
	n := 0
	for _, in := range w.inserts[:min(state, len(w.inserts))] {
		if w.parsed[shape].Rule.Schema.AtomIndex(in.rel) >= 0 {
			n++
		}
	}
	executed := n != w.lastRead[shape]
	w.lastRead[shape] = n
	return executed
}

// serveMemo keeps what the shadow server answered — per shape, the answer
// checksum in every catalog state it was asked in — across the rounds of one
// measured run. Every round builds the same catalog and sends the same
// inserts in the same order (the rows are fixed by the seed, their order by
// insertMu), so state k is the same catalog in every round and is answered,
// and put through the full oracle, once. A round whose inserts differ from
// the remembered ones forgets them.
type serveMemo struct {
	inserts []insertRec
	sums    []map[uint32]uint64 // by shape: state → checksum of the answer
}

func newServeMemo() *serveMemo {
	m := &serveMemo{}
	m.reset(nil)
	return m
}

func (m *serveMemo) reset(inserts []insertRec) {
	m.inserts = inserts
	m.sums = make([]map[uint32]uint64, len(serveShapes))
	for s := range m.sums {
		m.sums[s] = map[uint32]uint64{}
	}
}

// admit makes the memo describe a run that sent the given inserts.
func (m *serveMemo) admit(inserts []insertRec) {
	n := min(len(inserts), len(m.inserts))
	if !reflect.DeepEqual(inserts[:n], m.inserts[:n]) {
		m.reset(inserts)
		return
	}
	if len(inserts) > len(m.inserts) {
		m.inserts = inserts
	}
}

// verify settles every logged read: its checksum must equal that of the
// response a single pandad gives over a shadow catalog in one of the states
// the read may have seen. Each distinct (shape, state) the shadow answers is
// put through the full oracle once, decoded from the wire. A state that
// differs from the previous one only in a relation the shape does not read
// is, for that shape, the same state, and is not answered again. Shapes are
// verified side by side, each against a shadow of its own.
func (w *serve) verify() verdict {
	need := map[[2]uint32]bool{} // (state, shape) some read may have seen
	for _, c := range w.cl {
		for _, r := range c.reads {
			for k := r.lo; k <= r.hi; k++ {
				need[[2]uint32{k, uint32(r.shape)}] = true
			}
		}
	}
	w.memo.admit(w.inserts)
	var mu sync.Mutex // guards v and want
	var v verdict
	want := map[[2]uint32]uint64{}
	var wg sync.WaitGroup
	for s := range serveShapes {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			checked, sums, err := w.verifyShape(s, need)
			mu.Lock()
			defer mu.Unlock()
			v.checked += checked
			for _, e := range err {
				v.fail(e)
			}
			for k, sum := range sums {
				want[[2]uint32{k, uint32(s)}] = sum
			}
		}(s)
	}
	wg.Wait()
	for _, c := range w.cl {
	reads:
		for _, r := range c.reads {
			for k := r.lo; k <= r.hi; k++ {
				if sum, ok := want[[2]uint32{k, uint32(r.shape)}]; ok && sum == r.sum {
					continue reads
				}
			}
			v.fail(fmt.Errorf("%s: response to %s differs from a single server's in states %d..%d", w.name, serveShapes[r.shape].name, r.lo, r.hi))
		}
	}
	return v
}

// verifyShape replays the inserts into a shadow session behind a single
// pandad and answers one shape in every needed state the memo has no answer
// for yet, returning the answer checksum per state.
func (w *serve) verifyShape(s int, need map[[2]uint32]bool) (checked int, sums map[uint32]uint64, errs []error) {
	fail := func(format string, args ...any) { errs = append(errs, fmt.Errorf(w.name+": "+format, args...)) }
	cur := w.base.clone()
	shadow, err := loadDB(cur)
	if err != nil {
		return 0, nil, []error{err}
	}
	defer shadow.Close()
	srv := server.New(server.Config{DB: shadow})
	pr := w.parsed[s]
	sums = w.memo.sums[s] // this shape's own map: the shapes are verified side by side
	for k := uint32(0); int(k) <= len(w.inserts); k++ {
		unchanged := false
		if k > 0 {
			in := w.inserts[k-1]
			if err := shadow.Insert(in.rel, in.row); err != nil {
				return checked, sums, append(errs, err)
			}
			cur[in.rel] = append(cur[in.rel], in.row)
			unchanged = pr.Rule.Schema.AtomIndex(in.rel) < 0
		}
		if _, known := sums[k]; known || !need[[2]uint32{k, uint32(s)}] {
			continue
		}
		if sum, ok := sums[k-1]; ok && unchanged {
			sums[k] = sum
			continue
		}
		checked++
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(w.bodies[s])))
		if rec.Code != http.StatusOK {
			fail("shadow server answered %d for %s in state %d", rec.Code, serveShapes[s].name, k)
			continue
		}
		body := rec.Body.Bytes()
		sums[k] = bodyChecksum(body)
		res, err := decodeAnswer(body, pr)
		if err == nil {
			var ins *query.Instance
			if ins, err = bindCatalog(pr, cur); err == nil {
				err = checkResult(pr.Conj, pr.Rule, ins, res)
			}
		}
		if err != nil {
			fail("%s in state %d: %v", serveShapes[s].name, k, err)
		}
	}
	return checked, sums, errs
}
