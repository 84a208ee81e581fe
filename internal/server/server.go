// Package server implements pandad's HTTP/JSON surface: a long-lived query
// service wrapping a single panda.DB session. One process answers repeated
// query traffic against a shared catalog and planner, which is where the
// paper's reusable width certificates pay off operationally — the first
// request for a query shape pays the LP solves, every later one (including
// variable renamings) plans for free, and /metrics exports exactly how much
// solver work the cache is saving.
//
// Endpoints:
//
//	POST   /v1/query                 run a query; rows stream as JSON (NDJSON with Accept: application/x-ndjson)
//	POST   /v1/watch                 open a standing query; NDJSON stream of snapshot + deltas
//	GET    /v1/plan?q=…[&mode=…]     dry-run prepare: committed mode + width certificate + plan key
//	GET    /v1/plans[?q=…]           export the plan cache, or the plan of a query text (panda-plan-cache snapshot)
//	PUT    /v1/plans                 import a snapshot; 422 on version/digest mismatch
//	GET    /v1/relations             list the catalog
//	POST   /v1/relations             create a relation {"name","arity"}
//	DELETE /v1/relations/{name}      drop a relation
//	POST   /v1/relations/{name}/rows insert tuples {"rows":[[…],…]}
//	POST   /v1/relations/{name}/csv  bulk-ingest a CSV body
//	GET    /metrics                  Prometheus text: planner, stmt cache, latency histograms, per-shape series
//	GET    /v1/shapes                JSON view of the per-shape table: requests, rows, latency quantiles
//	GET    /debug/pprof/…            net/http/pprof, only when Config.Pprof is set
//
// The plan-shipping pair is the horizontal-serving seam: one planning tier
// pays the LP solves, exports its cache with GET /v1/plans, and a fleet of
// replicas imports it with PUT /v1/plans — every replica then answers the
// covered query shapes with zero planning work, exactly as a pandad
// -plan-dir warm restart does from disk. A query or dry run sent with the
// request header Panda-Plan: shipped — as a pandarouter sends every read —
// never plans: when the plan cache misses it answers 409 plan_required, and
// the router ships the plan and asks again.
//
// Every request runs under its own context (bound straight to
// db.QueryContext), optionally capped by the configured per-request
// timeout; the structured panda sentinels map to distinct HTTP statuses so
// clients can dispatch without parsing messages.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"iter"
	"net/http"
	"net/http/pprof"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"panda"
	"panda/internal/metrics"
	"panda/internal/plan"
)

// Config assembles a Server.
type Config struct {
	// DB is the session the server fronts; required, and owned by the
	// caller (the server never closes it).
	DB *panda.DB
	// Timeout caps each request's context (0 = no per-request deadline).
	// A query that overruns it is cancelled between proof steps and
	// reported as 504 with the context error.
	Timeout time.Duration
	// StmtCacheSize bounds the prepared-statement cache (0 selects
	// DefaultStmtCacheSize).
	StmtCacheSize int
	// ShapeTableSize bounds the per-shape telemetry table: at most this
	// many live signature digests get their own /metrics series and
	// /v1/shapes entry; the least-recently-observed tail rolls up into the
	// "other" bucket. 0 selects the default (64).
	ShapeTableSize int
	// SlowQueryThreshold, when positive, turns on the slow-query log:
	// every successful /v1/query whose end-to-end execution takes at least
	// this long emits one structured JSON line to SlowQueryLog.
	SlowQueryThreshold time.Duration
	// SlowQueryLog receives slow-query lines (defaults to os.Stderr when a
	// threshold is set). Writes are serialized by the server.
	SlowQueryLog io.Writer
	// Pprof mounts net/http/pprof under /debug/pprof/ when set. Off by
	// default: the profile endpoints expose internals and can be costly.
	Pprof bool
	// Name is the replica identity /v1/info reports; useful when many
	// pandad processes sit behind a router and an operator needs to know
	// which one answered. Empty is fine for single-process deployments.
	Name string
}

// Server is the HTTP handler. Create one with New; it is safe for
// concurrent use.
type Server struct {
	db      *panda.DB
	timeout time.Duration
	stmts   *stmtCache
	metrics *telemetry
	mux     *http.ServeMux
	name    string
	start   time.Time

	// catalogEpoch counts the catalog mutations this process has applied
	// (relation create/drop, row and CSV ingest over HTTP). Replicas behind
	// a router receive every mutation by broadcast, so a replica whose
	// epoch lags the planning tier's has missed one and is serving a
	// diverged catalog; the router reads the epoch off /healthz and keeps
	// such a replica out of rotation until it is resynced.
	catalogEpoch atomic.Uint64

	slowThreshold time.Duration
	slowMu        sync.Mutex
	slowLog       io.Writer

	mu       sync.Mutex
	draining bool
	inflight sync.WaitGroup
	// drainCh is closed when the drain begins, so endpoints that hold a
	// connection open indefinitely (the watch stream) terminate and let the
	// in-flight drain complete instead of wedging it.
	drainCh chan struct{}

	// queryStarted, when set, runs after a /v1/query request is admitted
	// and resolved to a statement, before execution; tests use it to hold
	// a query in flight deterministically.
	queryStarted func()
}

// New wires the routes around cfg.DB.
func New(cfg Config) *Server {
	s := &Server{
		db:            cfg.DB,
		timeout:       cfg.Timeout,
		stmts:         newStmtCache(cfg.StmtCacheSize),
		mux:           http.NewServeMux(),
		slowThreshold: cfg.SlowQueryThreshold,
		slowLog:       cfg.SlowQueryLog,
		name:          cfg.Name,
		start:         time.Now(),
		drainCh:       make(chan struct{}),
	}
	s.metrics = newTelemetry(s, cfg.ShapeTableSize)
	if s.slowThreshold > 0 && s.slowLog == nil {
		s.slowLog = os.Stderr
	}
	s.mux.HandleFunc("POST /v1/query", s.wrap("query", s.handleQuery))
	s.mux.HandleFunc("POST /v1/watch", s.wrapStream("watch", s.handleWatch))
	s.mux.HandleFunc("GET /v1/plan", s.wrap("plan", s.handlePlan))
	s.mux.HandleFunc("GET /v1/plans", s.wrap("plans", s.handleExportPlans))
	s.mux.HandleFunc("PUT /v1/plans", s.wrap("plans", s.handleImportPlans))
	s.mux.HandleFunc("GET /v1/relations", s.wrap("relations", s.handleListRelations))
	s.mux.HandleFunc("POST /v1/relations", s.wrap("relations", s.mutating(s.handleCreateRelation)))
	s.mux.HandleFunc("DELETE /v1/relations/{name}", s.wrap("relations", s.mutating(s.handleDropRelation)))
	s.mux.HandleFunc("POST /v1/relations/{name}/rows", s.wrap("rows", s.mutating(s.handleInsertRows)))
	s.mux.HandleFunc("POST /v1/relations/{name}/csv", s.wrap("csv", s.mutating(s.handleLoadCSV)))
	s.mux.HandleFunc("GET /metrics", s.wrap("metrics", s.metrics.reg.ServeHTTP))
	s.mux.HandleFunc("GET /v1/shapes", s.wrap("shapes", s.handleShapes))
	s.mux.HandleFunc("GET /healthz", s.wrap("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /v1/info", s.wrap("info", s.handleInfo))
	if cfg.Pprof {
		// Debug endpoints stay outside the metrics/drain middleware: they
		// are operator tools, not traffic.
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// BeginDrain stops admitting requests (new ones get 503) and ends the watch
// streams. An owner serving through an http.Server registers it there
// (RegisterOnShutdown): net/http's Shutdown waits for open connections, and
// a watch stream holds its connection until the drain begins, so a drain
// that only began after the listener's shutdown would wait out its deadline.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.drainCh)
	}
	s.mu.Unlock()
}

// Shutdown begins the drain (see BeginDrain) and waits for in-flight
// requests — including long-running queries — to finish, or for ctx to
// expire. It does not close the DB; the owner does that once Shutdown
// returns so draining queries never observe ErrClosed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.BeginDrain()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// wrap is the per-endpoint middleware: drain admission, in-flight
// accounting, the per-request deadline, and latency/status metrics.
func (s *Server) wrap(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return s.wrapStream(endpoint, func(w http.ResponseWriter, r *http.Request) {
		if s.timeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		h(w, r)
	})
}

// wrapStream is wrap for endpoints that hold the connection open for as
// long as the client stays interested (the watch stream): same drain
// admission, in-flight accounting and metrics, but no per-request deadline
// — a standing query is supposed to outlive any sensible request timeout.
// Streams still terminate on shutdown: they select on s.drainCh.
func (s *Server) wrapStream(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	// Both outcomes are counted, and an admitted request is counted before
	// it leaves the in-flight set, so a drained server's metrics are final.
	admitted := s.metrics.requests.Wrap(endpoint, h)
	refused := s.metrics.requests.Wrap(endpoint, func(w http.ResponseWriter, _ *http.Request) {
		metrics.WriteError(w, http.StatusServiceUnavailable, "shutting_down", errors.New("server is shutting down"))
	})
	return func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			refused(w, r)
			return
		}
		s.inflight.Add(1)
		s.mu.Unlock()
		defer s.inflight.Done()
		admitted(w, r)
	}
}

// mutating wraps a catalog-mutation handler and advances the catalog epoch
// when the mutation was actually applied (a 2xx answer). A rejected
// mutation (conflict, unknown relation, malformed body) leaves the catalog
// — and therefore the epoch — untouched, so two processes that answered the
// same broadcast sequence identically report identical epochs.
func (s *Server) mutating(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sw := metrics.NewStatusWriter(w)
		h(sw, r)
		if sw.Code < 300 {
			s.catalogEpoch.Add(1)
		}
	}
}

// ---- Error mapping ----

// errorTable maps the structured panda sentinels and the context errors to
// an HTTP status and the stable token the JSON error body names them by, so
// clients dispatch on that instead of message text. The first row an error
// matches (errors.Is) decides both; anything else (parse errors, malformed
// bodies) is a plain 400 "bad_request".
var errorTable = []struct {
	is     error
	status int
	code   string
}{
	{context.DeadlineExceeded, http.StatusGatewayTimeout, "deadline_exceeded"},
	{context.Canceled, 499, "canceled"}, // client closed request (nginx convention)
	{panda.ErrUnknownRelation, http.StatusNotFound, "unknown_relation"},
	{panda.ErrRelationExists, http.StatusConflict, "relation_exists"},
	{panda.ErrArity, http.StatusUnprocessableEntity, "arity_mismatch"},
	// 413: the batch does not fit the relation, or the intern table.
	{panda.ErrTooManyRows, http.StatusRequestEntityTooLarge, "too_many_rows"},
	{panda.ErrTooManyValues, http.StatusRequestEntityTooLarge, "too_many_values"},
	// 424: the constraint set does not bound the LP.
	{panda.ErrUnboundedLP, http.StatusFailedDependency, "unbounded_lp"},
	{panda.ErrNotConjunctive, http.StatusBadRequest, "not_conjunctive"},
	{panda.ErrClosed, http.StatusServiceUnavailable, "closed"},
	{panda.ErrPlanVersion, http.StatusBadRequest, "plan_version"},
	{panda.ErrPlanDigest, http.StatusBadRequest, "plan_digest"},
	// 409: a read the router marked Panda-Plan: shipped missed the plan
	// cache; the router ships the plan and asks again.
	{plan.ErrPlanRequired, http.StatusConflict, "plan_required"},
}

// classify looks err up in errorTable, after the one error it matches by
// type: a body past maxBodyBytes is 413 "body_too_large", the router's code
// for the same refusal.
func classify(err error) (status int, code string) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge, "body_too_large"
	}
	for _, e := range errorTable {
		if errors.Is(err, e.is) {
			return e.status, e.code
		}
	}
	return http.StatusBadRequest, "bad_request"
}

// codeOf is the token alone, for an error reported inside a body that has
// its own status.
func codeOf(err error) string {
	_, code := classify(err)
	return code
}

func (s *Server) fail(w http.ResponseWriter, err error) {
	status, code := classify(err)
	metrics.WriteError(w, status, code, err)
}

// ---- Statements ----

// stmt resolves query text through the bounded statement cache, preparing
// on a miss. A statement binds the catalog on every run that its result memo
// (keyed by the referenced relations' ticks) does not answer, so a hit can
// never serve stale data.
func (s *Server) stmt(src string) (*stmtEntry, error) {
	if e, ok := s.stmts.get(src); ok {
		return e, nil
	}
	st, err := s.db.Prepare(src)
	if err != nil {
		return nil, err
	}
	return s.stmts.put(src, st), nil
}

// ---- /v1/query ----

type queryRequest struct {
	// Query is the textual query (see internal/query): a conjunctive query
	// or a disjunctive datalog rule, with optional constraint lines.
	Query string `json:"query"`
	// Mode forces an evaluation strategy: auto (default), full, fhtw,
	// subw. Forcing a mode on a disjunctive rule is rejected.
	Mode string `json:"mode,omitempty"`
	// Parallelism overrides the server's per-query executor fan-out.
	Parallelism int `json:"parallelism,omitempty"`
	// MaxRows, when positive, caps every streamed row array in the
	// response (the result rows, and each rule target's rows). A capped
	// response carries "truncated":true.
	MaxRows int `json:"max_rows,omitempty"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.fail(w, err)
		return
	}
	if strings.TrimSpace(req.Query) == "" {
		s.fail(w, errors.New("missing query text"))
		return
	}
	if req.MaxRows < 0 {
		s.fail(w, errors.New("max_rows must be non-negative"))
		return
	}
	mode, explicit, err := plan.ParseMode(req.Mode)
	if err != nil {
		s.fail(w, err)
		return
	}
	e, err := s.stmt(req.Query)
	if err != nil {
		s.fail(w, err)
		return
	}
	opts := []panda.Option{panda.WithStageTimings(true)}
	if explicit {
		opts = append(opts, panda.WithMode(mode))
	}
	if req.Parallelism > 0 {
		opts = append(opts, panda.WithParallelism(req.Parallelism))
	}
	if s.queryStarted != nil {
		s.queryStarted()
	}
	start := time.Now()
	res, err := e.stmt.QueryContext(planContext(r), opts...)
	elapsed := time.Since(start)
	if err != nil {
		s.fail(w, err)
		return
	}
	var rows int
	var truncated bool
	if res.Mode != panda.ModeRule && wantsNDJSON(r) {
		// Rules carry per-target tables, not one row stream; they keep the
		// buffered JSON shape regardless of the Accept header.
		rows, truncated = s.writeResultNDJSON(w, e, res, req.MaxRows)
	} else {
		rows, truncated = s.writeResult(w, e, res, req.MaxRows)
	}
	s.metrics.observeQuery(res.Signature, res.Mode.String(), rows, elapsed, truncated)
	if s.slowThreshold > 0 && elapsed >= s.slowThreshold {
		s.logSlowQuery(res, rows, elapsed)
	}
}

// slowQueryLine is the JSON shape of one slow-query log record.
type slowQueryLine struct {
	SlowQuery      bool               `json:"slow_query"`
	Time           string             `json:"time"`
	Digest         string             `json:"digest"`
	Mode           string             `json:"mode"`
	Width          string             `json:"width,omitempty"`
	Rows           int                `json:"rows"`
	ElapsedSeconds float64            `json:"elapsed_seconds"`
	Timings        map[string]float64 `json:"timings,omitempty"`
}

// logSlowQuery emits one structured line for a query whose execution met
// the configured threshold. Lines are whole-record writes under a
// dedicated mutex, so concurrent slow queries never interleave bytes.
func (s *Server) logSlowQuery(res *panda.Result, rows int, elapsed time.Duration) {
	line := slowQueryLine{
		SlowQuery:      true,
		Time:           time.Now().UTC().Format(time.RFC3339Nano),
		Digest:         res.Signature,
		Mode:           res.Mode.String(),
		Rows:           rows,
		ElapsedSeconds: elapsed.Seconds(),
	}
	if res.Width != nil {
		line.Width = res.Width.RatString()
	}
	if res.Timings != nil {
		line.Timings = res.Timings.Seconds()
	}
	b, err := json.Marshal(line)
	if err != nil {
		return
	}
	b = append(b, '\n')
	s.slowMu.Lock()
	s.slowLog.Write(b)
	s.slowMu.Unlock()
}

// writeResult streams the unified Result as one JSON object through a
// wireBuf: the scalar header and the rows are encoded into one buffer that
// is handed to net/http (written and flushed) each time it fills, so a
// client can start consuming a large result while the tail is still being
// encoded, and the rest — the last rows, the closing bracket, stats,
// signature, timings — goes out as one final write. maxRows > 0 caps every
// streamed row array; a capped response carries "truncated":true. It reports
// the total rows streamed and whether anything was cut, for the per-shape
// telemetry. A client that hangs up mid-answer ends the encode at the
// buffer in hand: the remaining rows, tables and the tail are skipped.
//
// What res fixes around the rows — mode, ok, width and columns before them,
// stats, signature and timings after — is encoded once per memoised Result
// and kept on e (resultWire), so a memo hit encodes only its rows; a rule's
// sorted target list is still worked out per request.
func (s *Server) writeResult(w http.ResponseWriter, e *stmtEntry, res *panda.Result, maxRows int) (rows int, truncated bool) {
	w.Header().Set("Content-Type", "application/json")
	// ResponseController reaches Flush through the StatusWriter's Unwrap;
	// a direct type assertion would miss it.
	b := newWireBuf(w, http.NewResponseController(w))
	defer b.close()
	rw := e.wireOf(res)
	b.buf = append(b.buf, rw.open...)
	if res.Rel != nil {
		b.buf = append(b.buf, `,"rows":`...)
		rows, truncated = streamRows(b, res.Iter(), maxRows)
	}
	if res.Mode == panda.ModeRule {
		n, cut := writeTables(b, e.stmt, res.Tables, maxRows)
		rows += n
		truncated = truncated || cut
	}
	if b.err != nil {
		return rows, truncated
	}
	if truncated {
		b.buf = append(b.buf, `,"truncated":true`...)
	}
	b.buf = append(append(append(b.buf, rw.stats...), rw.signature...), rw.timings...)
	b.buf = append(b.buf, "}\n"...)
	return rows, truncated
}

// resultWire is the JSON one Result fixes around its rows, for both
// framings of an answer (writeResult and writeResultNDJSON): open starts the
// object with mode, ok, width and columns; each other part is one `,"name":`
// member, empty when res has none.
type resultWire struct {
	res                       *panda.Result
	open                      []byte
	stats, signature, timings []byte
}

// wireOf returns res's resultWire, encoding it when e holds another
// Result's: a write that advanced or replaced the statement's memo handed
// back a new Result.
func (e *stmtEntry) wireOf(res *panda.Result) *resultWire {
	if rw := e.wire.Load(); rw != nil && rw.res == res {
		return rw
	}
	rw := &resultWire{res: res}
	rw.open = fmt.Appendf(nil, `{"mode":%q,"ok":%t`, res.Mode.String(), res.OK)
	if res.Width != nil {
		rw.open = fmt.Appendf(rw.open, `,"width":%q`, res.Width.RatString())
	}
	if res.Rel != nil {
		cols, _ := json.Marshal(res.Columns)
		rw.open = fmt.Appendf(rw.open, `,"columns":%s`, cols)
	}
	// Stats describe the work of the call that produced the answer — a full
	// execution, or a maintenance round when the statement's memo only grew
	// — so the same query over the same catalog may report other stats on
	// another replica, while mode, ok, width, columns and rows are a function
	// of the catalog. Over one history of calls everything but the
	// wall-clock timings is byte-stable across runs.
	if res.Stats != nil {
		if stats, err := json.Marshal(res.Stats); err == nil {
			rw.stats = append([]byte(`,"stats":`), stats...)
		}
	}
	if res.Signature != "" {
		rw.signature = fmt.Appendf(nil, `,"signature":%q`, res.Signature)
	}
	if res.Timings != nil {
		if t, err := json.Marshal(res.Timings.Seconds()); err == nil {
			rw.timings = append([]byte(`,"timings":`), t...)
		}
	}
	e.wire.Store(rw)
	return rw
}

// wireBufSize is how much of a body is encoded before net/http sees any of
// it. One Write per row costs a third of serve-read's throughput in
// net/http's per-Write bookkeeping (its connection mutex alone was 16% of a
// profile); 32 kB is a few hundred to a few thousand rows.
const wireBufSize = 32 << 10

// wireBuf batches an encoded body: callers append to buf, call spill after
// each row and stop encoding once err is set; close sends what is left. The
// buffers are pooled — a request owns one from newWireBuf to close.
type wireBuf struct {
	w     io.Writer
	flush *http.ResponseController // nil: the caller flushes (a watch line)
	buf   []byte
	err   error // the first failed Write; nothing is written after it
}

var wireBufs = sync.Pool{New: func() any {
	// Room for the row that crosses the mark.
	return &wireBuf{buf: make([]byte, 0, wireBufSize+1024)}
}}

func newWireBuf(w io.Writer, flush *http.ResponseController) *wireBuf {
	b := wireBufs.Get().(*wireBuf)
	b.w, b.flush = w, flush
	return b
}

// send writes the buffer out and empties it.
func (b *wireBuf) send() {
	if b.err == nil && len(b.buf) > 0 {
		_, b.err = b.w.Write(b.buf)
	}
	b.buf = b.buf[:0]
}

// spill hands the buffer to the writer, and flushes it through, once it has
// reached wireBufSize.
func (b *wireBuf) spill() {
	if len(b.buf) < wireBufSize {
		return
	}
	b.send()
	if b.flush != nil && b.err == nil {
		// A writer that cannot flush is fine; one whose flush fails is gone.
		if err := b.flush.Flush(); !errors.Is(err, http.ErrNotSupported) {
			b.err = err
		}
	}
}

// close sends what is left and returns the buffer to the pool.
func (b *wireBuf) close() {
	b.send()
	*b = wireBuf{buf: b.buf}
	wireBufs.Put(b)
}

// writeTables renders a rule result's per-target tables as the
// `,"tables":[{"target":…,"size":…,"rows":[…]},…]` fragment, sorted by
// target variable set — shared by /v1/query responses and watch-stream
// lines so both wire formats agree byte for byte.
func writeTables(b *wireBuf, st *panda.Stmt, tables map[panda.Set]*panda.Relation, maxRows int) (rows int, truncated bool) {
	targets := make([]panda.Set, 0, len(tables))
	for t := range tables {
		targets = append(targets, t)
	}
	slices.Sort(targets)
	sch := st.Schema()
	b.buf = append(b.buf, `,"tables":[`...)
	for i, t := range targets {
		if i > 0 {
			b.buf = append(b.buf, ',')
		}
		b.buf = append(b.buf, `{"target":`...)
		b.buf = strconv.AppendQuote(b.buf, "T_"+sch.VarLabel(t))
		b.buf = append(b.buf, `,"size":`...)
		b.buf = strconv.AppendInt(b.buf, int64(tables[t].Size()), 10)
		b.buf = append(b.buf, `,"rows":`...)
		n, cut := streamRows(b, tables[t].AllSorted(), maxRows)
		rows += n
		truncated = truncated || cut
		if b.err != nil {
			return rows, truncated
		}
		b.buf = append(b.buf, '}')
	}
	b.buf = append(b.buf, ']')
	return rows, truncated
}

// streamRows encodes a JSON array of tuples into b, which goes out a
// buffer at a time. Rows arrive as an iterator so the columnar storage
// decodes straight into the encoder — the hot path never materializes a
// [][]Value copy of the result — and the iterator is abandoned at the first
// failed write. max > 0 stops after max rows; the second return reports
// whether rows were dropped.
func streamRows(b *wireBuf, rows iter.Seq[[]panda.Value], max int) (int, bool) {
	b.buf = append(b.buf, '[')
	written := 0
	truncated := false
	for row := range rows {
		if max > 0 && written >= max {
			truncated = true
			break
		}
		if written > 0 {
			b.buf = append(b.buf, ',')
		}
		b.buf = appendRow(b.buf, row)
		written++
		if b.spill(); b.err != nil {
			break
		}
	}
	b.buf = append(b.buf, ']')
	return written, truncated
}

// appendRow encodes one tuple as a JSON array of integers — byte-identical
// to json.Marshal of the same non-nil slice, without the reflection.
func appendRow(buf []byte, row []panda.Value) []byte {
	buf = append(buf, '[')
	for j, v := range row {
		if j > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(v), 10)
	}
	return append(buf, ']')
}

// rowSeq adapts a materialized row slice (watch deltas, which are built as
// decoded copies) to the iterator shape streamRows consumes.
func rowSeq(rows [][]panda.Value) iter.Seq[[]panda.Value] {
	return func(yield func([]panda.Value) bool) {
		for _, row := range rows {
			if !yield(row) {
				return
			}
		}
	}
}

// ---- /v1/plan ----

// planContext is r's context, marked plan.ShippedOnly when the request
// carries Panda-Plan: shipped.
func planContext(r *http.Request) context.Context {
	if r.Header.Get("Panda-Plan") == "shipped" {
		return plan.ShippedOnly(r.Context())
	}
	return r.Context()
}

// explain plans the ?q=…[&mode=…] text of a request through the statement
// cache under ctx, exactly as a query of it would plan: GET /v1/plan answers
// with the outcome and GET /v1/plans?q= with the plan itself, so the two name
// the same plan and fail with the same statuses.
func (s *Server) explain(ctx context.Context, r *http.Request) (*panda.PlanInfo, error) {
	params := r.URL.Query()
	src := params.Get("q")
	if strings.TrimSpace(src) == "" {
		return nil, errors.New("missing q parameter (the query text)")
	}
	mode, explicit, err := plan.ParseMode(params.Get("mode"))
	if err != nil {
		return nil, err
	}
	e, err := s.stmt(src)
	if err != nil {
		return nil, err
	}
	var opts []panda.Option
	if explicit {
		opts = append(opts, panda.WithMode(mode))
	}
	return e.stmt.ExplainContext(ctx, opts...)
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	info, err := s.explain(planContext(r), r)
	if err != nil {
		s.fail(w, err)
		return
	}
	metrics.WriteJSON(w, http.StatusOK, map[string]any{
		"mode":      info.Mode.String(),
		"width":     info.Width.RatString(),
		"signature": info.Digest,
		"key":       info.Key,
	})
}

// ---- /v1/shapes ----

// handleShapes reports the per-shape telemetry table as JSON: one entry per
// live signature digest (most-recently-observed first), the "other" rollup
// when shapes have been evicted, and the table's capacity so operators can
// tell how close they run to the cardinality bound.
func (s *Server) handleShapes(w http.ResponseWriter, r *http.Request) {
	shapes, other, evicted := s.metrics.snapshotShapes()
	type latency struct {
		Count      uint64  `json:"count"`
		SumSeconds float64 `json:"sum_seconds"`
		P50Seconds float64 `json:"p50_seconds"`
		P99Seconds float64 `json:"p99_seconds"`
	}
	type shape struct {
		Digest   string            `json:"digest"`
		Requests map[string]uint64 `json:"requests"`
		Total    uint64            `json:"total"`
		Rows     uint64            `json:"rows"`
		Latency  latency           `json:"latency"`
	}
	conv := func(st *shapeStat) shape {
		return shape{
			Digest:   st.digest,
			Requests: st.requests,
			Total:    st.total(),
			Rows:     st.rows,
			Latency: latency{
				Count:      st.exec.Count(),
				SumSeconds: st.exec.Sum(),
				P50Seconds: st.exec.Quantile(0.50),
				P99Seconds: st.exec.Quantile(0.99),
			},
		}
	}
	out := make([]shape, len(shapes))
	for i, st := range shapes {
		out[i] = conv(st)
	}
	body := map[string]any{
		"shapes":   out,
		"capacity": s.metrics.shapes.cap,
		"evicted":  evicted,
	}
	if other != nil {
		body["other"] = conv(other)
	}
	metrics.WriteJSON(w, http.StatusOK, body)
}

// ---- /v1/plans (plan shipping) ----

// handleExportPlans streams plans as one panda-plan-cache snapshot — the
// same bytes a pandad -plan-dir snapshot writes to disk, so routers and
// replicas need exactly one format. With no parameter it exports the whole
// cache. ?q=<text>[&mode=…] plans the text as GET /v1/plan does and exports
// that plan's entry alone: the router warms and ships a first-sighted shape
// with this one request. A 200 answer always holds the entry; one evicted
// between planning and export answers 503. A request naming key answers 400,
// so a router that still pulls by signature key fails loudly instead of
// shipping the whole cache to one replica.
func (s *Server) handleExportPlans(w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query()
	if params.Has("key") {
		s.fail(w, errors.New("GET /v1/plans takes no key: it exports the whole cache, or with q the plan of a query text"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if !params.Has("q") {
		if err := s.db.SavePlans(w); err != nil {
			// Headers are already out; all we can do is log through the status.
			s.fail(w, err)
		}
		return
	}
	info, err := s.explain(r.Context(), r)
	if err != nil {
		s.fail(w, err)
		return
	}
	saved, err := s.db.SavePlan(w, info.Key)
	switch {
	case err != nil:
		s.fail(w, err)
	case !saved:
		// Only a cache churning through its whole capacity between the two
		// calls gets here; the router counts the 503 and warms again later.
		metrics.WriteError(w, http.StatusServiceUnavailable, "plan_evicted",
			errors.New("the plan was evicted before it could be exported"))
	}
}

// handleImportPlans installs a snapshot into the session planner. The load
// itself is skip-don't-fail, but an importing operator needs to know when
// entries were dropped, so any skip surfaces as 422 (with the loaded/
// skipped split and the first rejection reason); a malformed container is
// a plain 400.
func (s *Server) handleImportPlans(w http.ResponseWriter, r *http.Request) {
	stats, err := s.db.LoadPlans(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		s.fail(w, err)
		return
	}
	body := map[string]any{"loaded": stats.Loaded, "skipped": stats.Skipped, "duplicates": stats.Duplicates}
	if stats.Skipped > 0 {
		body["error"] = stats.FirstErr.Error()
		body["code"] = codeOf(stats.FirstErr)
		metrics.WriteJSON(w, http.StatusUnprocessableEntity, body)
		return
	}
	metrics.WriteJSON(w, http.StatusOK, body)
}

// ---- /healthz and /v1/info ----

// handleHealthz is the router's readiness probe: 200 while serving. The
// drain path never reaches this handler — wrap answers 503 for every
// endpoint once Shutdown begins — so "reachable and admitted" IS the
// health signal. The body carries the catalog epoch so the router can tell
// a live replica from a live replica whose catalog has diverged.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	metrics.WriteJSON(w, http.StatusOK, map[string]any{"status": "ok", "catalog_epoch": s.catalogEpoch.Load()})
}

// handleInfo reports process identity for the fleet tier: who this replica
// is, which plan wire format it speaks, how many plans it holds, and the
// planner counters the router e2e asserts on.
func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	st := s.db.PlannerStats()
	metrics.WriteJSON(w, http.StatusOK, map[string]any{
		"name":           s.name,
		"format_version": panda.PlanFormatVersion,
		"catalog_epoch":  s.catalogEpoch.Load(),
		"plans_cached":   s.db.PlanCacheLen(),
		"uptime_seconds": time.Since(s.start).Seconds(),
		"planner": map[string]any{
			"hits":            st.Hits,
			"misses":          st.Misses,
			"evictions":       st.Evictions,
			"lp_solves":       st.LPSolves,
			"lp_solves_saved": st.LPSolvesSaved,
			"plans_built":     st.PlansBuilt,
		},
	})
}

// ---- Catalog endpoints ----

func (s *Server) handleListRelations(w http.ResponseWriter, r *http.Request) {
	infos, err := s.db.Relations()
	if err != nil {
		s.fail(w, err)
		return
	}
	type rel struct {
		Name  string `json:"name"`
		Arity int    `json:"arity"`
		Size  int    `json:"size"`
	}
	out := make([]rel, len(infos))
	for i, in := range infos {
		out[i] = rel{in.Name, in.Arity, in.Size}
	}
	metrics.WriteJSON(w, http.StatusOK, map[string]any{"relations": out})
}

func (s *Server) handleCreateRelation(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Name  string `json:"name"`
		Arity int    `json:"arity"`
	}
	if err := decodeJSON(w, r, &req); err != nil {
		s.fail(w, err)
		return
	}
	if req.Name == "" {
		s.fail(w, errors.New("missing relation name"))
		return
	}
	if err := s.db.CreateRelation(req.Name, req.Arity); err != nil {
		s.fail(w, err)
		return
	}
	metrics.WriteJSON(w, http.StatusCreated, map[string]any{"name": req.Name, "arity": req.Arity})
}

func (s *Server) handleDropRelation(w http.ResponseWriter, r *http.Request) {
	if err := s.db.DropRelation(r.PathValue("name")); err != nil {
		s.fail(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleInsertRows(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Rows [][]panda.Value `json:"rows"`
	}
	if err := decodeJSON(w, r, &req); err != nil {
		s.fail(w, err)
		return
	}
	if err := s.db.Insert(r.PathValue("name"), req.Rows...); err != nil {
		s.fail(w, err)
		return
	}
	metrics.WriteJSON(w, http.StatusOK, map[string]any{"rows": len(req.Rows)})
}

func (s *Server) handleLoadCSV(w http.ResponseWriter, r *http.Request) {
	n, err := s.db.LoadCSVContext(r.Context(), r.PathValue("name"), r.Body)
	if err != nil {
		s.fail(w, err)
		return
	}
	metrics.WriteJSON(w, http.StatusOK, map[string]any{"rows": n})
}

// maxBodyBytes bounds every request body pandad buffers: a JSON body
// (decodeJSON) and a PUT /v1/plans snapshot, each read whole before it is
// validated, so an unbounded read would let one request balloon the
// process. Queries, rows batches and plans (a few KB each) fit in it with
// room to spare; a CSV load streams, and is not bounded.
const maxBodyBytes = 64 << 20

// decodeJSON reads r's body as one JSON value of at most maxBodyBytes,
// rejecting trailing garbage and unknown fields so malformed bodies fail
// loudly instead of half-parsing.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("malformed JSON body: %w", err)
	}
	if dec.More() {
		return errors.New("malformed JSON body: trailing data")
	}
	return nil
}
