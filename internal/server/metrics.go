package server

import (
	"sort"
	"sync"
	"time"

	"panda/internal/metrics"
)

// telemetry is the server's /metrics exposition, declared in the order it
// renders: the planner and statement-cache counters are read live from the
// session at scrape time, the request, latency and watch families accumulate
// here, and the per-shape series render from the bounded shape table.
type telemetry struct {
	reg          metrics.Registry
	requests     *metrics.Requests    // endpoint+status → count, endpoint → latency
	truncated    *metrics.Vec[uint64] // responses truncated by max_rows
	watchSubs    *metrics.Vec[int64]  // live /v1/watch subscriptions
	watchDeltas  *metrics.Vec[uint64] // delta lines streamed to subscribers
	watchResyncs *metrics.Vec[uint64] // full-state resync lines streamed

	// One lock for what every served query touches, so observeQuery takes it
	// once.
	mu     sync.Mutex
	exec   metrics.Histogram // successful /v1/query execution latency
	shapes *shapeTable       // top-K per-shape telemetry
}

func newTelemetry(s *Server, shapeCap int) *telemetry {
	m := &telemetry{shapes: newShapeTable(shapeCap)}
	r := &m.reg
	r.Collect(func(w *metrics.Writer) {
		st := s.db.PlannerStats()
		w.Counter("panda_planner_hits_total", "Prepare calls answered from the plan cache (zero LP solves).", st.Hits)
		w.Counter("panda_planner_misses_total", "Prepare calls that built a fresh plan.", st.Misses)
		w.Counter("panda_planner_evictions_total", "Plans dropped by the LRU eviction policy.", st.Evictions)
		w.Counter("panda_planner_lp_solves_total", "Exact simplex solves performed across all plan builds.", st.LPSolves)
		w.Counter("panda_planner_lp_solves_saved_total", "Simplex solves avoided by plan-cache hits.", st.LPSolvesSaved)
		w.Counter("panda_planner_plans_built_total", "Plans constructed; builds are single-flighted per signature, so always equal to misses.", st.PlansBuilt)
		w.Gauge("panda_planner_cache_plans", "Plans currently held by the signature cache (including warm-loaded ones).", s.db.PlanCacheLen())
		entries, hits, misses := s.stmts.snapshot()
		w.Gauge("panda_stmt_cache_entries", "Prepared statements currently cached.", entries)
		w.Counter("panda_stmt_cache_hits_total", "Query requests served by a cached statement.", hits)
		w.Counter("panda_stmt_cache_misses_total", "Query requests that re-prepared their statement.", misses)
	})
	m.requests = metrics.NewRequests(r, "panda_http_requests_total", "Requests served, by endpoint and status code.")
	m.requests.LatencyHistogram(r, "panda_http_request_duration_seconds", "Request latency, by endpoint.")
	r.Collect(func(w *metrics.Writer) {
		m.mu.Lock()
		exec := m.exec
		m.mu.Unlock()
		const name = "panda_query_execution_seconds"
		w.Header(name, "End-to-end execution latency of successful /v1/query requests.", "histogram")
		w.Histogram(name, "", &exec)
	})
	m.truncated = metrics.Counter[uint64](r, "panda_query_rows_truncated_total", "Query responses truncated by a per-request max_rows limit.")
	m.watchSubs = metrics.Gauge[int64](r, "panda_watch_subscriptions", "Standing-query streams currently open on /v1/watch.")
	m.watchDeltas = metrics.Counter[uint64](r, "panda_watch_deltas_total", "Maintenance delta lines streamed to watch subscribers.")
	m.watchResyncs = metrics.Counter[uint64](r, "panda_watch_resyncs_total", "Full-state resync lines streamed to watch subscribers (drop/recreate, queue overflow, rule rounds).")
	r.Collect(m.writeShapes)
	return m
}

// observeQuery records one successful query execution against its shape.
func (m *telemetry) observeQuery(digest, mode string, rows int, d time.Duration, truncated bool) {
	if truncated {
		m.truncated.Add(1)
	}
	sec := d.Seconds()
	m.mu.Lock()
	m.exec.Observe(sec)
	m.shapes.observe(digest, mode, uint64(rows), sec)
	m.mu.Unlock()
}

// snapshotShapes exposes a consistent copy of the shape table.
func (m *telemetry) snapshotShapes() (shapes []*shapeStat, other *shapeStat, evicted uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.shapes.snapshot()
}

// writeShapes renders the per-shape series, keyed by plan signature digest
// with bounded cardinality: at most the top-K live digests plus the "other"
// rollup.
func (m *telemetry) writeShapes(w *metrics.Writer) {
	shapes, other, evicted := m.snapshotShapes()
	if other != nil {
		shapes = append(shapes, other)
	}
	sort.Slice(shapes, func(i, j int) bool { return shapes[i].digest < shapes[j].digest })
	const requests = "panda_query_shape_requests_total"
	w.Header(requests, "Successful queries by plan signature digest and committed mode; evicted shapes roll up into digest=\"other\".", "counter")
	for _, sh := range shapes {
		modes := make([]string, 0, len(sh.requests))
		for mode := range sh.requests {
			modes = append(modes, mode)
		}
		sort.Strings(modes)
		for _, mode := range modes {
			w.Sample(requests, metrics.Labels("digest", sh.digest, "mode", mode), sh.requests[mode])
		}
	}
	const rows = "panda_query_shape_rows_total"
	w.Header(rows, "Result rows served by plan signature digest.", "counter")
	for _, sh := range shapes {
		w.Sample(rows, metrics.Labels("digest", sh.digest), sh.rows)
	}
	const exec = "panda_query_shape_execution_seconds"
	w.Header(exec, "Execution latency by plan signature digest.", "histogram")
	for _, sh := range shapes {
		w.Histogram(exec, metrics.Labels("digest", sh.digest), &sh.exec)
	}
	w.Counter("panda_query_shape_evictions_total", "Shapes evicted from the top-K table into the \"other\" rollup.", evicted)
}
