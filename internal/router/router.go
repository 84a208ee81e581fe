// Package router implements pandarouter: a signature-sharded routing tier
// over pandad replicas with fleet-wide plan shipping.
//
// PANDA's planning phase (the Shannon-flow LP solves) is data-independent
// and cacheable; PRs 1-6 made one process amortize it across repeated
// traffic. This tier amortizes it across a FLEET:
//
//	client ──▶ pandarouter ──rendezvous(shape)──▶ replica A  (plans: pushed, LP solves: 0)
//	                 │                        └─▶ replica B  (plans: pushed, LP solves: 0)
//	                 └──new shapes──▶ planning tier (pays every LP solve once)
//
// Every /v1/query and /v1/plan — conjunctive query or disjunctive rule — is
// routed by its canonical shape: the renaming-invariant signature computed
// WITHOUT catalog access or LP work, so each shape consistently lands on one
// replica and every replica's plan/stmt caches stay hot and disjoint. The
// first time the router sees a shape it synchronously warms the designated
// planning tier (which pays the LP solves) and ships the resulting plans to
// all healthy replicas via the delta export (GET /v1/plans?since=<clock> on
// the planner, PUT /v1/plans on the replicas) before forwarding the query,
// so replicas never plan: their lp_solves_total stays 0 while
// lp_solves_saved_total climbs. A background push loop repeats the
// delta-pull/push on a timer, which is also how a replica that was briefly
// down catches up.
//
// Replicas are health-checked (GET /healthz) and failed over: a transport
// error or 503 marks the replica down and the request retries on the next-
// ranked healthy replica (rendezvous ranking makes that retry target
// deterministic, so a downed replica's shard moves wholesale to its second
// choice and nothing else reshuffles). When no replica remains the router
// answers 502 with the stable code "no_healthy_replica".
//
// Catalog mutations (relation create/drop, row/CSV ingest) are broadcast —
// planning tier first, then every replica — because plan signatures embed
// catalog cardinalities: after a mutation the planned-shape memo is
// dropped and the next query per shape re-warms and re-ships. A replica
// that misses a broadcast (down at the time, transport error, or a
// non-planner answer) has a diverged catalog and MUST NOT silently rejoin:
// every pandad counts its applied mutations as a catalog epoch reported on
// /healthz, and the probe loop quarantines any live replica whose epoch
// lags the planning tier's until it catches up (i.e. until an operator
// resyncs it — the resync mechanism itself is a recorded ROADMAP seam).
// A broadcast failure quarantines the replica immediately, without waiting
// for the next probe round.
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"panda/internal/metrics"
)

// Config assembles a Router.
type Config struct {
	// Replicas are the base URLs of the query-serving pandad fleet;
	// required, at least one. The URL doubles as the replica's rendezvous
	// identity, so keep it stable across router restarts.
	Replicas []string
	// Planner is the base URL of the designated planning tier (a pandad
	// that pays the LP solves for new shapes); required.
	Planner string
	// PushEvery is the background delta push period (default 2s).
	PushEvery time.Duration
	// ProbeEvery is the replica health-probe period (default 500ms).
	ProbeEvery time.Duration
	// ProxyTimeout caps each proxied attempt (default 30s).
	ProxyTimeout time.Duration
	// Client overrides the HTTP client (tests inject one).
	Client *http.Client
	// Logf receives operational log lines (default: discard).
	Logf func(format string, args ...any)
}

// staleThreshold is how many consecutive probe rounds must observe a
// replica's catalog epoch behind the planner's before the replica is
// quarantined. One round of grace absorbs the probe that lands between a
// broadcast's planner leg and its replica legs (a real missed broadcast
// stays behind forever and trips the threshold on the next round); a
// broadcast failure skips the grace and quarantines immediately.
const staleThreshold = 2

// backend is one replica: its rendezvous identity plus live health state.
type backend struct {
	name string // base URL; also the rendezvous hash identity

	mu      sync.Mutex
	healthy bool
	// epoch is the catalog epoch the replica reported on its last probe.
	epoch uint64
	// staleRounds counts consecutive probe rounds with epoch behind the
	// planner's; at staleThreshold the replica is quarantined (live but
	// unroutable: it missed a catalog mutation and needs a resync).
	staleRounds int
}

func (b *backend) isHealthy() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.healthy
}

// isRoutable reports whether traffic may be sent to the replica: it must
// be live AND its catalog must not be known to lag the planning tier's.
func (b *backend) isRoutable() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.healthy && b.staleRounds < staleThreshold
}

// setHealthy flips the liveness state, reporting whether it changed.
func (b *backend) setHealthy(v bool) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	changed := b.healthy != v
	b.healthy = v
	return changed
}

// setProbed records one probe observation against the planner's catalog
// epoch. It reports whether the replica just crossed into, or out of,
// quarantine. A replica AHEAD of the planner is not quarantined: that
// means the planner itself restarted with an older catalog, which is a
// planner problem (logged by the caller), not grounds to stop serving.
func (b *backend) setProbed(epoch, plannerEpoch uint64) (quarantined, recovered bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	before := b.staleRounds >= staleThreshold
	b.epoch = epoch
	if epoch < plannerEpoch {
		b.staleRounds++
	} else {
		b.staleRounds = 0
	}
	after := b.staleRounds >= staleThreshold
	return !before && after, before && !after
}

// forceStale quarantines the replica immediately (a broadcast to it
// failed, so the router KNOWS its catalog diverged — no probe grace).
// It reports whether the state changed.
func (b *backend) forceStale() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	changed := b.staleRounds < staleThreshold
	b.staleRounds = staleThreshold
	return changed
}

func (b *backend) state() (healthy bool, epoch uint64, stale bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.healthy, b.epoch, b.staleRounds >= staleThreshold
}

// Router is the HTTP handler. Create one with New, stop it with Close.
type Router struct {
	replicas []*backend
	planner  string
	client   *http.Client
	timeout  time.Duration
	logf     func(string, ...any)
	metrics  *telemetry
	mux      *http.ServeMux
	start    time.Time

	// plannerEpoch is the planning tier's catalog epoch as last probed;
	// replicas whose epoch lags it are quarantined.
	plannerEpoch atomic.Uint64

	// pushMu serializes plan-shipping cycles (first-sighting ensures and
	// the background loop); watermarks is owned by it. It is never held
	// across the planner warm-up HTTP call, only across the delta
	// pull/push itself.
	pushMu sync.Mutex
	// watermarks maps replica name → the planner cache clock whose
	// entries that replica has already imported; the next delta pull asks
	// the planner for ?since=min(watermarks).
	watermarks map[string]uint64

	// plannedMu guards the planned memo and the in-flight warm-up table.
	// It is only ever held for map operations — memoized shapes check it
	// and move on without waiting behind any HTTP work.
	plannedMu sync.Mutex
	// planned memoizes routing shapes known to be planned fleet-wide;
	// dropped wholesale on catalog mutations (signatures embed
	// cardinalities) and when it outgrows plannedCap.
	planned    map[string]struct{}
	plannedCap int
	// warming single-flights planner warm-ups per shape: the first sighting
	// runs the warm-up, concurrent sightings of the SAME shape wait on its
	// channel (bounded by their own deadline), other shapes proceed.
	warming map[string]chan struct{}

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// maxProxyBodyBytes bounds a buffered request body (queries are small;
// ingest bodies are the big ones and 64 MiB matches pandad's import cap).
const maxProxyBodyBytes = 64 << 20

// defaultPlannedCap bounds the planned-shape memo.
const defaultPlannedCap = 1 << 16

// New builds the router, runs one synchronous probe round so the first
// request already knows who is alive, and starts the probe and push loops.
func New(cfg Config) (*Router, error) {
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("router: at least one replica is required")
	}
	if cfg.Planner == "" {
		return nil, errors.New("router: a planner URL is required")
	}
	if cfg.PushEvery <= 0 {
		cfg.PushEvery = 2 * time.Second
	}
	if cfg.ProbeEvery <= 0 {
		cfg.ProbeEvery = 500 * time.Millisecond
	}
	if cfg.ProxyTimeout <= 0 {
		cfg.ProxyTimeout = 30 * time.Second
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	r := &Router{
		planner:    cfg.Planner,
		client:     cfg.Client,
		timeout:    cfg.ProxyTimeout,
		logf:       cfg.Logf,
		mux:        http.NewServeMux(),
		start:      time.Now(),
		watermarks: map[string]uint64{},
		planned:    map[string]struct{}{},
		plannedCap: defaultPlannedCap,
		warming:    map[string]chan struct{}{},
		stop:       make(chan struct{}),
	}
	seen := map[string]bool{}
	for _, name := range cfg.Replicas {
		if seen[name] {
			return nil, fmt.Errorf("router: duplicate replica %q", name)
		}
		seen[name] = true
		r.replicas = append(r.replicas, &backend{name: name, healthy: true})
	}
	r.metrics = newTelemetry(r)
	r.routes()
	r.probeAll()
	r.wg.Add(2)
	go r.probeLoop(cfg.ProbeEvery)
	go r.pushLoop(cfg.PushEvery)
	return r, nil
}

// Close stops the probe and push loops. It does not drain in-flight
// requests; the owning http.Server's Shutdown does that.
func (r *Router) Close() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.wg.Wait()
}

func (r *Router) routes() {
	// Every route is counted and timed by endpoint and status.
	observed := r.metrics.requests.Wrap
	r.mux.HandleFunc("POST /v1/query", observed("query", r.handleQuery))
	r.mux.HandleFunc("GET /v1/plan", observed("plan", r.handlePlan))
	r.mux.HandleFunc("GET /v1/plans", observed("plans", r.handleExportPlans))
	r.mux.HandleFunc("PUT /v1/plans", observed("plans", r.handleImportPlans))
	r.mux.HandleFunc("GET /v1/relations", observed("relations", r.proxyPlannerRead))
	r.mux.HandleFunc("GET /v1/shapes", observed("shapes", r.handleShapes))
	r.mux.HandleFunc("POST /v1/relations", observed("relations", r.handleMutation))
	r.mux.HandleFunc("DELETE /v1/relations/{name}", observed("relations", r.handleMutation))
	r.mux.HandleFunc("POST /v1/relations/{name}/rows", observed("rows", r.handleMutation))
	r.mux.HandleFunc("POST /v1/relations/{name}/csv", observed("csv", r.handleMutation))
	r.mux.HandleFunc("GET /metrics", observed("metrics", r.metrics.reg.ServeHTTP))
	r.mux.HandleFunc("GET /healthz", observed("healthz", r.handleHealthz))
	r.mux.HandleFunc("GET /v1/info", observed("info", r.handleInfo))
}

func (r *Router) ServeHTTP(w http.ResponseWriter, req *http.Request) { r.mux.ServeHTTP(w, req) }

// ---- Health probing ----

func (r *Router) probeLoop(every time.Duration) {
	defer r.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.probeAll()
		}
	}
}

// probeAll runs one health round: the planning tier's catalog epoch is
// read first, then every replica's liveness AND epoch. A live replica
// whose epoch lags the planner's for staleThreshold consecutive rounds is
// quarantined — it missed a catalog mutation (the code path that marked it
// down has no way to replay the mutation) and answering 200 on /healthz is
// NOT evidence it caught up, so it stays out of rotation until its epoch
// matches again.
func (r *Router) probeAll() {
	if plannerUp, epoch := r.probe(r.planner); plannerUp {
		if prev := r.plannerEpoch.Swap(epoch); epoch < prev {
			// The planner came back with an older catalog than the fleet
			// has applied. Replicas are NOT quarantined for being ahead —
			// that would turn a planner restart into a total outage — but
			// fresh plans may now disagree with replica catalogs.
			r.logf("router: planner catalog epoch regressed %d → %d (planner restart with a stale catalog?)", prev, epoch)
		}
	}
	plannerEpoch := r.plannerEpoch.Load()
	for _, b := range r.replicas {
		healthy, epoch := r.probe(b.name)
		if b.setHealthy(healthy) {
			if healthy {
				r.logf("router: replica %s is back", b.name)
			} else {
				r.logf("router: replica %s is down", b.name)
				r.metrics.failovers.Add(1, b.name)
			}
		}
		if !healthy {
			continue
		}
		quarantined, recovered := b.setProbed(epoch, plannerEpoch)
		if quarantined {
			r.logf("router: replica %s is live but its catalog epoch %d lags the planner's %d; quarantined until resynced", b.name, epoch, plannerEpoch)
			r.metrics.quarantines.Add(1, b.name)
		}
		if recovered {
			r.logf("router: replica %s caught up to catalog epoch %d; back in rotation", b.name, epoch)
		}
	}
}

// probe asks one base URL's /healthz with a short deadline, reporting
// liveness and the catalog epoch the body carries (0 when absent — older
// pandads and the unit-test stubs omit it, which compares as "never
// mutated" and is exactly right for them).
func (r *Router) probe(base string) (bool, uint64) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return false, 0
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return false, 0
	}
	var hb struct {
		CatalogEpoch uint64 `json:"catalog_epoch"`
	}
	json.NewDecoder(io.LimitReader(resp.Body, 1<<12)).Decode(&hb)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK, hb.CatalogEpoch
}

// markDown records an in-request health discovery (transport error or 503
// from a replica) so the very next candidate ranking already avoids it;
// the probe loop brings the replica back once /healthz answers again.
func (r *Router) markDown(b *backend) {
	if b.setHealthy(false) {
		r.logf("router: replica %s failed in-request, failing over", b.name)
		r.metrics.failovers.Add(1, b.name)
	}
}

// routableReplicas are the replicas traffic, broadcasts and plan pushes go
// to: live and not quarantined for a lagging catalog.
func (r *Router) routableReplicas() []*backend {
	out := make([]*backend, 0, len(r.replicas))
	for _, b := range r.replicas {
		if b.isRoutable() {
			out = append(out, b)
		}
	}
	return out
}

func (r *Router) backendByName(name string) *backend {
	for _, b := range r.replicas {
		if b.name == name {
			return b
		}
	}
	return nil
}

// ---- Plan shipping ----

func (r *Router) pushLoop(every time.Duration) {
	defer r.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			ctx, cancel := context.WithTimeout(context.Background(), r.timeout)
			r.pushMu.Lock()
			r.pullAndPush(ctx)
			r.pushMu.Unlock()
			cancel()
		}
	}
}

// ensurePlanned makes a first-sighted shape — query or rule — safe to route:
// the planning tier is warmed synchronously (it pays the LP solves on its
// own cache miss), its fresh plans are delta-pulled and pushed to every
// routable replica, and the shape is memoized. Replicas therefore see the
// plan arrive BEFORE the query does and never plan themselves. Planner
// trouble degrades gracefully: the query still routes (the replica would
// plan as a last resort) and the shape stays un-memoized so the next
// sighting retries the warm-up.
//
// Warm-ups are single-flighted PER SHAPE and every planner interaction
// here runs under the router's proxy timeout, so a hung planner
// connection can stall at most the queries of the one shape being warmed
// — memoized shapes take the fast path without waiting behind any HTTP
// work, and concurrent sightings of the warming shape give up at their
// deadline instead of queueing behind the client's disconnect.
func (r *Router) ensurePlanned(ctx context.Context, shape, src, mode string) {
	ctx, cancel := context.WithTimeout(ctx, r.timeout)
	defer cancel()
	r.plannedMu.Lock()
	if _, ok := r.planned[shape]; ok {
		r.plannedMu.Unlock()
		return
	}
	if ch, ok := r.warming[shape]; ok {
		r.plannedMu.Unlock()
		// Another request is warming this exact shape; wait for it (so the
		// plan reaches the replica before our query does) but no longer
		// than our own deadline. Either way the query then routes: if the
		// warm-up failed, the replica plans as a last resort.
		select {
		case <-ch:
		case <-ctx.Done():
		}
		return
	}
	ch := make(chan struct{})
	r.warming[shape] = ch
	r.plannedMu.Unlock()
	defer func() {
		r.plannedMu.Lock()
		delete(r.warming, shape)
		r.plannedMu.Unlock()
		close(ch)
	}()

	u := r.planner + "/v1/plan?q=" + url.QueryEscape(src)
	if mode != "" {
		u += "&mode=" + url.QueryEscape(mode)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return
	}
	resp, err := r.client.Do(req)
	if err != nil {
		r.metrics.plannerErrors.Add(1)
		r.logf("router: planner warm-up for shape %s failed: %v", shape, err)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// The planner rejected the query (parse error, unknown relation,
		// unbounded LP, …). The replica will reject it identically; memoize
		// nothing and let the query through to produce the real error.
		r.metrics.plannerErrors.Add(1)
		return
	}
	r.metrics.ensures.Add(1)
	r.pushMu.Lock()
	r.pullAndPush(ctx)
	r.pushMu.Unlock()
	r.plannedMu.Lock()
	if len(r.planned) >= r.plannedCap {
		r.planned = map[string]struct{}{}
	}
	r.planned[shape] = struct{}{}
	r.plannedMu.Unlock()
}

// pullAndPush pulls one delta from the planner (since the oldest routable
// replica watermark) and imports it into every routable replica that is
// behind the delta's clock. Over-delivery is harmless — imports never
// clobber live entries and duplicates are counted, not rejected — so one
// pull serves replicas at different watermarks. Caller holds pushMu.
//
// The planner's cache clock is in-memory and restarts near 0, while the
// router's watermarks only ever advance — so after a planner restart every
// watermark exceeds the planner's clock, deltas come back empty (or get
// skipped by the watermark guards) and newly planned shapes would never
// ship again, silently pushing replicas back onto their own LP solves. A
// pulled clock BELOW `since` can only mean such a restart: the watermarks
// are reset to 0 and the pull retried once so the full cache re-ships.
func (r *Router) pullAndPush(ctx context.Context) {
	if done := r.pullAndPushOnce(ctx); !done {
		r.pullAndPushOnce(ctx)
	}
}

// pullAndPushOnce runs one pull/push cycle; it reports false only when a
// planner clock regression was detected and the watermarks were reset, in
// which case the caller retries with the fresh state.
func (r *Router) pullAndPushOnce(ctx context.Context) bool {
	replicas := r.routableReplicas()
	if len(replicas) == 0 {
		return true
	}
	since := r.watermarks[replicas[0].name]
	for _, b := range replicas[1:] {
		if w := r.watermarks[b.name]; w < since {
			since = w
		}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/v1/plans?since=%d", r.planner, since), nil)
	if err != nil {
		return true
	}
	resp, err := r.client.Do(req)
	if err != nil {
		r.metrics.plannerErrors.Add(1)
		return true
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxProxyBodyBytes))
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		r.metrics.plannerErrors.Add(1)
		return true
	}
	var env struct {
		Clock   uint64            `json:"clock"`
		Entries []json.RawMessage `json:"entries"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		r.metrics.plannerErrors.Add(1)
		return true
	}
	if env.Clock < since {
		r.logf("router: planner cache clock regressed to %d (watermarks reached %d): planner restart, re-shipping the full cache", env.Clock, since)
		for name := range r.watermarks {
			r.watermarks[name] = 0
		}
		return false
	}
	if len(env.Entries) == 0 {
		// Nothing new: advance watermarks to the planner's clock so the
		// next pull stays cheap.
		for _, b := range replicas {
			if r.watermarks[b.name] < env.Clock {
				r.watermarks[b.name] = env.Clock
			}
		}
		return true
	}
	r.metrics.pushes.Add(1)
	for _, b := range replicas {
		if r.watermarks[b.name] >= env.Clock {
			continue
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPut, b.name+"/v1/plans", bytes.NewReader(body))
		if err != nil {
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := r.client.Do(req)
		if err != nil {
			r.markDown(b)
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		// 200 (clean) and 422 (partial skip, reported loudly by the
		// replica) both mean the snapshot was processed; only transport
		// failures leave the watermark behind for a retry.
		if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusUnprocessableEntity {
			r.watermarks[b.name] = env.Clock
			r.metrics.pushEntries.Add(uint64(len(env.Entries)), b.name)
			if resp.StatusCode == http.StatusUnprocessableEntity {
				r.logf("router: replica %s imported the delta with skips", b.name)
			}
		}
	}
	return true
}

// ---- Query / plan routing ----

type queryBody struct {
	Query string `json:"query"`
	Mode  string `json:"mode"`
}

// readBody buffers a bounded request body. An oversized body is answered
// 413 with its own stable code (matching pandad's import-cap convention);
// any other read failure is a plain 400.
func readBody(w http.ResponseWriter, req *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, maxProxyBodyBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			metrics.WriteError(w, http.StatusRequestEntityTooLarge, "body_too_large", err)
		} else {
			metrics.WriteError(w, http.StatusBadRequest, "bad_request", err)
		}
		return nil, false
	}
	return body, true
}

func (r *Router) handleQuery(w http.ResponseWriter, req *http.Request) {
	body, ok := readBody(w, req)
	if !ok {
		return
	}
	// Lenient decode: the router only needs the routing fields; the
	// replica stays the strict validator of the full body.
	var qb queryBody
	json.Unmarshal(body, &qb)
	r.routeWithFailover(w, req, r.plannedShape(req.Context(), qb.Query, qb.Mode), body)
}

func (r *Router) handlePlan(w http.ResponseWriter, req *http.Request) {
	q := req.URL.Query()
	r.routeWithFailover(w, req, r.plannedShape(req.Context(), q.Get("q"), q.Get("mode")), nil)
}

// plannedShape names the routing shape of a query or rule text and makes it
// safe to route (ensurePlanned). A text that does not parse routes by its
// raw text, unplanned; the replica reports the real error.
func (r *Router) plannedShape(ctx context.Context, src, mode string) string {
	if src == "" {
		return src
	}
	shape, err := shapeOf(src, mode)
	if err != nil {
		return src
	}
	r.ensurePlanned(ctx, shape, src, mode)
	return shape
}

// routeWithFailover forwards the request to the healthy replicas in
// rendezvous order for shape: the first-ranked healthy replica gets the
// request; a transport error or 503 marks it down and the next-ranked one
// is tried (each downed replica costs exactly one bounded retry). When no
// healthy replica remains the answer is 502 "no_healthy_replica".
func (r *Router) routeWithFailover(w http.ResponseWriter, req *http.Request, shape string, body []byte) {
	names := make([]string, len(r.replicas))
	for i, b := range r.replicas {
		names[i] = b.name
	}
	attempts := 0
	for _, name := range Rank(names, shape) {
		b := r.backendByName(name)
		if !b.isRoutable() {
			continue
		}
		if attempts > 0 {
			r.metrics.retries.Add(1)
		}
		attempts++
		ok := r.proxyOnce(w, req, b, shape, body)
		if ok {
			return
		}
	}
	r.metrics.noHealthy.Add(1)
	metrics.WriteError(w, http.StatusBadGateway, "no_healthy_replica",
		fmt.Errorf("no healthy replica for shape %s (%d attempted)", shape, attempts))
}

// proxyOnce sends the request to one replica. It reports false — without
// having written to w — when the replica should be failed over (transport
// error, or 503: the replica is draining or closed); any other response,
// success or error, is copied through verbatim as the request's outcome.
func (r *Router) proxyOnce(w http.ResponseWriter, req *http.Request, b *backend, shape string, body []byte) bool {
	ctx, cancel := context.WithTimeout(req.Context(), r.timeout)
	defer cancel()
	u := b.name + req.URL.Path
	if req.URL.RawQuery != "" {
		u += "?" + req.URL.RawQuery
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	out, err := http.NewRequestWithContext(ctx, req.Method, u, rd)
	if err != nil {
		metrics.WriteError(w, http.StatusInternalServerError, "proxy_error", err)
		return true
	}
	if ct := req.Header.Get("Content-Type"); ct != "" {
		out.Header.Set("Content-Type", ct)
	}
	resp, err := r.client.Do(out)
	if err != nil {
		r.markDown(b)
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusServiceUnavailable {
		io.Copy(io.Discard, resp.Body)
		r.markDown(b)
		return false
	}
	r.metrics.addRouted(shape, b.name)
	copyResponse(w, resp)
	return true
}

// copyResponse relays status, content type and body.
func copyResponse(w http.ResponseWriter, resp *http.Response) {
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// ---- Plan export/import and catalog passthrough ----

// handleExportPlans proxies to the planning tier — the authoritative plan
// cache (replicas only ever hold subsets it pushed).
func (r *Router) handleExportPlans(w http.ResponseWriter, req *http.Request) {
	r.proxyTo(w, req, r.planner, nil)
}

// proxyPlannerRead forwards a read-only endpoint to the planning tier,
// which shares the fleet's catalog.
func (r *Router) proxyPlannerRead(w http.ResponseWriter, req *http.Request) {
	r.proxyTo(w, req, r.planner, nil)
}

// handleShapes aggregates per-shape telemetry across the fleet: every
// replica's /v1/shapes entries, each tagged with the replica that served
// it. Because routing is shape-disjoint, concatenation IS the merge — no
// digest appears under two replicas. Unreachable replicas are skipped
// (and marked down) so the fleet view degrades instead of failing.
func (r *Router) handleShapes(w http.ResponseWriter, req *http.Request) {
	type taggedShape = map[string]any
	out := struct {
		Shapes []taggedShape `json:"shapes"`
	}{Shapes: []taggedShape{}}
	for _, b := range r.replicas {
		if !b.isHealthy() {
			continue
		}
		ctx, cancel := context.WithTimeout(req.Context(), r.timeout)
		sub, err := http.NewRequestWithContext(ctx, http.MethodGet, b.name+"/v1/shapes", nil)
		if err != nil {
			cancel()
			continue
		}
		resp, err := r.client.Do(sub)
		if err != nil {
			cancel()
			r.markDown(b)
			continue
		}
		var view struct {
			Shapes []taggedShape `json:"shapes"`
		}
		err = json.NewDecoder(io.LimitReader(resp.Body, maxProxyBodyBytes)).Decode(&view)
		resp.Body.Close()
		cancel()
		if err != nil {
			r.logf("router: bad /v1/shapes from %s: %v", b.name, err)
			continue
		}
		for _, sh := range view.Shapes {
			sh["replica"] = b.name
			out.Shapes = append(out.Shapes, sh)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// handleImportPlans broadcasts an external snapshot to the planning tier
// and every healthy replica, answering with the planner's verdict.
func (r *Router) handleImportPlans(w http.ResponseWriter, req *http.Request) {
	body, ok := readBody(w, req)
	if !ok {
		return
	}
	r.broadcast(w, req, body)
}

// handleMutation broadcasts a catalog mutation and invalidates the
// planned-shape memo: signatures embed catalog cardinalities, so plans for
// the new catalog state must be re-shipped shape by shape.
func (r *Router) handleMutation(w http.ResponseWriter, req *http.Request) {
	body, ok := readBody(w, req)
	if !ok {
		return
	}
	r.broadcast(w, req, body)
	r.plannedMu.Lock()
	r.planned = map[string]struct{}{}
	r.plannedMu.Unlock()
}

// broadcast applies the request to the planning tier first (it must know
// the catalog before it can plan for it), then to every routable replica,
// and relays the planner's response. A replica that misses a mutation the
// planner applied — transport error, or any answer when the planner said
// 2xx and the replica did not — is serving a diverged catalog, so it is
// quarantined ON THE SPOT: marked down AND forced stale, which keeps the
// probe loop from auto-rejoining it on the next 200 /healthz. Its epoch
// stays behind the planner's, so it remains quarantined until a catalog
// resync brings the epochs back together.
func (r *Router) broadcast(w http.ResponseWriter, req *http.Request, body []byte) {
	plannerResp, err := r.send(req, r.planner, body)
	if err != nil {
		metrics.WriteError(w, http.StatusBadGateway, "planner_unreachable", err)
		return
	}
	plannerApplied := plannerResp.status < 300
	for _, b := range r.routableReplicas() {
		resp, err := r.send(req, b.name, body)
		if err != nil {
			r.markDown(b)
			r.quarantine(b, fmt.Sprintf("broadcast %s %s failed: %v", req.Method, req.URL.Path, err), plannerApplied)
			continue
		}
		if resp.status != plannerResp.status {
			r.logf("router: broadcast %s %s: %s answered %d, planner %d", req.Method, req.URL.Path, b.name, resp.status, plannerResp.status)
			if plannerApplied && resp.status >= 300 {
				r.quarantine(b, fmt.Sprintf("broadcast %s %s answered %d while the planner applied it", req.Method, req.URL.Path, resp.status), true)
			}
		}
	}
	if ct := plannerResp.contentType; ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(plannerResp.status)
	w.Write(plannerResp.body)
}

// quarantine forces a replica out of rotation after a missed broadcast.
// When the planner did not actually apply the mutation either, nothing
// diverged — the replica is only logged, not quarantined.
func (r *Router) quarantine(b *backend, why string, diverged bool) {
	if !diverged {
		r.logf("router: replica %s: %s (planner rejected it too; catalogs agree)", b.name, why)
		return
	}
	if b.forceStale() {
		r.logf("router: replica %s: %s; quarantined until its catalog is resynced", b.name, why)
		r.metrics.quarantines.Add(1, b.name)
	}
}

type sentResponse struct {
	status      int
	contentType string
	body        []byte
}

// send replays the request against one base URL, buffering the response.
func (r *Router) send(req *http.Request, base string, body []byte) (*sentResponse, error) {
	ctx, cancel := context.WithTimeout(req.Context(), r.timeout)
	defer cancel()
	u := base + req.URL.Path
	if req.URL.RawQuery != "" {
		u += "?" + req.URL.RawQuery
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	out, err := http.NewRequestWithContext(ctx, req.Method, u, rd)
	if err != nil {
		return nil, err
	}
	if ct := req.Header.Get("Content-Type"); ct != "" {
		out.Header.Set("Content-Type", ct)
	}
	resp, err := r.client.Do(out)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxProxyBodyBytes))
	if err != nil {
		return nil, err
	}
	return &sentResponse{status: resp.StatusCode, contentType: resp.Header.Get("Content-Type"), body: b}, nil
}

// proxyTo forwards one request to a single base URL with no failover.
func (r *Router) proxyTo(w http.ResponseWriter, req *http.Request, base string, body []byte) {
	resp, err := r.send(req, base, body)
	if err != nil {
		metrics.WriteError(w, http.StatusBadGateway, "planner_unreachable", err)
		return
	}
	if ct := resp.contentType; ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.status)
	w.Write(resp.body)
}

// ---- Router introspection ----

func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	metrics.WriteJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

func (r *Router) handleInfo(w http.ResponseWriter, req *http.Request) {
	type replicaInfo struct {
		Name         string `json:"name"`
		Healthy      bool   `json:"healthy"`
		Quarantined  bool   `json:"quarantined"`
		CatalogEpoch uint64 `json:"catalog_epoch"`
		Watermark    uint64 `json:"watermark"`
	}
	r.plannedMu.Lock()
	planned := len(r.planned)
	r.plannedMu.Unlock()
	r.pushMu.Lock()
	reps := make([]replicaInfo, len(r.replicas))
	for i, b := range r.replicas {
		healthy, epoch, stale := b.state()
		reps[i] = replicaInfo{
			Name:         b.name,
			Healthy:      healthy,
			Quarantined:  stale,
			CatalogEpoch: epoch,
			Watermark:    r.watermarks[b.name],
		}
	}
	r.pushMu.Unlock()
	sort.Slice(reps, func(i, j int) bool { return reps[i].Name < reps[j].Name })
	metrics.WriteJSON(w, http.StatusOK, map[string]any{
		"role":                  "router",
		"planner":               r.planner,
		"planner_catalog_epoch": r.plannerEpoch.Load(),
		"replicas":              reps,
		"planned_shapes":        planned,
		"uptime_seconds":        time.Since(r.start).Seconds(),
	})
}
