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
// first time the router sees a shape it makes one request to the designated
// planning tier, GET /v1/plans?q=<text>, which pays the LP solves and
// answers with a snapshot holding that one plan, and PUTs the snapshot to
// every routable replica at once (PUT /v1/plans) before forwarding the
// query, so replicas never plan: their lp_solves_total stays 0 while
// lp_solves_saved_total climbs. A plan is named by its shape's key (plans
// under one key certify one width, though their bytes may differ), so
// the router keeps no record of what it shipped: a replica a shipment could
// not reach — down, quarantined, a failed push, or any replica when the
// router starts — is marked behind, and the push loop sends each behind
// replica the planner's whole cache once it is routable again.
//
// Replicas are health-checked (GET /healthz) and failed over: a transport
// error or 503 marks the replica down and the request retries on the next-
// ranked healthy replica (rendezvous ranking makes that retry target
// deterministic, so a downed replica's shard moves wholesale to its second
// choice and nothing else reshuffles). When no replica remains the router
// answers 502 with the stable code "no_healthy_replica".
//
// Catalog mutations (relation create/drop, row/CSV ingest) are broadcast —
// planning tier first, then every replica at once — because plan signatures
// embed catalog cardinalities: after a mutation the planner applied, the
// planned-shape memo is dropped and the next query per shape re-warms and
// re-ships. A replica that misses a broadcast (down at the time, transport
// error, or a non-planner answer) has a diverged catalog and MUST NOT
// silently rejoin: every pandad counts its applied mutations as a catalog
// epoch reported on /healthz, and the probe loop quarantines any live
// replica whose epoch lags the planning tier's until it catches up (i.e.
// until an operator resyncs it — the resync mechanism itself is a recorded
// ROADMAP seam).
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
	// PushEvery is the catch-up period: how often replicas that are behind
	// are sent the planner's whole cache (default 2s).
	PushEvery time.Duration
	// ProbeEvery is the replica health-probe period (default 500ms).
	ProbeEvery time.Duration
	// ProxyTimeout caps each proxied attempt (default 30s).
	ProxyTimeout time.Duration
	// Client overrides the HTTP client (tests inject one). The default
	// keeps maxIdleConnsPerTier idle connections per tier.
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
	// behind is set while the replica may lack a plan the fleet was shipped:
	// from the start (the planner may hold plans from before this router),
	// whenever it stops being routable, and when a push to it fails. The
	// push loop clears it by sending the planner's whole cache.
	behind bool
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
	b.behind = b.behind || !v
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
	b.behind = b.behind || after
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
	b.behind = true
	return changed
}

// fallBehind records that a shipment did not reach the replica.
func (b *backend) fallBehind() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.behind = true
}

// catchingUp reports whether the replica is behind and routable, and if so
// clears the mark: the caller owes it the planner's whole cache. The mark is
// cleared before the snapshot is pulled, not after it is pushed, so a
// shipment the replica misses in between sets it again and is not lost.
func (b *backend) catchingUp() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.behind || !b.healthy || b.staleRounds >= staleThreshold {
		return false
	}
	b.behind = false
	return true
}

// replicaInfo is one replica's entry in the router's /v1/info answer.
type replicaInfo struct {
	Name         string `json:"name"`
	Healthy      bool   `json:"healthy"`
	Quarantined  bool   `json:"quarantined"`
	CatalogEpoch uint64 `json:"catalog_epoch"`
	Behind       bool   `json:"behind"`
}

func (b *backend) info() replicaInfo {
	b.mu.Lock()
	defer b.mu.Unlock()
	return replicaInfo{Name: b.name, Healthy: b.healthy, Quarantined: b.staleRounds >= staleThreshold, CatalogEpoch: b.epoch, Behind: b.behind}
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

// maxIdleConnsPerTier is how many idle connections the default client keeps
// open to each replica and to the planner. http.DefaultTransport keeps 2, so
// past two concurrent reads to one replica every read would dial a
// connection and close it afterwards.
const maxIdleConnsPerTier = 64

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
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = maxIdleConnsPerTier
		cfg.Client = &http.Client{Transport: tr}
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
		r.replicas = append(r.replicas, &backend{name: name, healthy: true, behind: true})
	}
	r.metrics = newTelemetry(r)
	r.routes()
	r.probeAll()
	r.wg.Add(2)
	go r.loop(cfg.ProbeEvery, r.probeAll)
	go r.loop(cfg.PushEvery, r.catchUp)
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
	r.mux.HandleFunc("GET /v1/plans", observed("plans", r.proxyPlannerRead))
	r.mux.HandleFunc("PUT /v1/plans", observed("plans", r.handleImport))
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

// loop runs round every period until Close.
func (r *Router) loop(every time.Duration, round func()) {
	defer r.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			round()
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
	resp, err := r.fetch(ctx, http.MethodGet, base+"/healthz", "", nil)
	if err != nil {
		return false, 0
	}
	var hb struct {
		CatalogEpoch uint64 `json:"catalog_epoch"`
	}
	json.Unmarshal(resp.body, &hb)
	return resp.status == http.StatusOK, hb.CatalogEpoch
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

// catchUp is one round of the push loop: the replicas that are behind and
// routable again are sent the planner's whole cache. A round with nobody
// behind talks to no one.
func (r *Router) catchUp() {
	var to []*backend
	for _, b := range r.replicas {
		if b.catchingUp() {
			to = append(to, b)
		}
	}
	if len(to) == 0 {
		return
	}
	ctx := context.Background()
	cache, entries, err := r.pull(ctx, r.planner+"/v1/plans")
	if err != nil || cache.status != http.StatusOK {
		r.metrics.plannerErrors.Add(1)
		for _, b := range to {
			b.fallBehind()
		}
		return
	}
	r.push(ctx, to, cache.body, entries)
}

// ensurePlanned makes a first-sighted shape — query or rule — safe to route.
// One request to the planning tier (GET /v1/plans?q=) plans the text there,
// paying the LP solves on the planner's own cache miss, and answers with a
// snapshot holding that plan; the snapshot goes to every routable replica
// unchanged, and the shape is memoized. Replicas therefore see the plan
// arrive BEFORE the query does and never plan themselves. Planner trouble
// degrades gracefully: a failed request, a non-200 answer or a snapshot
// without an entry counts as a planner error, the query still routes (the
// replica would plan as a last resort) and the shape stays un-memoized so
// the next sighting retries the warm-up.
//
// Warm-ups are single-flighted PER SHAPE and every planner interaction
// here runs under the router's proxy timeout, so a hung planner
// connection can stall at most the queries of the one shape being warmed
// — memoized shapes take the fast path without waiting behind any HTTP
// work, and concurrent sightings of the warming shape give up at their
// deadline instead of queueing behind the client's disconnect.
//
// Known cost of keeping no record of what was shipped: a first sighting
// ships its plan even when the fleet already holds it — an insert into a
// relation the shape does not read drops the router's shape memo but leaves
// the plan's key unchanged. Traced serve-mixed, 10 s: 4 of 32 ensures,
// router.push_entries 56 → 64, each extra push one 2.6 kB PUT per replica
// answered as a duplicate. A replica checks such an entry's digest and finds
// its key held, and does not decode the plan (plan.LoadCache).
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

	q := url.Values{"q": {src}}
	if mode != "" {
		q.Set("mode", mode)
	}
	snapshot, entries, err := r.pull(ctx, r.planner+"/v1/plans?"+q.Encode())
	if err != nil || snapshot.status != http.StatusOK || entries == 0 {
		// A rejection (parse error, unknown relation, unbounded LP, …) is
		// the client's to see: the replica will reject the query
		// identically. Anything else is logged. Either way memoize nothing
		// and let the query through.
		r.metrics.plannerErrors.Add(1)
		if err != nil {
			r.logf("router: planner warm-up for shape %s failed: %v", shape, err)
		} else if snapshot.status == http.StatusOK {
			r.logf("router: planner warm-up for shape %s answered a snapshot without its plan", shape)
		}
		return
	}
	r.metrics.ensures.Add(1)
	r.push(ctx, r.routableReplicas(), snapshot.body, entries)
	r.plannedMu.Lock()
	if len(r.planned) >= r.plannedCap {
		r.planned = map[string]struct{}{}
	}
	r.planned[shape] = struct{}{}
	r.plannedMu.Unlock()
}

// pull GETs a plan-cache snapshot from the planning tier. The entries of a
// 200 answer are counted; any other answer is returned as it is, with none.
func (r *Router) pull(ctx context.Context, target string) (*sentResponse, int, error) {
	resp, err := r.fetch(ctx, http.MethodGet, target, "", nil)
	if err != nil || resp.status != http.StatusOK {
		return resp, 0, err
	}
	var env struct {
		Entries []struct{} `json:"entries"` // counted; the replicas decode them
	}
	if err := json.Unmarshal(resp.body, &env); err != nil {
		return nil, 0, fmt.Errorf("malformed snapshot: %w", err)
	}
	return resp, len(env.Entries), nil
}

// push imports a snapshot into every replica of to at once and returns when
// each has answered. Every replica of to either imports it or is left behind
// for the push loop. Imports never clobber live entries and duplicates are
// counted, not rejected, so over-delivery is harmless and the path keeps no
// record of what was shipped.
func (r *Router) push(ctx context.Context, to []*backend, snapshot []byte, entries int) {
	if len(to) == 0 || entries == 0 {
		return
	}
	r.metrics.pushes.Add(1)
	fanOut(to, func(b *backend) {
		resp, err := r.fetch(ctx, http.MethodPut, b.name+"/v1/plans", "application/json", snapshot)
		if err != nil {
			r.markDown(b)
			return
		}
		// 200 (clean) and 422 (partial skip, reported loudly by the
		// replica) both mean the snapshot was processed, and sending it
		// again would skip the same entries.
		if resp.status != http.StatusOK && resp.status != http.StatusUnprocessableEntity {
			b.fallBehind()
			return
		}
		r.metrics.pushEntries.Add(uint64(entries), b.name)
		if resp.status == http.StatusUnprocessableEntity {
			r.logf("router: replica %s imported the plans with skips", b.name)
		}
	})
}

// fanOut runs leg for every replica of to at once, the first on the calling
// goroutine, and returns when every leg has returned.
func fanOut(to []*backend, leg func(*backend)) {
	if len(to) == 0 {
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(to) - 1)
	for _, b := range to[1:] {
		go func() {
			defer wg.Done()
			leg(b)
		}()
	}
	leg(to[0])
	wg.Wait()
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
// success or error, is streamed through verbatim as the request's outcome
// (an answer can be hundreds of kilobytes; it is never buffered here).
func (r *Router) proxyOnce(w http.ResponseWriter, req *http.Request, b *backend, shape string, body []byte) bool {
	resp, err := r.call(req.Context(), req.Method, tierURL(b.name, req), req.Header.Get("Content-Type"), body)
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
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	return true
}

// ---- Plan export/import and catalog passthrough ----

// proxyPlannerRead forwards a read-only endpoint to the planning tier, with
// no failover: it shares the fleet's catalog and holds the authoritative
// plan cache (replicas only ever hold subsets it shipped).
func (r *Router) proxyPlannerRead(w http.ResponseWriter, req *http.Request) {
	resp, err := r.send(req, r.planner, nil)
	if err != nil {
		metrics.WriteError(w, http.StatusBadGateway, "planner_unreachable", err)
		return
	}
	resp.relay(w)
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
		resp, err := r.fetch(req.Context(), http.MethodGet, b.name+"/v1/shapes", "", nil)
		if err != nil {
			r.markDown(b)
			continue
		}
		var view struct {
			Shapes []taggedShape `json:"shapes"`
		}
		if err := json.Unmarshal(resp.body, &view); err != nil {
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

// handleMutation broadcasts a catalog mutation and, when the planning tier
// applied it, invalidates the planned-shape memo: signatures embed catalog
// cardinalities, so plans for the new catalog state must be re-shipped shape
// by shape. A mutation the planner rejected changed nothing.
func (r *Router) handleMutation(w http.ResponseWriter, req *http.Request) {
	if !r.broadcast(w, req) {
		return
	}
	r.plannedMu.Lock()
	r.planned = map[string]struct{}{}
	r.plannedMu.Unlock()
}

// handleImport broadcasts an external plan snapshot. It changes no catalog,
// so the planned-shape memo stays.
func (r *Router) handleImport(w http.ResponseWriter, req *http.Request) { r.broadcast(w, req) }

// broadcast applies the request — a catalog mutation, or an external plan
// snapshot (PUT /v1/plans) — to the planning tier first (it must know the
// catalog before it can plan for it), then to every routable replica at
// once, relays the planner's response once every replica has answered, and
// reports whether the planner applied it (a 2xx). A replica that misses a
// mutation the planner applied — transport error, or any answer when the
// planner said 2xx and the replica did not — is serving a diverged catalog,
// so it is quarantined ON THE SPOT: marked down AND forced stale, which
// keeps the probe loop from auto-rejoining it on the next 200 /healthz. Its
// epoch stays behind the planner's, so it remains quarantined until a
// catalog resync brings the epochs back together.
func (r *Router) broadcast(w http.ResponseWriter, req *http.Request) bool {
	body, ok := readBody(w, req)
	if !ok {
		return false
	}
	plannerResp, err := r.send(req, r.planner, body)
	if err != nil {
		metrics.WriteError(w, http.StatusBadGateway, "planner_unreachable", err)
		return false
	}
	plannerApplied := plannerResp.status < 300
	fanOut(r.routableReplicas(), func(b *backend) {
		resp, err := r.send(req, b.name, body)
		if err != nil {
			r.markDown(b)
			r.quarantine(b, fmt.Sprintf("broadcast %s %s failed: %v", req.Method, req.URL.Path, err), plannerApplied)
			return
		}
		if resp.status != plannerResp.status {
			r.logf("router: broadcast %s %s: %s answered %d, planner %d", req.Method, req.URL.Path, b.name, resp.status, plannerResp.status)
			if plannerApplied && resp.status >= 300 {
				r.quarantine(b, fmt.Sprintf("broadcast %s %s answered %d while the planner applied it", req.Method, req.URL.Path, resp.status), true)
			}
		}
	})
	plannerResp.relay(w)
	return plannerApplied
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

// ---- Talking to a tier ----

// tierURL is the incoming request's path and query on another base URL.
func tierURL(base string, req *http.Request) string {
	u := base + req.URL.Path
	if req.URL.RawQuery != "" {
		u += "?" + req.URL.RawQuery
	}
	return u
}

// call is the one way the router sends a request to the planner or a
// replica: method, URL, optional content type and body, under the proxy
// timeout on top of whatever deadline ctx carries. Closing the response body
// releases the timeout.
func (r *Router) call(ctx context.Context, method, target, contentType string, body []byte) (*http.Response, error) {
	ctx, cancel := context.WithTimeout(ctx, r.timeout)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, target, rd)
	if err != nil {
		cancel()
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := r.client.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	resp.Body = cancelOnClose{resp.Body, cancel}
	return resp, nil
}

type cancelOnClose struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (c cancelOnClose) Close() error {
	defer c.cancel()
	return c.ReadCloser.Close()
}

// sentResponse is a tier's answer, read whole.
type sentResponse struct {
	status      int
	contentType string
	body        []byte
}

// relay answers w with the tier's status, content type and body.
func (s *sentResponse) relay(w http.ResponseWriter) {
	if s.contentType != "" {
		w.Header().Set("Content-Type", s.contentType)
	}
	w.WriteHeader(s.status)
	w.Write(s.body)
}

// fetch is call plus a bounded read of the whole answer.
func (r *Router) fetch(ctx context.Context, method, target, contentType string, body []byte) (*sentResponse, error) {
	resp, err := r.call(ctx, method, target, contentType, body)
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

// send replays the request against one base URL, buffering the response.
func (r *Router) send(req *http.Request, base string, body []byte) (*sentResponse, error) {
	return r.fetch(req.Context(), req.Method, tierURL(base, req), req.Header.Get("Content-Type"), body)
}

// ---- Router introspection ----

func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	metrics.WriteJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

func (r *Router) handleInfo(w http.ResponseWriter, req *http.Request) {
	r.plannedMu.Lock()
	planned := len(r.planned)
	r.plannedMu.Unlock()
	reps := make([]replicaInfo, len(r.replicas))
	for i, b := range r.replicas {
		reps[i] = b.info()
	}
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
