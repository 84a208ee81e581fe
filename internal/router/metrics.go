package router

import (
	"sync"

	"panda/internal/metrics"
)

// telemetry is the router's /metrics exposition, declared in the order it
// renders: request counts by endpoint and status, per-replica/per-shard
// routing counts, replica health read live at scrape time, failovers and
// retries, and plan shipping.
type telemetry struct {
	reg           metrics.Registry
	requests      *metrics.Requests
	routed        *metrics.Vec[uint64] // shape, replica
	failovers     *metrics.Vec[uint64] // replica → times marked down
	quarantines   *metrics.Vec[uint64] // replica → times quarantined for a lagging catalog
	pushEntries   *metrics.Vec[uint64] // replica → plan entries pushed
	retries       *metrics.Vec[uint64]
	noHealthy     *metrics.Vec[uint64]
	ensures       *metrics.Vec[uint64]
	pushes        *metrics.Vec[uint64]
	plannerErrors *metrics.Vec[uint64]

	// routedShapes bounds the per-shard label cardinality: at most
	// maxRoutedShapes distinct shapes get their own labels, the rest roll
	// up into shape="other".
	shapeMu      sync.Mutex
	routedShapes map[string]bool
}

const maxRoutedShapes = 512

func newTelemetry(r *Router) *telemetry {
	m := &telemetry{routedShapes: map[string]bool{}}
	reg := &m.reg
	m.requests = metrics.NewRequests(reg, "panda_router_requests_total", "Requests handled by the router, by endpoint and status code.")
	m.requests.LatencyTotal(reg, "panda_router_request_seconds_total", "Cumulative request handling time, by endpoint.")
	m.routed = metrics.Counter[uint64](reg, "panda_router_shape_routed_total", "Requests routed, by shape (canonical signature digest) and replica; overflow shapes roll up into shape=\"other\".", "shape", "replica")
	perReplica := func(name, help string, on func(*backend) bool) {
		reg.Collect(func(w *metrics.Writer) {
			w.Header(name, help, "gauge")
			for _, b := range r.replicas {
				v := 0
				if on(b) {
					v = 1
				}
				w.Sample(name, metrics.Labels("replica", b.name), v)
			}
		})
	}
	perReplica("panda_router_replica_healthy", "Replica health as last probed (1 healthy, 0 down).", (*backend).isHealthy)
	perReplica("panda_router_replica_routable", "Whether traffic may be routed to the replica (1 = live and catalog in sync with the planner, 0 = down or quarantined).", (*backend).isRoutable)
	m.failovers = metrics.Counter[uint64](reg, "panda_router_failovers_total", "Times a replica was marked down (probe failure or in-request error).", "replica")
	m.quarantines = metrics.Counter[uint64](reg, "panda_router_quarantines_total", "Times a replica was quarantined for a catalog that lags the planning tier (missed mutation broadcast or stale restart).", "replica")
	m.pushEntries = metrics.Counter[uint64](reg, "panda_router_push_entries_total", "Plan-cache entries pushed to each replica (a warm-up ships the plan the planner answered for the query text to the replica that refused a read for lack of it).", "replica")
	m.retries = metrics.Counter[uint64](reg, "panda_router_retries_total", "Proxy attempts beyond the first, across all requests (bounded failover).")
	m.noHealthy = metrics.Counter[uint64](reg, "panda_router_no_healthy_replica_total", "Requests answered 502 because no healthy replica remained.")
	m.ensures = metrics.Counter[uint64](reg, "panda_router_shapes_ensured_total", "Shape warm-ups: a shape planned on the planning tier and its plan shipped to the one replica that refused a read of it for lack of the plan (409 plan_required).")
	m.pushes = metrics.Counter[uint64](reg, "panda_router_pushes_total", "Plan shipments that carried at least one entry.")
	m.plannerErrors = metrics.Counter[uint64](reg, "panda_router_planner_errors_total", "Failed planner interactions (warm-ups and plan pulls).")
	return m
}

func (m *telemetry) addRouted(shape, replica string) {
	m.shapeMu.Lock()
	if !m.routedShapes[shape] {
		if len(m.routedShapes) >= maxRoutedShapes {
			shape = "other"
		} else {
			m.routedShapes[shape] = true
		}
	}
	m.shapeMu.Unlock()
	m.routed.Add(1, shape, replica)
}
