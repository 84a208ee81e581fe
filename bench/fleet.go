package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"panda"
	"panda/internal/router"
	"panda/internal/server"
)

// node is one pandad: a session, the server over it, and a loopback listener.
type node struct {
	db  *panda.DB
	srv *server.Server
	ts  *httptest.Server
}

// fleet is the serving topology in one process: a planning tier, two
// replicas and the router in front, each behind its own loopback listener —
// what cmd/pandad and cmd/pandarouter assemble, minus process boundaries.
type fleet struct {
	planner   *node
	replicas  []*node
	router    *router.Router
	front     *httptest.Server
	transport *http.Transport // the router's connections to the tiers
}

const replicaCount = 2

func newNode(name string, tr *tracer) *node {
	n := &node{db: panda.Open()}
	n.srv = server.New(server.Config{DB: n.db, Name: name})
	var h http.Handler = n.srv
	if tr != nil {
		h = tr.middleware(name, h)
	}
	n.ts = httptest.NewServer(h)
	return n
}

func (n *node) close() {
	n.ts.Close()
	n.db.Close()
}

// newFleet starts the tiers. The router's background loops are parked
// (an hour between rounds) so plans reach replicas only through the
// synchronous first-sighting path and no probe traffic adds noise.
func newFleet(tr *tracer) (*fleet, error) {
	f := &fleet{
		planner:   newNode("planner", tr),
		transport: &http.Transport{MaxIdleConnsPerHost: 8},
	}
	var urls []string
	for i := 0; i < replicaCount; i++ {
		n := newNode("replica", tr)
		f.replicas = append(f.replicas, n)
		urls = append(urls, n.ts.URL)
	}
	r, err := router.New(router.Config{
		Replicas:   urls,
		Planner:    f.planner.ts.URL,
		PushEvery:  time.Hour,
		ProbeEvery: time.Hour,
		Client:     &http.Client{Transport: f.transport},
	})
	if err != nil {
		f.close()
		return nil, err
	}
	f.router = r
	var h http.Handler = r
	if tr != nil {
		h = tr.middleware("router", h)
	}
	f.front = httptest.NewServer(h)
	return f, nil
}

func (f *fleet) close() {
	if f.front != nil {
		f.front.Close()
	}
	if f.router != nil {
		f.router.Close()
	}
	f.transport.CloseIdleConnections()
	for _, n := range f.replicas {
		n.close()
	}
	f.planner.close()
}

// loadOver creates and fills the catalog over HTTP. Against a fleet the base
// URL is the router's, so the planning tier and both replicas receive the
// catalog by broadcast, as a deployment would.
func loadOver(c *http.Client, base string, cat catalog) error {
	for _, name := range catalogNames {
		if err := post(c, base+"/v1/relations", []byte(fmt.Sprintf(`{"name":%q,"arity":2}`, name)), http.StatusCreated); err != nil {
			return err
		}
		if err := post(c, base+"/v1/relations/"+name+"/rows", rowsBody(cat[name]), http.StatusOK); err != nil {
			return err
		}
	}
	return nil
}

func rowsBody(rows [][]panda.Value) []byte {
	b, _ := json.Marshal(map[string]any{"rows": rows}) // integers always marshal
	return b
}

func post(c *http.Client, url string, body []byte, want int) error {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10)) // error text only
	if resp.StatusCode != want {
		return fmt.Errorf("POST %s: status %d, want %d: %s", url, resp.StatusCode, want, msg)
	}
	return nil
}

// counters reads the fleet's layer counters: PlannerStats of the planning
// tier (the session that pays the LP solves; a replica importing a shipped
// plan records a hit), the replicas' and the router's /metrics text.
func (f *fleet) counters() (counters, error) {
	c := counters{planner: f.planner.db.PlannerStats()}
	for _, n := range f.replicas {
		m, err := scrape(n.srv)
		if err != nil {
			return c, err
		}
		c.execSeconds += m["panda_query_execution_seconds_sum"]
		c.stmtHits += m["panda_stmt_cache_hits_total"]
		c.stmtMisses += m["panda_stmt_cache_misses_total"]
	}
	m, err := scrape(f.router)
	if err != nil {
		return c, err
	}
	c.shapesEnsured = m["panda_router_shapes_ensured_total"]
	c.pushEntries = m.sum("panda_router_push_entries_total")
	c.retries = m["panda_router_retries_total"]
	c.failovers = m.sum("panda_router_failovers_total")
	c.routed = m.byLabel("panda_router_shape_routed_total", "replica")
	return c, nil
}

// execSeconds is the cheap per-operation sample of the traced run: the
// replicas' cumulative time inside Stmt.QueryContext.
func (f *fleet) execSeconds() float64 {
	var total float64
	for _, n := range f.replicas {
		if m, err := scrape(n.srv); err == nil {
			total += m["panda_query_execution_seconds_sum"]
		}
	}
	return total
}
