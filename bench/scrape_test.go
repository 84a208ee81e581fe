package main

import (
	"strings"
	"testing"

	"panda"
	"panda/internal/server"
)

const exposition = `# HELP panda_planner_hits_total Prepare calls answered from the plan cache (zero LP solves).
# TYPE panda_planner_hits_total counter
panda_planner_hits_total 12

panda_http_requests_total{endpoint="query",code="200"} 40
panda_http_requests_total{endpoint="rows",code="200"} 2
panda_query_execution_seconds_bucket{le="0.001"} 3
panda_query_execution_seconds_bucket{le="+Inf"} 5
panda_query_execution_seconds_sum 0.0123
panda_query_execution_seconds_count 5
panda_router_shape_routed_total{shape="a b",replica="http://127.0.0.1:1"} 7
panda_router_shape_routed_total{shape="c",replica="http://127.0.0.1:1"} 1
panda_router_shape_routed_total{shape="c",replica="http://127.0.0.1:2"} 4
`

func TestParseMetrics(t *testing.T) {
	m, err := parseMetrics(strings.NewReader(exposition))
	if err != nil {
		t.Fatal(err)
	}
	if got := m["panda_planner_hits_total"]; got != 12 {
		t.Errorf("hits = %v", got)
	}
	if got := m["panda_query_execution_seconds_sum"]; got != 0.0123 {
		t.Errorf("execution sum = %v", got)
	}
	if got := m[`panda_query_execution_seconds_bucket{le="+Inf"}`]; got != 5 {
		t.Errorf("+Inf bucket = %v", got)
	}
	if got := m.sum("panda_http_requests_total"); got != 42 {
		t.Errorf("sum over labels = %v, want 42", got)
	}
	if got := m.sum("panda_http_requests"); got != 0 {
		t.Errorf("a name prefix matched a family: %v", got)
	}
	by := m.byLabel("panda_router_shape_routed_total", "replica")
	if by["http://127.0.0.1:1"] != 8 || by["http://127.0.0.1:2"] != 4 || len(by) != 2 {
		t.Errorf("by replica = %v", by)
	}
	for _, bad := range []string{"novalue", "name notanumber"} {
		if _, err := parseMetrics(strings.NewReader(bad)); err == nil {
			t.Errorf("parseMetrics(%q) accepted a malformed line", bad)
		}
	}
}

// The scraper reads what a real pandad writes.
func TestScrapeServer(t *testing.T) {
	db := panda.Open()
	defer db.Close()
	m, err := scrape(server.New(server.Config{DB: db}))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"panda_planner_lp_solves_total", "panda_query_execution_seconds_sum", "panda_stmt_cache_hits_total"} {
		if _, ok := m[name]; !ok {
			t.Errorf("scrape misses %s", name)
		}
	}
}
