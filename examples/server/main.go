// Command server is a minimal HTTP client for pandad, the long-lived PANDA
// query server. Start the server first:
//
//	go run ./cmd/pandad -addr :8080
//
// then run this client:
//
//	go run ./examples/server -addr http://localhost:8080
//
// It creates two relations, inserts tuples, runs the same query twice —
// the repeat is served from the plan cache with zero additional LP solves,
// which the /metrics scrape at the end shows — asks /v1/plan for the
// committed mode and width certificate without executing, opens a standing
// query on POST /v1/watch and prints the delta line the server pushes when
// a catalog insert completes a new join result, and fetches /v1/shapes to
// show the per-shape telemetry the runs landed on.
//
// The same client drives a pandarouter fleet unchanged — the router speaks
// the pandad protocol. Boot a planning tier, two replicas and the router:
//
//	go run ./cmd/pandad -addr :8081 -name planner   &
//	go run ./cmd/pandad -addr :8082 -name replica-a &
//	go run ./cmd/pandad -addr :8083 -name replica-b &
//	go run ./cmd/pandarouter -addr :8080 -planner http://localhost:8081 \
//	    -replicas http://localhost:8082,http://localhost:8083 &
//
// then point the client at the router and name the replicas so it can
// report the fleet-wide plan amortization at the end:
//
//	go run ./examples/server -addr http://localhost:8080 \
//	    -replicas http://localhost:8082,http://localhost:8083
//
// The fleet report shows each replica answering with zero LP solves —
// plans were built once on the planning tier and shipped over PUT
// /v1/plans: a replica refuses the first read of a shape it lacks the plan
// for, the router ships it that plan, and asks again.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"strings"
)

func main() {
	log.SetFlags(0)
	addr := flag.String("addr", "http://localhost:8080", "pandad (or pandarouter) base URL")
	replicas := flag.String("replicas", "", "comma-separated replica base URLs: report fleet plan amortization after the demo")
	flag.Parse()

	// Ingest: named relations with declared arities, then tuples.
	must(post(*addr+"/v1/relations", `{"name":"R","arity":2}`))
	must(post(*addr+"/v1/relations", `{"name":"S","arity":2}`))
	must(post(*addr+"/v1/relations/R/rows", `{"rows":[[1,2],[2,3]]}`))
	must(post(*addr+"/v1/relations/S/rows", `{"rows":[[2,5],[3,7]]}`))

	const query = `Q(A,B,C) :- R(A,B), S(B,C).`

	// Dry-run prepare: the committed strategy and exact width certificate.
	plan, err := get(*addr + "/v1/plan?q=" + url.QueryEscape(query))
	must(plan, err)
	fmt.Printf("plan      : %s", plan)

	// First execution pays the LP solves; the repeat plans for free.
	body, err := json.Marshal(map[string]any{"query": query})
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		resp, err := post(*addr+"/v1/query", string(body))
		must(resp, err)
		fmt.Printf("answer %d  : %s", i+1, firstLine(resp))
	}

	// Standing query: /v1/watch answers with a snapshot line, then pushes
	// one NDJSON delta line per maintenance round as the catalog mutates —
	// semi-naive maintenance on the pinned plan, zero further LP solves.
	watchDemo(*addr, query)

	// The planner counters prove the second run was a cache hit.
	metrics, err := get(*addr + "/metrics")
	must(metrics, err)
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, "panda_planner_") && !strings.HasPrefix(line, "#") {
			fmt.Println("metric    :", line)
		}
	}

	// Per-shape telemetry: both executions collapse onto one signature
	// digest, so the shape table reports a single entry with two requests
	// and its latency quantiles.
	shapes, err := get(*addr + "/v1/shapes")
	must(shapes, err)
	var view struct {
		Shapes []struct {
			Digest string            `json:"digest"`
			Reqs   map[string]uint64 `json:"requests"`
			Rows   uint64            `json:"rows"`
			Lat    struct {
				P50 float64 `json:"p50_seconds"`
				P99 float64 `json:"p99_seconds"`
			} `json:"latency"`
		} `json:"shapes"`
	}
	if err := json.Unmarshal([]byte(shapes), &view); err != nil {
		log.Fatal(err)
	}
	for _, sh := range view.Shapes {
		fmt.Printf("shape     : digest=%s requests=%v rows=%d p50=%.6fs p99=%.6fs\n",
			sh.Digest, sh.Reqs, sh.Rows, sh.Lat.P50, sh.Lat.P99)
	}

	// Fleet report: with -addr pointing at a pandarouter and -replicas
	// naming its backends, /v1/info on each replica shows the division of
	// labor — every LP solve happened on the planning tier, the replicas
	// served shipped plans (lp_solves 0, lp_solves_saved > 0).
	if *replicas == "" {
		return
	}
	for _, rep := range strings.Split(*replicas, ",") {
		rep = strings.TrimRight(strings.TrimSpace(rep), "/")
		if rep == "" {
			continue
		}
		info, err := get(rep + "/v1/info")
		must(info, err)
		var iv struct {
			Name    string `json:"name"`
			Planner struct {
				Hits          uint64 `json:"hits"`
				LPSolves      uint64 `json:"lp_solves"`
				LPSolvesSaved uint64 `json:"lp_solves_saved"`
			} `json:"planner"`
		}
		if err := json.Unmarshal([]byte(info), &iv); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("replica   : %s (%s) hits=%d lp_solves=%d lp_solves_saved=%d\n",
			iv.Name, rep, iv.Planner.Hits, iv.Planner.LPSolves, iv.Planner.LPSolvesSaved)
	}
}

// watchDemo opens a standing query, completes a new join pair in the
// catalog, and prints the snapshot and delta lines the stream pushes. A
// pandarouter front-end does not (yet) route /v1/watch, so a non-200
// answer just skips the demo.
func watchDemo(addr, query string) {
	body, err := json.Marshal(map[string]any{"query": query})
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(addr+"/v1/watch", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fmt.Printf("watch     : unavailable at %s (%d) — skipping the standing-query demo\n", addr, resp.StatusCode)
		return
	}
	sc := bufio.NewScanner(resp.Body)
	if sc.Scan() {
		fmt.Printf("watch     : %s\n", sc.Text()) // the snapshot line
	}
	// R(4,5) alone completes nothing; S(5,9) then closes the join and the
	// server pushes {"tick":…,"ok":true,"rows":[[4,5,9]]}.
	must(post(addr+"/v1/relations/R/rows", `{"rows":[[4,5]]}`))
	must(post(addr+"/v1/relations/S/rows", `{"rows":[[5,9]]}`))
	if sc.Scan() {
		fmt.Printf("delta     : %s\n", sc.Text())
	}
}

func post(url, body string) (string, error) {
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode >= 300 && resp.StatusCode != http.StatusConflict {
		return "", fmt.Errorf("%s: %d %s", url, resp.StatusCode, b)
	}
	return string(b), nil
}

func get(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode >= 300 {
		return "", fmt.Errorf("%s: %d %s", url, resp.StatusCode, b)
	}
	return string(b), nil
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i+1]
	}
	return s + "\n"
}

func must(_ string, err error) {
	if err != nil {
		log.Fatal(err)
	}
}
