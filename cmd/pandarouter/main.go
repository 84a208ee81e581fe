// Command pandarouter fronts a fleet of pandad replicas with shape-affine
// routing and fleet-wide plan shipping. It speaks the pandad wire protocol,
// so clients point at the router exactly as they would at one pandad:
//
//	pandarouter -addr :8080 \
//	    -planner  http://planner:8080 \
//	    -replicas http://replica-a:8080,http://replica-b:8080
//
// Every /v1/query and /v1/plan is routed by the query's canonical shape
// (the renaming-invariant plan signature, computed on the router without
// catalog access or LP work) via rendezvous hashing, so each query shape
// consistently lands on one replica and the fleet's plan/stmt caches stay
// hot and disjoint. Each read goes with the header Panda-Plan: shipped, so a
// replica never plans: one that lacks the shape's plan answers 409
// plan_required, the plan is planned once on the designated planning tier,
// which answers with that one plan (GET /v1/plans?q=<text>), shipped to that
// replica alone (PUT /v1/plans), and the read is asked again — replicas serve
// with zero LP solves, and their plan caches are shard-disjoint. The router
// keeps no record of which replica holds which plan: a replica says what it
// lacks, whether after a failover, a restart, an eviction or a write.
// Replicas are probed on /healthz; a failed or draining replica is failed
// over with one bounded retry per downed candidate, and its query shapes
// move wholesale to their next-ranked replica (rendezvous hashing moves
// nothing else).
//
// Catalog mutations are broadcast to the planning tier, then to all
// replicas at once.
// GET /metrics exposes per-replica and per-shape routing counters;
// GET /v1/info reports each replica's health, quarantine and catalog epoch.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"panda/internal/router"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pandarouter: ")

	addr := flag.String("addr", ":8080", "listen address")
	replicas := flag.String("replicas", "", "comma-separated replica base URLs (required)")
	planner := flag.String("planner", "", "planning-tier base URL (required)")
	probeEvery := flag.Duration("probe-every", 500*time.Millisecond, "replica health probe period")
	proxyTimeout := flag.Duration("proxy-timeout", 30*time.Second, "per-attempt proxy deadline")
	drain := flag.Duration("drain", 15*time.Second, "how long shutdown waits for in-flight requests")
	flag.Parse()

	var names []string
	for _, r := range strings.Split(*replicas, ",") {
		if r = strings.TrimSpace(r); r != "" {
			names = append(names, strings.TrimRight(r, "/"))
		}
	}
	rt, err := router.New(router.Config{
		Replicas:     names,
		Planner:      strings.TrimRight(*planner, "/"),
		ProbeEvery:   *probeEvery,
		ProxyTimeout: *proxyTimeout,
		Logf:         log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()

	hs := &http.Server{Addr: *addr, Handler: rt}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		log.Printf("listening on %s (planner=%s, replicas=%s)", *addr, *planner, strings.Join(names, ","))
		errc <- hs.ListenAndServe()
	}()

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	log.Print("shutting down")
	shctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(shctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("listener shutdown: %v", err)
	}
}
