package router

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"panda"
	"panda/internal/server"
)

// BenchmarkRouterProxyOverhead prices the routing tier: the same cache-hit
// /v1/query against a pandad directly vs through pandarouter (the replica
// holds the plan, so the router path adds one shape canonicalization, one
// rendezvous ranking, and one proxied HTTP hop — no planner round-trips).
func BenchmarkRouterProxyOverhead(b *testing.B) {
	newServer := func() (*httptest.Server, func()) {
		db := panda.Open(panda.WithPlannerCapacity(64))
		q := panda.TriangleQuery()
		ins := panda.RandomInstance(11, &q.Schema, 40, 10)
		for i, a := range q.Schema.Atoms {
			if err := db.CreateRelation(a.Name, a.Vars.Card()); err != nil {
				b.Fatal(err)
			}
			if err := db.Insert(a.Name, ins.Relations[i].Rows()...); err != nil {
				b.Fatal(err)
			}
		}
		ts := httptest.NewServer(server.New(server.Config{DB: db}))
		return ts, func() { ts.Close(); db.Close() }
	}
	body := fmt.Sprintf(`{"query":%q}`, triangleSrc)
	drive := func(b *testing.B, url string) {
		b.Helper()
		client := &http.Client{}
		for i := 0; i < b.N; i++ {
			resp, err := client.Post(url+"/v1/query", "application/json", strings.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("query: %d", resp.StatusCode)
			}
			// Drained, the connection goes back to the client's pool: an
			// unread body would cost every request a new TCP connection.
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}

	b.Run("direct", func(b *testing.B) {
		ts, done := newServer()
		defer done()
		drive(b, ts.URL) // first iteration plans; the rest are cache hits
	})
	b.Run("via-router", func(b *testing.B) {
		planner, pdone := newServer()
		defer pdone()
		replica, rdone := newServer()
		defer rdone()
		r, err := New(Config{
			Replicas:   []string{replica.URL},
			Planner:    planner.URL,
			ProbeEvery: time.Hour,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer r.Close()
		front := httptest.NewServer(r)
		defer front.Close()
		drive(b, front.URL)
	})
}

// BenchmarkRouterFirstSighting prices a first sighting through the fleet: a
// router over a real planning tier and two real replicas, each iteration a
// fresh row inserted through the router (broadcast to all three; R's new
// cardinality gives the triangle a new plan key) and then one triangle read,
// which the serving replica refuses for lack of that plan; the router warms
// it on the planner (LP solves included), ships it to that replica and asks
// again. The replicas run in this process, so B/op counts the refused read
// and the plan imports they decode.
func BenchmarkRouterFirstSighting(b *testing.B) {
	q := panda.TriangleQuery()
	ins := panda.RandomInstance(11, &q.Schema, 40, 10)
	newNode := func() *httptest.Server {
		db := panda.Open(panda.WithPlannerCapacity(64))
		ts := httptest.NewServer(server.New(server.Config{DB: db}))
		b.Cleanup(func() { ts.Close(); db.Close() })
		return ts
	}
	planner, a, c := newNode(), newNode(), newNode()
	r, err := New(Config{
		Replicas:   []string{a.URL, c.URL},
		Planner:    planner.URL,
		ProbeEvery: time.Hour,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(r.Close)
	front := httptest.NewServer(r)
	b.Cleanup(front.Close)
	client := &http.Client{}
	post := func(path, body string) {
		resp, err := client.Post(front.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			b.Fatalf("POST %s: %d", path, resp.StatusCode)
		}
	}
	for i, at := range q.Schema.Atoms {
		post("/v1/relations", fmt.Sprintf(`{"name":%q,"arity":%d}`, at.Name, at.Vars.Card()))
		rows, err := json.Marshal(ins.Relations[i].Rows())
		if err != nil {
			b.Fatal(err)
		}
		post("/v1/relations/"+at.Name+"/rows", fmt.Sprintf(`{"rows":%s}`, rows))
	}
	read := fmt.Sprintf(`{"query":%q}`, triangleSrc)
	post("/v1/query", read)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A row no triangle passes through: the answer stays put while the
		// plan key moves.
		post("/v1/relations/R/rows", fmt.Sprintf(`{"rows":[[%d,%d]]}`, 1_000_000+i, 2_000_000+i))
		post("/v1/query", read)
	}
}
