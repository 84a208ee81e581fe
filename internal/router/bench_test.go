package router

import (
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
// /v1/query against a pandad directly vs through pandarouter (shape memo
// warm, so the router path adds one shape-cache lookup, one rendezvous
// ranking, and one proxied HTTP hop — no planner round-trips).
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
			PushEvery:  time.Hour,
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
