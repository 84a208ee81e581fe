package server

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"panda"
)

// BenchmarkServerQuery measures steady-state request throughput on the hot
// path: statement-cache hit, result-memo hit, stream. The answer is a few
// hundred bytes, so what it times is a request's fixed cost — it says
// nothing about the engine (a memo hit runs none of it) or about encoding
// (see BenchmarkServerQueryLarge). Run with -benchtime to taste; CI runs it
// once as a smoke test.
func BenchmarkServerQuery(b *testing.B) {
	benchServerQuery(b, 60, 12, 0)
}

// BenchmarkServerQueryLarge is the same request with a ≈ 200 kB answer
// (≈ 20k rows): still a result-memo hit, so per request it walks the
// answer's kept row order, decodes and encodes every row, and hands the body
// over a buffer at a time — the wire path, and nothing else.
func BenchmarkServerQueryLarge(b *testing.B) {
	benchServerQuery(b, 2000, 40, 150<<10)
}

// benchServerQuery serves the triangle query over `rows` random tuples per
// relation drawn from [0, dom)², from parallel clients that drain the body;
// the answer must be at least minBody bytes.
func benchServerQuery(b *testing.B, rows, dom, minBody int) {
	db := panda.Open()
	defer db.Close()
	q := panda.TriangleQuery()
	ins := panda.RandomInstance(7, &q.Schema, rows, dom)
	for i, a := range q.Schema.Atoms {
		if err := db.CreateRelation(a.Name, a.Vars.Card()); err != nil && !errors.Is(err, panda.ErrRelationExists) {
			b.Fatal(err)
		}
		if err := db.Insert(a.Name, ins.Relations[i].Rows()...); err != nil {
			b.Fatal(err)
		}
	}
	ts := httptest.NewServer(New(Config{DB: db}))
	defer ts.Close()

	body := fmt.Sprintf(`{"query":%q}`, `Q(A,B,C) :- R(A,B), S(B,C), T(A,C).`)
	do := func() (int64, error) {
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		n, err := io.Copy(io.Discard, resp.Body)
		if err != nil {
			return n, err
		}
		if resp.StatusCode != http.StatusOK {
			return n, fmt.Errorf("status %d", resp.StatusCode)
		}
		return n, nil
	}
	n, err := do() // pay the one-time planning cost up front
	if err != nil {
		b.Fatal(err)
	}
	if n < int64(minBody) {
		b.Fatalf("the answer is %d bytes, want at least %d", n, minBody)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := do(); err != nil {
				// Fatal must not be called from a RunParallel worker.
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	if st := db.PlannerStats(); st.Misses != 1 {
		b.Fatalf("benchmark traffic missed the plan cache: %v", st)
	}
}

// BenchmarkMetricsOverhead isolates the cost the observability layer adds
// to one served query: the stage-timing clock reads plus the bookkeeping
// the request middleware and observeQuery do against internal/metrics
// (request counter, latency histograms, shape-table LRU).
// Engine-only measures the same query path through the facade with
// timings off — the delta between the two sub-benchmarks is the
// instrumentation tax, which must stay in the noise next to execution.
func BenchmarkMetricsOverhead(b *testing.B) {
	q := panda.TriangleQuery()
	src := `Q(A,B,C) :- R(A,B), S(B,C), T(A,C).`
	setup := func(b *testing.B) *panda.DB {
		b.Helper()
		db := panda.Open()
		b.Cleanup(func() { db.Close() })
		ins := panda.RandomInstance(7, &q.Schema, 60, 12)
		for i, a := range q.Schema.Atoms {
			if err := db.CreateRelation(a.Name, a.Vars.Card()); err != nil && !errors.Is(err, panda.ErrRelationExists) {
				b.Fatal(err)
			}
			if err := db.Insert(a.Name, ins.Relations[i].Rows()...); err != nil {
				b.Fatal(err)
			}
		}
		return db
	}
	b.Run("engine-only", func(b *testing.B) {
		db := setup(b)
		st, err := db.Prepare(src)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := st.Query(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := st.Query(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("instrumented", func(b *testing.B) {
		db := setup(b)
		srv := New(Config{DB: db})
		st, err := db.Prepare(src)
		if err != nil {
			b.Fatal(err)
		}
		run := func() {
			res, err := st.Query(panda.WithStageTimings(true))
			if err != nil {
				b.Fatal(err)
			}
			srv.metrics.observeQuery(res.Signature, res.Mode.String(), res.Size(), 0, false)
			srv.metrics.requests.Observe("query", http.StatusOK, 0)
		}
		run()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run()
		}
	})
}
