package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/big"
	"net/http"
	"strings"
	"testing"
	"time"

	"panda"
	"panda/internal/plan"
	"panda/internal/query"
	"panda/internal/widths"
)

// putPlans PUTs a plan-cache snapshot body to /v1/plans.
func putPlans(t *testing.T, base, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, base+"/v1/plans", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// cacheSnapshotJSON mirrors the panda-plan-cache envelope closely enough to
// tamper with entry digests while preserving the raw payload bytes of the
// untouched entries.
type cacheSnapshotJSON struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	Entries []struct {
		Key    string          `json:"key"`
		LPCost uint64          `json:"lp_cost"`
		Digest string          `json:"digest"`
		Plan   json.RawMessage `json:"plan"`
	} `json:"entries"`
}

// TestServerPlanShipping: the horizontal-serving seam end to end — a
// planning tier pays the LP solves once, exports its cache over GET
// /v1/plans, a fresh replica imports it over PUT /v1/plans, and the replica
// then answers the covered query (and a renaming of it) with zero LP
// solves, crediting lp_solves_saved instead.
func TestServerPlanShipping(t *testing.T) {
	q := panda.TriangleQuery()
	ins := panda.RandomInstance(11, &q.Schema, 40, 10)

	_, tsA, _ := newTestServer(t, Config{})
	loadOverHTTP(t, tsA.URL, &q.Schema, ins)
	if code, raw := post(t, tsA.URL+"/v1/query", fmt.Sprintf(`{"query":%q}`, triangleSrc)); code != http.StatusOK {
		t.Fatalf("planning-tier query: %d %s", code, raw)
	}
	code, snapshot := get(t, tsA.URL+"/v1/plans")
	if code != http.StatusOK {
		t.Fatalf("export: %d %s", code, snapshot)
	}

	_, tsB, dbB := newTestServer(t, Config{})
	loadOverHTTP(t, tsB.URL, &q.Schema, ins)
	code, body := putPlans(t, tsB.URL, snapshot)
	if code != http.StatusOK {
		t.Fatalf("import: %d %s", code, body)
	}
	var imp struct {
		Loaded  int `json:"loaded"`
		Skipped int `json:"skipped"`
	}
	if err := json.Unmarshal([]byte(body), &imp); err != nil {
		t.Fatal(err)
	}
	if imp.Loaded < 1 || imp.Skipped != 0 {
		t.Fatalf("import stats %s, want loaded >= 1, skipped = 0", body)
	}
	_, m := get(t, tsB.URL+"/metrics")
	if got := metricValue(t, m, "panda_planner_cache_plans"); got < 1 {
		t.Fatalf("cache gauge %v after import, want >= 1", got)
	}

	for _, src := range []string{triangleSrc, `Q(X,Y,Z) :- R(X,Y), S(Y,Z), T(X,Z).`} {
		if code, raw := post(t, tsB.URL+"/v1/query", fmt.Sprintf(`{"query":%q}`, src)); code != http.StatusOK {
			t.Fatalf("replica query %q: %d %s", src, code, raw)
		}
	}
	st := dbB.PlannerStats()
	if st.LPSolves != 0 || st.Misses != 0 {
		t.Fatalf("replica did planning work after import: %v", st)
	}
	if st.Hits < 2 || st.LPSolvesSaved == 0 {
		t.Fatalf("replica hits=%d lp-saved=%d, want hits >= 2 and lp-saved > 0", st.Hits, st.LPSolvesSaved)
	}

	// Re-importing the same snapshot is benign: duplicates, not errors.
	code, body = putPlans(t, tsB.URL, snapshot)
	if code != http.StatusOK || !strings.Contains(body, `"duplicates":`) {
		t.Fatalf("re-import: %d %s", code, body)
	}
}

// TestServerImportPlansRejects: a stale format version or a corrupted entry
// is rejected with 422 and a stable code token; a malformed container is a
// plain 400.
func TestServerImportPlansRejects(t *testing.T) {
	q := panda.TriangleQuery()
	ins := panda.RandomInstance(11, &q.Schema, 40, 10)
	_, tsA, _ := newTestServer(t, Config{})
	loadOverHTTP(t, tsA.URL, &q.Schema, ins)
	if code, raw := post(t, tsA.URL+"/v1/query", fmt.Sprintf(`{"query":%q}`, triangleSrc)); code != http.StatusOK {
		t.Fatalf("seed query: %d %s", code, raw)
	}
	code, snapshot := get(t, tsA.URL+"/v1/plans")
	if code != http.StatusOK {
		t.Fatal("export failed")
	}

	tamper := func(fn func(env *cacheSnapshotJSON)) string {
		var env cacheSnapshotJSON
		if err := json.Unmarshal([]byte(snapshot), &env); err != nil {
			t.Fatal(err)
		}
		fn(&env)
		out, err := json.Marshal(&env)
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}

	t.Run("wrong-version", func(t *testing.T) {
		_, ts, _ := newTestServer(t, Config{})
		bad := tamper(func(env *cacheSnapshotJSON) { env.Version = panda.PlanFormatVersion + 1 })
		code, body := putPlans(t, ts.URL, bad)
		if code != http.StatusUnprocessableEntity || !strings.Contains(body, `"code":"plan_version"`) {
			t.Fatalf("got %d %s, want 422 plan_version", code, body)
		}
	})
	t.Run("digest-mismatch", func(t *testing.T) {
		_, ts, _ := newTestServer(t, Config{})
		bad := tamper(func(env *cacheSnapshotJSON) { env.Entries[0].Digest = strings.Repeat("0", 64) })
		code, body := putPlans(t, ts.URL, bad)
		if code != http.StatusUnprocessableEntity || !strings.Contains(body, `"code":"plan_digest"`) {
			t.Fatalf("got %d %s, want 422 plan_digest", code, body)
		}
	})
	t.Run("garbage", func(t *testing.T) {
		_, ts, _ := newTestServer(t, Config{})
		code, body := putPlans(t, ts.URL, "not a snapshot")
		if code != http.StatusBadRequest {
			t.Fatalf("got %d %s, want 400", code, body)
		}
	})
}

// TestServerImportPlansCountsSevenCycleRulesPromptly: the snapshot's one
// entry is a digest-valid subw plan of the Boolean 7-cycle that carries its
// decompositions and bags but no rules. Decode derives the cycle's 2,725
// minimal transversals to count the rules against, so the import is answered
// 422 within a second.
func TestServerImportPlansCountsSevenCycleRulesPromptly(t *testing.T) {
	pr, err := query.Parse("Q() :- R0(A,B), R1(B,C), R2(C,D), R3(D,E), R4(E,F), R5(F,G), R6(G,A).")
	if err != nil {
		t.Fatal(err)
	}
	q, cons := pr.Conj, pr.Constraints
	for i, a := range q.Atoms {
		cons = append(cons, query.Cardinality(a.Vars, 100, i))
	}
	e, err := widths.NewEngine(context.Background(), q.Schema.Hypergraph())
	if err != nil {
		t.Fatal(err)
	}
	var enc bytes.Buffer
	if err := plan.EncodePlan(&enc, &plan.Plan{Mode: plan.ModeSubw, Schema: q.Schema, Cons: cons,
		Bags: e.Bags, TDs: e.TDs, TDBags: e.TDBags, Chosen: -1, Width: new(big.Rat)}); err != nil {
		t.Fatal(err)
	}
	var env struct {
		Digest string          `json:"digest"`
		Plan   json.RawMessage `json:"plan"`
	}
	if err := json.Unmarshal(enc.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	snapshot := fmt.Sprintf(`{"format":"panda-plan-cache","version":%d,"entries":[{"key":"c7","digest":%q,"plan":%s}]}`,
		panda.PlanFormatVersion, env.Digest, env.Plan)
	_, ts, _ := newTestServer(t, Config{})
	start := time.Now()
	code, body := putPlans(t, ts.URL, snapshot)
	if code != http.StatusUnprocessableEntity || !strings.Contains(body, "subw plan carries 0 rules, want 2725") {
		t.Fatalf("got %d %s, want 422 naming the rule count", code, body)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("importing a %d-byte plan took %v", len(env.Plan), d)
	}
}
