package router

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"panda"
	"panda/internal/server"
)

// fleet is an in-process two-replica topology: one planning tier, two
// serving replicas (all real internal/server instances over real panda.DB
// sessions), and the router in front.
type fleet struct {
	router   *Router
	front    *httptest.Server
	planner  *node
	replicas []*node
}

type node struct {
	db  *panda.DB
	srv *server.Server
	ts  *httptest.Server
}

func newNode(t *testing.T, name string) *node {
	t.Helper()
	return newNodeCap(t, name, 64)
}

func newNodeCap(t *testing.T, name string, plannerCap int) *node {
	t.Helper()
	db := panda.Open(panda.WithPlannerCapacity(plannerCap))
	srv := server.New(server.Config{DB: db, Name: name})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		db.Close()
	})
	return &node{db: db, srv: srv, ts: ts}
}

func newFleet(t *testing.T) *fleet {
	t.Helper()
	return newFleetOf(t, newNode(t, "planner"), newNode(t, "replica-a"), newNode(t, "replica-b"))
}

// newFleetOf puts the router in front of a planning tier and two replicas.
func newFleetOf(t *testing.T, planner, a, b *node) *fleet {
	t.Helper()
	f := &fleet{planner: planner, replicas: []*node{a, b}}
	r, err := New(Config{
		Replicas:   []string{f.replicas[0].ts.URL, f.replicas[1].ts.URL},
		Planner:    f.planner.ts.URL,
		ProbeEvery: time.Hour, // health transitions are driven by the test
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	f.router = r
	f.front = httptest.NewServer(r)
	t.Cleanup(f.front.Close)
	return f
}

// seed loads the triangle workload into the fleet THROUGH the router: the
// catalog mutations broadcast to the planning tier and both replicas.
func (f *fleet) seed(t *testing.T) (*panda.Query, *panda.Instance) {
	t.Helper()
	q := panda.TriangleQuery()
	ins := panda.RandomInstance(11, &q.Schema, 40, 10)
	for i, a := range q.Schema.Atoms {
		code, body := httpDo(t, http.MethodPost, f.front.URL+"/v1/relations",
			fmt.Sprintf(`{"name":%q,"arity":%d}`, a.Name, a.Vars.Card()))
		if code == http.StatusConflict {
			continue
		}
		if code != http.StatusCreated {
			t.Fatalf("create %s via router: %d %s", a.Name, code, body)
		}
		rows, err := json.Marshal(ins.Relations[i].Rows())
		if err != nil {
			t.Fatal(err)
		}
		code, body = httpDo(t, http.MethodPost, f.front.URL+"/v1/relations/"+a.Name+"/rows",
			fmt.Sprintf(`{"rows":%s}`, rows))
		if code != http.StatusOK {
			t.Fatalf("insert %s via router: %d %s", a.Name, code, body)
		}
	}
	return q, ins
}

func httpDo(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
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

// fleetRule is the corpus's disjunctive rule; renamedFleetRule spells the
// same shape with other variables, atom order and target order.
const (
	fleetRule        = `T1(A,B) v T2(B,C) :- R(A,B), S(B,C).`
	renamedFleetRule = `U2(Y,Z) v U1(X,Y) :- S(Y,Z), R(X,Y).`
)

// mixedShapes is the traffic corpus: seventeen distinct shapes (the plain
// triangle, a path join, a disjunctive rule, and the triangle under fourteen
// different — sound, loose — cardinality bounds) so both replicas get
// shards with overwhelming probability.
func mixedShapes() []string {
	shapes := []string{
		`Q(A,B,C) :- R(A,B), S(B,C), T(A,C).`,
		`Q(X,Z) :- R(X,Y), S(Y,Z).`,
		fleetRule,
	}
	for i := 0; i < 14; i++ {
		shapes = append(shapes, fmt.Sprintf("Q(A,B,C) :- R(A,B), S(B,C), T(A,C).\n|R| <= %d", 50+5*i))
	}
	return shapes
}

type replicaShapes struct {
	Shapes []struct {
		Digest string `json:"digest"`
	} `json:"shapes"`
}

// TestFleetAmortizesPlanningAndSurvivesFailover is the headline e2e: with
// one planning tier and two replicas behind the router,
//
//  1. repeated mixed-shape traffic yields lp_solves_total == 0 on BOTH
//     replicas while lp_solves_saved_total climbs on each — every LP solve
//     in the fleet happened once, on the planner;
//  2. routing is shape-disjoint: each signature digest appears in exactly
//     one replica's /v1/shapes table;
//  3. rows match a direct single-process pandad on the same data;
//  4. plans are shipped only to the replica that serves them: each
//     replica's plan cache holds exactly the shapes routed to it, and every
//     ensure imported its plan into one replica;
//  5. draining one replica mid-traffic loses ZERO requests — the drained
//     replica's shard fails over to the survivor, which refuses each moved
//     shape's first read there and is shipped its plan, still without
//     planning.
func TestFleetAmortizesPlanningAndSurvivesFailover(t *testing.T) {
	f := newFleet(t)
	q, ins := f.seed(t)

	// A direct pandad over the same data is the golden reference.
	direct := newNode(t, "direct")
	for i, a := range q.Schema.Atoms {
		code, _ := httpDo(t, http.MethodPost, direct.ts.URL+"/v1/relations",
			fmt.Sprintf(`{"name":%q,"arity":%d}`, a.Name, a.Vars.Card()))
		if code == http.StatusConflict {
			continue
		}
		rows, _ := json.Marshal(ins.Relations[i].Rows())
		httpDo(t, http.MethodPost, direct.ts.URL+"/v1/relations/"+a.Name+"/rows", fmt.Sprintf(`{"rows":%s}`, rows))
	}

	shapes := mixedShapes()
	queryRows := func(t *testing.T, base, src string) string {
		code, body := httpDo(t, http.MethodPost, base+"/v1/query", fmt.Sprintf(`{"query":%q}`, src))
		if code != http.StatusOK {
			t.Fatalf("query %q on %s: %d %s", src, base, code, body)
		}
		var res struct {
			OK     bool              `json:"ok"`
			Rows   []json.RawMessage `json:"rows"`
			Tables json.RawMessage   `json:"tables"` // a rule's answer
		}
		if err := json.Unmarshal([]byte(body), &res); err != nil {
			t.Fatalf("bad response for %q: %v\n%s", src, err, body)
		}
		out, _ := json.Marshal(res.Rows)
		return string(out) + string(res.Tables)
	}

	// Three rounds of the full corpus: round one plans (on the planner),
	// rounds two and three must be pure cache hits fleet-wide.
	for round := 0; round < 3; round++ {
		for _, src := range shapes {
			got := queryRows(t, f.front.URL, src)
			want := queryRows(t, direct.ts.URL, src)
			if got != want {
				t.Fatalf("round %d: rows for %q diverge from the direct server:\n got %s\nwant %s", round, src, got, want)
			}
		}
	}
	// A renaming of the triangle routes to the same replica and hits the
	// same plan.
	if got, want := queryRows(t, f.front.URL, `Q(X,Y,Z) :- R(X,Y), S(Y,Z), T(X,Z).`),
		queryRows(t, direct.ts.URL, triangleSrc); got != want {
		t.Fatalf("renamed triangle rows %s, want %s", got, want)
	}

	// So does a renaming of the rule: the planner has nothing new to build.
	// (Its model is the cached plan's, not the one a direct server derives
	// from the renamed text, so only the planning is compared.)
	missesBefore := f.planner.db.PlannerStats().Misses
	if code, body := httpDo(t, http.MethodPost, f.front.URL+"/v1/query", fmt.Sprintf(`{"query":%q}`, renamedFleetRule)); code != http.StatusOK {
		t.Fatalf("renamed rule: %d %s", code, body)
	}
	if got := f.planner.db.PlannerStats().Misses; got != missesBefore {
		t.Fatalf("the renamed rule was planned again (%d → %d planner misses)", missesBefore, got)
	}

	// (1) Fleet-wide amortization: the planner paid every LP solve; the
	// replicas paid none and saved plenty.
	plannerStats := f.planner.db.PlannerStats()
	if plannerStats.LPSolves == 0 || plannerStats.Misses < uint64(len(shapes)) {
		t.Fatalf("planner stats %+v, want it to have planned all %d shapes", plannerStats, len(shapes))
	}
	for i, rep := range f.replicas {
		st := rep.db.PlannerStats()
		if st.LPSolves != 0 || st.Misses != 0 || st.PlansBuilt != 0 {
			t.Fatalf("replica %d did planning work: %+v", i, st)
		}
		if st.Hits < 1 || st.LPSolvesSaved < 1 {
			t.Fatalf("replica %d served no cached shapes: %+v (rerun: rendezvous starved it?)", i, st)
		}
	}

	// (2) Shape-disjoint routing: each execution digest is served by
	// exactly one replica.
	digests := make([]map[string]bool, len(f.replicas))
	for i, rep := range f.replicas {
		code, body := httpDo(t, http.MethodGet, rep.ts.URL+"/v1/shapes", "")
		if code != http.StatusOK {
			t.Fatalf("shapes on replica %d: %d", i, code)
		}
		var rs replicaShapes
		if err := json.Unmarshal([]byte(body), &rs); err != nil {
			t.Fatal(err)
		}
		digests[i] = map[string]bool{}
		for _, sh := range rs.Shapes {
			digests[i][sh.Digest] = true
		}
		if len(digests[i]) == 0 {
			t.Fatalf("replica %d served no shapes", i)
		}
	}
	for d := range digests[0] {
		if digests[1][d] {
			t.Fatalf("digest %s was served by both replicas — sharding is not disjoint", d)
		}
	}

	// (4) Shard-disjoint plan caches: a replica holds the plans of the
	// shapes ranked to it and no others, one ensure per shape, one import
	// per ensure.
	names := []string{f.replicas[0].ts.URL, f.replicas[1].ts.URL}
	owned := map[string]int{}
	distinct := map[string]bool{}
	for _, src := range shapes {
		shape, err := shapeOf(src, "")
		if err != nil {
			t.Fatal(err)
		}
		if !distinct[shape] {
			distinct[shape] = true
			owned[Rank(names, shape)[0]]++
		}
	}
	for i, rep := range f.replicas {
		if got, want := rep.db.PlanCacheLen(), owned[rep.ts.URL]; got != want {
			t.Fatalf("replica %d holds %d plans, want the %d of the shapes routed to it", i, got, want)
		}
	}
	wantShipped := func(when string, ensured int) {
		t.Helper()
		m := metricsText(t, f.front.URL)
		if want := fmt.Sprintf("panda_router_shapes_ensured_total %d\n", ensured); !strings.Contains(m, want) {
			t.Fatalf("%s: router metrics missing %q:\n%s", when, want, m)
		}
		var imported int
		for _, line := range strings.Split(m, "\n") {
			if series, ok := strings.CutPrefix(line, "panda_router_push_entries_total{"); ok {
				_, v, _ := strings.Cut(series, "} ")
				n, err := strconv.Atoi(v)
				if err != nil {
					t.Fatalf("%s: bad sample %q", when, line)
				}
				imported += n
			}
		}
		if imported != ensured {
			t.Fatalf("%s: %d plan entries imported for %d ensures, want one replica per ensure", when, imported, ensured)
		}
	}
	wantShipped("after the corpus", len(distinct))

	// (5) Drain one replica (what SIGTERM does to pandad) and rerun the
	// whole corpus: zero failed requests, and the survivor still plans
	// nothing because it refuses each moved shape until its plan is shipped.
	drained := f.replicas[0]
	survivor := f.replicas[1]
	if err := drained.srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, src := range shapes {
		got := queryRows(t, f.front.URL, src) // Fatals on any non-200
		want := queryRows(t, direct.ts.URL, src)
		if got != want {
			t.Fatalf("post-drain rows for %q diverge: got %s want %s", src, got, want)
		}
	}
	st := survivor.db.PlannerStats()
	if st.LPSolves != 0 || st.Misses != 0 {
		t.Fatalf("survivor planned after failover: %+v", st)
	}
	if got := survivor.db.PlanCacheLen(); got != len(distinct) {
		t.Fatalf("survivor holds %d plans after the failover, want all %d shapes'", got, len(distinct))
	}
	// Each shape that moved paid one warm-up on the survivor.
	wantShipped("after the drain", len(distinct)+owned[drained.ts.URL])
	m := metricsText(t, f.front.URL)
	if !strings.Contains(m, fmt.Sprintf("panda_router_failovers_total{replica=%q} 1", drained.ts.URL)) {
		t.Fatalf("router metrics missing the drain failover:\n%s", m)
	}
	if !strings.Contains(m, "panda_router_no_healthy_replica_total 0") {
		t.Fatalf("router metrics report dropped requests:\n%s", m)
	}
}

// TestFleetMutationInvalidatesShapes: a catalog mutation changes the
// cardinality constraints embedded in plan signatures, so a replica refuses
// the next read of a shape whose key moved and the router re-warms and
// re-ships it — and replicas still never plan.
func TestFleetMutationInvalidatesShapes(t *testing.T) {
	f := newFleet(t)
	f.seed(t)

	if code, body := httpDo(t, http.MethodPost, f.front.URL+"/v1/query", fmt.Sprintf(`{"query":%q}`, triangleSrc)); code != http.StatusOK {
		t.Fatalf("pre-mutation query: %d %s", code, body)
	}
	missesBefore := f.planner.db.PlannerStats().Misses

	// Grow R through the router: new cardinality, new signature.
	if code, body := httpDo(t, http.MethodPost, f.front.URL+"/v1/relations/R/rows", `{"rows":[[997,998],[998,999]]}`); code != http.StatusOK {
		t.Fatalf("mutation: %d %s", code, body)
	}
	if code, body := httpDo(t, http.MethodPost, f.front.URL+"/v1/query", fmt.Sprintf(`{"query":%q}`, triangleSrc)); code != http.StatusOK {
		t.Fatalf("post-mutation query: %d %s", code, body)
	}
	if missesAfter := f.planner.db.PlannerStats().Misses; missesAfter <= missesBefore {
		t.Fatalf("planner misses %d → %d; the mutated shape was not re-planned", missesBefore, missesAfter)
	}
	for i, rep := range f.replicas {
		if st := rep.db.PlannerStats(); st.LPSolves != 0 {
			t.Fatalf("replica %d planned after the mutation: %+v", i, st)
		}
	}
}

// TestFleetForgetfulPlannerStillShips: the planning tier holds ONE plan, so
// by the next shape it has forgotten the last. Shipping names a plan by its
// signature, not by where the planner's cache has got to, so every plan a
// replica lacks still reaches it before the read is answered: the replicas
// plan nothing, through a second pass after a write whose moved keys the
// planner has to re-plan.
func TestFleetForgetfulPlannerStillShips(t *testing.T) {
	f := newFleetOf(t, newNodeCap(t, "planner", 1), newNode(t, "replica-a"), newNode(t, "replica-b"))
	f.seed(t)
	shapes := mixedShapes()
	pass := func() {
		t.Helper()
		for _, src := range shapes {
			if code, body := httpDo(t, http.MethodPost, f.front.URL+"/v1/query", fmt.Sprintf(`{"query":%q}`, src)); code != http.StatusOK {
				t.Fatalf("query %q: %d %s", src, code, body)
			}
		}
	}
	pass()
	// A write to R: the keys that read R's size move. The fourteen bounded
	// triangles declare |R|, so theirs hold still and their replicas keep
	// serving them; the plain triangle, the path and the rule move.
	if code, body := httpDo(t, http.MethodPost, f.front.URL+"/v1/relations/R/rows", `{"rows":[[997,998]]}`); code != http.StatusOK {
		t.Fatalf("mutation: %d %s", code, body)
	}
	pass()

	const moved = 3
	ensured := len(shapes) + moved
	st := f.planner.db.PlannerStats()
	if st.Misses != uint64(ensured) || st.Evictions != st.Misses-1 || f.planner.db.PlanCacheLen() != 1 {
		t.Fatalf("planner stats %+v holding %d plans, want each of the %d shipped plans planned and all but one forgotten", st, f.planner.db.PlanCacheLen(), ensured)
	}
	var served uint64
	for i, rep := range f.replicas {
		st := rep.db.PlannerStats()
		if st.LPSolves != 0 || st.Misses != 0 || st.PlansBuilt != 0 {
			t.Fatalf("replica %d did planning work: %+v", i, st)
		}
		served += st.Hits
	}
	if served < uint64(2*len(shapes)) {
		t.Fatalf("replicas served %d plan hits, want at least %d", served, 2*len(shapes))
	}
	m := metricsText(t, f.front.URL)
	if want := fmt.Sprintf("panda_router_shapes_ensured_total %d\n", ensured); !strings.Contains(m, want) {
		t.Fatalf("router metrics missing %q:\n%s", want, m)
	}
}

// TestFleetEvictingReplicasNeverPlan: replicas whose plan caches hold ONE
// plan evict almost every plan they are shipped. A read of an evicted plan
// whose answer is not memoised (the second pass asks for another
// parallelism) is refused, and the plan is shipped again: the replicas build
// no plan and solve no LP, for queries and for GET /v1/plan alike.
func TestFleetEvictingReplicasNeverPlan(t *testing.T) {
	f := newFleetOf(t, newNode(t, "planner"), newNodeCap(t, "replica-a", 1), newNodeCap(t, "replica-b", 1))
	f.seed(t)
	shapes := mixedShapes()
	for _, extra := range []string{"", `,"parallelism":2`} {
		for _, src := range shapes {
			if code, body := httpDo(t, http.MethodPost, f.front.URL+"/v1/query", fmt.Sprintf(`{"query":%q%s}`, src, extra)); code != http.StatusOK {
				t.Fatalf("query %q%s: %d %s", src, extra, code, body)
			}
		}
	}
	for range 2 {
		for _, src := range shapes {
			if code, body := httpDo(t, http.MethodGet, f.front.URL+"/v1/plan?q="+url.QueryEscape(src), ""); code != http.StatusOK {
				t.Fatalf("plan %q: %d %s", src, code, body)
			}
		}
	}
	var evicted uint64
	for i, rep := range f.replicas {
		st := rep.db.PlannerStats()
		if st.LPSolves != 0 || st.PlansBuilt != 0 {
			t.Fatalf("replica %d did planning work: %+v", i, st)
		}
		evicted += st.Evictions
	}
	if evicted == 0 {
		t.Fatal("no replica evicted a plan; the test exercises nothing")
	}
}

// TestFleetConcurrentFirstSightings: a herd of concurrent first reads of
// each shape is refused by its replica as often as the reads overlap, and
// every refusal pulls the plan; the planner's own single-flight builds each
// plan once, the replica counts the duplicate imports, and no replica plans.
func TestFleetConcurrentFirstSightings(t *testing.T) {
	const readers = 6
	f := newFleet(t)
	f.seed(t)
	shapes := mixedShapes()[:4]
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		for _, src := range shapes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := http.Post(f.front.URL+"/v1/query", "application/json", strings.NewReader(fmt.Sprintf(`{"query":%q}`, src)))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("query %q: %d", src, resp.StatusCode)
				}
			}()
		}
	}
	wg.Wait()
	if st := f.planner.db.PlannerStats(); st.PlansBuilt != uint64(len(shapes)) {
		t.Fatalf("planner %v, want one build per shape (%d)", st, len(shapes))
	}
	for i, rep := range f.replicas {
		if st := rep.db.PlannerStats(); st.LPSolves != 0 || st.PlansBuilt != 0 {
			t.Fatalf("replica %d did planning work: %+v", i, st)
		}
	}
}
