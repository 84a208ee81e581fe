package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"panda"
	"panda/internal/bitset"
	"panda/internal/bounds"
	"panda/internal/core"
	"panda/internal/flow"
	"panda/internal/incr"
	"panda/internal/plan"
	"panda/internal/query"
	"panda/internal/relation"
	"panda/internal/server"
	"panda/internal/wcoj"
	"panda/internal/widths"
	paper "panda/internal/workload" // the paper's example queries and inputs
	"panda/internal/yannakakis"
)

// Direct-call layer metrics: each layer is timed from outside, by calling
// its public functions on the workloads' own data. They are taken in every
// traced run, whatever the workload, so that every run reports every metric
// as measured.

// layerBench times calls and collects the results.
type layerBench struct {
	out map[string]value
	// Each metric is the median of between minCalls and maxCalls timed
	// samples; sampling stops early once budget has been spent on it (the
	// Boolean 5-cycle plan alone takes over a second).
	budget             time.Duration
	minCalls, maxCalls int
	err                error
}

func (b *layerBench) set(name string, x float64) { b.out[name] = value{x, unitOf(perLayer, name)} }

func (b *layerBench) fail(name string, err error) {
	if b.err == nil && err != nil {
		b.err = fmt.Errorf("%s: %v", name, err)
	}
}

// sample returns the median duration of one call of fn. Each timed sample
// runs prepare (untimed, may be nil) and then batch calls of fn; batch > 1
// lifts microsecond-scale calls clear of the clock's resolution.
func (b *layerBench) sample(batch int, prepare func(), fn func() error) (time.Duration, error) {
	var samples []float64
	start := time.Now()
	for len(samples) < b.maxCalls {
		if prepare != nil {
			prepare()
		}
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		samples = append(samples, float64(time.Since(t0))/float64(batch))
		if len(samples) >= b.minCalls && time.Since(start) > b.budget {
			break
		}
	}
	return time.Duration(median(samples)), nil
}

func (b *layerBench) ms(name string, batch int, prepare func(), fn func() error) time.Duration {
	d, err := b.sample(batch, prepare, fn)
	b.fail(name, err)
	b.set(name, float64(d)/1e6)
	return d
}

func (b *layerBench) us(name string, batch int, prepare func(), fn func() error) time.Duration {
	d, err := b.sample(batch, prepare, fn)
	b.fail(name, err)
	b.set(name, float64(d)/1e3)
	return d
}

// perSecond reports how many of n units one call of fn gets through in a
// second.
func (b *layerBench) perSecond(name string, n, batch int, fn func() error) {
	d, err := b.sample(batch, nil, fn)
	b.fail(name, err)
	b.set(name, float64(n)/d.Seconds())
}

// allocsOf counts the heap allocations of one call.
func allocsOf(fn func() error) (float64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := fn()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), err
}

// runLayers takes every direct-call metric. The sampling budget stretches
// with --seconds; smoke takes one sample of each.
func runLayers(seed int64, seconds int, smoke bool) (map[string]value, error) {
	b := &layerBench{
		out:      map[string]value{},
		budget:   time.Duration(seconds) * time.Second / 100,
		minCalls: 5, maxCalls: 20,
	}
	if smoke {
		b.budget, b.minCalls, b.maxCalls = 0, 1, 1
	}
	items := execItems(seed)
	b.planning()
	b.planCache()
	b.queryLayer(seed)
	b.kernels(seed, items[0].ins)
	b.engine(items)
	b.maintenance(seed)
	b.facade(seed)
	b.serverLayer(seed)
	b.routerLayer(seed)
	return b.out, b.err
}

// unitDCs are cardinality constraints with log₂ N = 1 on every edge, the
// normalisation the paper's width definitions use.
func unitDCs(edges []bitset.Set) []flow.DC {
	dcs := make([]flow.DC, len(edges))
	for i, e := range edges {
		dcs[i] = flow.DC{X: 0, Y: e, LogN: big.NewRat(1, 1)}
	}
	return dcs
}

// planning: internal/lp through internal/bounds, internal/flow and
// internal/widths — what a cold plan is made of.
func (b *layerBench) planning() {
	c4 := paper.FourCycleQuery()
	h := c4.Hypergraph()
	cc := unitDCs(h.Edges)
	b.ms("lp.polymatroid_c4_ms", 1, nil, func() error { _, err := bounds.Polymatroid(4, cc); return err })

	rule := paper.PathRule()
	pdcs := unitDCs(rule.Hypergraph().Edges)
	var mm *flow.MaximinResult
	b.ms("flow.maximin_ms", 1, nil, func() (err error) { mm, err = flow.MaximinBound(4, pdcs, rule.Targets); return err })
	if mm != nil {
		var seq flow.ProofSequence
		b.ms("flow.construct_proof_ms", 20, nil, func() (err error) {
			seq, err = flow.ConstructProof(mm.Lambda, mm.Delta, mm.Witness)
			return err
		})
		b.set("flow.proof_steps", float64(len(seq)))
	}
	b.ms("widths.fhtw_c4_ms", 1, nil, func() error { _, err := widths.FHTW(h); return err })
	b.ms("widths.subw_c4_ms", 1, nil, func() error { _, err := widths.Subw(h); return err })
}

// plannable is one shape of the plan-cold corpus ready to plan: parsed, its
// constraints completed against 8-row relations as a first sighting's are.
type plannable struct {
	q    *query.Conjunctive
	rule *query.Disjunctive
	cons []query.DegreeConstraint
	mode plan.Mode
}

func corpus() ([]plannable, error) {
	cat := planColdCatalog(structureSeed)
	var out []plannable
	for _, sh := range planColdShapes {
		pr, err := query.Parse(sh.src)
		if err != nil {
			return nil, err
		}
		ins, err := bindCatalog(pr, cat)
		if err != nil {
			return nil, err
		}
		out = append(out, plannable{
			q: pr.Conj, rule: pr.Rule, mode: sh.planMode(),
			cons: core.CompleteConstraints(&pr.Rule.Schema, ins, pr.Constraints),
		})
	}
	return out, nil
}

func (p plannable) prepare() error {
	if p.q != nil {
		_, _, err := plan.Prepare(p.q, p.cons, p.mode)
		return err
	}
	_, _, err := plan.PrepareRule(&p.rule.Schema, p.cons, p.rule.Targets)
	return err
}

// cardinalities gives every atom the constraint |R| ≤ n.
func cardinalities(s *query.Schema, n int64) []query.DegreeConstraint {
	cons := make([]query.DegreeConstraint, len(s.Atoms))
	for i, a := range s.Atoms {
		cons[i] = query.Cardinality(a.Vars, n, i)
	}
	return cons
}

// renamings returns the 4-cycle under every renaming of its variables: the
// same shape, a different fingerprint each.
func renamings() []*query.Conjunctive {
	var out []*query.Conjunctive
	var perm func(p []int, k int)
	perm = func(p []int, k int) {
		if k == len(p) {
			q := paper.FourCycleQuery()
			for i := range q.Atoms {
				var vars bitset.Set
				for _, v := range q.Atoms[i].Vars.Vars() {
					vars = vars.Add(p[v])
				}
				q.Atoms[i].Vars = vars
			}
			out = append(out, q)
			return
		}
		for i := k; i < len(p); i++ {
			p[k], p[i] = p[i], p[k]
			perm(p, k+1)
			p[k], p[i] = p[i], p[k]
		}
	}
	perm([]int{0, 1, 2, 3}, 0)
	return out
}

// planCache: internal/plan — cold builds, the two kinds of hit, the
// canonical signature, and the wire codec plans are shipped in.
func (b *layerBench) planCache() {
	shapes, err := corpus()
	if err != nil {
		b.fail("plan.prepare_cold_ms", err)
		return
	}
	var perShape []float64
	for _, p := range shapes {
		d, err := b.sample(1, nil, p.prepare)
		b.fail("plan.prepare_cold_ms", err)
		perShape = append(perShape, float64(d)/1e6)
	}
	b.set("plan.prepare_cold_ms", median(perShape))

	c5 := paper.CycleQuery(5)
	c5.Free = 0
	c5cons := cardinalities(&c5.Schema, planColdRows)
	// Over a second per call: three samples, not twenty.
	minCalls, maxCalls := b.minCalls, b.maxCalls
	b.minCalls, b.maxCalls = min(minCalls, 3), min(maxCalls, 3)
	b.ms("plan.prepare_c5_ms", 1, nil, func() error { _, _, err := plan.Prepare(c5, c5cons, plan.ModeSubw); return err })
	b.minCalls, b.maxCalls = minCalls, maxCalls

	c4 := paper.FourCycleQuery()
	cons := cardinalities(&c4.Schema, planColdRows)
	planner := plan.NewPlanner(0)
	p, err := planner.Prepare(c4, cons, plan.ModeSubw)
	if err != nil {
		b.fail("plan.exact_hit_us", err)
		return
	}
	b.us("plan.exact_hit_us", 100, nil, func() error { _, err := planner.Prepare(c4, cons, plan.ModeSubw); return err })
	// More renamings than the planner keeps fingerprints per plan (16), so
	// cycling through them finds each one evicted again: every call misses
	// the exact index, canonicalizes, and hits by signature.
	renamed := renamings()
	next := 0
	b.us("plan.signature_hit_us", len(renamed), nil, func() error {
		q := renamed[next%len(renamed)]
		next++
		_, err := planner.Prepare(q, cardinalities(&q.Schema, planColdRows), plan.ModeSubw)
		return err
	})
	if st := planner.Stats(); st.Misses != 1 {
		b.fail("plan.signature_hit_us", fmt.Errorf("renamings built %d plans, want 1", st.Misses))
	}
	b.us("plan.canonicalize_us", 20, nil, func() error { _, err := plan.Canonicalize(c4, cons, plan.ModeSubw); return err })

	var enc bytes.Buffer
	b.us("plan.encode_us", 20, nil, func() error { enc.Reset(); return plan.EncodePlan(&enc, p) })
	b.set("plan.encoded_bytes", float64(enc.Len()))
	b.us("plan.decode_us", 20, nil, func() error { _, err := plan.DecodePlan(bytes.NewReader(enc.Bytes())); return err })
}

// queryLayer: internal/query — the parser, and binding catalog rows to a
// schema (the permuted atom U(D,A) takes the row-copy path).
func (b *layerBench) queryLayer(seed int64) {
	src := "Q(A,B,C,D) :- " + fourCycleBody
	b.us("query.parse_us", 100, nil, func() error { _, err := query.Parse(src); return err })
	pr, err := query.Parse(src)
	if err != nil {
		return
	}
	cat, _ := serveCatalog(seed, serveReadSizes.rows, serveReadSizes.dom)
	b.ms("query.bind_ms", 5, nil, func() error { _, err := bindCatalog(pr, cat); return err })
}

// kernels: internal/relation, internal/wcoj and internal/yannakakis on the
// relations of exec-large's triangle. Join and Semijoin memoise hash indexes
// on their operands, so every sample runs on fresh clones.
func (b *layerBench) kernels(seed int64, tri *query.Instance) {
	r0, s0 := tri.Relations[0], tri.Relations[1] // R(A,B), S(B,C)
	rows := r0.Rows()
	b.perSecond("relation.build_rows_per_s", len(rows), 5, func() error {
		bld := relation.NewBuilder("R", r0.Attrs(), len(rows))
		for _, row := range rows {
			bld.Add(row)
		}
		if bld.Build().Size() != len(rows) {
			return fmt.Errorf("built %d of %d rows", bld.Size(), len(rows))
		}
		return nil
	})
	b.perSecond("relation.scan_rows_per_s", len(rows), 20, func() error {
		n := 0
		for range r0.All() {
			n++
		}
		if n != len(rows) {
			return fmt.Errorf("scanned %d of %d rows", n, len(rows))
		}
		return nil
	})

	var r, s *relation.Relation
	fresh := func() { r, s = r0.Clone("R"), s0.Clone("S") }
	b.ms("relation.join_ms", 1, fresh, func() error { r.Join(s); return nil })
	fresh()
	allocs, _ := allocsOf(func() error { r.Join(s); return nil })
	b.set("relation.join_allocs", allocs)
	b.ms("relation.semijoin_ms", 1, fresh, func() error { r.Semijoin(s); return nil })
	joined := r0.Join(s0)
	b.ms("relation.project_ms", 1, nil, func() error { joined.Project(bitset.Of(0, 2)); return nil })
	b.ms("relation.partition_ms", 1, fresh, func() error { r.Partition(2, bitset.Of(1)); return nil })
	b.ms("relation.degree_partition_ms", 1, fresh, func() error { r.PartitionByDegree(r.Attrs(), bitset.Of(0)); return nil })

	tq := paper.TriangleQuery()
	var triIns *query.Instance
	freshTri := func() {
		triIns = &query.Instance{}
		for _, rel := range tri.Relations {
			triIns.Relations = append(triIns.Relations, rel.Clone(rel.Name))
		}
	}
	b.ms("wcoj.triangle_ms", 1, freshTri, func() error { _, err := wcoj.Join(&tq.Schema, triIns, nil); return err })
	freshTri()
	allocs, err := allocsOf(func() error { _, err := wcoj.Join(&tq.Schema, triIns, nil); return err })
	b.fail("wcoj.triangle_allocs", err)
	b.set("wcoj.triangle_allocs", allocs)

	pathIns := newRelabeling(seed, 128).instance(randomInstance(structureRand(), &paper.PathRule().Schema, 1024, 128))
	var path []*relation.Relation
	freshPath := func() {
		path = path[:0]
		for _, rel := range pathIns.Relations {
			path = append(path, rel.Clone(rel.Name))
		}
	}
	b.ms("yannakakis.path3_ms", 1, freshPath, func() error { _, err := yannakakis.Join(path, []int{-1, 0, 1}); return err })
}

// engine: internal/core — executing a pre-built plan, which is what is left
// of an exec-large operation once the planner's hit is taken away.
func (b *layerBench) engine(items []execItem) {
	ctx := context.Background()
	seq := &core.Executor{}
	timed := &core.Executor{Opt: core.Options{StageTimings: true}}
	var stages core.Timings
	stages.Steps = map[string]time.Duration{}
	var stats core.Stats
	slack := math.Inf(1)
	for _, it := range items {
		name := "core.execute_ms." + it.name
		cons := core.CompleteConstraints(schemaOf(it), it.ins, nil)
		// run executes the item with the given executor and reports what the
		// stage and slack metrics need.
		var run func(ex *core.Executor) (*core.Stats, *core.Timings, *big.Rat, error)
		if it.q != nil {
			p, _, err := plan.Prepare(it.q, cons, it.mode)
			if err != nil {
				b.fail(name, err)
				continue
			}
			run = func(ex *core.Executor) (*core.Stats, *core.Timings, *big.Rat, error) {
				res, err := ex.Execute(ctx, p, it.ins)
				if err != nil {
					return nil, nil, nil, err
				}
				return res.Stats, res.Timings, res.Width, nil
			}
		} else {
			pr, _, err := plan.PrepareRule(&it.rule.Schema, cons, it.rule.Targets)
			if err != nil {
				b.fail(name, err)
				continue
			}
			run = func(ex *core.Executor) (*core.Stats, *core.Timings, *big.Rat, error) {
				res, err := ex.ExecuteRule(ctx, &it.rule.Schema, pr, cons, it.ins)
				if err != nil {
					return nil, nil, nil, err
				}
				return res.Stats, res.Timings, res.Bound, nil
			}
		}
		seqMs := b.ms(name, 1, nil, func() error { _, _, _, err := run(seq); return err })
		st, tm, width, err := run(timed)
		if err != nil {
			b.fail(name, err)
			continue
		}
		stages.Accumulate(tm)
		stats.Joins += st.Joins
		stats.Projections += st.Projections
		stats.Partitions += st.Partitions
		stats.Subproblems += st.Subproblems
		stats.Restarts += st.Restarts
		if st.MaxIntermediate > 0 {
			w, _ := width.Float64()
			slack = math.Min(slack, w-math.Log2(float64(st.MaxIntermediate)))
		}
		if it.name == "tri-full" {
			n := runtime.GOMAXPROCS(0)
			par := &core.Executor{Parallelism: n, Partitions: n}
			parMs := b.ms("core.execute_par_ms", 1, nil, func() error { _, _, _, err := run(par); return err })
			b.set("core.par_speedup", float64(seqMs)/float64(parMs))
		}
	}
	var steps time.Duration
	for _, d := range stages.Steps {
		steps += d
	}
	b.set("core.steps_ms", float64(steps)/1e6)
	b.set("core.rule_fanout_ms", float64(stages.RuleFanout)/1e6)
	b.set("core.merge_ms", float64(stages.Merge)/1e6)
	b.set("core.joins", float64(stats.Joins))
	b.set("core.projections", float64(stats.Projections))
	b.set("core.partitions", float64(stats.Partitions))
	b.set("core.subproblems", float64(stats.Subproblems))
	b.set("core.restarts", float64(stats.Restarts))
	b.set("core.bound_slack_log2", slack)
}

func schemaOf(it execItem) *query.Schema {
	if it.q != nil {
		return &it.q.Schema
	}
	return &it.rule.Schema
}

// maintenance: internal/incr — one semi-naive round over 16-row deltas
// against re-executing the triangle (n = 2048) from scratch.
func (b *layerBench) maintenance(seed int64) {
	const n, dom, deltaRows = 2048, 256, 16
	rng := structureRand()
	relabel := newRelabeling(seed, dom)
	q := paper.TriangleQuery()
	s := &q.Schema
	p, _, err := plan.Prepare(q, cardinalities(s, n+deltaRows), plan.ModeFull)
	if err != nil {
		b.fail("incr.maintain_ms", err)
		return
	}
	full := relabel.instance(randomInstance(rng, s, n, dom))
	deltas := make([]*relation.Relation, len(s.Atoms))
	for i, r := range full.Relations {
		deltas[i] = relation.New("Δ"+r.Name, r.Attrs())
		for deltas[i].Size() < deltaRows {
			row := relabel.row([]relation.Value{relation.Value(rng.Intn(dom)), relation.Value(rng.Intn(dom))})
			if !r.Contains(row) {
				r.Insert(row) // Maintain's contract: full is the new instance
				deltas[i].Insert(row)
			}
		}
	}
	ctx := context.Background()
	exec := &core.Executor{}
	var round *incr.Round
	b.ms("incr.maintain_ms", 1, nil, func() (err error) { round, err = incr.Maintain(ctx, exec, p, s, full, deltas); return err })
	b.ms("incr.full_reexec_ms", 1, nil, func() error { _, err := exec.Execute(ctx, p, full); return err })
	if round != nil && round.Delta != nil {
		b.set("incr.delta_rows_out", float64(round.Delta.Size()))
	}
}

// facade: package panda — the Stmt memos, ingest, iteration and the watch
// path, over the serve catalogs.
func (b *layerBench) facade(seed int64) {
	wide, _ := serveCatalog(seed, serveReadSizes.rows, serveReadSizes.dom)
	db, err := loadDB(wide)
	if err != nil {
		b.fail("panda.stmt_memo_hit_us", err)
		return
	}
	defer db.Close()
	st, err := db.Prepare(serveShapes[2].src) // the full 4-cycle
	if err != nil {
		b.fail("panda.stmt_memo_hit_us", err)
		return
	}
	res, err := st.Query()
	if err != nil {
		b.fail("panda.stmt_memo_hit_us", err)
		return
	}
	b.us("panda.stmt_memo_hit_us", 100, nil, func() error { _, err := st.Query(); return err })
	b.perSecond("panda.iter_rows_per_s", res.Size(), 5, func() error {
		n := 0
		for range res.Iter() {
			n++
		}
		if n != res.Size() {
			return fmt.Errorf("iterated %d of %d rows", n, res.Size())
		}
		return nil
	})

	// Re-query after an insert, on the serve-mixed catalog: the library's
	// share of a serve-mixed cold read (re-bind, re-plan, re-execute).
	small, fresh := serveCatalog(seed, serveMixedSizes.rows, serveMixedSizes.dom)
	sdb, err := loadDB(small)
	if err != nil {
		b.fail("panda.stmt_requery_after_insert_ms", err)
		return
	}
	defer sdb.Close()
	sst, err := sdb.Prepare(serveShapes[2].src)
	if err != nil {
		b.fail("panda.stmt_requery_after_insert_ms", err)
		return
	}
	insert := func() error {
		row, ok := fresh.next("R")
		if !ok {
			return fmt.Errorf("no fresh row left")
		}
		return sdb.Insert("R", row)
	}
	b.ms("panda.stmt_requery_after_insert_ms", 1, func() { b.fail("panda.stmt_requery_after_insert_ms", insert()) },
		func() error { _, err := sst.Query(); return err })
	b.us("panda.insert_us_per_row", 10, nil, insert)

	var csv strings.Builder
	const csvRows = 5000
	for i, v := range rand.New(rand.NewSource(seed)).Perm(csvRows) {
		fmt.Fprintf(&csv, "%d,%d\n", i, v)
	}
	b.perSecond("panda.loadcsv_rows_per_s", csvRows, 1, func() error {
		fdb := panda.Open()
		defer fdb.Close()
		n, err := fdb.LoadCSV("X", strings.NewReader(csv.String()))
		if err == nil && n != csvRows {
			err = fmt.Errorf("loaded %d of %d rows", n, csvRows)
		}
		return err
	})

	b.watchLag()
	b.glue(seed)
}

// watchLag: from DB.Insert returning to the delta arriving on the watch's
// channel. Every inserted R row joins one S row, so every insert yields a
// delta.
func (b *layerBench) watchLag() {
	const name = "panda.watch_delta_lag_ms"
	db := panda.Open()
	defer db.Close()
	for _, rel := range []string{"R", "S"} {
		if err := db.CreateRelation(rel, 2); err != nil {
			b.fail(name, err)
			return
		}
	}
	for k := 0; k < 64; k++ {
		if err := db.Insert("S", []panda.Value{panda.Value(k), panda.Value(k)}); err != nil {
			b.fail(name, err)
			return
		}
	}
	w, err := db.Watch("Q(A,B,C) :- R(A,B), S(B,C).")
	if err != nil {
		b.fail(name, err)
		return
	}
	defer w.Close()
	next := 0
	var lags []float64
	for len(lags) < b.maxCalls {
		if err := db.Insert("R", []panda.Value{panda.Value(1000 + next), panda.Value(next % 64)}); err != nil {
			b.fail(name, err)
			return
		}
		next++
		t0 := time.Now()
		select {
		case _, ok := <-w.Deltas():
			if !ok {
				b.fail(name, fmt.Errorf("watch ended: %v", w.Err()))
				return
			}
		case <-time.After(5 * time.Second):
			b.fail(name, fmt.Errorf("no delta within 5s of an insert"))
			return
		}
		lags = append(lags, float64(time.Since(t0))/1e6)
	}
	b.set(name, median(lags))
}

// glue: what DB.Eval costs beyond the layer calls it makes (constraint
// completion, a planner hit, execution), on a small triangle.
func (b *layerBench) glue(seed int64) {
	const name = "panda.facade_glue_us"
	q := paper.TriangleQuery()
	ins := newRelabeling(seed, 16).instance(randomInstance(structureRand(), &q.Schema, 64, 16))
	db := panda.Open()
	defer db.Close()
	if _, err := db.Eval(q, ins, nil); err != nil {
		b.fail(name, err)
		return
	}
	planner := plan.NewPlanner(0)
	ctx := context.Background()
	chain := func() error {
		p, err := planner.PrepareContext(ctx, q, core.CompleteConstraints(&q.Schema, ins, nil), plan.ModeAuto)
		if err != nil {
			return err
		}
		_, err = (&core.Executor{}).Execute(ctx, p, ins)
		return err
	}
	if err := chain(); err != nil {
		b.fail(name, err)
		return
	}
	whole, err := b.sample(20, nil, func() error { _, err := db.Eval(q, ins, nil); return err })
	b.fail(name, err)
	parts, err := b.sample(20, nil, chain)
	b.fail(name, err)
	b.set(name, float64(whole-parts)/1e3)
}

// serverLayer: internal/server — the handler alone (into a recorder, result
// memo hot), then the same request over a loopback socket.
func (b *layerBench) serverLayer(seed int64) {
	cat, fresh := serveCatalog(seed, serveReadSizes.rows, serveReadSizes.dom)
	db, err := loadDB(cat)
	if err != nil {
		b.fail("server.handler_small_us", err)
		return
	}
	defer db.Close()
	srv := server.New(server.Config{DB: db})
	call := func(path string, body []byte) (*httptest.ResponseRecorder, error) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("POST %s: status %d", path, rec.Code)
		}
		return rec, nil
	}
	small, large := serveShapes[0].requestBody(), serveShapes[3].requestBody() // Boolean 4-cycle, the rule
	handler := func(body []byte) func() error {
		return func() error { _, err := call("/v1/query", body); return err }
	}
	if err := handler(small)(); err != nil { // plan and memoise
		b.fail("server.handler_small_us", err)
		return
	}
	rec, err := call("/v1/query", large)
	if err != nil {
		b.fail("server.handler_large_us", err)
		return
	}
	var answer wireAnswer
	rowsOut := 0
	if err := json.Unmarshal(rec.Body.Bytes(), &answer); err == nil {
		for _, t := range answer.Tables {
			rowsOut += len(t.Rows)
		}
	}
	b.set("server.response_kb", float64(rec.Body.Len())/1024)
	smallD := b.us("server.handler_small_us", 20, nil, handler(small))
	largeD := b.us("server.handler_large_us", 2, nil, handler(large))
	if rowsOut > 0 {
		b.set("server.encode_ns_per_row", float64(largeD-smallD)/float64(rowsOut))
	}

	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := &serveClient{http: &http.Client{Transport: &http.Transport{}}}
	defer client.http.CloseIdleConnections()
	socket, err := b.sample(20, nil, func() error { return client.expectOK(ts.URL+"/v1/query", small) })
	b.fail("server.tcp_overhead_us", err)
	b.set("server.tcp_overhead_us", float64(socket-smallD)/1e3)

	b.us("server.insert_handler_us", 5, nil, func() error {
		row, ok := fresh.next("R")
		if !ok {
			return fmt.Errorf("no fresh row left")
		}
		_, err := call("/v1/relations/R/rows", rowsBody([][]panda.Value{row}))
		return err
	})
}

func (c *serveClient) expectOK(url string, body []byte) error {
	status, err := c.roundTrip(url, body)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("POST %s: status %d", url, status)
	}
	return err
}

// routerLayer: internal/router — a probe fleet over the serve-mixed
// catalog, with the span middleware mounted so that the first-sighting cost
// can be read off the tiers' spans.
func (b *layerBench) routerLayer(seed int64) {
	cat, fresh := serveCatalog(seed, serveMixedSizes.rows, serveMixedSizes.dom)
	tr := newTracer()
	f, err := newFleet(tr)
	if err != nil {
		b.fail("router.hop_us", err)
		return
	}
	defer f.close()
	client := &serveClient{http: &http.Client{Transport: &http.Transport{}}}
	defer client.http.CloseIdleConnections()
	if err := loadOver(client.http, f.front.URL, cat); err != nil {
		b.fail("router.hop_us", err)
		return
	}
	// A lone pandad with the same catalog is the "direct" side of the
	// comparisons.
	lone := newNode("lone", nil)
	defer lone.close()
	if err := loadOver(client.http, lone.ts.URL, cat); err != nil {
		b.fail("router.hop_us", err)
		return
	}
	body := serveShapes[0].requestBody() // Boolean 4-cycle: a small answer
	via := func() error { return client.expectOK(f.front.URL+"/v1/query", body) }
	direct := func() error { return client.expectOK(lone.ts.URL+"/v1/query", body) }
	if err := via(); err != nil {
		b.fail("router.hop_us", err)
		return
	}
	if err := direct(); err != nil {
		b.fail("router.hop_us", err)
		return
	}
	viaD, err := b.sample(20, nil, via)
	b.fail("router.hop_us", err)
	directD, err := b.sample(20, nil, direct)
	b.fail("router.hop_us", err)
	b.set("router.hop_us", float64(viaD-directD)/1e3)

	insertTo := func(base string) func() error {
		return func() error {
			row, ok := fresh.next("R")
			if !ok {
				return fmt.Errorf("no fresh row left")
			}
			return client.expectOK(base+"/v1/relations/R/rows", rowsBody([][]panda.Value{row}))
		}
	}
	// First sightings: every insert through the router wipes its planned-
	// shape memo, so the read that follows warms the planning tier, pulls
	// the delta and pushes it to both replicas before it is forwarded. The
	// cost of that is the router's span minus the replica's query span.
	var ensure, inserts []float64
	for op := 0; op < b.maxCalls; op++ {
		tr.beginOp(2 * op)
		t0 := time.Now()
		if err := insertTo(f.front.URL)(); err != nil {
			b.fail("router.insert_ms", err)
			return
		}
		inserts = append(inserts, float64(time.Since(t0))/1e6)
		tr.beginOp(2*op + 1)
		if err := via(); err != nil {
			b.fail("router.ensure_planned_ms", err)
			return
		}
	}
	byOp := map[int]map[string]int64{}
	for _, s := range tr.finish() {
		if byOp[s.Op] == nil {
			byOp[s.Op] = map[string]int64{}
		}
		byOp[s.Op][s.Name] += s.dur()
	}
	for op, names := range byOp {
		if op%2 == 1 {
			ensure = append(ensure, float64(names["router POST /v1/query"]-names["replica POST /v1/query"])/1e6)
		}
	}
	b.set("router.ensure_planned_ms", median(ensure))
	b.set("router.insert_ms", median(inserts))
	loneD, err := b.sample(1, nil, insertTo(lone.ts.URL))
	b.fail("router.broadcast_us", err)
	b.set("router.broadcast_us", median(inserts)*1e3-float64(loneD)/1e3)
}
