package main

import (
	"context"
	"fmt"
	"time"

	"panda"
	"panda/internal/core"
	"panda/internal/plan"
	"panda/internal/query"
	"panda/internal/relation"
	paper "panda/internal/workload" // the paper's example queries and inputs
)

// buildOpts is what a workload's set-up is told besides the seed.
type buildOpts struct {
	clients int     // closed-loop callers of the timed phase
	smoke   bool    // shrink data-independent counts (warm-up) for the smoke test
	tr      *tracer // non-nil in the traced run: serve workloads mount the span middleware
	// memo, when set, carries the serve oracle's answers from one round of a
	// measured run to the next (every round replays the same inserts).
	memo *serveMemo
}

func (o buildOpts) warmup(n int) int {
	if o.smoke {
		return max(1, n/50)
	}
	return n
}

// firstSeen keeps, per operation, the first occurrence's output and its
// checksum: every later occurrence must reproduce the checksum, and verify
// puts the kept output through the oracle.
type firstSeen struct {
	res *panda.Result
	sum uint64
}

// check consumes res (iterating every row, as a caller would) and reports
// whether it agrees with the first occurrence.
func (f *firstSeen) check(res *panda.Result) bool {
	sum := resultChecksum(res)
	if f.res == nil {
		f.res, f.sum = res, sum
		return true
	}
	return sum == f.sum
}

// ---- plan-cold ----

// plan-cold's relations: 8 rows each, 4 of them planted on the diagonal
// (so every shape has answers), the rest drawn from a sparse domain (so the
// engine has next to nothing to join and planning is what an operation costs).
const (
	planColdRows    = 8
	planColdDom     = 16
	planColdPlanted = 4
)

// planCold makes planning do the work and the kernels almost none: every
// pass opens a fresh session over four 8-row relations and sends each of
// the ten shapes once, so every operation is a first sighting that no
// cache may legitimately serve.
type planCold struct {
	cat    catalog
	parsed []*query.ParseResult
	first  []firstSeen
	db     *panda.DB // the session of the pass in progress
	// The traced run replays a pass as its chain of layer calls, over the
	// same rows held as catalog-style relations and a planner of its own.
	rels    map[string]*relation.Relation
	planner *plan.Planner
	stats   panda.PlannerStats // counters of finished passes' sessions
}

func buildPlanCold(seed int64, o buildOpts) (workload, error) {
	w := &planCold{
		cat:   planColdCatalog(seed),
		first: make([]firstSeen, len(planColdShapes)),
	}
	for _, sh := range planColdShapes {
		pr, err := query.Parse(sh.src)
		if err != nil {
			return nil, fmt.Errorf("plan-cold shape %s: %v", sh.name, err)
		}
		w.parsed = append(w.parsed, pr)
	}
	for i := 0; i < o.warmup(20)*w.cycle(); i++ {
		if w.op(0, i, nil).failed {
			return nil, fmt.Errorf("plan-cold: warm-up operation %d failed", i)
		}
	}
	return w, nil
}

func planColdCatalog(seed int64) catalog {
	return newRelabeling(seed, planColdDom).catalog(plantedCatalog(structureRand(), planColdRows, planColdDom, planColdPlanted))
}

func (w *planCold) clients() int    { return 1 }
func (w *planCold) cycle() int      { return len(planColdShapes) }
func (w *planCold) close()          {}
func (w *planCold) afterOp(*tracer) {}

// openSession starts a pass: a new session (and with it a new, empty plan
// cache) over the same four relations.
func (w *planCold) openSession(traced bool) error {
	w.foldStats()
	if traced {
		w.planner = plan.NewPlanner(0)
		w.rels = map[string]*relation.Relation{}
		for _, name := range catalogNames {
			w.rels[name] = buildRelation(name, w.cat[name])
		}
		return nil
	}
	var err error
	w.db, err = loadDB(w.cat)
	return err
}

// foldStats banks the finished pass's planner counters.
func (w *planCold) foldStats() {
	var st panda.PlannerStats
	switch {
	case w.db != nil:
		st = w.db.PlannerStats()
	case w.planner != nil:
		st = w.planner.Stats()
	}
	w.db, w.planner = nil, nil
	w.stats.Hits += st.Hits
	w.stats.Misses += st.Misses
	w.stats.LPSolves += st.LPSolves
	w.stats.PlansBuilt += st.PlansBuilt
}

func (w *planCold) op(_, i int, tr *tracer) outcome {
	k := i % len(planColdShapes)
	if k == 0 {
		if err := w.openSession(tr != nil); err != nil {
			return outcome{failed: true}
		}
	}
	sh := planColdShapes[k]
	var res *panda.Result
	var err error
	if tr == nil {
		res, err = w.db.Query(sh.src, sh.options()...)
	} else {
		res, err = replayText(tr, sh, w.rels, w.planner)
	}
	if err != nil {
		return outcome{failed: true}
	}
	return outcome{failed: !timedCheck(tr, &w.first[k], res)}
}

func (w *planCold) verify() verdict {
	v := verdict{checked: len(w.first)}
	for k, f := range w.first {
		pr := w.parsed[k]
		ins, err := bindCatalog(pr, w.cat)
		if err == nil {
			err = checkResult(pr.Conj, pr.Rule, ins, f.res)
		}
		if err != nil {
			v.fail(fmt.Errorf("plan-cold %s: %v", planColdShapes[k].name, err))
		}
	}
	return v
}

func (w *planCold) counters(bool) (counters, error) {
	w.foldStats()
	return counters{planner: w.stats}, nil
}

// timedCheck is firstSeen.check under an "iterate" span.
func timedCheck(tr *tracer, f *firstSeen, res *panda.Result) bool {
	if tr == nil {
		return f.check(res)
	}
	t0 := time.Now()
	ok := f.check(res)
	tr.add("iterate", unnested, t0, time.Now())
	return ok
}

// replayText is DB.Query taken apart into the public layer calls it makes —
// parse, bind the catalog, complete the constraints, plan, execute — with a
// span around each, so the traced run shows where a first sighting's time
// goes. Result.Timings stages hang under the execute span.
func replayText(tr *tracer, sh shape, rels map[string]*relation.Relation, planner *plan.Planner) (*panda.Result, error) {
	t0 := time.Now()
	pr, err := query.Parse(sh.src)
	t1 := time.Now()
	tr.add("query.parse", unnested, t0, t1)
	if err != nil {
		return nil, err
	}
	s := &pr.Rule.Schema
	ins, err := query.BindInstance(s, func(name string) (*relation.Relation, bool) {
		r, ok := rels[name]
		return r, ok
	})
	if err == nil {
		err = ins.Check(s, pr.Constraints)
	}
	t2 := time.Now()
	tr.add("query.bind", unnested, t1, t2)
	if err != nil {
		return nil, err
	}
	if pr.Conj != nil {
		return replayConjunctive(tr, pr.Conj, ins, pr.Constraints, sh.planMode(), planner)
	}
	return replayRule(tr, pr.Rule, ins, pr.Constraints)
}

func replayConjunctive(tr *tracer, q *query.Conjunctive, ins *query.Instance, dcs []query.DegreeConstraint, mode plan.Mode, planner *plan.Planner) (*panda.Result, error) {
	ctx := context.Background()
	t0 := time.Now()
	cons := core.CompleteConstraints(&q.Schema, ins, dcs)
	t1 := time.Now()
	tr.add("core.constraints", unnested, t0, t1)
	p, err := planner.PrepareContext(ctx, q, cons, mode)
	t2 := time.Now()
	tr.add("plan.prepare", unnested, t1, t2)
	if err != nil {
		return nil, err
	}
	ex, err := (&core.Executor{Opt: core.Options{StageTimings: true}}).Execute(ctx, p, ins)
	t3 := time.Now()
	id := tr.add("core.execute", unnested, t2, t3)
	if err != nil {
		return nil, err
	}
	tr.addStages(id, stagesOf(ex.Timings))
	out := ex.Out
	if out != nil && p.Free != 0 && p.Free != out.Attrs() {
		out = out.Project(p.Free)
	}
	ok := ex.NonEmpty
	if out != nil {
		ok = out.Size() > 0
	}
	res := &panda.Result{Rel: out, OK: ok, Width: ex.Width, Mode: ex.Mode, Tables: ex.Tables, Bound: ex.Bound, Stats: ex.Stats, Timings: ex.Timings}
	tr.add("facade.project", unnested, t3, time.Now())
	return res, nil
}

func replayRule(tr *tracer, r *query.Disjunctive, ins *query.Instance, dcs []query.DegreeConstraint) (*panda.Result, error) {
	ctx := context.Background()
	t0 := time.Now()
	cons := core.CompleteConstraints(&r.Schema, ins, dcs)
	t1 := time.Now()
	tr.add("core.constraints", unnested, t0, t1)
	pr, _, err := plan.PrepareRuleContext(ctx, &r.Schema, cons, r.Targets)
	t2 := time.Now()
	tr.add("plan.prepare", unnested, t1, t2)
	if err != nil {
		return nil, err
	}
	ex, err := (&core.Executor{Opt: core.Options{StageTimings: true}}).ExecuteRule(ctx, &r.Schema, pr, cons, ins)
	t3 := time.Now()
	id := tr.add("core.execute", unnested, t2, t3)
	if err != nil {
		return nil, err
	}
	tr.addStages(id, stagesOf(ex.Timings))
	ok := false
	for _, t := range ex.Tables {
		ok = ok || t.Size() > 0
	}
	return &panda.Result{OK: ok, Width: ex.Bound, Mode: panda.ModeRule, Tables: ex.Tables, Bound: ex.Bound, Stats: ex.Stats, Timings: ex.Timings}, nil
}

// stagesOf turns the engine's stage timings into child stages of the
// execute span: the rule fan-out (which contains the proof-step time) and
// the merge.
func stagesOf(t *core.Timings) []stage {
	if t == nil {
		return nil
	}
	var steps time.Duration
	for _, d := range t.Steps {
		steps += d
	}
	if t.RuleFanout == 0 {
		// A single rule run directly (no fan-out phase): only step time.
		return []stage{{"core.steps", steps}}
	}
	return []stage{{"core.rule_fanout", t.RuleFanout}, {"core.merge", t.Merge}}
}

// ---- exec-large ----

// execItem is one exec-large operation: a programmatic query or rule over
// an explicit instance.
type execItem struct {
	name string
	q    *query.Conjunctive // nil for the rule
	rule *query.Disjunctive
	ins  *query.Instance
	mode plan.Mode
}

// execItems builds the five exec-large inputs from a seed. Sizes are set so
// that one round takes about 50 ms on the reference machine: large enough
// that the engine, not the planner's signature lookup (microseconds), is
// what an operation costs; small enough that a run holds well over a
// thousand operations.
func execItems(seed int64) []execItem {
	const (
		triRows, triDom = 1024, 128
		c4Rows, c4Dom   = 120, 18
		cycleM, pathM   = 256, 512
	)
	rng := structureRand()
	tri := paper.TriangleQuery()
	c4 := paper.FourCycleQuery()
	c4bool := paper.BooleanFourCycle()
	rule := paper.PathRule()
	c4ins := newRelabeling(seed, c4Dom).instance(randomInstance(rng, &c4.Schema, c4Rows, c4Dom))
	return []execItem{
		{name: "tri-full", q: tri, mode: plan.ModeAuto,
			ins: newRelabeling(seed, triDom).instance(randomInstance(rng, &tri.Schema, triRows, triDom))},
		// Example 1.10's adversarial input: any single tree plan is quadratic.
		{name: "c4-bool-worst", q: c4bool, mode: plan.ModeSubw,
			ins: newRelabeling(seed, cycleM).instance(paper.CycleWorstCase(c4bool, cycleM))},
		{name: "c4-fhtw", q: c4, ins: c4ins, mode: plan.ModeFhtw},
		{name: "c4-subw", q: c4, ins: c4ins, mode: plan.ModeSubw},
		// Example 1.8's input for the rule of Example 1.4.
		{name: "path-rule", rule: rule,
			ins: newRelabeling(seed, pathM).instance(paper.PathWorstCase(rule, pathM))},
	}
}

// execLarge makes the engine and the relational kernels do the work: one
// session whose plans were built in set-up, then round-robin evaluation over
// explicit instances. No Stmt is involved, so no result memo can answer;
// the planner contributes a signature hit per operation.
type execLarge struct {
	db      *panda.DB
	items   []execItem
	first   []firstSeen
	planner *plan.Planner // traced replay only
}

func buildExecLarge(seed int64, o buildOpts) (workload, error) {
	w := &execLarge{db: panda.Open(), items: execItems(seed)}
	w.first = make([]firstSeen, len(w.items))
	// The first round plans every shape (cold); the rest warm the mix.
	for i := 0; i < o.warmup(16)*w.cycle(); i++ {
		if w.op(0, i, nil).failed {
			return nil, fmt.Errorf("exec-large: warm-up operation %d failed", i)
		}
	}
	if o.tr != nil {
		// The replayed chain plans through a planner of its own; warm it too,
		// into a scratch trace, so the traced phase starts from cache hits
		// exactly as the untraced one does.
		w.planner = plan.NewPlanner(0)
		scratch := newTracer()
		for i := 0; i < w.cycle(); i++ {
			if w.op(0, i, scratch).failed {
				return nil, fmt.Errorf("exec-large: replay of operation %d disagrees with the facade", i)
			}
		}
	}
	return w, nil
}

func (w *execLarge) clients() int    { return 1 }
func (w *execLarge) cycle() int      { return len(w.items) }
func (w *execLarge) close()          { w.db.Close() }
func (w *execLarge) afterOp(*tracer) {}

func (w *execLarge) op(_, i int, tr *tracer) outcome {
	k := i % len(w.items)
	it := w.items[k]
	var res *panda.Result
	var err error
	switch {
	case tr == nil && it.q != nil:
		res, err = w.db.Eval(it.q, it.ins, nil, panda.WithMode(it.mode))
	case tr == nil:
		res, err = w.db.EvalRule(it.rule, it.ins, nil)
	case it.q != nil:
		res, err = replayConjunctive(tr, it.q, it.ins, nil, it.mode, w.planner)
	default:
		res, err = replayRule(tr, it.rule, it.ins, nil)
	}
	if err != nil {
		return outcome{failed: true}
	}
	return outcome{failed: !timedCheck(tr, &w.first[k], res)}
}

func (w *execLarge) verify() verdict {
	v := verdict{checked: len(w.first)}
	for k, f := range w.first {
		it := w.items[k]
		if err := checkResult(it.q, it.rule, it.ins, f.res); err != nil {
			v.fail(fmt.Errorf("exec-large %s: %v", it.name, err))
		}
	}
	return v
}

func (w *execLarge) counters(traced bool) (counters, error) {
	if traced {
		return counters{planner: w.planner.Stats()}, nil
	}
	return counters{planner: w.db.PlannerStats()}, nil
}
