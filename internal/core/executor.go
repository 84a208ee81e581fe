package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"
	"time"

	"panda/internal/bitset"
	"panda/internal/flow"
	"panda/internal/hypergraph"
	"panda/internal/plan"
	"panda/internal/query"
	"panda/internal/relation"
	"panda/internal/yannakakis"
)

// Executor runs the data-dependent phase of prepared plans. PANDA on one
// disjunctive rule (runRule) is the black box; every plan mode — a rule on
// its own (ModeRule, ExecuteRule) included — is the same pipeline around it
// (Corollaries 7.10, 7.11, 7.13):
//
//  1. run the plan's rules — one task per (rule × co-partitioned
//     sub-instance) — each handing back its model as lists of subproblem
//     tables, unioned nowhere;
//  2. merge the tasks' stats in rule-then-partition order and list each
//     target's tables in that order; then make one pass over each list: a
//     ModeRule plan unions it (a lone table is handed over as it is), and
//     every plan that answers from tree decompositions — ModeFull's one bag
//     included — unions and semijoin-reduces it by the inputs in one
//     relation.Reduce, which drops a PANDA model's spurious rows (Corollary
//     7.10) before it hashes a row into the bag's dedup table;
//  3. join, by Yannakakis, every decomposition of plan.EvalTDs whose bags
//     all have tables, and union the passes' outputs, in decomposition
//     order, in one multiway union — a plan with no decompositions
//     (ModeRule) answers with the tables themselves;
//  4. project onto the free variables.
//
// The modes differ only in what the plan holds: which rules (the full rule,
// one per bag, one per transversal, the rule itself) and which
// decompositions. An Executor is configured once and reused across runs;
// every run takes a context.Context that is checked between proof steps,
// between tasks and between relational operations of a Yannakakis pass — a
// cancelled or expired context aborts the run promptly with ctx.Err().
//
// When Parallelism > 1 the tasks of step 1, the per-bag reductions of step 2
// and the passes of step 3 go through a bounded worker pool, sized per plan
// by a cost model — task count × 2^width × total input cardinality — so
// cheap plans skip the pool entirely. The merges ignore completion order, so
// the output relation, OK answer, Width and Stats (including the operator
// trace) are byte-identical to a sequential run of the same configuration.
// The first genuine error cancels the sibling tasks.
//
// When Partitions > 1 the data is hash-split into co-partitioned
// sub-instances (query.PartitionInstance): atoms covering the partition key
// are partitioned, the rest are replicated, and every rule runs once per
// partition. The merged result is exact — the final output rows, OK answer
// and Width certificate match an unpartitioned run — though intermediate
// model tables and Stats may differ from the K=1 shape (a partitioned proof
// does different, smaller work); for a fixed partition count the run is
// fully deterministic across any parallelism.
//
// The zero value is a valid sequential executor with default Options.
// Executors are stateless between runs and safe for concurrent use.
type Executor struct {
	// Parallelism bounds how many tasks (rule × partition executions,
	// per-decomposition Yannakakis passes) may run concurrently; values
	// ≤ 1 mean sequential execution.
	Parallelism int
	// Partitions splits each rule execution's data into this many hash
	// partitions; values ≤ 1 mean unpartitioned execution.
	Partitions int
	// Opt tunes every PANDA rule execution (trace, invariant checks,
	// budget ablation).
	Opt Options
}

// ExecuteRule runs the data-dependent phase of one prepared disjunctive
// rule over an instance: it is Execute on the rule's one-rule ModeRule plan
// (plan.NewRulePlan, the plan the planner builds for a rule), so the rule
// runs under the executor's Partitions and Parallelism and reports its
// stage timings like any plan. cons is the complete constraint set the rule
// was planned against. The prepared rule is not mutated, so one rule may be
// executed concurrently by many goroutines.
func (ex *Executor) ExecuteRule(ctx context.Context, s *query.Schema, pr *plan.PreparedRule, cons []query.DegreeConstraint, ins *query.Instance) (*ExecResult, error) {
	return ex.Execute(ctx, plan.NewRulePlan(s, cons, pr), ins)
}

// runRule runs PANDA on one rule of a plan: the proof sequence is
// interpreted step by step by the engine, with the constraint set bound to
// the instance's relations as guards, checking ctx between steps. The
// rule's model comes back as a tableFold with a list for every target — a
// target no subproblem delivered lists one empty table — together with the
// run's Stats and Timings (nil unless Options.StageTimings).
func (ex *Executor) runRule(ctx context.Context, s *query.Schema, pr *plan.PreparedRule, cons []query.DegreeConstraint, ins *query.Instance) (tableFold, *Stats, *Timings, error) {
	if pr.Trivial {
		// Section 1.3: an ∅ target is answered by the unit table alone.
		return tableFold{0: {unitRelation()}}, NewStats(), nil, nil
	}
	stats := NewStats()
	var timings *Timings
	if ex.Opt.StageTimings {
		timings = NewTimings()
	}
	e := &engine{
		ctx:     ctx,
		targets: dedupeSets(pr.Targets),
		objLog:  pr.Bound,
		opt:     ex.Opt,
		stats:   stats,
		timings: timings,
		schema:  s,
	}
	e.objFloat, _ = pr.Bound.Float64()
	if len(pr.Zeroed) != len(pr.Seq) {
		return nil, nil, nil, fmt.Errorf("core: rule has %d zero masks for %d proof steps", len(pr.Zeroed), len(pr.Seq))
	}
	// Initial frame: constraints with their guards; supports for the δ
	// coordinates pick the smallest bound among matching constraints.
	f := &frame{
		cons:    make([]rtCon, len(cons)),
		support: map[flow.Pair]int{},
		prog:    &program{lambda: pr.Lambda, delta: pr.Delta, seq: pr.Seq, zeroed: pr.Zeroed},
	}
	for i, c := range cons {
		if c.Guard < 0 || c.Guard >= len(ins.Relations) {
			return nil, nil, nil, fmt.Errorf("core: constraint on %v lacks a guard atom", c.Y)
		}
		f.cons[i] = rtCon{x: c.X, y: c.Y, guard: ins.Relations[c.Guard]}
		f.cons[i].logN, _ = c.LogN.Float64()
	}
	for p0 := range pr.Delta {
		for i, c := range f.cons {
			if c.x == p0.X && c.y == p0.Y {
				f.setSupport(p0, i, f.cons)
			}
		}
		if _, ok := f.support[p0]; !ok {
			return nil, nil, nil, fmt.Errorf("core: initial δ%v has no matching constraint", p0)
		}
	}
	fold, err := e.run(f)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, b := range e.targets {
		if _, ok := fold[b]; !ok {
			var label [48]byte
			name := "T_" + string(b.AppendLabel(label[:0], s.VarNames))
			fold[b] = []*relation.Relation{relation.New(name, b)}
		}
	}
	return fold, stats, timings, nil
}

// Execute runs the data-dependent phase of a prepared plan over an instance
// — the one pipeline of the Executor doc, whatever the plan's mode —
// honoring ctx throughout. The plan is treated as immutable: concurrent
// Execute calls on a shared plan are safe. An operator output past a
// relation's limits fails the run with relation.ErrTooManyRows or
// ErrTooManyValues (relation.RecoverLimit, deferred here and in every task).
func (ex *Executor) Execute(ctx context.Context, p *plan.Plan, ins *query.Instance) (_ *ExecResult, err error) {
	defer relation.RecoverLimit(&err)
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res, err := ex.execute(ctx, p, ins)
	if err != nil {
		return nil, err
	}
	res.Width, res.Mode = p.Width, p.Mode
	return res, nil
}

// fanoutCost estimates the work of one fan-out in row-units for the pool
// cost model: task count × 2^width × total input cardinality. The width
// exponent is clamped so adversarial certificates cannot overflow.
func fanoutCost(nTasks int, widthLog float64, ins *query.Instance) float64 {
	rows := 0
	for _, r := range ins.Relations {
		rows += r.Size()
	}
	if widthLog > 40 {
		widthLog = 40
	}
	if widthLog < 0 {
		widthLog = 0
	}
	return float64(nTasks) * math.Exp2(widthLog) * float64(rows)
}

// parallelCostFloor is the fan-out cost (see fanoutCost) below which the
// pool is skipped: scheduling goroutines for a plan this cheap costs more
// than it saves. Results are identical either way — the pool size never
// affects the deterministic merge.
const parallelCostFloor = 1 << 15

// poolSize picks the worker count for a fan-out of n tasks whose estimated
// cost is cost: sequential when parallelism is off, the fan-out is trivial,
// or the cost model says the plan is too cheap to amortize the pool.
func (ex *Executor) poolSize(n int, cost float64) int {
	if ex.Parallelism <= 1 || n <= 1 || cost < parallelCostFloor {
		return 1
	}
	if ex.Parallelism < n {
		return ex.Parallelism
	}
	return n
}

// execute is the pipeline of the Executor doc; the numbered comments below
// are its steps.
func (ex *Executor) execute(ctx context.Context, p *plan.Plan, ins *query.Instance) (*ExecResult, error) {
	if len(ins.Relations) != len(p.Schema.Atoms) {
		return nil, fmt.Errorf("core: instance has %d relations for %d atoms",
			len(ins.Relations), len(p.Schema.Atoms))
	}
	// Stage clocks: tick() banks the elapsed wall-clock since the previous
	// tick and restarts the clock; no clock calls when timings are off.
	var t0 time.Time
	timed := ex.Opt.StageTimings
	tick := func() time.Duration {
		d := time.Since(t0)
		t0 = time.Now()
		return d
	}
	if timed {
		t0 = time.Now()
	}
	tds := p.EvalTDs()
	width, _ := p.Width.Float64()

	// (1) One task per (rule × sub-instance), each handing back its model as
	// lists of subproblem tables, merged in rule-then-partition order whatever
	// order the pool ran the tasks in: stats and trace concatenate, as the
	// lists of tables do.
	fold, stats, timings, err := ex.runRules(ctx, p, ins, width)
	if err != nil {
		return nil, err
	}
	out := &ExecResult{Stats: stats, Timings: timings}
	if timed {
		out.Timings.RuleFanout = tick()
	}

	// (2) A ModeRule plan (no decompositions) answers with its rule's model,
	// the union of each target's list; every other plan reduces each bag's
	// list by the inputs.
	var tables map[bitset.Set]*relation.Relation
	if len(tds) == 0 {
		tables = fold.union()
		out.Tables = tables
	} else if tables, err = ex.reduceBags(ctx, fold, ins, width); err != nil {
		return nil, err
	}
	out.Bound = p.Bound()

	// (3) No decompositions: the tables are the answer. Otherwise every
	// decomposition whose bags all have tables gets its Yannakakis pass; the
	// passes are independent, so they go through the pool too and are merged
	// in decomposition order (the Boolean answer ORs, the outputs union once).
	if len(tds) == 0 {
		for _, tb := range tables {
			out.NonEmpty = out.NonEmpty || tb.Size() > 0
		}
	} else {
		var passes []*hypergraph.Decomposition
		var rels [][]*relation.Relation
		for _, td := range tds {
			bagRels := make([]*relation.Relation, 0, len(td.Bags))
			for _, b := range td.Bags {
				if tb, ok := tables[b]; ok {
					bagRels = append(bagRels, tb)
				}
			}
			if len(bagRels) == len(td.Bags) {
				passes, rels = append(passes, td), append(rels, bagRels)
			}
		}
		if len(passes) == 0 {
			return nil, fmt.Errorf("core: no tree decomposition fully covered by transversal bags")
		}
		answers := make([]bool, len(passes))
		outs := make([]*relation.Relation, len(passes))
		err = ex.forEach(ctx, ex.poolSize(len(passes), fanoutCost(len(passes), width, ins)), len(passes), func(cctx context.Context, i int) (err error) {
			if p.Free == 0 {
				answers[i], err = yannakakis.NonEmptyContext(cctx, rels[i], passes[i].Parent)
			} else {
				outs[i], err = yannakakis.JoinContext(cctx, rels[i], passes[i].Parent)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		for _, ok := range answers {
			out.NonEmpty = out.NonEmpty || ok
		}
		if p.Free != 0 {
			out.Out = outs[0].Union(outs[1:]...)
		}
		// (4) The decompositions cover every variable; the answer is over
		// the free ones.
		if out.Out != nil {
			if p.Free != out.Out.Attrs() {
				out.Out = out.Out.Project(p.Free)
			}
			out.NonEmpty = out.Out.Size() > 0
		}
	}
	if timed {
		out.Timings.Merge = tick()
	}
	return out, nil
}

// runRules is step 1: one PANDA run per (rule × co-partitioned sub-instance),
// through the pool. It returns, target by target, the runs' lists of tables
// concatenated in rule-then-partition order — together a model of the full
// instance, since every satisfying assignment lands in exactly one partition
// — and their Stats and Timings merged in the same order.
func (ex *Executor) runRules(ctx context.Context, p *plan.Plan, ins *query.Instance, width float64) (tableFold, *Stats, *Timings, error) {
	subs := query.PartitionInstance(&p.Schema, ins, ex.Partitions)
	if subs == nil {
		subs = []*query.Instance{ins}
	}
	n := len(p.Rules) * len(subs)
	folds := make([]tableFold, n)
	stats := make([]*Stats, n)
	times := make([]*Timings, n)
	err := ex.forEach(ctx, ex.poolSize(n, fanoutCost(n, width, ins)), n, func(cctx context.Context, t int) (err error) {
		folds[t], stats[t], times[t], err = ex.runRule(cctx, &p.Schema, p.Rules[t/len(subs)], p.Cons, subs[t%len(subs)])
		return err
	})
	if err != nil {
		return nil, nil, nil, err
	}
	fold, merged := tableFold{}, NewStats()
	var timings *Timings
	if ex.Opt.StageTimings {
		timings = NewTimings()
	}
	for t, f := range folds {
		fold.add(f)
		merged.Accumulate(stats[t])
		if timings != nil {
			timings.Accumulate(times[t])
		}
	}
	return fold, merged, timings, nil
}

// reduceBags is Corollary 7.10's reduction: each bag's tables, from every
// rule and partition, are unioned and semijoin-reduced by the inputs sharing
// an attribute with the bag in one relation.Reduce, which drops a PANDA
// model's spurious rows before it hashes a row into the bag's dedup table.
// The sides are the full inputs, which is sound for a partitioned run too (⋉
// distributes over ∪); an empty input sharing nothing with the bag empties Q,
// and is a side so that it drops every row. The bags go through the pool
// under the same cost model as the runs.
func (ex *Executor) reduceBags(ctx context.Context, fold tableFold, ins *query.Instance, width float64) (map[bitset.Set]*relation.Relation, error) {
	bags := slices.Sorted(maps.Keys(fold))
	reduced := make([]*relation.Relation, len(bags))
	err := ex.forEach(ctx, ex.poolSize(len(bags), fanoutCost(len(bags), width, ins)), len(bags), func(_ context.Context, i int) error {
		b := bags[i]
		sides := make([]*relation.Relation, 0, len(ins.Relations))
		for _, r := range ins.Relations {
			if b.Intersect(r.Attrs()) != 0 || r.Size() == 0 {
				sides = append(sides, r)
			}
		}
		reduced[i] = relation.Reduce(b, fold[b], sides...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	tables := make(map[bitset.Set]*relation.Relation, len(bags))
	for i, b := range bags {
		tables[b] = reduced[i]
	}
	return tables, nil
}

// forEach runs fn(ctx, i) for i in [0, n), sequentially when workers ≤ 1,
// and through a bounded worker pool otherwise. A task that passes a
// relation's limits fails with the error (relation.RecoverLimit), in a worker
// goroutine as on the caller's. The first genuine error
// cancels the sibling executions; the error returned is deterministic — the
// lowest-index genuine failure wins over the cancellations it propagated,
// and the parent context's error wins when the run as a whole was cancelled
// from outside.
func (ex *Executor) forEach(ctx context.Context, workers, n int, fn func(ctx context.Context, i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := runTask(ctx, i, fn); err != nil {
				return err
			}
		}
		return nil
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	idx := make(chan int)
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				if err := cctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				if err := runTask(cctx, i, fn); err != nil {
					errs[i] = err
					cancel()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if first == nil {
			first = err
		}
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return first
}

// runTask runs one task of forEach, recovering a limit panic into its error.
func runTask(ctx context.Context, i int, fn func(ctx context.Context, i int) error) (err error) {
	defer relation.RecoverLimit(&err)
	return fn(ctx, i)
}
