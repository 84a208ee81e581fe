package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"panda/internal/bitset"
	"panda/internal/flow"
	"panda/internal/plan"
	"panda/internal/query"
	"panda/internal/relation"
	"panda/internal/yannakakis"
)

// Executor runs the data-dependent phase of prepared plans — conjunctive
// plans and a disjunctive rule's ModeRule plan through the one Execute. It is
// the context-first execution surface of the engine: an Executor is configured
// once (parallelism, data partitioning, plus the engine tunables in
// Options) and reused across runs, and every run takes a context.Context
// that is checked between proof steps, between rule executions, and between
// Yannakakis passes — a cancelled or expired context aborts the run
// promptly with ctx.Err().
//
// When Parallelism > 1, independent work fans out across a bounded worker
// pool: the per-bag (ModeFhtw) and per-transversal (ModeSubw) rule
// executions, the per-partition executions of a single rule when Partitions
// > 1, and the final per-decomposition Yannakakis passes of ModeSubw (they
// are independent unions). The pool size is chosen per plan by a cost model
// — task count × 2^width × total input cardinality — so cheap plans skip
// the pool entirely. The fan-out is deterministic: results are merged in
// rule-index-then-partition-index order (and decomposition-index order for
// the Yannakakis passes), so the output relation, OK answer, Width and
// Stats (including the operator trace) are byte-identical to a sequential
// run of the same configuration. The first genuine error cancels the
// sibling executions.
//
// When Partitions > 1 (or the instance's relations carry partition hints),
// a single rule execution's data is hash-split into co-partitioned
// sub-instances (query.PartitionInstance): atoms covering the partition key
// are partitioned, the rest are replicated, and the rule runs once per
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
	// partitions. 0 (the default) consults the instance relations'
	// recorded partition hints; 1 forces unpartitioned execution even
	// when hints are present.
	Partitions int
	// Opt tunes every PANDA rule execution (trace, invariant checks,
	// budget ablation).
	Opt Options
}

// ExecuteRule runs the data-dependent phase of one prepared disjunctive
// rule over an instance: the proof sequence is interpreted step by step by
// the PANDA engine, with the constraint set bound to the instance's
// relations as guards, checking ctx between steps. The prepared rule is not
// mutated, so one rule may be executed concurrently by many goroutines.
func (ex *Executor) ExecuteRule(ctx context.Context, s *query.Schema, pr *plan.PreparedRule, cons []query.DegreeConstraint, ins *query.Instance) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(ins.Relations) != len(s.Atoms) {
		return nil, fmt.Errorf("core: instance has %d relations for %d atoms", len(ins.Relations), len(s.Atoms))
	}
	if pr.Trivial {
		return trivialResult(), nil
	}
	stats := newStats()
	var timings *Timings
	if ex.Opt.StageTimings {
		timings = newTimings()
	}
	e := &engine{
		ctx:     ctx,
		n:       s.NumVars,
		targets: dedupeSets(pr.Targets),
		objLog:  pr.Bound,
		opt:     ex.Opt,
		stats:   stats,
		timings: timings,
		schema:  s,
	}
	e.objFloat, _ = pr.Bound.Float64()
	// Initial frame: constraints with their guards; supports for the δ
	// coordinates pick the smallest bound among matching constraints.
	f := &frame{
		cons:    make([]rtCon, len(cons)),
		support: map[flow.Pair]int{},
		lambda:  pr.Lambda.Clone(),
		delta:   pr.Delta.Clone(),
		seq:     pr.Seq,
	}
	for i, c := range cons {
		if c.Guard < 0 || c.Guard >= len(ins.Relations) {
			return nil, fmt.Errorf("core: constraint on %v lacks a guard atom", c.Y)
		}
		f.cons[i] = rtCon{x: c.X, y: c.Y, logN: c.LogN, guard: ins.Relations[c.Guard]}
		f.cons[i].nFloat, _ = c.LogN.Float64()
	}
	for p0 := range f.delta {
		for i, c := range f.cons {
			if c.x == p0.X && c.y == p0.Y {
				f.setSupport(p0, i, f.cons)
			}
		}
		if _, ok := f.support[p0]; !ok {
			return nil, fmt.Errorf("core: initial δ%v has no matching constraint", p0)
		}
	}
	tables, err := e.run(f)
	if err != nil {
		return nil, err
	}
	// Present every target, empty when no subproblem delivered it.
	for _, b := range e.targets {
		if _, ok := tables[b]; !ok {
			tables[b] = relation.New(fmt.Sprintf("T_%s", s.VarLabel(b)), b)
		}
	}
	return &Result{Tables: tables, Bound: pr.Bound, Stats: stats, Timings: timings}, nil
}

// executePartitionedRule runs one prepared rule once per co-partitioned
// sub-instance through the worker pool and merges the per-partition model
// tables and stats in partition-index order. The union of per-partition
// models is a model of the full instance (every satisfying assignment lands
// in exactly one partition), so the merged Result obeys the same contract
// as a single ExecuteRule call.
func (ex *Executor) executePartitionedRule(ctx context.Context, s *query.Schema, pr *plan.PreparedRule, cons []query.DegreeConstraint, subs []*query.Instance) (*Result, error) {
	ress := make([]*Result, len(subs))
	bound, _ := pr.Bound.Float64()
	workers := ex.poolSize(len(subs), fanoutCost(len(subs), bound, subs[0]))
	err := ex.forEach(ctx, workers, len(subs), func(cctx context.Context, j int) error {
		res, err := ex.ExecuteRule(cctx, s, pr, cons, subs[j])
		if err != nil {
			return err
		}
		ress[j] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return mergeRuleResults(pr, ress), nil
}

// mergeRuleResults folds per-partition rule results in partition order into
// one Result (set-semantics table unions, stats and timings accumulated).
func mergeRuleResults(pr *plan.PreparedRule, ress []*Result) *Result {
	out := &Result{Tables: map[bitset.Set]*relation.Relation{}, Bound: pr.Bound, Stats: newStats()}
	for _, res := range ress {
		accumulate(out.Stats, res.Stats)
		mergeTables(out.Tables, res.Tables)
		if res.Timings != nil {
			if out.Timings == nil {
				out.Timings = newTimings()
			}
			out.Timings.Accumulate(res.Timings)
		}
	}
	return out
}

// Execute runs the data-dependent phase of a prepared plan over an
// instance — every mode, a disjunctive rule's ModeRule plan included: PANDA
// (Algorithm 1) interprets the plan's proof sequence(s), honoring ctx
// throughout. The plan is treated as immutable: concurrent Execute calls on
// a shared plan are safe.
func (ex *Executor) Execute(ctx context.Context, p *plan.Plan, ins *query.Instance) (*ExecResult, error) {
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

// subInstances materializes the co-partitioned sub-instances one run fans
// out over, or nil for unpartitioned execution. An explicit Partitions
// setting wins; 0 falls back to the partition hints recorded on the
// instance's relations (catalog entries carry them).
func (ex *Executor) subInstances(s *query.Schema, ins *query.Instance) []*query.Instance {
	k := ex.Partitions
	if k == 0 {
		k = query.PartitionHint(ins)
	}
	return query.PartitionInstance(s, ins, k)
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

func (ex *Executor) execute(ctx context.Context, p *plan.Plan, ins *query.Instance) (*ExecResult, error) {
	if len(ins.Relations) != len(p.Schema.Atoms) {
		return nil, fmt.Errorf("core: instance has %d relations for %d atoms",
			len(ins.Relations), len(p.Schema.Atoms))
	}
	// Stage clocks: tick() banks the elapsed wall-clock since the previous
	// tick and restarts the clock; a nil-safe no-op when timings are off.
	var t0 time.Time
	timed := ex.Opt.StageTimings
	tick := func() time.Duration {
		if !timed {
			return 0
		}
		d := time.Since(t0)
		t0 = time.Now()
		return d
	}
	if timed {
		t0 = time.Now()
	}
	// Data-parallel split: subs[j] is the j-th co-partitioned sub-instance;
	// nil means one task per rule over the full instance. Every mode below
	// fans (rule × partition) tasks out through the pool and merges in
	// rule-index-then-partition-index order.
	subs := ex.subInstances(&p.Schema, ins)
	nParts := 1
	if subs != nil {
		nParts = len(subs)
	}
	taskIns := func(j int) *query.Instance {
		if subs == nil {
			return ins
		}
		return subs[j]
	}
	width, _ := p.Width.Float64()

	switch p.Mode {
	case plan.ModeRule:
		// The rule is the whole plan: its model tables are the answer, merged
		// in partition order when the data is split.
		var res *Result
		var err error
		if subs != nil {
			res, err = ex.executePartitionedRule(ctx, &p.Schema, p.Rules[0], p.Cons, subs)
		} else {
			res, err = ex.ExecuteRule(ctx, &p.Schema, p.Rules[0], p.Cons, ins)
		}
		if err != nil {
			return nil, err
		}
		nonEmpty := false
		for _, t := range res.Tables {
			nonEmpty = nonEmpty || t.Size() > 0
		}
		return &ExecResult{NonEmpty: nonEmpty, Tables: res.Tables, Bound: res.Bound, Stats: res.Stats, Timings: res.Timings}, nil

	case plan.ModeFull:
		full := bitset.Full(p.Schema.NumVars)
		ress := make([]*Result, nParts)
		reduced := make([]*relation.Relation, nParts)
		workers := ex.poolSize(nParts, fanoutCost(nParts, width, ins))
		err := ex.forEach(ctx, workers, nParts, func(cctx context.Context, j int) error {
			res, err := ex.ExecuteRule(cctx, &p.Schema, p.Rules[0], p.Cons, taskIns(j))
			if err != nil {
				return err
			}
			ress[j] = res
			// Semijoin reduction with every input removes spurious tuples
			// (Corollary 7.10). The inputs are the full relations — reducing
			// inside the worker is sound because ⋉ distributes over the
			// partition union — so the union of reduced partition tables is
			// exactly the full join.
			reduced[j] = reduceWithInputs(res.Tables[full], ins)
			return nil
		})
		if err != nil {
			return nil, err
		}
		if nParts == 1 {
			res, t := ress[0], reduced[0]
			tm := res.Timings
			if tm != nil {
				tm.RuleFanout = tick()
				tm.Merge = tick()
			}
			return &ExecResult{Out: t, NonEmpty: t.Size() > 0, Tables: res.Tables, Bound: res.Bound, Stats: res.Stats, Timings: tm}, nil
		}
		// Partitioned: merge stats in partition order; the partition outputs
		// are disjoint (each fixes its key's hash bucket), and their union is
		// both the exact join and — the target being the full variable set —
		// the canonical model, so it serves as the run's model table without
		// a serial union of the larger unreduced per-partition tables.
		stats := newStats()
		var tm *Timings
		for _, res := range ress {
			accumulate(stats, res.Stats)
			if res.Timings != nil {
				if tm == nil {
					tm = newTimings()
				}
				tm.Accumulate(res.Timings)
			}
		}
		if tm != nil {
			tm.RuleFanout = tick()
		}
		t := reduced[0]
		for j := 1; j < nParts; j++ {
			t = t.Union(reduced[j])
		}
		if tm != nil {
			tm.Merge = tick()
		}
		tables := map[bitset.Set]*relation.Relation{full: t}
		return &ExecResult{Out: t, NonEmpty: t.Size() > 0, Tables: tables, Bound: ress[0].Bound, Stats: stats, Timings: tm}, nil

	case plan.ModeFhtw:
		td := p.TDs[p.Chosen]
		// The (bag × partition) rules are independent until the Yannakakis
		// pass: execute and semijoin-reduce them through the worker pool
		// (the reduction distributes over the partition union), then merge
		// stats in bag-then-partition order so the outcome matches
		// sequential runs.
		n := len(td.Bags) * nParts
		ress := make([]*Result, n)
		reduced := make([]*relation.Relation, n)
		workers := ex.poolSize(n, fanoutCost(n, width, ins))
		err := ex.forEach(ctx, workers, n, func(cctx context.Context, t int) error {
			bi, pj := t/nParts, t%nParts
			res, err := ex.ExecuteRule(cctx, &p.Schema, p.Rules[bi], p.Cons, taskIns(pj))
			if err != nil {
				return err
			}
			ress[t] = res
			reduced[t] = reduceWithInputs(res.Tables[td.Bags[bi]], ins)
			return nil
		})
		if err != nil {
			return nil, err
		}
		var tm *Timings
		if timed {
			tm = newTimings()
			tm.RuleFanout = tick()
		}
		stats := newStats()
		for _, res := range ress {
			accumulate(stats, res.Stats)
			if tm != nil {
				tm.Accumulate(res.Timings)
			}
		}
		rels := make([]*relation.Relation, len(td.Bags))
		for bi := range td.Bags {
			t := reduced[bi*nParts]
			for pj := 1; pj < nParts; pj++ {
				t = t.Union(reduced[bi*nParts+pj])
			}
			rels[bi] = t
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if p.Free == 0 {
			ok, err := yannakakis.NonEmptyContext(ctx, rels, td.Parent)
			if err != nil {
				return nil, err
			}
			if tm != nil {
				tm.Merge = tick()
			}
			return &ExecResult{NonEmpty: ok, Stats: stats, Timings: tm}, nil
		}
		out, err := yannakakis.JoinContext(ctx, rels, td.Parent)
		if err != nil {
			return nil, err
		}
		if tm != nil {
			tm.Merge = tick()
		}
		return &ExecResult{Out: out, NonEmpty: out.Size() > 0, Stats: stats, Timings: tm}, nil

	case plan.ModeSubw:
		// One rule per inclusion-minimal transversal × one task per
		// partition; the tasks are independent, so they fan out, and their
		// tables are merged in rule-index-then-partition-index order
		// afterwards (set-semantics unions, deterministic).
		n := len(p.Rules) * nParts
		ress := make([]*Result, n)
		workers := ex.poolSize(n, fanoutCost(n, width, ins))
		err := ex.forEach(ctx, workers, n, func(cctx context.Context, t int) error {
			ri, pj := t/nParts, t%nParts
			res, err := ex.ExecuteRule(cctx, &p.Schema, p.Rules[ri], p.Cons, taskIns(pj))
			if err != nil {
				return err
			}
			ress[t] = res
			return nil
		})
		if err != nil {
			return nil, err
		}
		var tm *Timings
		if timed {
			tm = newTimings()
			tm.RuleFanout = tick()
		}
		stats := newStats()
		tables := map[bitset.Set]*relation.Relation{}
		for _, res := range ress {
			accumulate(stats, res.Stats)
			if tm != nil {
				tm.Accumulate(res.Timings)
			}
			mergeTables(tables, res.Tables)
		}
		// Semijoin-reduce every bag table with the full inputs.
		for b, t := range tables {
			tables[b] = reduceWithInputs(t, ins)
		}
		// Evaluate every decomposition whose bags all have tables. The
		// per-decomposition Yannakakis passes are independent unions, so
		// they fan out through the pool too, and are merged in
		// decomposition-index order: the OK answer ORs and the output
		// unions exactly as the sequential loop did.
		type tdPass struct {
			ti   int
			rels []*relation.Relation
		}
		var passes []tdPass
		for ti := range p.TDs {
			rels := make([]*relation.Relation, len(p.TDs[ti].Bags))
			ok := true
			for i, bi := range p.TDBags[ti] {
				t, have := tables[p.Bags[bi]]
				if !have {
					ok = false
					break
				}
				rels[i] = t
			}
			if ok {
				passes = append(passes, tdPass{ti: ti, rels: rels})
			}
		}
		if len(passes) == 0 {
			return nil, fmt.Errorf("core: no tree decomposition fully covered by transversal bags")
		}
		answers := make([]bool, len(passes))
		outs := make([]*relation.Relation, len(passes))
		workers = ex.poolSize(len(passes), fanoutCost(len(passes), width, ins))
		err = ex.forEach(ctx, workers, len(passes), func(cctx context.Context, i int) error {
			td := p.TDs[passes[i].ti]
			if p.Free == 0 {
				ne, err := yannakakis.NonEmptyContext(cctx, passes[i].rels, td.Parent)
				if err != nil {
					return err
				}
				answers[i] = ne
				return nil
			}
			j, err := yannakakis.JoinContext(cctx, passes[i].rels, td.Parent)
			if err != nil {
				return err
			}
			outs[i] = j
			return nil
		})
		if err != nil {
			return nil, err
		}
		var out *relation.Relation
		answer := false
		for i := range passes {
			answer = answer || answers[i]
			if outs[i] == nil {
				continue
			}
			if out == nil {
				out = outs[i]
			} else {
				out = out.Union(outs[i])
			}
		}
		if tm != nil {
			tm.Merge = tick()
		}
		if p.Free == 0 {
			return &ExecResult{NonEmpty: answer, Stats: stats, Timings: tm}, nil
		}
		return &ExecResult{Out: out, NonEmpty: out.Size() > 0, Stats: stats, Timings: tm}, nil
	}
	return nil, fmt.Errorf("core: plan mode %v is not executable", p.Mode)
}

// forEach runs fn(ctx, i) for i in [0, n), sequentially when workers ≤ 1,
// and through a bounded worker pool otherwise. The first genuine error
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
			if err := fn(ctx, i); err != nil {
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
				if err := fn(cctx, i); err != nil {
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
