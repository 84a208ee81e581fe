// Package core implements PANDA (Proof-Assisted eNtropic Degree-Aware), the
// paper's Algorithm 1: a proof sequence for a Shannon flow inequality is
// interpreted step by step as relational operations — submodularity is pure
// bookkeeping, monotonicity is a projection, decomposition is a heavy/light
// degree partition spawning subproblems (Lemma 6.1), and composition is a
// join, guarded by the 2^OBJ budget with Case-4b restarts via inequality
// truncation (Lemma 5.11). The Executor in executor.go lifts PANDA to full
// and Boolean conjunctive queries at the degree-aware fractional-hypertree
// and submodular widths (Corollaries 7.10, 7.11, 7.13 / Theorem 1.9).
//
// Algorithm 1 returns, from a decomposition, "the union of the sub-problems'
// tables", and Theorem 1.7 charges that union nothing. Here it costs one pass:
// the recursion hands lists of tables up (tableFold) — a decomposition step
// concatenates its children's lists and touches no row — and a ModeRule plan
// unions each target's list once, into a relation sized before it is written.
// A plan that answers from tree decompositions does not even union a rule's
// tables on their own: the Executor lists each bag's tables from every rule
// and partition and semijoin-reduces them by the inputs in the same pass
// (Corollary 7.10), so a model row is hashed into a dedup table at most once
// on its way to the answer, however many levels of buckets it came through,
// and never when the inputs drop it.
//
// Executing a plan solves no LP, and does no rational arithmetic per step:
// the bound a subproblem derives from a relation's size is a float64 (see
// rtCon), which holds query.LogOf's dyadic value exactly. Every LP belongs to
// planning (internal/plan), and so does δ's path along a proof sequence: how
// a step moves δ is fixed by its weight, not by the data, so the engine
// follows the masks the plan carries (PreparedRule.Zeroed) instead of keeping
// δ. Only a Case-4b restart needs δ itself; it replays the steps run so far,
// reads the one thing the plan does not carry — a witness of the inequality
// the engine is at — off the steps it has not run yet (flow.WitnessOfProof),
// which prove exactly that inequality, and compiles the truncated child once
// per rule run for every subproblem that reaches it. The package imports no
// simplex, and TestNoSimplexAtRunTime keeps it so.
package core

import (
	"context"
	"fmt"
	"math/big"
	"time"

	"panda/internal/bitset"
	"panda/internal/flow"
	"panda/internal/query"
	"panda/internal/relation"
)

// Stats reports what a PANDA run did; used by the experiment harness to
// regenerate Figure 1 and to validate Theorem 1.7's accounting.
type Stats struct {
	StepsByKind     map[string]int
	Joins           int
	Projections     int
	Partitions      int
	Subproblems     int
	Restarts        int
	BaseCases       int
	MaxIntermediate int
	Trace           []string
}

// NewStats returns the Stats of a run that has done nothing yet.
func NewStats() *Stats { return &Stats{StepsByKind: map[string]int{}} }

// Timings attributes wall-clock time to the stages of one execution:
// planning wait, per-proof-step-kind engine work, the rule fan-out, and the
// post-fan-out merge. Unlike Stats, timings are inherently nondeterministic
// run to run, so they live outside Stats — the byte-identical-merge
// guarantee of parallel execution covers Stats but not Timings. Collection
// is gated by Options.StageTimings; when off, the engine makes no clock
// calls at all.
type Timings struct {
	// PrepareWait is the time the run spent waiting for its plan: a plan-
	// cache hit costs microseconds, a miss pays the LP solves. Filled by
	// the facade (the executor never sees planning).
	PrepareWait time.Duration
	// Steps maps each proof-step kind (submodularity, monotonicity,
	// decomposition, composition) to the engine time it consumed,
	// excluding nested subproblem runs — a child's steps account for
	// themselves.
	Steps map[string]time.Duration
	// RuleFanout is the wall-clock of the rule fan-out phase: every
	// per-bag / per-transversal PANDA run, including pool scheduling, up to
	// the lists of tables and the Stats they hand back, concatenated in
	// rule-then-partition order — the union and reduction of the lists are
	// the merge's. Under parallelism this is wall time, not the sum of
	// per-rule work.
	RuleFanout time.Duration
	// Merge is the wall-clock of the post-fan-out merge: the union and
	// semijoin reduction of each bag's tables, and the Yannakakis passes.
	Merge time.Duration
}

// NewTimings returns the Timings of a run that has spent nothing yet.
func NewTimings() *Timings { return &Timings{Steps: map[string]time.Duration{}} }

// Accumulate folds src into t (per-step sums; stage sums).
func (t *Timings) Accumulate(src *Timings) {
	if src == nil {
		return
	}
	for k, d := range src.Steps {
		t.Steps[k] += d
	}
	t.PrepareWait += src.PrepareWait
	t.RuleFanout += src.RuleFanout
	t.Merge += src.Merge
}

// Seconds flattens the timings into float64 seconds per stage, the shape a
// serving layer exposes (JSON responses, slow-query logs).
func (t *Timings) Seconds() map[string]float64 {
	out := map[string]float64{
		"prepare_wait": t.PrepareWait.Seconds(),
		"rule_fanout":  t.RuleFanout.Seconds(),
		"merge":        t.Merge.Seconds(),
	}
	for k, d := range t.Steps {
		out["step_"+k] = d.Seconds()
	}
	return out
}

// stepTimer attributes wall-clock to one proof-step kind. Recursive step
// handlers (decomposition, Case-4b composition) pause it around the nested
// e.run so child steps are not double-counted. A nil timer (timings
// disabled) makes every method a no-op.
type stepTimer struct {
	e    *engine
	kind string
	t0   time.Time
}

func (e *engine) startStep(kind string) *stepTimer {
	if e.timings == nil {
		return nil
	}
	return &stepTimer{e: e, kind: kind, t0: time.Now()}
}

// pause banks the elapsed segment; resume starts a new one.
func (t *stepTimer) pause() {
	if t != nil {
		t.e.timings.Steps[t.kind] += time.Since(t.t0)
	}
}

func (t *stepTimer) resume() {
	if t != nil {
		t.t0 = time.Now()
	}
}

// Options tunes a PANDA run.
type Options struct {
	// Trace records one line per relational operation in Stats.Trace.
	Trace bool
	// CheckInvariants validates the degree-support invariant and the
	// potential inequality (85) before every step (used by tests; exact
	// rational arithmetic).
	CheckInvariants bool
	// DisableBudget is an ablation switch: Case 4 compositions always
	// join (Case 4b never fires). Outputs remain correct models, but the
	// Theorem 1.7 runtime guarantee is forfeited — on adversarial inputs
	// intermediates blow up to the fhtw regime. Used by the ablation
	// benchmarks.
	DisableBudget bool
	// StageTimings records wall-clock stage timings (per-step-kind engine
	// time, rule fan-out, merge) into ExecResult.Timings.
	// Off by default: the disabled path makes no clock calls.
	StageTimings bool
}

// rtCon is a runtime degree constraint (Z, W, N_{W|Z}) with its guard. Its
// bound log₂ N is a float64: the engine decides Case 4a/4b on floats, and a
// bound it derives from a relation's size is query.Log2's dyadic value, which
// a float64 holds exactly. A bound taken over from the plan's constraints is
// query.LogOf's, the same value, unless a caller built the constraint with a
// rational of its own; that one is rounded to the nearest float64.
type rtCon struct {
	x, y  bitset.Set
	logN  float64
	guard *relation.Relation
}

type engine struct {
	ctx      context.Context
	targets  []bitset.Set
	objLog   *big.Rat
	objFloat float64
	opt      Options
	stats    *Stats
	timings  *Timings // nil unless opt.StageTimings
	schema   *query.Schema
	// restarts holds the Case-4b children compiled in this rule run, by the
	// step that hit them: every subproblem that goes over budget at the same
	// step of the same program restarts into the same child. It dies with
	// the run.
	restarts map[restartSite]*program
}

// program is a proof sequence ready to interpret: the inequality 〈λ,h〉 ≤
// 〈δ,h〉 it proves, its steps, and per step which of the coordinates it
// consumes it leaves at zero (flow.ValidateProof). A rule's program is its
// PreparedRule's; a Case-4b restart compiles a new one. Frames share programs
// and never write to them.
type program struct {
	lambda, delta flow.Vec
	seq           flow.ProofSequence
	zeroed        []uint8
}

// restartSite is a Case-4b restart's key: the composition step, by program
// and index, that went over budget.
type restartSite struct {
	prog *program
	step int
}

// frame is the state of one subproblem: its constraints, the constraint
// supporting each positive coordinate of δ, and how far into its program it
// is. δ itself is not kept — the position in the program fixes it, and the
// program's masks answer all the engine asks of it.
type frame struct {
	cons    []rtCon
	support map[flow.Pair]int // positive δ coordinate → supporting constraint
	prog    *program
	next    int // index in prog.seq of the next step to run
}

const budgetSlack = 1e-6

// tracef records one trace line. Call it under `if e.opt.Trace`: the check
// sits at the call site so that a run without tracing builds no label and
// boxes no argument.
func (e *engine) tracef(format string, args ...interface{}) {
	e.stats.Trace = append(e.stats.Trace, fmt.Sprintf(format, args...))
}

func (e *engine) note(r *relation.Relation) *relation.Relation {
	if r.Size() > e.stats.MaxIntermediate {
		e.stats.MaxIntermediate = r.Size()
	}
	return r
}

func (e *engine) label(s bitset.Set) string {
	if e.schema != nil {
		return e.schema.VarLabel(s)
	}
	return s.String()
}

// setSupport records con as support for pair p if it is better (smaller
// bound) than the current one. The bounds are compared as floats, which is
// exact on the dyadic values of query.Log2: a tie keeps the current support.
func (f *frame) setSupport(p flow.Pair, con int, cons []rtCon) {
	if cur, ok := f.support[p]; ok && cons[cur].logN <= cons[con].logN {
		return
	}
	f.support[p] = con
}

// drop forgets p's support when the step just run left δ_p at zero, which
// the step's mask tells by the given bit.
func (f *frame) drop(zeroed, bit uint8, p flow.Pair) {
	if zeroed&bit != 0 {
		delete(f.support, p)
	}
}

// deltaAfter replays the program's first n steps on a copy of its δ: the δ of
// every frame that has run them. Only a Case-4b restart and the
// CheckInvariants option need δ itself.
func (p *program) deltaAfter(n int) (flow.Vec, error) {
	delta := p.delta.Clone()
	for _, s := range p.seq[:n] {
		if err := s.Apply(delta); err != nil {
			return nil, err
		}
	}
	return delta, nil
}

// checkInvariants verifies the degree-support invariant (Fig. 8) and the
// potential inequality (85) exactly for dyadic bounds: each support's float64
// bound is lifted to a big.Rat by SetFloat64, which loses nothing, and the
// potential is summed in rationals.
func (e *engine) checkInvariants(f *frame) error {
	delta, err := f.prog.deltaAfter(f.next)
	if err != nil {
		return err
	}
	potential := new(big.Rat)
	for p, v := range delta {
		if v.Sign() <= 0 {
			continue
		}
		ci, ok := f.support[p]
		if !ok {
			return fmt.Errorf("core: positive δ%v has no support", p)
		}
		c := f.cons[ci]
		if !c.x.SubsetOf(p.X) || !c.y.SubsetOf(p.Y) || c.y.Minus(c.x) != p.Y.Minus(p.X) {
			return fmt.Errorf("core: support (%v,%v) malformed for %v", c.x, c.y, p)
		}
		if c.guard == nil || !c.y.SubsetOf(c.guard.Attrs()) {
			return fmt.Errorf("core: support for %v has no usable guard", p)
		}
		potential.Add(potential, new(big.Rat).Mul(v, new(big.Rat).SetFloat64(c.logN)))
	}
	budget := new(big.Rat).Mul(f.prog.lambda.L1(), e.objLog)
	if potential.Cmp(budget) > 0 {
		// Allow the slack introduced by dyadic log rounding.
		diff, _ := new(big.Rat).Sub(potential, budget).Float64()
		if diff > budgetSlack {
			return fmt.Errorf("core: potential %v exceeds ‖λ‖·OBJ = %v", potential, budget)
		}
	}
	if l1 := f.prog.lambda.L1(); l1.Sign() <= 0 || l1.Cmp(big.NewRat(1, 1)) > 0 {
		return fmt.Errorf("core: invariant (84) violated: ‖λ‖ = %v", l1)
	}
	return nil
}

// run executes the proof sequence on the given frame, returning per target
// the tables whose union (with those of sibling subproblems) models the rule.
func (e *engine) run(f *frame) (tableFold, error) {
	for {
		// Cancellation is checked between proof steps: each step is one
		// relational operation, so a cancelled context aborts before the
		// next join/projection/partition rather than mid-operation.
		if err := e.ctx.Err(); err != nil {
			return nil, err
		}
		if e.opt.CheckInvariants {
			if err := e.checkInvariants(f); err != nil {
				return nil, err
			}
		}
		// Base case (Algorithm 1, line 1): a relation whose schema is
		// exactly a target.
		for _, b := range e.targets {
			for _, c := range f.cons {
				if c.guard != nil && c.guard.Attrs() == b {
					e.stats.BaseCases++
					if e.opt.Trace {
						e.tracef("base: return %s as T_%s", c.guard.Name, e.label(b))
					}
					return tableFold{b: {c.guard}}, nil
				}
			}
		}
		if f.next == len(f.prog.seq) {
			return e.finish(f)
		}
		step, zeroed := f.prog.seq[f.next], f.prog.zeroed[f.next]
		f.next++
		e.stats.StepsByKind[step.Kind.String()]++
		st := e.startStep(step.Kind.String())
		switch step.Kind {
		case flow.Submodularity:
			err := e.stepSubmodularity(f, step, zeroed)
			st.pause()
			if err != nil {
				return nil, err
			}
		case flow.Monotonicity:
			err := e.stepMonotonicity(f, step, zeroed)
			st.pause()
			if err != nil {
				return nil, err
			}
		case flow.Decomposition:
			return e.stepDecomposition(f, step, zeroed, st)
		case flow.Composition:
			done, out, err := e.stepComposition(f, step, zeroed, st)
			if err != nil {
				return nil, err
			}
			if done {
				return out, nil
			}
		}
	}
}

// finish handles an exhausted proof sequence: by Definition 5.7(4),
// δ_ℓ ≥ λ, so every target with λ_B > 0 holds a supported marginal whose
// guard projects onto the target.
func (e *engine) finish(f *frame) (tableFold, error) {
	for _, b := range e.targets {
		if f.prog.lambda.Get(flow.Marginal(b)).Sign() <= 0 {
			continue
		}
		ci, ok := f.support[flow.Marginal(b)]
		if !ok {
			continue
		}
		g := f.cons[ci].guard
		t := e.note(g.Project(b))
		e.stats.BaseCases++
		if e.opt.Trace {
			e.tracef("finish: return Π_%s(%s) as T_%s", e.label(b), g.Name, e.label(b))
		}
		return tableFold{b: {t}}, nil
	}
	return nil, fmt.Errorf("core: proof sequence exhausted with no deliverable target (λ = %v)", f.prog.lambda)
}

// stepSubmodularity (Case 1): pure bookkeeping — the relation associated
// with h(I|I∩J) becomes associated with h(I∪J|J); same supporting guard.
func (e *engine) stepSubmodularity(f *frame, step flow.Step, zeroed uint8) error {
	i, j := step.A, step.B
	src := flow.Pair{X: i.Intersect(j), Y: i}
	ci, ok := f.support[src]
	if !ok {
		return fmt.Errorf("core: submodularity step %v lacks support for %v", step, src)
	}
	tgt := flow.Pair{X: j, Y: i.Union(j)}
	f.setSupport(tgt, ci, f.cons)
	f.drop(zeroed, 1, src)
	if e.opt.Trace {
		e.tracef("submodularity: %v → %v (guard %s)", src, tgt, f.cons[ci].guard.Name)
	}
	return nil
}

// stepMonotonicity (Case 2): h(Y) → h(X) materializes Π_X(guard).
func (e *engine) stepMonotonicity(f *frame, step flow.Step, zeroed uint8) error {
	x, y := step.A, step.B
	src := flow.Marginal(y)
	ci, ok := f.support[src]
	if !ok {
		return fmt.Errorf("core: monotonicity step %v lacks support for %v", step, src)
	}
	f.drop(zeroed, 1, src)
	if x == 0 {
		// h(Y) → h(∅): the term is discarded; nothing to materialize.
		if e.opt.Trace {
			e.tracef("monotonicity: drop %v", src)
		}
		return nil
	}
	g := f.cons[ci].guard
	p := e.note(g.Project(x))
	e.stats.Projections++
	f.cons = append(f.cons, rtCon{x: 0, y: x, logN: query.Log2(int64(p.Size())), guard: p})
	f.setSupport(flow.Marginal(x), len(f.cons)-1, f.cons)
	if e.opt.Trace {
		e.tracef("monotonicity: %s := Π_%s(%s), |%s| = %d", p.Name, e.label(x), g.Name, p.Name, p.Size())
	}
	return nil
}

// stepDecomposition (Case 3): h(Y) → h(X) + h(Y|X) partitions the guard by
// X-degree (Lemma 6.1) and spawns one subproblem per bucket; their tables are
// handed up target by target, in bucket order, not unioned here.
func (e *engine) stepDecomposition(f *frame, step flow.Step, zeroed uint8, st *stepTimer) (tableFold, error) {
	x, y := step.A, step.B
	src := flow.Marginal(y)
	ci, ok := f.support[src]
	if !ok {
		st.pause()
		return nil, fmt.Errorf("core: decomposition step %v lacks support for %v", step, src)
	}
	g := f.cons[ci].guard
	buckets := partitionByProjDegree(g, y, x)
	e.stats.Partitions++
	if e.opt.Trace {
		e.tracef("decomposition: partition %s by deg(%s|%s) into %d buckets",
			g.Name, e.label(y), e.label(x), len(buckets))
	}
	// Every subproblem goes on with the rest of the same program.
	out := tableFold{}
	for _, b := range buckets {
		bk := b.Rel
		e.stats.Subproblems++
		child := &frame{
			cons:    make([]rtCon, len(f.cons), len(f.cons)+2),
			support: make(map[flow.Pair]int, len(f.support)+2),
			prog:    f.prog,
			next:    f.next,
		}
		copy(child.cons, f.cons)
		for p, c := range f.support {
			child.support[p] = c
		}
		// Replace g by the bucket everywhere it guards a constraint
		// (degrees only shrink on subsets, so every bound stays valid).
		for k := range child.cons {
			if child.cons[k].guard == g {
				child.cons[k].guard = bk
			}
		}
		child.drop(zeroed, 1, src)
		// |Π_X(bucket)| and deg_bucket(Y|X) come with the split.
		child.cons = append(child.cons,
			rtCon{x: 0, y: x, logN: query.Log2(int64(b.Keys)), guard: bk},
			rtCon{x: x, y: y, logN: query.Log2(int64(b.Degree)), guard: bk})
		if x != 0 {
			child.setSupport(flow.Marginal(x), len(child.cons)-2, child.cons)
		}
		child.setSupport(flow.Pair{X: x, Y: y}, len(child.cons)-1, child.cons)
		// The child run accounts for its own steps; the timer only covers
		// this step's partitioning and bucket bookkeeping.
		st.pause()
		res, err := e.run(child)
		st.resume()
		if err != nil {
			st.pause()
			return nil, err
		}
		out.add(res)
	}
	st.pause()
	return out, nil
}

// stepComposition (Case 4): h(X) + h(Y|X) → h(Y). Within budget the join is
// materialized (4a); over budget the inequality is truncated and the proof
// sequence rebuilt (4b).
func (e *engine) stepComposition(f *frame, step flow.Step, zeroed uint8, st *stepTimer) (bool, tableFold, error) {
	x, y := step.A, step.B
	srcX := flow.Marginal(x)
	srcYX := flow.Pair{X: x, Y: y}
	cxi, okX := f.support[srcX]
	cyi, okY := f.support[srcYX]
	if !okX || !okY {
		st.pause()
		return false, nil, fmt.Errorf("core: composition step %v lacks supports (%v:%v, %v:%v)",
			step, srcX, okX, srcYX, okY)
	}
	cx, cy := f.cons[cxi], f.cons[cyi]
	if e.opt.DisableBudget || cx.logN+cy.logN <= e.objFloat+budgetSlack {
		// Case 4a: perform the join T(A_Y) := Π_X(R) ⋈ Π_W(S) with
		// W = cy.y; the support invariant gives X ∪ W = Y.
		defer st.pause()
		r, s := cx.guard, cy.guard
		t := e.note(r.Project(x).Join(s.Project(cy.y)))
		e.stats.Joins++
		if t.Attrs() != y {
			return false, nil, fmt.Errorf("core: join schema %v ≠ %v", t.Attrs(), y)
		}
		f.cons = append(f.cons, rtCon{x: 0, y: y, logN: query.Log2(int64(t.Size())), guard: t})
		f.setSupport(flow.Marginal(y), len(f.cons)-1, f.cons)
		f.drop(zeroed, 1, srcX)
		f.drop(zeroed, 2, srcYX)
		if e.opt.Trace {
			e.tracef("composition: %s := Π_%s(%s) ⋈ Π_%s(%s), |T| = %d",
				t.Name, e.label(x), r.Name, e.label(cy.y), s.Name, t.Size())
		}
		return false, nil, nil
	}
	// Case 4b: the join would blow the budget; truncate and restart. The
	// restart's own steps account for themselves, so the timer stops once
	// the truncated child frame is built.
	if e.opt.Trace {
		e.tracef("composition: skip join on %v (n=%.3f+%.3f > OBJ=%.3f); truncate at %v",
			y, cx.logN, cy.logN, e.objFloat, e.label(y))
	}
	child, err := e.restart(f)
	st.pause()
	if err != nil {
		return false, nil, err
	}
	out, err := e.run(child)
	return true, out, err
}

// restart builds the Case-4b child frame of f, which has just skipped the
// composition step f.next−1: the frame starts the child program of that
// step and carries over the supports of the surviving δ coordinates. The
// child program depends on the step alone, not on the data, so a rule run
// compiles it once (program.truncate) and every sibling subproblem that
// reaches the step over budget shares it.
func (e *engine) restart(f *frame) (*frame, error) {
	e.stats.Restarts++
	if e.stats.Restarts > 10000 {
		return nil, fmt.Errorf("core: too many Case-4b restarts")
	}
	site := restartSite{prog: f.prog, step: f.next - 1}
	child, ok := e.restarts[site]
	if !ok {
		var err error
		if child, err = f.prog.truncate(site.step); err != nil {
			return nil, err
		}
		if e.restarts == nil {
			e.restarts = map[restartSite]*program{}
		}
		e.restarts[site] = child
	}
	support := make(map[flow.Pair]int, len(child.delta))
	for p, v := range child.delta {
		if v.Sign() <= 0 {
			continue
		}
		ci, ok := f.support[p]
		if !ok {
			return nil, fmt.Errorf("core: truncated δ%v lost its support", p)
		}
		support[p] = ci
	}
	return &frame{cons: f.cons, support: support, prog: child}, nil
}

// truncate compiles the Case-4b child of composition step i: the inequality
// a frame is at once it skips the step — λ against δ after it, proved by the
// steps after it — is truncated at the step's Y (Lemma 5.11) with the witness
// read off those steps, and a fresh proof sequence is constructed for what is
// left.
func (p *program) truncate(i int) (*program, error) {
	step := p.seq[i]
	delta, err := p.deltaAfter(i + 1)
	if err != nil {
		return nil, err
	}
	wit, err := flow.WitnessOfProof(delta, p.seq[i+1:])
	if err != nil {
		return nil, fmt.Errorf("core: case 4b witness: %w", err)
	}
	tr, err := flow.Truncate(p.lambda, delta, wit, step.B, step.W)
	if err != nil {
		return nil, fmt.Errorf("core: case 4b truncate: %w", err)
	}
	if tr.Lambda.L1().Sign() <= 0 {
		return nil, fmt.Errorf("core: truncation left no targets (‖λ'‖ = 0)")
	}
	seq, err := flow.ConstructProof(tr.Lambda, tr.Delta, tr.Witness)
	if err != nil {
		return nil, fmt.Errorf("core: case 4b proof: %w", err)
	}
	zeroed, err := flow.ValidateProof(tr.Lambda, tr.Delta, seq)
	if err != nil {
		return nil, fmt.Errorf("core: case 4b proof: %w", err)
	}
	return &program{lambda: tr.Lambda, delta: tr.Delta, seq: seq, zeroed: zeroed}, nil
}

// tableFold is what a run hands back: per target, the model tables its
// subproblems delivered, in the order they ran. Nothing is unioned on the way
// up — a decomposition step appends its children's lists to its own and
// touches no row, the executor does the same across its (rule × partition)
// tasks — and whoever needs one table per target makes one pass over the
// list at the top: a plan without decompositions (ModeRule) calls union,
// a plan that answers from decompositions reduces each bag's list by the
// inputs in the same pass (Executor.reduceBags), so a model row is hashed
// into a dedup table at most once however deep the recursion that produced
// it, and not at all when the inputs drop it. The tables in the lists are
// never written to: a base case returns its guard as it is, and that can be
// an input relation or one of its memoized partitions.
type tableFold map[bitset.Set][]*relation.Relation

// add appends src's lists to f's, target by target.
func (f tableFold) add(src tableFold) {
	for b, ts := range src {
		f[b] = append(f[b], ts...)
	}
}

// union materializes one table per target (relation.Union: a lone table comes
// back by pointer, several become one new relation sized before it is
// written).
func (f tableFold) union() map[bitset.Set]*relation.Relation {
	out := make(map[bitset.Set]*relation.Relation, len(f))
	for b, ts := range f {
		out[b] = ts[0].Union(ts[1:]...)
	}
	return out
}

// partitionByProjDegree partitions R's tuples by the degree bucket of their
// A_X value computed over T = Π_Y(R) (Lemma 6.1 applied to the guard
// relation, keeping R's full schema so it can keep guarding its other
// constraints). Each bucket carries |Π_X| and deg(Y|X) of its part of T.
func partitionByProjDegree(r *relation.Relation, y, x bitset.Set) []relation.DegreeBucket {
	if x == 0 || x == y {
		// Degenerate split: single bucket with the whole relation — one
		// X-value of degree |T| when X = ∅, |T| X-values of degree one when
		// X = Y (and neither when T is empty).
		t := r.Project(y).Size()
		keys, degree := min(t, 1), t
		if x == y {
			keys, degree = t, min(t, 1)
		}
		return []relation.DegreeBucket{{Rel: r.Clone(r.Name + "[all]"), Keys: keys, Degree: degree}}
	}
	return r.SplitByDegree(y, x)
}
