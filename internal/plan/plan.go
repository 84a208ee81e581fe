// Package plan reifies the data-independent half of PANDA as first-class,
// reusable query plans. The paper's evaluation algorithms (Corollaries
// 7.10/7.11/7.13, Theorem 1.9) factor into a planning phase — exact-rational
// LP solves (Lemma 5.2), Shannon-flow proof-sequence construction
// (Theorem 5.9), and tree-decomposition enumeration — and an execution phase
// that interprets the proof sequences over a concrete instance. A Plan
// captures everything the planning phase produces: the chosen tree
// decomposition(s), per-bag fractional edge covers, the PANDA proof sequence
// of every disjunctive rule, and a width certificate (the da-fhtw or da-subw
// value as an exact rational). A disjunctive datalog rule — the object PANDA
// is defined on — is the one-rule plan of ModeRule. core.Executor.Execute
// runs the data-dependent phase against a Plan; a Planner caches Plans in a
// concurrency-safe LRU keyed by a canonical signature of (query shape, free
// variables or rule targets, constraint set), so repeated traffic pays the
// (often exponential-in-query-size) planning cost once. The signature is the
// only key there is: every Prepare computes it (signature.go; the search
// formats no string per candidate ordering, so it costs microseconds) and
// looks it up in one map — nothing is remembered by query text, and nothing
// by install order: a snapshot (persist.go) names its entries by the same
// key, whole cache or a chosen few, which is how a fleet ships one plan.
//
// This package is deliberately data-independent: it never touches
// internal/relation, so internal/core can layer execution on top of it
// without an import cycle.
package plan

import (
	"context"
	"fmt"
	"math/big"
	"strings"

	"panda/internal/bitset"
	"panda/internal/bounds"
	"panda/internal/flow"
	"panda/internal/hypergraph"
	"panda/internal/query"
	"panda/internal/widths"
)

// Mode selects which of the paper's evaluation strategies a Plan encodes.
type Mode int

const (
	// ModeAuto picks ModeFull for full queries; for every other query it
	// commits ModeSubw exactly when da-subw is strictly below da-fhtw (ties
	// go to ModeFhtw, whose single-decomposition execution does strictly
	// less work). It solves the fhtw bag LPs, then walks the transversal
	// LPs only until one reaches da-fhtw, which settles on fhtw.
	ModeAuto Mode = iota
	// ModeFull is PANDA + semijoin reduction (Corollary 7.10); full
	// queries only.
	ModeFull
	// ModeFhtw is the degree-aware fractional-hypertree-width plan
	// (Corollary 7.11): one disjunctive rule per bag of the best tree
	// decomposition.
	ModeFhtw
	// ModeSubw is the degree-aware submodular-width plan (Theorem 1.9 /
	// Corollary 7.13): one disjunctive rule per inclusion-minimal bag
	// transversal.
	ModeSubw
)

// ModeRule is the plan of a disjunctive datalog rule: one PreparedRule over
// the rule's targets, Width = its polymatroid bound. It is not selectable
// for a conjunctive query (ParseMode never yields it); rules enter through
// Planner.PrepareRuleContext.
const ModeRule Mode = -1

func (m Mode) String() string {
	switch m {
	case ModeAuto:
		return "auto"
	case ModeFull:
		return "full"
	case ModeFhtw:
		return "fhtw"
	case ModeRule:
		return "rule"
	case ModeSubw:
		return "subw"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// ParseMode reads the mode spellings of the wire and CLI surfaces ("", auto,
// full, fhtw, subw; case-insensitive). explicit is false only for the empty
// string: "auto" asks for ModeAuto by name, which matters to callers that
// reject any explicit mode on a disjunctive rule.
func ParseMode(s string) (m Mode, explicit bool, err error) {
	switch strings.ToLower(s) {
	case "":
		return ModeAuto, false, nil
	case "auto":
		return ModeAuto, true, nil
	case "full":
		return ModeFull, true, nil
	case "fhtw":
		return ModeFhtw, true, nil
	case "subw":
		return ModeSubw, true, nil
	}
	return 0, false, fmt.Errorf("unknown mode %q (want auto, full, fhtw or subw)", s)
}

// PreparedRule is the reified planning output for one disjunctive datalog
// rule: the polymatroid bound, the λ/δ pair of Lemma 5.2, the proof sequence
// of Theorem 5.9, and the path δ takes along it. Execution only reads it, so a
// PreparedRule may be shared by concurrent executions.
type PreparedRule struct {
	// Targets are the rule heads ⋁ T_B.
	Targets []bitset.Set
	// Trivial marks a rule with an ∅ target, answered by the unit table
	// with no planning at all (Section 1.3).
	Trivial bool
	// Bound is LogSizeBound_{Γn∩HDC}(P) in log₂ units: δ priced at the
	// plan's constraints (priceRule), which is the bound LP's optimum.
	// Prepare and decode both price it; the wire's copy is only checked.
	Bound *big.Rat
	// Lambda, Delta are the scaled witness vectors (‖λ‖₁ = 1).
	Lambda, Delta flow.Vec
	// Seq is the proof sequence interpreted by the execution engine.
	Seq flow.ProofSequence
	// Zeroed is, per step of Seq, which of the coordinates the step consumes
	// it leaves at zero (flow.ValidateProof): all the engine asks of δ, so it
	// does no rational arithmetic per step. It indexes steps, not variables,
	// so every renaming of the rule shares it; it is not encoded — decoding
	// recomputes it by the same replay, which checks the proof.
	Zeroed []uint8
}

// Cover is an exact fractional edge cover of one bag: the classic ρ*(H_B)
// LP (Eq. 33) restricted to the bag, with per-atom weights.
type Cover struct {
	Bag     bitset.Set
	Weights []*big.Rat // aligned with the schema's atoms
	Value   *big.Rat   // ρ*(H_Bag)
}

// Plan is a fully reified query plan: every LP solve, proof sequence and
// decomposition choice made ahead of data. Plans are immutable after
// Prepare; executions must not mutate them.
type Plan struct {
	Mode Mode
	// Key is the canonical signature the plan cache indexes by; set only
	// on a Planner's plans. A direct Prepare plans the same canonical
	// input and leaves it empty.
	Key string
	// Schema and Free identify the query in the caller's variable space
	// (Free is ∅ for a ModeRule plan: its heads are Rules[0].Targets).
	Schema query.Schema
	Free   bitset.Set
	// Cons is the complete, validated constraint set (every atom carries a
	// cardinality constraint; every constraint is guarded).
	Cons []query.DegreeConstraint

	// Bags is the distinct bag universe across all tree decompositions;
	// TDs/TDBags index into it. Nil for ModeFull.
	Bags   []bitset.Set
	TDs    []*hypergraph.Decomposition
	TDBags [][]int
	// Chosen is the index of the selected decomposition (ModeFhtw), −1
	// otherwise.
	Chosen int
	// Transversals are the inclusion-minimal bag transversals driving the
	// ModeSubw rules, as indices into Bags.
	Transversals [][]int

	// Rules holds one prepared rule per execution unit: the single full
	// rule (ModeFull), the disjunctive rule itself (ModeRule), one per
	// chosen-decomposition bag (ModeFhtw), or one per transversal (ModeSubw).
	Rules []*PreparedRule
	// Width is the plan's width certificate in log₂ units, the largest rule
	// bound (priceWidth): the polymatroid bound (ModeFull, ModeRule), the
	// worst-bag bound of the chosen decomposition (da-fhtw, ModeFhtw), or the
	// worst transversal bound (da-subw, ModeSubw).
	Width *big.Rat
}

// BuildStats reports the planning work a Prepare call performed; the plan
// cache uses it to prove that hits skip the LP entirely.
type BuildStats struct {
	LPSolves   int // exact simplex solves (bag and transversal bound LPs; Covers is not counted)
	ProofSteps int // total proof-sequence length across rules
}

// ResolveMode maps ModeAuto to ModeFull for full queries. For non-full
// queries ModeAuto is returned unchanged: the concrete fhtw-vs-subw choice
// is cost-based, made inside Prepare from the width certificates, and the
// cache keys such queries under ModeAuto so the comparison runs once per
// signature.
func ResolveMode(q *query.Conjunctive, mode Mode) Mode {
	if mode == ModeAuto && q.IsFull() {
		return ModeFull
	}
	return mode
}

// validateSchema rejects variables outside the bitset universe before any
// bitmask arithmetic can panic on them.
func validateSchema(s *query.Schema) error {
	if s.NumVars < 0 || s.NumVars > 32 {
		return fmt.Errorf("plan: %d variables exceed the 32-bit set universe", s.NumVars)
	}
	full := bitset.Full(s.NumVars)
	for _, a := range s.Atoms {
		if !a.Vars.SubsetOf(full) {
			return fmt.Errorf("plan: atom %s uses variables %v outside the universe [%d]", a.Name, a.Vars, s.NumVars)
		}
	}
	return nil
}

// validate checks the schema, the head sets (a query's free set, a rule's
// targets) and the constraint guards.
func validate(s *query.Schema, heads []bitset.Set, cons []query.DegreeConstraint) error {
	if err := validateSchema(s); err != nil {
		return err
	}
	if len(heads) == 0 {
		return fmt.Errorf("plan: rule has no targets")
	}
	full := bitset.Full(s.NumVars)
	for _, h := range heads {
		if !h.SubsetOf(full) {
			return fmt.Errorf("plan: head set %v outside the universe [%d]", h, s.NumVars)
		}
	}
	return checkGuards(s, cons)
}

// checkGuards validates every constraint's shape and guard against the
// schema (the schema-level equivalent of core's instance-side checks).
func checkGuards(s *query.Schema, cons []query.DegreeConstraint) error {
	for _, c := range cons {
		if err := c.Validate(s.NumVars); err != nil {
			return err
		}
		if c.Guard < 0 || c.Guard >= len(s.Atoms) {
			return fmt.Errorf("plan: constraint on %v lacks a guard atom", c.Y)
		}
		if !c.Y.SubsetOf(s.Atoms[c.Guard].Vars) {
			return fmt.Errorf("plan: atom %s cannot guard constraint on %v",
				s.Atoms[c.Guard].Name, c.Y)
		}
	}
	return nil
}

// FlowDCs validates degree constraints over s and converts them to the
// flow package's form, the one conversion every bound and plan LP reads.
func FlowDCs(s *query.Schema, dcs []query.DegreeConstraint) ([]flow.DC, error) {
	out := make([]flow.DC, len(dcs))
	for i, c := range dcs {
		if err := c.Validate(s.NumVars); err != nil {
			return nil, err
		}
		out[i] = flow.DC{X: c.X, Y: c.Y, LogN: c.LogN}
	}
	return out, nil
}

// PrepareRule runs the planning phase for a single disjunctive rule:
// polymatroid-bound LP, witness extraction and proof-sequence construction.
// The constraint set must be complete (guarded, with cardinalities); guards
// are validated here so a prepared rule is always executable.
func PrepareRule(s *query.Schema, cons []query.DegreeConstraint, targets []bitset.Set) (*PreparedRule, *BuildStats, error) {
	return PrepareRuleContext(context.Background(), s, cons, targets)
}

// PrepareRuleContext is PrepareRule honoring ctx, checked before the LP solve
// and at each of its pivots. A rule's model follows its proof sequence, so the
// rule is the Planner's: Rules[0] of its plan.
func PrepareRuleContext(ctx context.Context, s *query.Schema, cons []query.DegreeConstraint, targets []bitset.Set) (*PreparedRule, *BuildStats, error) {
	p, bs, err := prepareDirect(ctx, s, targets, cons, ModeRule)
	if err != nil {
		return nil, bs, err
	}
	return p.Rules[0], bs, nil
}

// front opens every planning entry: it checks ctx (nil reads as Background),
// validates the input, so a key only describes a well-formed one, and
// canonicalizes it. heads and mode are as Planner.prepare takes them: a
// rule's targets under ModeRule, else a conjunctive query's one free set.
func front(ctx context.Context, s *query.Schema, heads []bitset.Set, cons []query.DegreeConstraint, mode Mode) (context.Context, *Signature, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return ctx, nil, err
	}
	if mode != ModeRule && len(heads) != 1 {
		// planCanonical would plan the query of heads[0] alone.
		return ctx, nil, fmt.Errorf("plan: mode %v plans a conjunctive query, one free set, not %d heads", mode, len(heads))
	}
	if err := validate(s, heads, cons); err != nil {
		return ctx, nil, err
	}
	sig, err := canonicalize(s, heads, cons, mode)
	return ctx, sig, err
}

// prepareDirect is a Planner miss without the cache. Key stays empty: only a
// Planner, which indexes by it, writes it.
func prepareDirect(ctx context.Context, s *query.Schema, heads []bitset.Set, cons []query.DegreeConstraint, mode Mode) (*Plan, *BuildStats, error) {
	ctx, sig, err := front(ctx, s, heads, cons, mode)
	if err != nil {
		return nil, &BuildStats{}, err
	}
	p, bs, err := planCanonical(ctx, sig, s, heads, cons, mode)
	if err != nil {
		return nil, bs, err
	}
	return p.fromCanonical(sig, s), bs, nil
}

// planCanonical runs the planning phase on the canonical input of sig:
// planQuery for a conjunctive query (heads is its free set), the one-rule
// ModeRule plan for a disjunctive rule (heads are its targets).
func planCanonical(ctx context.Context, sig *Signature, s *query.Schema, heads []bitset.Set, cons []query.DegreeConstraint, mode Mode) (*Plan, *BuildStats, error) {
	cs, heads, cons := canonicalInput(sig, s, heads, cons)
	if mode != ModeRule {
		return planQuery(ctx, &query.Conjunctive{Schema: *cs, Free: heads[0]}, cons, mode)
	}
	bs := &BuildStats{}
	pr, err := prepareRule(ctx, cs, cons, heads, bs)
	if err != nil {
		return nil, bs, err
	}
	return NewRulePlan(cs, cons, pr), bs, nil
}

// NewRulePlan wraps a prepared disjunctive rule over s, planned against the
// complete constraint set cons, as its one-rule ModeRule plan: Width is the
// rule's polymatroid bound. It is the one way a rule becomes a Plan, for the
// planner and core.Executor.ExecuteRule alike. pr is shared, not written.
func NewRulePlan(s *query.Schema, cons []query.DegreeConstraint, pr *PreparedRule) *Plan {
	p := &Plan{
		Mode:   ModeRule,
		Schema: copySchema(s),
		Cons:   append([]query.DegreeConstraint(nil), cons...),
		Chosen: -1,
		Rules:  []*PreparedRule{pr},
	}
	p.priceWidth()
	return p
}

func prepareRule(ctx context.Context, s *query.Schema, cons []query.DegreeConstraint, targets []bitset.Set, bs *BuildStats) (*PreparedRule, error) {
	for _, b := range targets {
		if b == 0 {
			pr := &PreparedRule{Targets: targets, Trivial: true}
			return pr, priceRule(pr, cons)
		}
	}
	fdcs, err := FlowDCs(s, cons)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	bs.LPSolves++
	res, err := flow.MaximinBoundContext(ctx, s.NumVars, fdcs, targets)
	if err != nil {
		return nil, err
	}
	return newPreparedRule(targets, res, cons, bs)
}

// newPreparedRule turns a bound LP solved over cons into an executable rule:
// the proof sequence of Theorem 5.9 is constructed from the LP's witness and
// replayed once for the path δ takes along it, and δ is priced at cons. The
// rule's 1s and 1/2s become the shared values a decoded plan holds
// (shareRat).
func newPreparedRule(targets []bitset.Set, res *flow.MaximinResult, cons []query.DegreeConstraint, bs *BuildStats) (*PreparedRule, error) {
	seq, err := flow.ConstructProof(res.Lambda, res.Delta, res.Witness)
	if err != nil {
		return nil, err
	}
	zeroed, err := flow.ValidateProof(res.Lambda, res.Delta, seq)
	if err != nil {
		return nil, err
	}
	for i := range seq {
		seq[i].W = shareRat(seq[i].W)
	}
	for _, v := range []flow.Vec{res.Lambda, res.Delta} {
		for p, r := range v {
			v[p] = shareRat(r)
		}
	}
	bs.ProofSteps += len(seq)
	pr := &PreparedRule{
		Targets: targets,
		Lambda:  res.Lambda,
		Delta:   res.Delta,
		Seq:     seq,
		Zeroed:  zeroed,
	}
	if err := priceRule(pr, cons); err != nil {
		return nil, err
	}
	return pr, nil
}

// Prepare runs the complete data-independent planning phase for q under the
// given constraint set and returns the reified plan. The constraint set must
// be complete: every constraint guarded by an atom and (for the LP to be
// bounded) every atom carrying a cardinality constraint —
// core.CompleteConstraints derives the latter from an instance.
//
// No instance is consulted: everything here can be cached and amortized
// across executions. The plan is a Planner's plan of q, with Key empty.
func Prepare(q *query.Conjunctive, cons []query.DegreeConstraint, mode Mode) (*Plan, *BuildStats, error) {
	return PrepareContext(context.Background(), q, cons, mode)
}

// PrepareContext is Prepare honoring ctx: cancellation is checked between
// the per-bag and per-transversal LP solves, so an expired context aborts a
// long planning phase between solves rather than after the whole batch.
func PrepareContext(ctx context.Context, q *query.Conjunctive, cons []query.DegreeConstraint, mode Mode) (*Plan, *BuildStats, error) {
	return prepareDirect(ctx, &q.Schema, []bitset.Set{q.Free}, cons, ResolveMode(q, mode))
}

// planQuery plans a validated, canonical query under a resolved mode.
func planQuery(ctx context.Context, q *query.Conjunctive, cons []query.DegreeConstraint, mode Mode) (*Plan, *BuildStats, error) {
	bs := &BuildStats{}
	p := &Plan{
		Mode:   mode,
		Schema: copySchema(&q.Schema),
		Free:   q.Free,
		Cons:   append([]query.DegreeConstraint(nil), cons...),
		Chosen: -1,
	}
	h := q.Hypergraph()
	switch mode {
	case ModeFull:
		if !q.IsFull() {
			return nil, bs, fmt.Errorf("plan: ModeFull needs a full query")
		}
		full := bitset.Full(q.NumVars)
		pr, err := prepareRule(ctx, &p.Schema, cons, []bitset.Set{full}, bs)
		if err != nil {
			return nil, bs, err
		}
		p.Rules = []*PreparedRule{pr}
		p.priceWidth()
		return p, bs, nil
	case ModeFhtw, ModeSubw, ModeAuto:
	default:
		return nil, bs, fmt.Errorf("plan: unknown mode %d", int(mode))
	}

	if !h.CoversAll() {
		return nil, bs, fmt.Errorf("plan: query body does not cover all variables")
	}
	e, err := widths.NewEngine(ctx, h)
	if err != nil {
		return nil, bs, err
	}
	p.TDs, p.Bags, p.TDBags = e.TDs, e.Bags, e.TDBags
	fdcs, err := FlowDCs(&q.Schema, cons)
	if err != nil {
		return nil, bs, err
	}
	solve := func(targets []bitset.Set) (*flow.MaximinResult, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		bs.LPSolves++
		return flow.MaximinBoundContext(ctx, q.NumVars, fdcs, targets)
	}
	bound := func(r *flow.MaximinResult) *big.Rat { return r.Bound }

	// fhtw candidate: one LP per distinct bag; the results double as the
	// rule plans of the chosen decomposition and as the bounds of the subw
	// walk (the simplex is deterministic, so the reuse is
	// behavior-preserving). Proof sequences are constructed, and priced, only
	// for the committed candidate; the comparison reads the LP optima.
	var bagRes []*flow.MaximinResult
	var fhtwWidth *big.Rat
	if mode != ModeSubw {
		if bagRes, err = widths.SolveBags(e, solve); err != nil {
			return nil, bs, err
		}
		p.Chosen, fhtwWidth = widths.Minimax(e, bagRes, bound)
	}

	// subw candidate: one rule per inclusion-minimal bag transversal
	// (Lemma 7.12); the width certificate is the worst rule bound, which is
	// exactly the degree-aware submodular width. da-subw ≤ da-fhtw always, so
	// under ModeAuto subw wins exactly when it is strictly smaller (on ties
	// the fhtw plan executes strictly less work: one decomposition, a single
	// Yannakakis pass), and the walk, by decreasing bound, stops at the
	// first transversal whose LP reaches da-fhtw: no further LP runs.
	if mode != ModeFhtw {
		trs, err := e.Transversals(ctx)
		if err != nil {
			return nil, bs, err
		}
		trRes := make([]*flow.MaximinResult, len(trs))
		subwWidth := new(big.Rat)
		wins := func() bool { return mode == ModeSubw || subwWidth.Cmp(fhtwWidth) < 0 }
		err = widths.Walk(e, trs, bagRes, bound, solve, func(ti int, r *flow.MaximinResult, _ *big.Rat) bool {
			trRes[ti] = r
			if r.Bound.Cmp(subwWidth) > 0 {
				subwWidth = r.Bound
			}
			return wins()
		})
		if err != nil {
			return nil, bs, err
		}
		if wins() {
			p.Mode, p.Chosen, p.Transversals = ModeSubw, -1, trs
			for ti, r := range trRes {
				pr, err := newPreparedRule(widths.Targets(p.Bags, trs[ti]), r, cons, bs)
				if err != nil {
					return nil, bs, err
				}
				p.Rules = append(p.Rules, pr)
			}
		}
	}

	if p.Mode != ModeSubw {
		p.Mode = ModeFhtw
		for i, b := range p.TDs[p.Chosen].Bags {
			pr, err := newPreparedRule([]bitset.Set{b}, bagRes[p.TDBags[p.Chosen][i]], cons, bs)
			if err != nil {
				return nil, bs, err
			}
			p.Rules = append(p.Rules, pr)
		}
	}
	p.priceWidth()
	return p, bs, nil
}

// EvalTDs returns the tree decompositions the plan's answer is assembled
// from — the one mode → decompositions mapping of the system. Execution runs
// the plan's rules and then Yannakakis over every one of these whose bags
// the rules' model tables cover: the one-bag decomposition {[n]} for
// ModeFull (Yannakakis over it is the identity), the chosen decomposition
// for ModeFhtw, every decomposition for ModeSubw, and none for ModeRule,
// whose model tables are the answer.
func (p *Plan) EvalTDs() []*hypergraph.Decomposition {
	switch p.Mode {
	case ModeFull:
		return []*hypergraph.Decomposition{{Bags: []bitset.Set{bitset.Full(p.Schema.NumVars)}, Parent: []int{-1}}}
	case ModeFhtw:
		return p.TDs[p.Chosen : p.Chosen+1]
	case ModeSubw:
		return p.TDs
	}
	return nil
}

// Bound is the polymatroid bound, in log₂ units, of a plan that is one rule
// over the whole query — ModeRule and ModeFull: its one rule's priced bound,
// which is also its Width — and nil for a plan that answers from several
// rules.
func (p *Plan) Bound() *big.Rat {
	if p.Mode == ModeRule || p.Mode == ModeFull {
		return p.Rules[0].Bound
	}
	return nil
}

// Covers computes fractional edge covers for every distinct bag of the
// decompositions the plan answers from (EvalTDs), in first-appearance order.
// Execution never needs them, so they are computed on demand (one small LP
// per bag) rather than in Prepare; the result is not memoized.
func (p *Plan) Covers() ([]Cover, error) {
	h := p.Schema.Hypergraph()
	seen := map[bitset.Set]bool{}
	out := []Cover{}
	for _, td := range p.EvalTDs() {
		for _, b := range td.Bags {
			if seen[b] {
				continue
			}
			seen[b] = true
			value, weights, err := bounds.FractionalCover(h, b, nil)
			if err != nil {
				return nil, err
			}
			out = append(out, Cover{Bag: b, Weights: weights, Value: value})
		}
	}
	return out, nil
}

func copySchema(s *query.Schema) query.Schema {
	return query.Schema{
		NumVars:  s.NumVars,
		VarNames: append([]string(nil), s.VarNames...),
		Atoms:    append([]query.Atom(nil), s.Atoms...),
	}
}
