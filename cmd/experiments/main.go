// Command experiments regenerates and checks every table and figure of the
// paper's evaluation content. Each experiment is one entry of the registry
// below: its name is the command-line argument, its label the paper's own
// (Table 1, Figure 9, Example 7.4, Theorem 1.3, Lemma 4.4, …), and its run
// function prints the paper's value next to the measured one and records
// every disagreement. The command, TestExperiments and BenchmarkExperiments
// (main_test.go) all read the one registry.
//
// Usage:
//
//	experiments [table1|fig1|fig3|fig4|fig9|ex12|ex18|ex110|ex74|ex78|th13|l44|l45|all]
//
// The command exits 1 when any experiment disagrees with the paper. ex74 is
// the one slow entry: its C6 member solves 174 exact LPs, about 8.5 s on a
// 2-vCPU machine; the others take about 2.5 s together.
package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/big"
	"os"
	"strings"
	"time"

	"panda"
	"panda/internal/baseline"
	"panda/internal/bitset"
	"panda/internal/bounds"
	"panda/internal/entropy"
	"panda/internal/flow"
	"panda/internal/hypergraph"
	"panda/internal/plan"
	"panda/internal/query"
	"panda/internal/setfunc"
	"panda/internal/widths"
	"panda/internal/workload"
)

// experiment is one table, figure, example, theorem or lemma of the paper.
type experiment struct {
	name  string // the command-line name
	label string // the paper's label
	slow  bool   // too slow for the unit test (TestExperiments skips it)
	run   func(w io.Writer, c *checks)
}

var experiments = []experiment{
	{"table1", "Table 1", false, table1},
	{"fig1", "Figure 1", false, fig1},
	{"fig3", "Figure 3", false, fig3},
	{"fig4", "Figure 4", false, fig4},
	{"fig9", "Figure 9", false, fig9},
	{"ex12", "Example 1.2", false, ex12},
	{"ex18", "Example 1.8", false, ex18},
	{"ex110", "Example 1.10", false, ex110},
	{"ex74", "Example 7.4", true, ex74},
	{"ex78", "Example 7.8", false, ex78},
	{"th13", "Theorem 1.3", false, th13},
	{"l44", "Lemma 4.4", false, l44},
	{"l45", "Lemma 4.5", false, l45},
}

func main() {
	which := "all"
	if len(os.Args) > 1 {
		which = os.Args[1]
	}
	ran, failed := 0, 0
	names := make([]string, 0, len(experiments))
	for _, e := range experiments {
		names = append(names, e.name)
		if which != "all" && which != e.name {
			continue
		}
		ran++
		fmt.Printf("\n================ %s ================\n", e.name)
		t0 := time.Now()
		if err := e.exec(os.Stdout); err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "%s (%s) FAILED:\n%v\n", e.name, e.label, err)
		}
		fmt.Printf("[%s done in %v]\n", e.name, time.Since(t0).Round(time.Millisecond))
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "usage: experiments [%s|all]\n", strings.Join(names, "|"))
		os.Exit(2)
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// checks collects an experiment's disagreements with the paper.
type checks []error

// that records a disagreement unless ok.
func (c *checks) that(ok bool, format string, a ...any) {
	if !ok {
		*c = append(*c, fmt.Errorf(format, a...))
	}
}

// rat records a disagreement unless got is the paper's value want ("43/11").
func (c *checks) rat(what string, got *big.Rat, want string) {
	w, _ := new(big.Rat).SetString(want)
	c.that(got.Cmp(w) == 0, "%s = %s, paper %s", what, got.RatString(), want)
}

// aborted carries the error of a library call that failed on an
// experiment's fixed inputs, which only a bug can make it do; exec reports
// it as the experiment's error.
type aborted struct{ err error }

// stop aborts the running experiment when err is set.
func stop(err error) {
	if err != nil {
		panic(aborted{err})
	}
}

// must returns v, aborting the running experiment when err is set.
func must[T any](v T, err error) T {
	stop(err)
	return v
}

// exec runs e, printing to w, and returns its disagreements with the paper
// or the error that aborted it.
func (e experiment) exec(w io.Writer) (err error) {
	var c checks
	defer func() {
		if r := recover(); r != nil {
			a, ok := r.(aborted)
			if !ok {
				panic(r)
			}
			c = append(c, a.err)
		}
		err = errors.Join(c...)
	}()
	e.run(w, &c)
	return nil
}

// pathDCs are Example 1.4's constraints |R12|, |R23|, |R34| ≤ N (log N = 1).
func pathDCs() []flow.DC {
	one := big.NewRat(1, 1)
	return []flow.DC{
		{X: 0, Y: bitset.Of(0, 1), LogN: one},
		{X: 0, Y: bitset.Of(1, 2), LogN: one},
		{X: 0, Y: bitset.Of(2, 3), LogN: one},
	}
}

// c4Cards are the 4-cycle's cardinalities |R| ≤ N with log N = 1.
func c4Cards(q *panda.Query) []panda.Constraint {
	var dcs []panda.Constraint
	for i, a := range q.Atoms {
		dcs = append(dcs, panda.Cardinality(a.Vars, 2, i))
	}
	return dcs
}

// table1 regenerates Table 1: bound values and tightness witnesses for the
// representative queries of each cell.
func table1(w io.Writer, c *checks) {
	fmt.Fprintln(w, "Table 1 — entropic vs polymatroid bounds (log N units)")
	// Full CQ, CC: 4-cycle. AGM = polymatroid = 2, tight (instance achieves N²).
	const n = 32
	q := workload.FourCycleQuery()
	ins := workload.AppendixABoundA(q, n)
	rep := must(panda.Bounds(q, ins.CardinalityConstraints(&q.Schema)))
	got := ins.FullJoin().Size()
	fmt.Fprintf(w, "CQ + CC   (C4, N=32): polymatroid = AGM = 2^%v = N²; worst instance |Q| = %d = N² (tight)\n",
		rep.Polymatroid.FloatString(3), got)
	c.rat("C4 polymatroid bound (log₂, N = 32)", rep.Polymatroid, "10")
	c.rat("C4 AGM bound (log₂, N = 32)", rep.AGM, "10")
	c.that(got == n*n, "C4 worst instance has %d rows, paper N² = %d", got, n*n)

	// Full CQ, CC+FD: Zhang–Yeung — polymatroid 4 vs entropic ≤ 43/11.
	poly, ent := zhangYeung(c)
	fmt.Fprintf(w, "CQ + FD   (ZY):      polymatroid = %v, entropic ≤ %v  (NOT tight — Thm 1.3)\n",
		poly.RatString(), ent.RatString())

	// Disjunctive + CC: Example 1.4 — bound 3/2, asymptotically tight.
	res := must(flow.MaximinBound(4, pathDCs(), workload.PathRule().Targets))
	fmt.Fprintf(w, "Rule + CC (Ex 1.4):  polymatroid = %v·logN (entropic-tight; see l44)\n",
		res.Bound.RatString())
	c.rat("Example 1.4 polymatroid bound", res.Bound, "3/2")

	// Disjunctive + identical CC: Lemma 4.5's 8-var rule — 4 vs 330/85.
	_, rule8 := lemma45(c)
	fmt.Fprintf(w, "Rule + CC (L 4.5):   polymatroid ≥ %v vs entropic ≤ 330/85 ≈ 3.882 (NOT tight)\n",
		rule8.RatString())
}

// pathModel runs PANDA on Example 1.4's rule over the N = m worst case and
// checks that its tables are a model no smaller than the counting lower
// bound on a model's size.
func pathModel(c *checks, db *panda.DB, m int, opts ...panda.Option) (res *panda.Result, model, lb int) {
	p := workload.PathRule()
	ins := workload.PathWorstCase(p, m)
	res = must(db.EvalRule(p, ins, nil, opts...))
	model, lb = query.ModelSize(res.Tables), workload.MinModelLowerBound(p, ins)
	c.that(must(ins.IsModel(p, res.Tables)), "N=%d: the tables are not a model of the rule", m)
	c.that(lb <= model, "N=%d: min-model lower bound %d exceeds the model's size %d", m, lb, model)
	return res, model, lb
}

// fig1 regenerates the Figure 1 proof-sequence and operator trace.
func fig1(w io.Writer, c *checks) {
	lp := must(flow.MaximinBound(4, pathDCs(), workload.PathRule().Targets))
	seq := must(flow.ConstructProof(lp.Lambda, lp.Delta, lp.Witness))
	_, err := flow.ValidateProof(lp.Lambda, lp.Delta, seq)
	stop(err)
	db := panda.Open()
	defer db.Close()
	res, model, lb := pathModel(c, db, 16, panda.WithTrace(true))
	fmt.Fprintf(w, "Figure 1 — a proof sequence (%d steps, valid) interpreted as relational operators (N = 16):\n", len(seq))
	for _, line := range res.Stats.Trace {
		fmt.Fprintln(w, "  ", line)
	}
	fmt.Fprintf(w, "steps: %v; model size %d ≤ 2^bound = %.0f·polylog; min-model ≥ %d\n",
		res.Stats.StepsByKind, model, pow2(res.Bound), lb)
}

// fig3 verifies the strict hierarchy Mn ⊊ Γ*n ⊊ Γn ⊊ SAn with explicit
// witnesses.
func fig3(w io.Writer, c *checks) {
	fmt.Fprintln(w, "Figure 3 — Mn ⊊ Γ*n ⊊ Γn ⊊ SAn:")
	u24 := setfunc.New(4)
	for s := bitset.Set(1); s <= bitset.Full(4); s++ {
		u24.Set(s, big.NewRat(int64(min(s.Card(), 2)), 1))
	}
	fmt.Fprintf(w, "  U(2,4) matroid rank: polymatroid %v, modular %v  → Mn ⊊ Γn\n",
		u24.IsPolymatroid(), u24.IsModular())
	c.that(u24.IsPolymatroid() && !u24.IsModular(), "U(2,4) is not a non-modular polymatroid")

	// Figure 5 is a polymatroid on which ZY51, an entropic inequality no
	// Shannon inequality entails, is negative.
	shannon := must(bounds.ShannonEntailed(4, bounds.ZY51(0, 1, 2, 3), nil))
	f5, f6 := setfunc.Figure5(), setfunc.Figure6()
	zy := new(big.Rat)
	for z, coef := range bounds.ZY51(0, 1, 2, 3) {
		zy.Add(zy, new(big.Rat).Mul(coef, f5.At(z)))
	}
	fmt.Fprintf(w, "  ZY51 Shannon-entailed: %v (non-Shannon); ZY51 on Figure 5 = %v < 0 → Γ*n ⊊ Γn\n",
		shannon, zy.RatString())
	fmt.Fprintf(w, "  Figure 5 polymatroid %v, Figure 6 polymatroid %v\n", f5.IsPolymatroid(), f6.IsPolymatroid())
	c.that(!shannon, "ZY51 is entailed by Shannon inequalities alone")
	c.rat("ZY51 on Figure 5", zy, "-1")
	c.that(f5.IsPolymatroid() && f6.IsPolymatroid(), "Figure 5 or Figure 6 is not a polymatroid")

	sa := setfunc.New(3)
	for s := bitset.Set(1); s <= bitset.Full(3); s++ {
		sa.Set(s, big.NewRat(int64(1+s.Card()/3), 1)) // 1 below the full set, 2 on it
	}
	fmt.Fprintf(w, "  pair-cap function: subadditive %v, submodular %v → Γn ⊊ SAn\n",
		sa.IsSubadditive(), sa.IsSubmodular())
	c.that(sa.IsSubadditive() && !sa.IsSubmodular(), "the pair-cap function is not subadditive and non-submodular")
}

// widthsOf computes and checks one graph's widths: the values "tw ghtw fhtw
// subw adw" against the paper's, and Corollary 7.5's 1+tw ≥ ghtw ≥ fhtw ≥
// subw ≥ adw.
func widthsOf(c *checks, name string, h *hypergraph.Hypergraph, want string) *widths.Summary {
	s := must(widths.Summarize(h))
	got := fmt.Sprintf("%d %d %s %s %s", s.TW, s.GHTW, s.FHTW.RatString(), s.Subw.RatString(), s.Adw.RatString())
	c.that(got == want, "%s: tw ghtw fhtw subw adw = %s, paper %s", name, got, want)
	c.that(s.TW+1 >= s.GHTW && big.NewRat(int64(s.GHTW), 1).Cmp(s.FHTW) >= 0 &&
		s.FHTW.Cmp(s.Subw) >= 0 && s.Subw.Cmp(s.Adw) >= 0, "%s: 1+tw ≥ ghtw ≥ fhtw ≥ subw ≥ adw fails", name)
	return s
}

// fig4 computes the classic width hierarchy for a family of graphs.
func fig4(w io.Writer, c *checks) {
	fmt.Fprintln(w, "Figure 4 — width hierarchy (1+tw ≥ ghtw ≥ fhtw ≥ subw ≥ adw):")
	fmt.Fprintf(w, "%-10s %4s %5s %6s %6s %6s\n", "graph", "tw", "ghtw", "fhtw", "subw", "adw")
	for _, g := range []struct {
		name string
		h    *hypergraph.Hypergraph
		want string // tw ghtw fhtw subw adw
	}{
		{"path4", hypergraph.New(4, bitset.Of(0, 1), bitset.Of(1, 2), bitset.Of(2, 3)), "1 1 1 1 1"},
		{"triangle", workload.TriangleQuery().Hypergraph(), "2 2 3/2 3/2 3/2"},
		{"C4", workload.FourCycleQuery().Hypergraph(), "2 2 2 3/2 3/2"},
		{"C5", workload.CycleQuery(5).Hypergraph(), "2 2 2 5/3 3/2"},
		{"K4", hypergraph.New(4, bitset.Of(0, 1), bitset.Of(0, 2), bitset.Of(0, 3),
			bitset.Of(1, 2), bitset.Of(1, 3), bitset.Of(2, 3)), "3 2 2 2 2"},
	} {
		s := widthsOf(c, g.name, g.h, g.want)
		fmt.Fprintf(w, "%-10s %4d %5d %6s %6s %6s\n",
			g.name, s.TW, s.GHTW, s.FHTW.RatString(), s.Subw.RatString(), s.Adw.RatString())
	}
}

// fig9 evaluates the 3-axis bound grid on the 4-cycle and checks the
// partial order along every axis.
func fig9(w io.Writer, c *checks) {
	fmt.Fprintln(w, "Figure 9 — bound grid for C4 (log N = 1 units):")
	q := workload.FourCycleQuery()
	dcs := c4Cards(q)
	rep := must(panda.Bounds(q, dcs))
	sa := must(bounds.Subadditive(4, must(plan.FlowDCs(&q.Schema, dcs))))
	fmt.Fprintf(w, "  LogSizeBound level:  VB=%v  ρ(SA∩CC)=%v  AGM(Γn∩CC)=%v  SA=%v  DAPB=%v\n",
		rep.Vertex.RatString(), rep.IntegralCover.RatString(), rep.AGM.RatString(), sa.RatString(), rep.Polymatroid.RatString())
	for _, v := range []struct {
		what string
		got  *big.Rat
		want string
	}{{"VB", rep.Vertex, "4"}, {"ρ", rep.IntegralCover, "2"}, {"AGM", rep.AGM, "2"}, {"SA", sa, "2"}, {"DAPB", rep.Polymatroid, "2"}} {
		c.rat(v.what, v.got, v.want)
	}
	s := widthsOf(c, "C4", q.Hypergraph(), "2 2 2 3/2 3/2")
	fmt.Fprintf(w, "  Minimaxwidth level:  1+tw=%d  ghtw=%d  fhtw=%v\n", s.TW+1, s.GHTW, s.FHTW.RatString())
	fmt.Fprintf(w, "  Maximinwidth level:  subw=%v  adw=%v\n", s.Subw.RatString(), s.Adw.RatString())
	// Along the bound axis VB ≥ ρ ≥ AGM, with ρ = SA and AGM = DAPB under
	// cardinalities (Proposition 3.2); a width is at most its level's bound.
	c.that(rep.Vertex.Cmp(rep.IntegralCover) >= 0 && rep.IntegralCover.Cmp(rep.AGM) >= 0, "VB ≥ ρ ≥ AGM fails")
	c.that(rep.IntegralCover.Cmp(sa) == 0 && rep.AGM.Cmp(rep.Polymatroid) == 0, "ρ = SA and AGM = DAPB fail")
	c.that(rep.AGM.Cmp(s.FHTW) >= 0, "AGM ≥ fhtw fails")
	fmt.Fprintln(w, "  partial order: VB ≥ ρ = SA ≥ AGM = DAPB ≥ fhtw; 1+tw ≥ ghtw ≥ fhtw ≥ subw ≥ adw")
}

// ex12 reproduces Example 1.2 and Appendix A: the three bounds with their
// tight instances, each of which the instance meets exactly.
func ex12(w io.Writer, c *checks) {
	q := workload.FourCycleQuery()
	const k, d = 8, 3 // N = k² = 64
	const n = k * k
	fmt.Fprintln(w, "Example 1.2 / Appendix A — 4-cycle bounds and tight instances (N = 64):")
	for _, b := range []struct {
		name  string
		ins   *query.Instance
		bound int
	}{
		{"(a) |Q| ≤ N²       ", workload.AppendixABoundA(q, n), n * n},
		{"(c) |Q| ≤ N^{3/2}  ", workload.AppendixABoundC(q, k), k * k * k},
		{"(b) |Q| ≤ D·N^{3/2}", workload.AppendixABoundB(q, k, d), d * k * k * k},
	} {
		got := b.ins.FullJoin().Size()
		fmt.Fprintf(w, "  %s: measured |Q| = %d, bound = %d (ratio %.3f)\n", b.name, got, b.bound, float64(got)/float64(b.bound))
		c.that(got == b.bound, "%s: |Q| = %d, bound %d", b.name, got, b.bound)
	}
}

// ex18 sweeps Example 1.8: PANDA's model size and work vs the N^{3/2} bound.
func ex18(w io.Writer, c *checks) {
	fmt.Fprintln(w, "Example 1.8 — PANDA on T123 ∨ T234 ← R12, R23, R34 (worst-case inputs):")
	fmt.Fprintf(w, "%8s %12s %12s %10s %8s %6s %6s\n", "N", "bound", "model", "lower-bnd", "max-int", "joins", "parts")
	db := panda.Open()
	defer db.Close()
	for _, m := range []int{16, 64, 256, 1024} {
		res, model, lb := pathModel(c, db, m)
		maxInt := res.Stats.MaxIntermediate
		fmt.Fprintf(w, "%8d %12.0f %12d %10d %8d %6d %6d\n",
			m, pow2(res.Bound), model, lb, maxInt, res.Stats.Joins, res.Stats.Partitions)
		c.that(maxInt*maxInt <= m*m*m, "N=%d: max intermediate %d exceeds N^{3/2}", m, maxInt)
	}
}

// ex110 compares the tree-plan baseline with PANDA-subw on the Boolean
// 4-cycle worst case (the paper's headline N² vs N^{3/2}).
func ex110(w io.Writer, c *checks) {
	q := workload.BooleanFourCycle()
	fmt.Fprintln(w, "Example 1.10 — Boolean 4-cycle, adversarial inputs:")
	fmt.Fprintf(w, "%6s %16s %12s %16s %12s %12s %12s\n",
		"m", "tree max-int", "tree time", "panda max-int", "panda time", "m^1.5", "m^2")
	db := panda.Open()
	defer db.Close()
	for _, m := range []int{32, 64, 128, 256} {
		ins := workload.CycleWorstCase(q, m)
		t0 := time.Now()
		_, ansT, st, err := baseline.EvalTreePlan(q, ins, nil)
		stop(err)
		treeTime := time.Since(t0)
		t0 = time.Now()
		res := must(db.Eval(q, ins, nil, panda.WithMode(panda.ModeSubw)))
		pandaTime := time.Since(t0)
		pm := res.Stats.MaxIntermediate
		fmt.Fprintf(w, "%6d %16d %12v %16d %12v %12.0f %12d\n", m, st.MaxIntermediate, treeTime.Round(time.Microsecond),
			pm, pandaTime.Round(time.Microsecond), math.Pow(float64(m), 1.5), m*m)
		c.that(ansT && res.OK, "m=%d: tree plan answered %v, PANDA %v; both must find the cycle", m, ansT, res.OK)
		c.that(st.MaxIntermediate == m*m, "m=%d: tree plan's max intermediate %d, paper m² = %d", m, st.MaxIntermediate, m*m)
		c.that(pm*pm <= m*m*m, "m=%d: PANDA's max intermediate %d exceeds m^{3/2}", m, pm)
	}
}

// ex74 computes the fhtw/subw gap of Example 7.4 (m = 1 family: even
// cycles).
func ex74(w io.Writer, c *checks) {
	fmt.Fprintln(w, "Example 7.4 — fhtw vs subw gap (m=1 family: 2k-cycles; paper: 2m vs m(2−1/k)):")
	fmt.Fprintf(w, "%6s %8s %8s %12s\n", "2k", "fhtw", "subw", "m(2−1/k)")
	for _, k := range []int{2, 3} {
		h := workload.Example74Graph(1, k)
		f, s := must(widths.FHTW(h)), must(widths.Subw(h))
		want := big.NewRat(int64(2*k-1), int64(k))
		fmt.Fprintf(w, "%6d %8s %8s %12s\n", 2*k, f.RatString(), s.RatString(), want.RatString())
		c.rat(fmt.Sprintf("fhtw(C%d)", 2*k), f, "2")
		c.rat(fmt.Sprintf("subw(C%d)", 2*k), s, want.RatString())
	}
	fmt.Fprintln(w, "  (k = 3 solves 174 exact LPs — about 8.5 s of exact arithmetic)")
}

// ex78 computes the degree-aware widths of the 4-cycle (Example 7.8).
func ex78(w io.Writer, c *checks) {
	q := workload.FourCycleQuery()
	dcs := c4Cards(q)
	df, ds := must(panda.DaFhtw(q, dcs)), must(panda.DaSubw(q, dcs))
	fmt.Fprintf(w, "Example 7.8 — da-fhtw(C4) = %v·logN (want 2), da-subw(C4) = %v·logN (want 3/2)\n",
		df.RatString(), ds.RatString())
	c.rat("da-fhtw(C4)", df, "2")
	c.rat("da-subw(C4)", ds, "3/2")
}

// zhangYeung computes and checks Theorem 1.3's two bounds: polymatroid 4
// and entropic 43/11.
func zhangYeung(c *checks) (poly, ent *big.Rat) {
	poly, ent, err := bounds.Theorem13Gap()
	stop(err)
	c.rat("Zhang–Yeung polymatroid bound", poly, "4")
	c.rat("Zhang–Yeung entropic bound", ent, "43/11")
	return poly, ent
}

// th13 prints the Theorem 1.3 gap and its Figure 5 witness.
func th13(w io.Writer, c *checks) {
	poly, ent := zhangYeung(c)
	fmt.Fprintf(w, "Theorem 1.3 — Zhang–Yeung query: polymatroid N^%v vs entropic ≤ N^%v (gap N^%v, amplifiable)\n",
		poly.RatString(), ent.RatString(), new(big.Rat).Sub(poly, ent).RatString())
	// The witness: Figure 5's polymatroid meets every constraint and attains
	// the polymatroid bound.
	f5 := setfunc.Figure5()
	n, dcs := bounds.ZhangYeungQuery()
	for _, dc := range dcs {
		c.that(f5.Cond(dc.Y, dc.X).Cmp(dc.LogN) <= 0, "Figure 5 violates the constraint on (%v | %v)", dc.Y, dc.X)
	}
	top := f5.At(bitset.Full(n))
	fmt.Fprintf(w, "  Figure 5 polymatroid attains h(ABXYC) = %v (ZY51 on it: see fig3)\n", top.RatString())
	c.that(top.Cmp(poly) == 0, "Figure 5 attains %v, the polymatroid bound is %v", top.RatString(), poly.RatString())
}

// l44 demonstrates entropic-bound tightness (Lemma 4.4) two ways: the
// group-system construction for small r, and the counting lower bound on
// min-model size approaching the bound.
func l44(w io.Writer, c *checks) {
	fmt.Fprintln(w, "Lemma 4.4 — entropic bound tightness for Example 1.4's rule:")
	p := workload.PathRule()
	fmt.Fprintf(w, "%6s %10s %14s %14s %8s\n", "m", "|J|", "minmodel ≥", "bound 2^1.5logN", "ratio")
	prev := 0.0
	for _, m := range []int{4, 8, 16, 32} {
		// The bound-achieving distribution is iid uniform: inputs are
		// complete bipartite [m]×[m]; N = m².
		ins := query.NewInstance(&p.Schema)
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				for r := 0; r < 3; r++ {
					ins.Relations[r].Insert([]int64{int64(i), int64(j)})
				}
			}
		}
		lb := workload.MinModelLowerBound(p, ins)
		bound := m * m * m // N^{3/2}
		ratio := math.Log2(float64(lb)) / math.Log2(float64(bound))
		fmt.Fprintf(w, "%6d %10d %14d %14d %8.3f\n", m, ins.FullJoin().Size(), lb, bound, ratio)
		c.that(lb <= bound, "m=%d: min-model lower bound %d exceeds the bound %d", m, lb, bound)
		c.that(ratio > prev, "m=%d: log ratio %.3f does not grow toward 1", m, ratio)
		prev = ratio
	}
	fmt.Fprintln(w, "  log(min-model)/log(bound) → 1: the entropic bound is asymptotically tight.")
	// Group-system construction (Definition 4.2) at r = 6: verify
	// Lemma 4.3's degree formula on a materialized instance.
	g := must(entropy.NewGroupSystem([][]int64{
		{0, 0, 1, 1, 2, 2},
		{0, 1, 0, 1, 0, 1},
	}))
	r01 := must(g.Instance([]bitset.Set{bitset.Of(0, 1)}))[0]
	size := must(g.DegreeFormula(bitset.Of(0, 1), 0)) // |G| / |G₀₁|
	want := must(g.DegreeFormula(bitset.Of(0, 1), bitset.Of(0)))
	deg := r01.Degree(bitset.Of(0, 1), bitset.Of(0))
	fmt.Fprintf(w, "  group system (r=6): |R₀₁| = %d = |G|/|G₀₁| = %v; deg(01|0) measured %d = formula %v\n",
		r01.Size(), size, deg, want)
	c.that(big.NewInt(int64(r01.Size())).Cmp(size) == 0, "|R₀₁| = %d, |G|/|G₀₁| = %v", r01.Size(), size)
	c.that(big.NewInt(int64(deg)).Cmp(want) == 0, "deg(01|0) measured %d, formula %v", deg, want)
}

// lemma45 computes and checks Lemma 4.5's two polymatroid values, each 4
// and above its rule's entropic bound: the 5-variable rule's bound (entropic
// 43/11), and the least 8-variable target under Figure 6, which meets that
// rule's constraints (entropic 330/85 by the identity (64)).
func lemma45(c *checks) (rule5, rule8 *big.Rat) {
	n, dcs, targets := bounds.Lemma45Rule5()
	rule5 = must(flow.MaximinBound(n, dcs, targets)).Bound
	c.rat("the 5-variable rule's polymatroid bound", rule5, "4")
	if err := bounds.Verify64Identity(); err != nil {
		*c = append(*c, err)
	}
	h6 := setfunc.Figure6()
	_, dcs8, targets8 := bounds.Lemma45Rule8()
	for _, dc := range dcs8 {
		c.that(h6.Cond(dc.Y, dc.X).Cmp(dc.LogN) <= 0, "Figure 6 violates the 8-variable rule's constraint on %v", dc.Y)
	}
	for i, b := range targets8 {
		if v := h6.At(b); i == 0 || v.Cmp(rule8) < 0 {
			rule8 = v
		}
	}
	c.rat("Figure 6's least 8-variable target", rule8, "4")
	return rule5, rule8
}

// l45 prints the Lemma 4.5 gaps for disjunctive rules.
func l45(w io.Writer, c *checks) {
	rule5, rule8 := lemma45(c)
	fmt.Fprintf(w, "Lemma 4.5 — 5-var rule: polymatroid = %v vs entropic ≤ 43/11 ≈ 3.909\n", rule5.RatString())
	fmt.Fprintf(w, "  8-var rule (identical |Rᵢ| = N³): Figure-6 witness feasible, min target = %v ≥ 4\n", rule8.RatString())
	fmt.Fprintf(w, "  entropic ≤ 330/85 ≈ 3.882 — identity (64) = 5·(51)+(61)+2·(62)+2·(63) verified exactly\n")
}

func pow2(r *big.Rat) float64 {
	f, _ := r.Float64()
	return math.Pow(2, f)
}
