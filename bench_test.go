// Benchmarks regenerating every table and figure of the paper (the same
// experiments cmd/experiments prints, whose usage line is the index). Each
// benchmark is self-contained; shapes
// (who wins, by what factor) are the reproduction target, not absolute
// times.
package panda

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"runtime"
	"testing"

	"panda/internal/baseline"
	"panda/internal/bitset"
	"panda/internal/bounds"
	"panda/internal/core"
	"panda/internal/entropy"
	"panda/internal/flow"
	"panda/internal/plan"
	"panda/internal/query"
	"panda/internal/setfunc"
	"panda/internal/wcoj"
	"panda/internal/widths"
	"panda/internal/workload"
)

// BenchmarkTable1Bounds computes the Table 1 bound values for the
// representative query of each row (C4 under CC, Zhang–Yeung under CC+FD,
// Example 1.4's rule).
func BenchmarkTable1Bounds(b *testing.B) {
	q := workload.FourCycleQuery()
	ins := workload.AppendixABoundA(q, 32)
	dcs := ins.CardinalityConstraints(&q.Schema)
	p := workload.PathRule()
	pdcs := []flow.DC{
		{X: 0, Y: bitset.Of(0, 1), LogN: big.NewRat(1, 1)},
		{X: 0, Y: bitset.Of(1, 2), LogN: big.NewRat(1, 1)},
		{X: 0, Y: bitset.Of(2, 3), LogN: big.NewRat(1, 1)},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Bounds(q, dcs); err != nil {
			b.Fatal(err)
		}
		if _, _, err := bounds.Theorem13Gap(); err != nil {
			b.Fatal(err)
		}
		if _, err := flow.MaximinBound(4, pdcs, p.Targets); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure1ProofSequence builds and validates the Example 1.8 proof
// sequence (LP → witness → Theorem 5.9 construction).
func BenchmarkFigure1ProofSequence(b *testing.B) {
	dcs := []flow.DC{
		{X: 0, Y: bitset.Of(0, 1), LogN: big.NewRat(1, 1)},
		{X: 0, Y: bitset.Of(1, 2), LogN: big.NewRat(1, 1)},
		{X: 0, Y: bitset.Of(2, 3), LogN: big.NewRat(1, 1)},
	}
	targets := []bitset.Set{bitset.Of(0, 1, 2), bitset.Of(1, 2, 3)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := flow.MaximinBound(4, dcs, targets)
		if err != nil {
			b.Fatal(err)
		}
		seq, err := flow.ConstructProof(res.Lambda, res.Delta, res.Witness)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := flow.ValidateProof(res.Lambda, res.Delta, seq); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3Hierarchy checks the function-class hierarchy witnesses.
func BenchmarkFigure3Hierarchy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h5 := setfunc.Figure5()
		if !h5.IsPolymatroid() {
			b.Fatal("fig5")
		}
		h6 := setfunc.Figure6()
		if !h6.IsPolymatroid() {
			b.Fatal("fig6")
		}
	}
}

// BenchmarkFigure4Widths computes the classic width hierarchy for the
// Figure 4 graph family.
func BenchmarkFigure4Widths(b *testing.B) {
	graphs := []*query.Conjunctive{
		workload.TriangleQuery(),
		workload.FourCycleQuery(),
		workload.CycleQuery(5),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range graphs {
			if _, err := widths.Summarize(q.Hypergraph()); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFigure9Grid evaluates the 3-axis bound grid on the 4-cycle.
func BenchmarkFigure9Grid(b *testing.B) {
	q := workload.FourCycleQuery()
	h := q.Hypergraph()
	one := big.NewRat(1, 1)
	var cc []flow.DC
	logs := make([]*big.Rat, len(h.Edges))
	for i, e := range h.Edges {
		cc = append(cc, flow.DC{X: 0, Y: e, LogN: one})
		logs[i] = one
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bounds.IntegralCoverBound(h, logs); err != nil {
			b.Fatal(err)
		}
		if _, err := bounds.AGM(h, logs); err != nil {
			b.Fatal(err)
		}
		if _, err := bounds.Subadditive(4, cc); err != nil {
			b.Fatal(err)
		}
		if _, err := bounds.Polymatroid(4, cc); err != nil {
			b.Fatal(err)
		}
		if _, err := widths.FHTW(h); err != nil {
			b.Fatal(err)
		}
		if _, err := widths.Subw(h); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExample12Bounds measures the tight-instance constructions of
// Appendix A (output sizes match the three bounds).
func BenchmarkExample12Bounds(b *testing.B) {
	q := workload.FourCycleQuery()
	for i := 0; i < b.N; i++ {
		insA := workload.AppendixABoundA(q, 32)
		if insA.FullJoin().Size() != 32*32 {
			b.Fatal("(a) not tight")
		}
		insC := workload.AppendixABoundC(q, 8)
		if insC.FullJoin().Size() != 8*8*8 {
			b.Fatal("(c) not tight")
		}
	}
}

// BenchmarkExample18PANDA runs PANDA on Example 1.4's rule over worst-case
// inputs of growing size; the work should scale like N^{3/2}.
func BenchmarkExample18PANDA(b *testing.B) {
	p := workload.PathRule()
	for _, m := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("N=%d", m), func(b *testing.B) {
			ins := workload.PathWorstCase(p, m)
			db := Open()
			defer db.Close()
			b.ResetTimer()
			var maxInt int
			for i := 0; i < b.N; i++ {
				res, err := db.EvalRule(p, ins, nil)
				if err != nil {
					b.Fatal(err)
				}
				maxInt = res.Stats.MaxIntermediate
			}
			b.ReportMetric(float64(maxInt), "max-intermediate")
			b.ReportMetric(math.Pow(float64(m), 1.5), "N^1.5")
		})
	}
}

// BenchmarkExample110SubwVsTree is the headline comparison: Boolean 4-cycle
// on adversarial inputs, PANDA's submodular-width plan vs the fixed
// tree-decomposition plan (N^{3/2} vs N²).
func BenchmarkExample110SubwVsTree(b *testing.B) {
	q := workload.BooleanFourCycle()
	db := Open()
	defer db.Close()
	for _, m := range []int{64, 128, 256} {
		ins := workload.CycleWorstCase(q, m)
		b.Run(fmt.Sprintf("panda-subw/m=%d", m), func(b *testing.B) {
			var maxInt int
			for i := 0; i < b.N; i++ {
				res, err := db.Eval(q, ins, nil, WithMode(ModeSubw))
				if err != nil || !res.OK {
					b.Fatalf("res=%v err=%v", res, err)
				}
				maxInt = res.Stats.MaxIntermediate
			}
			b.ReportMetric(float64(maxInt), "max-intermediate")
		})
		b.Run(fmt.Sprintf("tree-plan/m=%d", m), func(b *testing.B) {
			var maxInt int
			for i := 0; i < b.N; i++ {
				_, ans, st, err := baseline.EvalTreePlan(q, ins, nil)
				if err != nil || !ans {
					b.Fatalf("ans=%v err=%v", ans, err)
				}
				maxInt = st.MaxIntermediate
			}
			b.ReportMetric(float64(maxInt), "max-intermediate")
		})
	}
}

// BenchmarkExample74Gap computes the fhtw/subw gap for the m=1, k=2 member
// of the Example 7.4 family (the 4-cycle; the k=3 member runs in
// cmd/experiments ex74).
func BenchmarkExample74Gap(b *testing.B) {
	h := workload.Example74Graph(1, 2)
	for i := 0; i < b.N; i++ {
		f, err := widths.FHTW(h)
		if err != nil {
			b.Fatal(err)
		}
		s, err := widths.Subw(h)
		if err != nil {
			b.Fatal(err)
		}
		if f.Cmp(big.NewRat(2, 1)) != 0 || s.Cmp(big.NewRat(3, 2)) != 0 {
			b.Fatalf("fhtw=%v subw=%v", f, s)
		}
	}
}

// BenchmarkExample78DegreeAwareWidths computes da-fhtw and da-subw of the
// 4-cycle.
func BenchmarkExample78DegreeAwareWidths(b *testing.B) {
	q := workload.FourCycleQuery()
	var dcs []Constraint
	for i, a := range q.Atoms {
		dcs = append(dcs, Cardinality(a.Vars, 2, i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DaFhtw(q, dcs); err != nil {
			b.Fatal(err)
		}
		if _, err := DaSubw(q, dcs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTheorem13ZhangYeung certifies the polymatroid/entropic gap.
func BenchmarkTheorem13ZhangYeung(b *testing.B) {
	for i := 0; i < b.N; i++ {
		poly, ent, err := bounds.Theorem13Gap()
		if err != nil {
			b.Fatal(err)
		}
		if poly.Cmp(ent) <= 0 {
			b.Fatal("no gap")
		}
	}
}

// BenchmarkLemma44GroupSystem materializes a Chan–Yeung group instance
// (r = 6) and validates Lemma 4.3's degree formula.
func BenchmarkLemma44GroupSystem(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g, err := entropy.NewGroupSystem([][]int64{
			{0, 0, 1, 1, 2, 2},
			{0, 1, 0, 1, 0, 1},
		})
		if err != nil {
			b.Fatal(err)
		}
		rels, err := g.Instance([]bitset.Set{bitset.Of(0, 1)})
		if err != nil {
			b.Fatal(err)
		}
		want, err := g.DegreeFormula(bitset.Of(0, 1), bitset.Of(0))
		if err != nil {
			b.Fatal(err)
		}
		if got := rels[0].Degree(bitset.Of(0, 1), bitset.Of(0)); big.NewInt(int64(got)).Cmp(want) != 0 {
			b.Fatalf("degree %d ≠ %v", got, want)
		}
	}
}

// BenchmarkLemma45 computes the disjunctive-rule gaps of Lemma 4.5.
func BenchmarkLemma45(b *testing.B) {
	n, dcs, targets := bounds.Lemma45Rule5()
	for i := 0; i < b.N; i++ {
		res, err := flow.MaximinBound(n, dcs, targets)
		if err != nil {
			b.Fatal(err)
		}
		if res.Bound.Cmp(big.NewRat(4, 1)) != 0 {
			b.Fatalf("bound %v", res.Bound)
		}
		if err := bounds.Verify64Identity(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTheorem59ProofConstruction measures proof-sequence construction
// on the triangle, 4-cycle and Example 1.4 inequalities.
func BenchmarkTheorem59ProofConstruction(b *testing.B) {
	type inst struct {
		n       int
		dcs     []flow.DC
		targets []bitset.Set
	}
	one := big.NewRat(1, 1)
	cases := []inst{
		{3, []flow.DC{
			{X: 0, Y: bitset.Of(0, 1), LogN: one},
			{X: 0, Y: bitset.Of(1, 2), LogN: one},
			{X: 0, Y: bitset.Of(0, 2), LogN: one},
		}, []bitset.Set{bitset.Full(3)}},
		{4, []flow.DC{
			{X: 0, Y: bitset.Of(0, 1), LogN: one},
			{X: 0, Y: bitset.Of(1, 2), LogN: one},
			{X: 0, Y: bitset.Of(2, 3), LogN: one},
		}, []bitset.Set{bitset.Of(0, 1, 2), bitset.Of(1, 2, 3)}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cases {
			res, err := flow.MaximinBound(c.n, c.dcs, c.targets)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := flow.ConstructProof(res.Lambda, res.Delta, res.Witness); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkPreparedVsUnprepared demonstrates planning amortization on the
// triangle and four-cycle workloads: "unprepared" is the whole facade call
// (cache-hit planning plus execution through DB.Eval), "prepared" executes
// an already planned QueryPlan directly, and a cache-hit Prepare costs the
// canonicalisation, one index lookup and the rebind.
func BenchmarkPreparedVsUnprepared(b *testing.B) {
	workloads := []struct {
		name string
		q    *Query
		seed int64
	}{
		{"triangle", workload.TriangleQuery(), 3},
		{"four-cycle", workload.FourCycleQuery(), 7},
	}
	for _, w := range workloads {
		ins := RandomInstance(w.seed, &w.q.Schema, 300, 30)
		cons := CompleteConstraints(&w.q.Schema, ins, nil)
		b.Run(w.name+"/unprepared", func(b *testing.B) {
			db := Open()
			defer db.Close()
			for i := 0; i < b.N; i++ {
				if _, err := db.Eval(w.q, ins, nil, WithMode(ModeFhtw)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(w.name+"/prepared", func(b *testing.B) {
			p, err := plan.NewPlanner(8).Prepare(w.q, cons, ModeFhtw)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := (&core.Executor{}).Execute(context.Background(), p, ins); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(w.name+"/prepare-hit", func(b *testing.B) {
			pl := plan.NewPlanner(8)
			if _, err := pl.Prepare(w.q, cons, ModeFhtw); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pl.Prepare(w.q, cons, ModeFhtw); err != nil {
					b.Fatal(err)
				}
			}
			st := pl.Stats()
			if st.Hits != uint64(b.N) {
				b.Fatalf("expected %d cache hits, got %v", b.N, st)
			}
		})
	}
}

// c4Src is the 4-cycle over R, S, T and U that the after-insert benchmarks
// write to.
const c4Src = `Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D), U(D,A).`

// growingCatalog opens the session the after-insert benchmarks write to:
// src's relations hold rows random rows each on 20 values, and fresh lists n
// rows R does not hold, one per write.
func growingCatalog(tb testing.TB, src string, rows, n int) (db *DB, fresh [][]Value) {
	const dom = 20
	db = Open()
	res := createRelationsFor(tb, db, src)
	insertRandomBatch(tb, db, res, rand.New(rand.NewSource(7)), rows, dom)
	rng, seen := rand.New(rand.NewSource(8)), map[[2]Value]bool{}
	for len(fresh) < n {
		row := [2]Value{Value(rng.Intn(dom)), Value(rng.Intn(dom))}
		if !seen[row] && !db.catalog["R"].Contains(row[:]) {
			seen[row] = true
			fresh = append(fresh, row[:])
		}
	}
	return db, fresh
}

// BenchmarkStmtRequeryAfterInsert times a prepared statement's Query right
// after one fresh row lands in a relation it reads: serve-mixed's cold read
// without the wire, over 80 random rows per relation on 20 values. The
// statement's memo only grew, so Query plans against the new catalog and
// advances the memo by one semi-naive round; a memo thrown away on every
// write re-executes the whole query and allocates several times the bytes
// (CI holds B/op under a ceiling between the two). c4-dense is the 4-cycle
// over 320 rows per relation, whose answer (reported as answer-rows) is some
// 200 times what one insert adds: publishing old ∪ Δ copies and rehashes the
// whole answer, so there the round's share of the cost is smallest. The
// catalog is rebuilt, outside the timer, every 64 iterations, so the
// relations stay near their starting size however long the run.
func BenchmarkStmtRequeryAfterInsert(b *testing.B) {
	const rebuildEvery = 64
	for _, sh := range []struct {
		name, src string
		rows      int
	}{
		{"c4-full", c4Src, 80},
		{"tri-full", triangleSrc, 80},
		{"c4-dense", c4Src, 320},
	} {
		b.Run(sh.name, func(b *testing.B) {
			var db *DB
			var st *Stmt
			var answer int      // rows of the answer over the starting catalog
			var fresh [][]Value // rows R does not hold, one per iteration
			rebuild := func() {
				if db != nil {
					db.Close()
				}
				db, fresh = growingCatalog(b, sh.src, sh.rows, rebuildEvery)
				var err error
				if st, err = db.Prepare(sh.src); err != nil {
					b.Fatal(err)
				}
				start, err := st.Query()
				if err != nil {
					b.Fatal(err)
				}
				answer = start.Rel.Size()
			}
			defer func() { db.Close() }()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%rebuildEvery == 0 {
					b.StopTimer()
					rebuild()
					b.StartTimer()
				}
				if err := db.Insert("R", fresh[i%rebuildEvery]); err != nil {
					b.Fatal(err)
				}
				if _, err := st.Query(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(answer), "answer-rows")
		})
	}
}

// BenchmarkWatchAfterInsert is BenchmarkStmtRequeryAfterInsert for a
// standing query: one fresh row into R, timed until the watch reflects it,
// with a subscriber that keeps up. A round merges its delta into the
// relation the watch grows, in place, and publishes an O(arity) snapshot of
// it; on c4-dense a round that copied the 14k-row materialization instead
// (old ∪ Δ, as a Stmt's memo does) allocates several times the bytes (CI
// holds B/op under a ceiling between the two).
func BenchmarkWatchAfterInsert(b *testing.B) {
	const rebuildEvery = 64
	for _, sh := range []struct {
		name string
		rows int
	}{
		{"c4-full", 80},
		{"c4-dense", 320},
	} {
		b.Run(sh.name, func(b *testing.B) {
			var db *DB
			var w *Watch
			var fresh [][]Value // rows R does not hold, one per iteration
			rebuild := func() {
				if db != nil {
					w.Close()
					db.Close()
				}
				db, fresh = growingCatalog(b, c4Src, sh.rows, rebuildEvery)
				var err error
				if w, err = db.Watch(c4Src); err != nil {
					b.Fatal(err)
				}
				go func(w *Watch) {
					for range w.Deltas() {
					}
				}(w)
			}
			defer func() {
				w.Close()
				db.Close()
			}()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%rebuildEvery == 0 {
					b.StopTimer()
					rebuild()
					b.StartTimer()
				}
				if err := db.Insert("R", fresh[i%rebuildEvery]); err != nil {
					b.Fatal(err)
				}
				target, err := db.schemaTick(w.st.Schema())
				if err != nil {
					b.Fatal(err)
				}
				waitTick(b, w, target)
			}
		})
	}
}

// BenchmarkParallelExecute measures the parallel bag-execution fan-out on
// the Boolean 4-cycle worst case (a subw plan with one PANDA rule per
// minimal bag transversal): the same cached plan executed sequentially
// (P=1) and through the bounded worker pool (P=NumCPU). The merge is
// deterministic, so both produce identical answers; the shape (parallel
// wall clock ≤ sequential on multi-rule plans) is the target.
func BenchmarkParallelExecute(b *testing.B) {
	q := workload.BooleanFourCycle()
	ins := workload.CycleWorstCase(q, 192)
	db := Open()
	defer db.Close()
	// Warm the plan cache so both arms measure pure execution.
	if _, err := db.Eval(q, ins, nil); err != nil {
		b.Fatal(err)
	}
	for _, par := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("P=%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := db.EvalContext(context.Background(), q, ins, nil, WithParallelism(par))
				if err != nil {
					b.Fatal(err)
				}
				if !res.OK {
					b.Fatal("worst-case cycle instance reported empty")
				}
			}
		})
	}

	// One large rule: the full triangle join is a single PANDA rule, so the
	// per-rule fan-out above has nothing to parallelize — the speedup must
	// come from data-parallel partitioned execution (WithPartitions
	// co-partitions R and T on the shared variable and replicates S, one
	// rule execution per partition through the same pool). The arm names
	// are literal because CI asserts P=NumCPU is ≥2× P=1 on this case and
	// the row counts of both arms agree.
	b.Run("large-rule", func(b *testing.B) {
		tq := workload.TriangleQuery()
		tins := RandomInstance(11, &tq.Schema, 8192, 192)
		tdb := Open()
		defer tdb.Close()
		seq, err := tdb.Eval(tq, tins, nil) // also warms the plan cache
		if err != nil {
			b.Fatal(err)
		}
		par, err := tdb.Eval(tq, tins, nil,
			WithParallelism(runtime.NumCPU()), WithPartitions(runtime.NumCPU()))
		if err != nil {
			b.Fatal(err)
		}
		if seq.Rel.Size() != par.Rel.Size() {
			b.Fatalf("partitioned run diverges: %d rows vs %d sequential", par.Rel.Size(), seq.Rel.Size())
		}
		arms := []struct {
			name string
			par  int
		}{
			{"P=1", 1},
			{"P=NumCPU", runtime.NumCPU()},
		}
		for _, arm := range arms {
			b.Run(arm.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := tdb.EvalContext(context.Background(), tq, tins, nil,
						WithParallelism(arm.par), WithPartitions(arm.par))
					if err != nil {
						b.Fatal(err)
					}
					if res.Rel.Size() != seq.Rel.Size() {
						b.Fatalf("row count diverges: %d vs %d", res.Rel.Size(), seq.Rel.Size())
					}
				}
			})
		}
	})
}

// BenchmarkWCOJTriangle compares the generic worst-case-optimal join with
// PANDA on the triangle query (both are Õ(N^{3/2}) here).
func BenchmarkWCOJTriangle(b *testing.B) {
	q := workload.TriangleQuery()
	ins := RandomInstance(3, &q.Schema, 2000, 64)
	b.Run("wcoj", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := wcoj.Join(&q.Schema, ins, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("panda", func(b *testing.B) {
		db := Open()
		defer db.Close()
		for i := 0; i < b.N; i++ {
			if _, err := db.Eval(q, ins, nil, WithMode(ModeFull)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFullFourCycleEvaluators compares the three full-query plans on a
// benign random instance.
func BenchmarkFullFourCycleEvaluators(b *testing.B) {
	q := workload.FourCycleQuery()
	ins := RandomInstance(7, &q.Schema, 500, 40)
	db := Open()
	defer db.Close()
	for _, arm := range []struct {
		name string
		mode PlanMode
	}{{"EvalFull", ModeFull}, {"EvalFhtw", ModeFhtw}, {"EvalSubw", ModeSubw}} {
		b.Run(arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := db.Eval(q, ins, nil, WithMode(arm.mode)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("TreePlan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, _, err := baseline.EvalTreePlan(q, ins, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationBudget quantifies the Case-4b effect across sizes.
func BenchmarkAblationBudget(b *testing.B) {
	p := workload.PathRule()
	db := Open()
	defer db.Close()
	for _, m := range []int{64, 256} {
		ins := workload.PathWorstCase(p, m)
		for _, arm := range []struct {
			name string
			off  bool
		}{{"budget-on", false}, {"budget-off", true}} {
			b.Run(fmt.Sprintf("%s/N=%d", arm.name, m), func(b *testing.B) {
				var maxInt int
				for i := 0; i < b.N; i++ {
					res, err := db.EvalRule(p, ins, nil, WithBudgetDisabled(arm.off))
					if err != nil {
						b.Fatal(err)
					}
					maxInt = res.Stats.MaxIntermediate
				}
				b.ReportMetric(float64(maxInt), "max-intermediate")
			})
		}
	}
}
