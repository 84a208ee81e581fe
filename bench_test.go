// Benchmarks of the engine, the planner and the facade: proof
// construction, prepared vs unprepared execution, statement and watch reads
// after an insert, parallel execution and the evaluator comparisons. The
// paper's tables and figures are benchmarked where they are defined, by
// BenchmarkExperiments in cmd/experiments. Shapes (who wins, by what factor)
// are the reproduction target, not absolute times.
package panda

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"runtime"
	"testing"

	"panda/internal/baseline"
	"panda/internal/bitset"
	"panda/internal/core"
	"panda/internal/flow"
	"panda/internal/plan"
	"panda/internal/wcoj"
	"panda/internal/workload"
)

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
		cons := core.CompleteConstraints(&w.q.Schema, ins, nil)
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
// 200 times what one insert adds: the round's rows are inserted into the
// relation the memo grows, so the answer is neither copied nor rehashed per
// write (CI holds that B/op under a ceiling below what publishing old ∪ Δ
// cost). The catalog is rebuilt, outside the timer, every 64 iterations, so
// the relations stay near their starting size however long the run.
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
// it, as a Stmt's memo does; on c4-dense a round that copied the 14k-row
// materialization instead (old ∪ Δ) allocates several times the bytes (CI
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
