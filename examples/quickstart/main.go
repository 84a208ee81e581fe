// Quickstart for the DB session API: open a session, ingest the paper's
// 4-cycle worst case (Example 1.10) into the catalog, and answer the query
// text — full and Boolean — through one unified QueryContext path with a
// deadline and parallel rule execution. Size bounds and width parameters
// round out the tour.
//
// Every call has a context-first form (Query/Eval delegate to these with
// context.Background()):
//
//	db.Query(src)     → db.QueryContext(ctx, src)
//	stmt.Query()      → stmt.QueryContext(ctx)
//	db.Eval(q, …)     → db.EvalContext(ctx, q, …)
//	db.EvalRule(p, …) → db.EvalRuleContext(ctx, p, …)
//	db.LoadCSV(n, r)  → db.LoadCSVContext(ctx, n, r)
//	sequential bags   → WithParallelism(runtime.NumCPU()) (same bytes out)
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"runtime"
	"time"

	"panda"
)

func main() {
	// Q(A1,A2,A3,A4) ← R12(A1,A2), R23(A2,A3), R34(A3,A4), R41(A1,A4):
	// the 4-cycle of Example 1.2, over the adversarial instance of
	// Example 1.10 with m = 64 (R12 = R34 = [m]×[1], R23 = R41 = [1]×[m]).
	const m = 64
	db := panda.Open()
	defer db.Close()
	for _, name := range []string{"R12", "R23", "R34", "R41"} {
		if err := db.CreateRelation(name, 2); err != nil {
			log.Fatal(err)
		}
	}
	for i := int64(0); i < m; i++ {
		for name, row := range map[string][]panda.Value{
			"R12": {i, 0}, "R23": {0, i}, "R34": {i, 0}, "R41": {i, 0},
		} {
			if err := db.Insert(name, row); err != nil {
				log.Fatal(err)
			}
		}
	}

	// Prepare once; the session's plan cache makes repeats free. Queries
	// run context-first: this one gets a deadline, and cancellation is
	// checked between the engine's proof steps, so a runaway query stops
	// promptly with ctx.Err() instead of running to completion.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	stmt, err := db.Prepare(`Q(A1,A2,A3,A4) :- R12(A1,A2), R23(A2,A3), R34(A3,A4), R41(A1,A4).`)
	if err != nil {
		log.Fatal(err)
	}
	res, err := stmt.QueryContext(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("4-cycle query, all |R| =", m)
	fmt.Printf("  |Q| = %d (= m² = %d), PANDA bound 2^%v, max intermediate %d\n",
		res.Size(), m*m, res.Bound.FloatString(3), res.Stats.MaxIntermediate)

	// The Boolean variant runs at the submodular width (cost-based
	// ModeAuto picks it from the width certificates: subw 3/2 beats fhtw
	// 2), so intermediates stay near N^{3/2} instead of N² (Example 1.10).
	// Its per-transversal PANDA rules are independent: WithParallelism
	// fans them out across a worker pool with a deterministic merge — the
	// answer is byte-identical to a sequential run.
	bres, err := db.QueryContext(ctx, `Q() :- R12(A1,A2), R23(A2,A3), R34(A3,A4), R41(A1,A4).`,
		panda.WithParallelism(runtime.NumCPU()))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  Boolean 4-cycle: %v via %v, max intermediate %d (m^1.5 = %.0f, m² = %d)\n",
		bres.OK, bres.Mode, bres.Stats.MaxIntermediate, math.Pow(float64(m), 1.5), m*m)

	// Size bounds under the instance's cardinality constraints, and the
	// Figure 4 width hierarchy — the analysis side of the facade.
	q := panda.FourCycleQuery()
	dcs := panda.CycleWorstCase(q, m).CardinalityConstraints(&q.Schema)
	rep, err := panda.Bounds(q, dcs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  vertex bound      : 2^%v\n", rep.Vertex.FloatString(3))
	fmt.Printf("  integral cover ρ  : 2^%v\n", rep.IntegralCover.FloatString(3))
	fmt.Printf("  AGM bound ρ*      : 2^%v\n", rep.AGM.FloatString(3))
	fmt.Printf("  polymatroid bound : 2^%v\n", rep.Polymatroid.FloatString(3))
	w, err := panda.Widths(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  widths: tw=%d ghtw=%d fhtw=%v subw=%v adw=%v\n",
		w.Treewidth, w.GHTW, w.FHTW.RatString(), w.Subw.RatString(), w.Adw.RatString())

	// Cache effectiveness: re-running the prepared statement (or any
	// renaming of the query) costs zero LP solves.
	if _, err := stmt.Query(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  planner: %v\n", db.PlannerStats())
}
