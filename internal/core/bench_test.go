package core

import (
	"context"
	"testing"

	"panda/internal/plan"
	"panda/internal/workload"
)

// BenchmarkRestartC4BoolWorst executes the Boolean 4-cycle at its submodular
// width on Example 1.10's adversarial input (m = 256): five Case-4b restarts
// per execution, each a witness read off the remaining proof steps, a
// truncation and a rebuilt sequence. It carries CI's allocs/op ceiling — when
// the restart solved an LP for its witness this was 7,263 allocs/op; an LP
// creeping back into the execution path blows the ceiling.
func BenchmarkRestartC4BoolWorst(b *testing.B) {
	q := workload.BooleanFourCycle()
	ins := workload.CycleWorstCase(q, 256)
	p, _, err := plan.Prepare(q, CompleteConstraints(&q.Schema, ins, nil), plan.ModeSubw)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	ex := &Executor{}
	b.ReportAllocs()
	for b.Loop() {
		res, err := ex.Execute(ctx, p, ins)
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.Restarts != 5 || !res.NonEmpty {
			b.Fatalf("restarts = %d, non-empty = %v; want 5, true", res.Stats.Restarts, res.NonEmpty)
		}
	}
}
