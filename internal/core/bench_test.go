package core

import (
	"context"
	"math/rand"
	"testing"

	"panda/internal/plan"
	"panda/internal/query"
	"panda/internal/workload"
)

// BenchmarkRestartC4BoolWorst executes the Boolean 4-cycle at its submodular
// width on Example 1.10's adversarial input (m = 256): eight Case-4b restarts
// per execution, each a witness read off the remaining proof steps, a
// truncation and a rebuilt sequence, compiled once per rule run for every
// sibling that restarts at the same step. It carries CI's allocs/op ceiling —
// when the restart solved an LP for its witness this was 7,263 allocs/op, and
// 4,874 while every sibling compiled its own child; either creeping back
// blows the ceiling.
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
		if res.Stats.Restarts != 8 || !res.NonEmpty {
			b.Fatalf("restarts = %d, non-empty = %v; want 8, true", res.Stats.Restarts, res.NonEmpty)
		}
	}
}

// BenchmarkExecuteC4Subw executes the full 4-cycle at its submodular width on
// a random 120-row instance over an 18-value domain — the bench module's
// `c4-subw` item: every bag's rule decomposes several levels deep, the
// subproblems' tables travel up as lists, and each bag's lists from every
// rule are filtered by the four inputs and unioned in one pass. It carries
// CI's allocs/op and B/op ceilings for the engine, the fold and the
// reduction: δ back on the frame (a clone per bucket, big.Rat arithmetic per
// step), a union per recursion level, a copy of the table per input, or a
// union of the rows the inputs drop creeping back shows here.
func BenchmarkExecuteC4Subw(b *testing.B) {
	q := workload.FourCycleQuery()
	ins := workload.RandomBinary(rand.New(rand.NewSource(1)), &q.Schema, 120, 18)
	p, _, err := plan.Prepare(q, CompleteConstraints(&q.Schema, ins, nil), plan.ModeSubw)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	ex := &Executor{}
	want := -1
	b.ReportAllocs()
	for b.Loop() {
		res, err := ex.Execute(ctx, p, ins)
		if err != nil {
			b.Fatal(err)
		}
		if want < 0 {
			want = res.Out.Size()
		}
		if res.Stats.Subproblems < 8 || res.Out.Size() != want {
			b.Fatalf("subproblems = %d, |out| = %d; want ≥ 8, %d", res.Stats.Subproblems, res.Out.Size(), want)
		}
	}
}

// BenchmarkExecuteTriFull executes the triangle under ModeFull on a random
// 1,024-row instance over a 128-value domain, sequentially: one rule whose
// model's tables go straight to the bag's one relation.Reduce, which hashes
// only the rows the inputs keep. It carries CI's B/op ceiling: unioning the
// raw model before the reduction, as the executor did while Tables exported
// it, copies and hashes every model row, the ones the inputs drop included.
func BenchmarkExecuteTriFull(b *testing.B) {
	q := workload.TriangleQuery()
	ins := workload.RandomBinary(rand.New(rand.NewSource(1)), &q.Schema, 1024, 128)
	p, _, err := plan.Prepare(q, CompleteConstraints(&q.Schema, ins, nil), plan.ModeFull)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	ex := &Executor{}
	want := -1
	b.ReportAllocs()
	for b.Loop() {
		res, err := ex.Execute(ctx, p, ins)
		if err != nil {
			b.Fatal(err)
		}
		if want < 0 {
			want = res.Out.Size()
		}
		if res.Tables != nil || res.Out.Size() != want {
			b.Fatalf("tables = %v, |out| = %d; want none, %d", res.Tables != nil, res.Out.Size(), want)
		}
	}
}

// BenchmarkExecuteSmall executes, per op, the 4-cycle's full, fhtw and subw
// plans and the triangle's full plan, each over 8-row relations on a
// 16-value domain — the size of bench's plan-cold first sightings. The
// relations are too small for the kernels to matter, so what it counts is
// the engine's fixed cost per operator: frames, bounds, the fold and each
// derived relation's header and name. Its plans are the ones those first
// sightings run, planned from the canonical spelling. It carries CI's
// allocs/op ceiling for that cost.
func BenchmarkExecuteSmall(b *testing.B) {
	type run struct {
		p   *plan.Plan
		ins *query.Instance
	}
	rng := rand.New(rand.NewSource(1))
	var runs []run
	for _, c := range []struct {
		q    *query.Conjunctive
		mode plan.Mode
	}{
		{workload.FourCycleQuery(), plan.ModeFull},
		{workload.FourCycleQuery(), plan.ModeFhtw},
		{workload.FourCycleQuery(), plan.ModeSubw},
		{workload.TriangleQuery(), plan.ModeFull},
	} {
		ins := workload.RandomBinary(rng, &c.q.Schema, 8, 16)
		p, _, err := plan.Prepare(c.q, CompleteConstraints(&c.q.Schema, ins, nil), c.mode)
		if err != nil {
			b.Fatal(err)
		}
		runs = append(runs, run{p, ins})
	}
	ctx := context.Background()
	ex := &Executor{}
	b.ReportAllocs()
	for b.Loop() {
		for _, r := range runs {
			if _, err := ex.Execute(ctx, r.p, r.ins); err != nil {
				b.Fatal(err)
			}
		}
	}
}
