package core

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"panda/internal/flow"
	"panda/internal/plan"
	"panda/internal/workload"
)

// stepwiseZeroed applies a program's steps to a copy of its δ one at a time
// and reads, after each, the coordinates the engine drops a support for when
// they reach zero — the reading the engine made of δ before it followed the
// program's masks.
func stepwiseZeroed(t *testing.T, p *program) []uint8 {
	t.Helper()
	delta := p.delta.Clone()
	out := make([]uint8, len(p.seq))
	for i, s := range p.seq {
		if err := s.Apply(delta); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		dropped := []flow.Pair{flow.Marginal(s.B)} // monotonicity, decomposition
		switch s.Kind {
		case flow.Submodularity:
			dropped = []flow.Pair{{X: s.A.Intersect(s.B), Y: s.A}}
		case flow.Composition:
			dropped = []flow.Pair{flow.Marginal(s.A), {X: s.A, Y: s.B}}
		}
		for k, pr := range dropped {
			if delta.Get(pr).Sign() == 0 {
				out[i] |= 1 << k
			}
		}
	}
	return out
}

// TestZeroedMatchesStepwise: on every plan of digestMatrix, prepared and
// decoded, each rule's Zeroed masks — and those of the Case-4b child every
// composition step would restart into — equal what applying the steps one by
// one and reading δ gives.
func TestZeroedMatchesStepwise(t *testing.T) {
	ctx := context.Background()
	check := func(name string, p *program) {
		t.Helper()
		want := stepwiseZeroed(t, p)
		if !bytes.Equal(p.zeroed, want) {
			t.Fatalf("%s: masks %v, stepwise δ reads %v", name, p.zeroed, want)
		}
	}
	children := 0
	for i, tc := range digestMatrix() {
		if testing.Short() && i%5 != 0 { // coprime to the matrix's periods: every shape still comes up
			continue
		}
		prepared, err := tc.prepare(ctx)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var buf bytes.Buffer
		if err := plan.EncodePlan(&buf, prepared); err != nil {
			t.Fatal(err)
		}
		decoded, err := plan.DecodePlan(&buf)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, p := range []*plan.Plan{prepared, decoded} {
			for ri, r := range p.Rules {
				root := &program{lambda: r.Lambda, delta: r.Delta, seq: r.Seq, zeroed: r.Zeroed}
				check(tc.name, root)
				for si, s := range r.Seq {
					if s.Kind != flow.Composition {
						continue
					}
					child, err := root.truncate(si)
					if err != nil && strings.Contains(err.Error(), "left no targets") {
						continue // the engine refuses this restart: truncation would drop every target
					}
					if err != nil {
						t.Fatalf("%s: rule %d: restart at step %d: %v", tc.name, ri, si, err)
					}
					check(tc.name+"/restart", child)
					children++
				}
			}
		}
	}
	if children == 0 {
		t.Fatal("no composition step to restart at: the matrix is meant to exercise Case-4b")
	}
}

// TestConcurrentRestartsMatchSequential: eight goroutines execute one prepared
// plan that restarts — the Boolean 4-cycle at its submodular width on Example
// 1.10's adversarial input — and every execution digests as a sequential one
// does. The goroutines share the plan's masks, so this pins that they are
// read-only and that the restarts a run compiles are its own. Run it with
// -race.
func TestConcurrentRestartsMatchSequential(t *testing.T) {
	q := workload.BooleanFourCycle()
	ins := workload.CycleWorstCase(q, 64)
	p, _, err := plan.Prepare(q, CompleteConstraints(&q.Schema, ins, nil), plan.ModeSubw)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ex := &Executor{Opt: Options{Trace: true}}
	res, err := ex.Execute(ctx, p, ins)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Restarts == 0 {
		t.Fatal("the sequential run did not restart")
	}
	want := execDigest(res)
	const workers, runs = 8, 4
	digests := make([]string, workers*runs)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range runs {
				res, err := ex.Execute(ctx, p, ins)
				if err != nil {
					errs[w] = err
					return
				}
				digests[w*runs+r] = execDigest(res)
			}
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", w, err)
		}
	}
	for i, d := range digests {
		if d != want {
			t.Fatalf("execution %d on goroutine %d digests %s, sequential %s", i%runs, i/runs, d, want)
		}
	}
}
