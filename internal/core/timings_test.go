package core

import (
	"context"
	"reflect"
	"testing"

	"panda/internal/plan"
	"panda/internal/query"
	"panda/internal/relation"
)

// TestStageTimingsPopulated: with Options.StageTimings set, a disjunctive
// run attributes wall-clock time to per-step-kind engine work (prepare-wait
// is the caller's to fill: it owns the planning call) — and the step counts
// in Stats bound which step kinds may appear.
func TestStageTimingsPopulated(t *testing.T) {
	p := pathRule()
	ins := worstCasePathInstance(p, 64)
	res, err := evalRule(p, ins, nil, Options{StageTimings: true})
	if err != nil {
		t.Fatal(err)
	}
	tm := res.Timings
	if tm == nil {
		t.Fatal("StageTimings on but Timings nil")
	}
	if len(tm.Steps) == 0 {
		t.Error("no per-step-kind timings for a PANDA run")
	}
	for kind, d := range tm.Steps {
		if d < 0 {
			t.Errorf("step %s has negative time %v", kind, d)
		}
		if res.Stats.StepsByKind[kind] == 0 {
			t.Errorf("timed step kind %s never counted in Stats", kind)
		}
	}
	sec := tm.Seconds()
	for _, key := range []string{"prepare_wait", "rule_fanout", "merge"} {
		if _, ok := sec[key]; !ok {
			t.Errorf("Seconds() missing %q: %v", key, sec)
		}
	}
}

// TestStageTimingsOffIsNil: the default path allocates no Timings and the
// result is otherwise identical — the instrumentation must be free when
// disabled and must never perturb the deterministic Stats.
func TestStageTimingsOffIsNil(t *testing.T) {
	p := pathRule()
	ins := worstCasePathInstance(p, 64)
	off, err := evalRule(p, ins, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if off.Timings != nil {
		t.Fatal("StageTimings off but Timings non-nil")
	}
	on, err := evalRule(p, ins, nil, Options{StageTimings: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(off.Stats, on.Stats) {
		t.Fatalf("timing instrumentation changed Stats:\noff %+v\non  %+v", *off.Stats, *on.Stats)
	}
}

// TestStageTimingsParallelConjunctive: the parallel ModeSubw path
// accumulates engine time across rules and records fan-out and merge, while
// Stats stay byte-identical to the sequential run (the determinism contract
// Timings is explicitly excluded from).
func TestStageTimingsParallelConjunctive(t *testing.T) {
	q := fourCycleQuery()
	q.Free = 0
	ins := query.NewInstance(&q.Schema)
	for i := 0; i < 32; i++ {
		v := relation.Value(i)
		ins.Relations[0].Insert([]relation.Value{v, 0})
		ins.Relations[1].Insert([]relation.Value{0, v})
		ins.Relations[2].Insert([]relation.Value{v, 0})
		ins.Relations[3].Insert([]relation.Value{v, 0})
	}
	pl, _, err := plan.Prepare(q, CompleteConstraints(&q.Schema, ins, nil), plan.ModeSubw)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := (&Executor{Opt: Options{StageTimings: true}}).Execute(context.Background(), pl, ins)
	if err != nil {
		t.Fatal(err)
	}
	par, err := (&Executor{Parallelism: 4, Opt: Options{StageTimings: true}}).Execute(context.Background(), pl, ins)
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*ExecResult{"sequential": seq, "parallel": par} {
		if r.Timings == nil {
			t.Fatalf("%s: Timings nil", name)
		}
		if len(r.Timings.Steps) == 0 {
			t.Errorf("%s: no per-step timings", name)
		}
	}
	if seq.Stats.MaxIntermediate != par.Stats.MaxIntermediate || seq.NonEmpty != par.NonEmpty {
		t.Fatal("parallel run diverged from sequential with timings on")
	}
}
