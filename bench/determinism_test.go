package main

import (
	"reflect"
	"strings"
	"testing"
)

// countMetrics are the per-layer metrics marked [count] in the README: for
// a fixed seed and one client they must repeat exactly, which is what lets
// a later change rest a claim on them.
var countMetrics = []string{
	"lp.solves_per_query",
	"plan.plans_built",
	"plan.duplicate_builds",
	"plan.hit_ratio",
	"server.stmt_cache_hit_ratio",
	"router.shapes_ensured",
	"router.push_entries",
	"router.retries",
	"router.failovers",
}

// tracedOnce runs a workload's traced phases at smoke length and returns
// its report and the operation sequence as the trace shows it: per
// operation, the names of its spans in start order.
func tracedOnce(t *testing.T, name string, seed int64) (*report, []string) {
	t.Helper()
	sp, ok := specByName(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	rep, spans, err := tracedPhases(sp, options{seed: seed, seconds: nominalSeconds, smoke: true, outDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Fatalf("%s seed %d: incorrect run: %v", name, seed, rep.notes)
	}
	byOp := map[int][]span{}
	maxOp := 0
	for _, s := range spans {
		if !s.Synthetic {
			byOp[s.Op] = append(byOp[s.Op], s)
			maxOp = max(maxOp, s.Op)
		}
	}
	var seq []string
	for op := 0; op <= maxOp; op++ {
		var names []string
		for _, s := range byOp[op] { // recorded in end order; nesting depth orders them
			names = append(names, s.Name)
		}
		seq = append(seq, strings.Join(names, " < "))
	}
	return rep, seq
}

// Same seed: the same operation sequence and identical [count] metrics.
// Another seed: other data under the same shapes, so still the same
// sequence of operations and layer calls.
func TestSeedDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload's traced phases three times")
	}
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			a, seqA := tracedOnce(t, sp.name, 1)
			b, seqB := tracedOnce(t, sp.name, 1)
			c, seqC := tracedOnce(t, sp.name, 2)
			if !reflect.DeepEqual(seqA, seqB) {
				t.Errorf("seed 1 ran two different operation sequences:\n%v\n%v", seqA, seqB)
			}
			if !reflect.DeepEqual(seqA, seqC) {
				t.Errorf("seeds 1 and 2 ran different operation sequences: a seed must change data, not shapes")
			}
			if a.Attempted != b.Attempted || a.Attempted != c.Attempted {
				t.Errorf("attempted ops %d, %d, %d", a.Attempted, b.Attempted, c.Attempted)
			}
			for _, name := range countMetrics {
				if a.Metrics[name].Value != b.Metrics[name].Value {
					t.Errorf("%s: %v then %v on the same seed", name, a.Metrics[name].Value, b.Metrics[name].Value)
				}
			}
		})
	}
}

func TestSeedChangesData(t *testing.T) {
	cat := func(seed int64) catalog {
		c, _ := serveCatalog(seed, serveMixedSizes.rows, serveMixedSizes.dom)
		return c
	}
	if !reflect.DeepEqual(cat(1), cat(1)) {
		t.Error("one seed gave two catalogs")
	}
	if reflect.DeepEqual(cat(1), cat(2)) {
		t.Error("two seeds gave one catalog")
	}
	a, b := execItems(1), execItems(2)
	for i := range a {
		if a[i].name != b[i].name || a[i].mode != b[i].mode {
			t.Errorf("exec-large item %d differs in shape across seeds", i)
		}
	}
	if a[0].ins.Relations[0].Equal(b[0].ins.Relations[0]) {
		t.Error("exec-large triangle data is the same under two seeds")
	}
	if !a[0].ins.Relations[0].Equal(execItems(1)[0].ins.Relations[0]) {
		t.Error("exec-large triangle data differs under one seed")
	}
}
