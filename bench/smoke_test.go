package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// -smoke keeps the benchmark runnable from `go test`: every workload at
// fixed tiny op counts, one set-up, the oracle on, every end-to-end metric
// reported and non-zero.
func TestSmokeEveryWorkload(t *testing.T) {
	start := time.Now()
	for _, sp := range specs {
		rep, err := measure(sp, options{seed: 1, seconds: nominalSeconds, smoke: true})
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < sp.smokeCycles {
			t.Errorf("%s: correct=%v failed=%d attempted=%d\n%v", sp.name, rep.Correct, rep.Failed, rep.Attempted, rep.notes)
		}
		for _, d := range endToEnd {
			m, ok := rep.Metrics[d.name]
			if !ok || m.Unit != d.unit || !(m.Value > 0) {
				t.Errorf("%s: metric %s = %+v (reported %v), want a positive value in %s", sp.name, d.name, m, ok, d.unit)
			}
		}
		if len(rep.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics reported, %d declared", sp.name, len(rep.Metrics), len(endToEnd))
		}
	}
	t.Logf("smoke of %d workloads took %.1fs", len(specs), time.Since(start).Seconds())
}

// A traced smoke run reports every declared per-layer metric, and nothing
// else, and leaves its trace file behind.
func TestSmokeTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("takes every direct-call layer metric, the Boolean 5-cycle plan included")
	}
	sp, _ := specByName("serve-mixed")
	out := t.TempDir()
	rep, err := traced(sp, options{seed: 1, seconds: nominalSeconds, smoke: true, outDir: out})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Errorf("incorrect traced run: %v", rep.notes)
	}
	for _, d := range perLayer {
		if m, ok := rep.Metrics[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("metric %s = %+v (reported %v), want unit %s", d.name, m, ok, d.unit)
		}
	}
	if len(rep.Metrics) != len(perLayer) {
		t.Errorf("%d metrics reported, %d declared", len(rep.Metrics), len(perLayer))
	}
	if rep.Metrics["lp.solves_per_query"].Value <= 0 || rep.Metrics["router.shapes_ensured"].Value <= 0 {
		t.Errorf("serve-mixed planned nothing: %v solves per query, %v shapes ensured",
			rep.Metrics["lp.solves_per_query"].Value, rep.Metrics["router.shapes_ensured"].Value)
	}
	if _, err := os.Stat(filepath.Join(out, "trace-serve-mixed.json")); err != nil {
		t.Error(err)
	}
}

// BENCHMARK.json at the repository root and the tables in this package name
// the same workloads and metrics.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds %d, nominalSeconds %d", file.RunSeconds, nominalSeconds)
	}
	if len(file.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d specs", len(file.Workloads), len(specs))
	}
	for i, w := range file.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the spec %q / %q", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d declared", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, declared %+v", kind, i, m, d)
			}
			if bounded != (m.Bound != nil) || (bounded && *m.Bound != d.bound) {
				t.Errorf("%s metric %s: bound %v, declared %v", kind, m.Name, m.Bound, d.bound)
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEnd, true)
	check("per_layer", file.PerLayer, perLayer, false)
}
