// Command bench is the repository's end-to-end benchmark: four workloads
// that each make a different layer of the stack do the work, one set of
// user-visible metrics measured the same way on all of them, an output
// oracle, and a separate traced run that yields per-layer numbers. See
// README.md in this directory for the metric glossary and the predictions;
// BENCHMARK.json at the repository root names the metrics and their bounds.
//
//	bash bench/run.sh                          every workload, human-readable
//	bash bench/run.sh --workload serve-mixed --seed 7 --seconds 15 --trace 0
//	bash bench/run.sh --trace 1                per-layer metrics and trace files
//	bash bench/run.sh --repeat 10              run-to-run spread against the bounds
//	bash bench/run.sh --smoke                  fixed tiny op counts, a few seconds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"time"
)

// metricDef declares one metric. BENCHMARK.json carries the same table (a
// test keeps the two equal); bound is the share of the parent's median by
// which an end-to-end metric may worsen before a change counts as a
// regression, and is 0 for per-layer metrics, which have none.
type metricDef struct {
	name, unit, better string
	bound              float64
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"query_p95_ms", "ms", "lower", 0.25},
	{"alloc_kb_per_op", "kB", "lower", 0.10},
	{"live_heap_mb", "MB", "lower", 0.10},
}

// spec is one workload as BENCHMARK.json lists it.
type spec struct {
	name, why string
	clients   int
	build     func(seed int64, o buildOpts) (workload, error)
	// tracedCycles is the fixed length, in mix cycles, of each phase of the
	// traced run at the nominal run length (about a quarter of what the
	// measured run gets through); smokeCycles is the -smoke length.
	tracedCycles, smokeCycles int
	// roundCycles, when set, is the fixed length of a round of the measured
	// run, in mix cycles per client: for a workload whose state grows as it
	// runs, so that every round does the same work from the same state.
	// Other workloads' rounds are a third of --seconds long.
	roundCycles int
}

// nominalSeconds is the run length the fixed cycle counts were sized for;
// --seconds scales them.
const nominalSeconds = 25

// minRounds is how many rounds (set-up, then timed phase) a measured run of
// a workload without roundCycles is cut into.
const minRounds = 3

var specs = []spec{
	{
		name:    "plan-cold",
		why:     "fresh session per pass, ten first-sighted shapes over 8-row relations: LP solves and proof construction do the work, kernels and caches none",
		clients: 1, build: buildPlanCold, tracedCycles: 80, smokeCycles: 12,
	},
	{
		name:    "exec-large",
		why:     "warm plans, five large or adversarial instances evaluated round-robin without Stmt memos: engine and relational kernels do the work, planner a signature hit",
		clients: 1, build: buildExecLarge, tracedCycles: 70, smokeCycles: 5,
	},
	{
		name:    "serve-read",
		why:     "router + planner + 2 replicas over a fixed catalog, 2 closed-loop clients repeating four texts (0.5-200 KB answers): every query a result-memo hit, the wire path does the work",
		clients: 2, build: buildServe("serve-read", serveReadSizes), tracedCycles: 800, smokeCycles: 60,
	},
	{
		name:    "serve-mixed",
		why:     "same fleet, small catalog, every 20th op a fresh-row insert: each write drops memos and plan keys, so reads split into a hot and a re-plan-and-re-ship cluster",
		clients: 2, build: buildServe("serve-mixed", serveMixedSizes), tracedCycles: 20, smokeCycles: 2,
		roundCycles: 40,
	},
}

func specByName(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output of a single-workload run.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	notes []string // human-readable lines printed above the JSON
}

type options struct {
	seed    int64
	seconds int
	smoke   bool
	outDir  string
}

// measure is the untraced run: rounds of set-up and timed phase until
// --seconds of timed phase are used, the oracle after each. It reports every
// end-to-end metric, the time figures at reference speed (see ref.go).
//
// A round sets the workload up afresh, so a run measures set-up several
// times, and — on a workload whose state grows as it runs — every round
// starts from the same state and, with roundCycles set, does exactly the
// same work: what the run measures does not depend on how far it got.
func measure(sp spec, o options) (*report, error) {
	budget := time.Duration(o.seconds) * time.Second
	lim := limit{wall: budget / minRounds}
	switch {
	case o.smoke:
		lim = limit{cycles: sp.smokeCycles}
	case sp.roundCycles > 0:
		lim = limit{cycles: sp.roundCycles}
	}
	memo := newServeMemo()
	var (
		total  phase
		v      verdict
		setups []float64
		rounds []string
	)
	for {
		t0 := time.Now()
		w, err := sp.build(o.seed, buildOpts{clients: sp.clients, smoke: o.smoke, memo: memo})
		if err != nil {
			return nil, err
		}
		setup := time.Since(t0).Seconds()
		ph := runPhase(w, lim, nil, true)
		v.add(w.verify())
		w.close()
		if len(ph.queryMs) == 0 {
			return nil, fmt.Errorf("%s: a timed phase completed no query", sp.name)
		}
		// The set-up is put at reference speed by the slowdown of the phase
		// that follows it.
		setups = append(setups, setup/ph.slowdown())
		rounds = append(rounds, fmt.Sprintf("%.2fs + %d ops in %.2fs x%.2f", setup, ph.ops, ph.wall.Seconds(), ph.slowdown()))
		total.pool(ph)
		// Another round while what is timed so far, plus half a round, fits.
		if o.smoke || total.wall+total.wall/time.Duration(2*len(setups)) > budget {
			break
		}
	}

	rep := newReport(total, v)
	set := func(name string, x float64) { rep.Metrics[name] = value{x, unitOf(endToEnd, name)} }
	set("setup_s", median(setups))
	set("ops_per_s", total.opsPerSec())
	set("query_p50_ms", percentile(total.queryMs, 50))
	set("query_p95_ms", percentile(total.queryMs, 95))
	set("alloc_kb_per_op", float64(total.allocB)/1024/float64(total.ops))
	set("live_heap_mb", float64(total.liveB)/(1<<20))

	n := len(total.queryMs)
	rep.notef("%d ops in %.2fs of timed phase by %d client(s), in %d round(s) (set-up + timed phase x its slowdown): %s",
		total.ops, total.wall.Seconds(), sp.clients, len(rounds), strings.Join(rounds, ", "))
	rep.notef("the time figures above are at reference speed; as measured (the machine ran the reference kernel %.2f times its nominal time, median over the seconds of the run, from %.2f to %.2f): %.1f ops/s, p50 = %.4f ms, p95 = %.4f ms",
		total.slowdown(), slices.Min(total.slow), slices.Max(total.slow),
		total.rawOpsPerSec(), percentile(total.rawQueryMs, 50), percentile(total.rawQueryMs, 95))
	rep.notef("%d query samples: the highest percentile with at least ten samples beyond it is p%g = %.4f ms",
		n, tailPercentile(n), percentile(total.queryMs, tailPercentile(n)))
	if m := len(total.insertMs); m > 0 {
		rep.notef("%d insert samples: insert_p50_ms = %.4f (p%g = %.4f)", m, percentile(total.insertMs, 50),
			tailPercentile(m), percentile(total.insertMs, tailPercentile(m)))
	}
	return rep, nil
}

func newReport(ph phase, v verdict) *report {
	rep := &report{
		Attempted: ph.ops,
		Failed:    ph.failed + v.wrong,
		Metrics:   map[string]value{},
	}
	rep.Correct = rep.Failed == 0
	rep.notef("oracle: %d distinct outputs compared in full, %d checks failed; %d of %d ops failed in flight",
		v.checked, v.wrong, ph.failed, ph.ops)
	for _, err := range v.errs {
		rep.notef("  oracle: %v", err)
	}
	return rep
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("bench: metric " + name + " is not declared") // a bug in this file, not an input
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}

// print writes the human-readable block and then the JSON line.
func (r *report) print(title string, defs []metricDef) error {
	fmt.Printf("== %s\n", title)
	for _, d := range defs {
		if m, ok := r.Metrics[d.name]; ok {
			fmt.Printf("  %-34s %14.4f %s\n", d.name, m.Value, m.Unit)
		}
	}
	for _, n := range r.notes {
		fmt.Printf("  # %s\n", n)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

// repeat runs a workload n times on consecutive seeds and sets each
// end-to-end metric's run-to-run spread against its bound.
func repeat(sp spec, o options, n int) (bool, error) {
	series := map[string][]float64{}
	failed := 0
	for i := 0; i < n; i++ {
		run := o
		run.seed = o.seed + int64(i)
		rep, err := measure(sp, run)
		if err != nil {
			return false, err
		}
		failed += rep.Failed
		for name, m := range rep.Metrics {
			series[name] = append(series[name], m.Value)
		}
		fmt.Printf("  run %d/%d seed %d: %.1f ops/s, p50 %.3f ms\n", i+1, n, run.seed,
			rep.Metrics["ops_per_s"].Value, rep.Metrics["query_p50_ms"].Value)
	}
	fmt.Printf("== %s: spread over %d runs (quartile distance / median) against the bound\n", sp.name, n)
	ok := failed == 0
	for _, d := range endToEnd {
		s := spread(series[d.name])
		note := "ok"
		switch {
		case d.name == "setup_s":
			note = "not judged on spread"
		case s > d.bound:
			note, ok = "EXCEEDS BOUND", false
		case s > d.bound/3:
			note = "above a third of the bound"
		}
		fmt.Printf("  %-18s median %12.4f %-4s spread %6.2f%%  bound %5.1f%%  %s\n",
			d.name, median(series[d.name]), d.unit, 100*s, 100*d.bound, note)
	}
	fmt.Printf("  failed ops over all runs: %d\n", failed)
	return ok, nil
}

func main() {
	var (
		workloadName = flag.String("workload", "all", "workload to run: "+specNames()+", or all")
		seed         = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds      = flag.Int("seconds", nominalSeconds, "length of the timed phase, in seconds")
		trace        = flag.Int("trace", 0, "1 runs the traced run (per-layer metrics, trace files) instead of the measured one")
		repeats      = flag.Int("repeat", 0, "run each workload N times on consecutive seeds and print each metric's spread against its bound")
		smoke        = flag.Bool("smoke", false, "fixed tiny op counts and one set-up: a few seconds per workload, for tests")
		outDir       = flag.String("out", "bench/out", "directory the traced run writes trace-<workload>.json to")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) || *repeats < 0 || *repeats == 1 {
		fmt.Fprintln(os.Stderr, "usage: bench [--workload name|all] [--seed n] [--seconds s] [--trace 0|1] [--repeat n>=2] [--smoke]")
		os.Exit(2)
	}
	run := specs
	if *workloadName != "all" {
		sp, ok := specByName(*workloadName)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *workloadName, specNames())
			os.Exit(2)
		}
		run = []spec{sp}
	}
	o := options{seed: *seed, seconds: *seconds, smoke: *smoke, outDir: *outDir}
	ok := true
	for _, sp := range run {
		var err error
		switch {
		case *repeats > 0:
			var within bool
			within, err = repeat(sp, o, *repeats)
			ok = ok && within
		case *trace == 1:
			var rep *report
			if rep, err = traced(sp, o); err == nil {
				err = rep.print(sp.name+" (traced run, per-layer metrics)", perLayer)
				ok = ok && rep.Correct
			}
		default:
			var rep *report
			if rep, err = measure(sp, o); err == nil {
				err = rep.print(sp.name+" (measured run, tracing off)", endToEnd)
				ok = ok && rep.Correct
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", sp.name, err)
			os.Exit(1)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func specNames() string {
	names := make([]string, len(specs))
	for i, sp := range specs {
		names[i] = sp.name
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
