package main

import (
	"strings"
)

// perLayer declares every per-layer metric, layer by layer. Every traced
// run reports all of them: the per-workload ones (counts, ratios and shares
// read off the traced phase) are 0 where the workload has no such layer,
// the direct-call ones (all the times) are measured afresh each run.
var perLayer = []metricDef{
	// internal/lp, internal/flow, internal/widths
	{"lp.solves_per_query", "count", "lower", 0},
	{"lp.polymatroid_c4_ms", "ms", "lower", 0},
	{"flow.maximin_ms", "ms", "lower", 0},
	{"flow.construct_proof_ms", "ms", "lower", 0},
	{"flow.proof_steps", "count", "lower", 0},
	{"widths.fhtw_c4_ms", "ms", "lower", 0},
	{"widths.subw_c4_ms", "ms", "lower", 0},
	// internal/plan
	{"plan.prepare_cold_ms", "ms", "lower", 0},
	{"plan.prepare_c5_ms", "ms", "lower", 0},
	{"plan.exact_hit_us", "us", "lower", 0},
	{"plan.signature_hit_us", "us", "lower", 0},
	{"plan.canonicalize_us", "us", "lower", 0},
	{"plan.encode_us", "us", "lower", 0},
	{"plan.decode_us", "us", "lower", 0},
	{"plan.encoded_bytes", "B", "lower", 0},
	{"plan.hit_ratio", "ratio", "higher", 0},
	{"plan.plans_built", "count", "lower", 0},
	{"plan.duplicate_builds", "count", "lower", 0},
	// internal/query
	{"query.parse_us", "us", "lower", 0},
	{"query.bind_ms", "ms", "lower", 0},
	// internal/relation, internal/wcoj, internal/yannakakis
	{"relation.build_rows_per_s", "rows/s", "higher", 0},
	{"relation.scan_rows_per_s", "rows/s", "higher", 0},
	{"relation.join_ms", "ms", "lower", 0},
	{"relation.join_allocs", "count", "lower", 0},
	{"relation.semijoin_ms", "ms", "lower", 0},
	{"relation.project_ms", "ms", "lower", 0},
	{"relation.partition_ms", "ms", "lower", 0},
	{"relation.degree_partition_ms", "ms", "lower", 0},
	{"wcoj.triangle_ms", "ms", "lower", 0},
	{"wcoj.triangle_allocs", "count", "lower", 0},
	{"yannakakis.path3_ms", "ms", "lower", 0},
	// internal/core
	{"core.execute_ms.tri-full", "ms", "lower", 0},
	{"core.execute_ms.c4-bool-worst", "ms", "lower", 0},
	{"core.execute_ms.c4-fhtw", "ms", "lower", 0},
	{"core.execute_ms.c4-subw", "ms", "lower", 0},
	{"core.execute_ms.path-rule", "ms", "lower", 0},
	{"core.steps_ms", "ms", "lower", 0},
	{"core.rule_fanout_ms", "ms", "lower", 0},
	{"core.merge_ms", "ms", "lower", 0},
	{"core.joins", "count", "lower", 0},
	{"core.projections", "count", "lower", 0},
	{"core.partitions", "count", "lower", 0},
	{"core.subproblems", "count", "lower", 0},
	{"core.restarts", "count", "lower", 0},
	{"core.bound_slack_log2", "log2", "higher", 0},
	{"core.execute_par_ms", "ms", "lower", 0},
	{"core.par_speedup", "ratio", "higher", 0},
	// internal/incr
	{"incr.maintain_ms", "ms", "lower", 0},
	{"incr.full_reexec_ms", "ms", "lower", 0},
	{"incr.delta_rows_out", "count", "lower", 0},
	// package panda
	{"panda.stmt_memo_hit_us", "us", "lower", 0},
	{"panda.stmt_requery_after_insert_ms", "ms", "lower", 0},
	{"panda.insert_us_per_row", "us", "lower", 0},
	{"panda.loadcsv_rows_per_s", "rows/s", "higher", 0},
	{"panda.iter_rows_per_s", "rows/s", "higher", 0},
	{"panda.watch_delta_lag_ms", "ms", "lower", 0},
	{"panda.facade_glue_us", "us", "lower", 0},
	// internal/server
	{"server.handler_small_us", "us", "lower", 0},
	{"server.handler_large_us", "us", "lower", 0},
	{"server.encode_ns_per_row", "ns", "lower", 0},
	{"server.tcp_overhead_us", "us", "lower", 0},
	{"server.response_kb", "kB", "lower", 0},
	{"server.insert_handler_us", "us", "lower", 0},
	{"server.stmt_cache_hit_ratio", "ratio", "higher", 0},
	{"server.query_exec_pct", "%", "lower", 0},
	// internal/router
	{"router.hop_us", "us", "lower", 0},
	{"router.ensure_planned_ms", "ms", "lower", 0},
	{"router.insert_ms", "ms", "lower", 0},
	{"router.broadcast_us", "us", "lower", 0},
	{"router.shapes_ensured", "count", "lower", 0},
	{"router.push_entries", "count", "lower", 0},
	{"router.retries", "count", "lower", 0},
	{"router.failovers", "count", "lower", 0},
	{"router.replica_skew", "ratio", "lower", 0},
	// the tracing itself, and where the traced operations' time went
	{"trace.overhead_pct", "%", "lower", 0},
	{"trace.coverage_pct", "%", "higher", 0},
	{"trace.self_pct.op", "%", "lower", 0},
	{"trace.self_pct.parse", "%", "lower", 0},
	{"trace.self_pct.bind", "%", "lower", 0},
	{"trace.self_pct.plan", "%", "lower", 0},
	{"trace.self_pct.execute", "%", "lower", 0},
	{"trace.self_pct.iterate", "%", "lower", 0},
	{"trace.self_pct.router", "%", "lower", 0},
	{"trace.self_pct.ship", "%", "lower", 0},
	{"trace.self_pct.server", "%", "lower", 0},
	{"trace.self_pct.facade", "%", "lower", 0},
	{"trace.self_pct.ingest", "%", "lower", 0},
}

// layerOf assigns every span to the layer its self time is charged to, so
// that the trace.self_pct.* shares partition the operations' time.
func layerOf(name string) string {
	switch name {
	case opSpan:
		// A library operation's own time is harness glue between the layer
		// calls; a serve operation's is the client's HTTP exchange with the
		// router, reading the body included.
		return "op"
	case "query.parse":
		return "parse"
	case "query.bind", "core.constraints":
		return "bind"
	case "plan.prepare", "planner", "planner GET /v1/plan":
		// "planner" is a replica's own prepare-wait (a hit on the shipped
		// plan); GET /v1/plan is the planning tier paying the LP solves.
		return "plan"
	case "core.execute", "core.steps", "core.rule_fanout", "core.merge", "engine":
		return "execute"
	case "iterate", "facade.project":
		return "iterate"
	case "planner GET /v1/plans", "replica PUT /v1/plans":
		return "ship"
	case "replica POST /v1/query":
		return "server"
	case "stmt.query":
		return "facade"
	}
	if strings.HasPrefix(name, "router ") {
		return "router"
	}
	return "ingest" // the tiers applying a broadcast insert
}

// cycles is the workload's fixed traced-phase length, scaled with --seconds.
func (sp spec) cycles(o options) int {
	if o.smoke {
		return sp.smokeCycles
	}
	return max(1, sp.tracedCycles*o.seconds/nominalSeconds)
}

// traced is the traced run: one client, fixed operation counts. The mix runs
// with tracing off and with spans recorded (the difference is the tracing
// overhead), counters are sampled at the boundaries of the traced phase, and
// the direct-call layer metrics are taken afterwards. It reports
// every per-layer metric and writes the spans to <out>/trace-<workload>.json.
func traced(sp spec, o options) (*report, error) {
	rep, _, err := tracedPhases(sp, o)
	if err != nil {
		return nil, err
	}
	layers, err := runLayers(o.seed, o.seconds, o.smoke)
	if err != nil {
		return nil, err
	}
	for name, m := range layers {
		rep.Metrics[name] = m
	}
	for _, d := range perLayer {
		if _, ok := rep.Metrics[d.name]; !ok {
			rep.Metrics[d.name] = value{0, d.unit} // a probe that could not define its metric (no delta rows, say)
		}
	}
	return rep, nil
}

// tracedPhases is the workload's half of the traced run: the per-workload
// metrics and the trace file.
func tracedPhases(sp spec, o options) (*report, []span, error) {
	tr := newTracer()
	w, err := sp.build(o.seed, buildOpts{clients: 1, smoke: o.smoke, tr: tr})
	if err != nil {
		return nil, nil, err
	}
	defer w.close()
	// Untraced, traced, untraced: whatever drifts over the run (a growing
	// catalog, a warming process) falls on both sides of the comparison.
	lim := limit{cycles: sp.cycles(o)}
	half := limit{cycles: max(1, lim.cycles/2)}
	plain := runPhase(w, half, nil, false)
	before, err := w.counters(true)
	if err != nil {
		return nil, nil, err
	}
	ph := runPhase(w, lim, tr, false)
	after, err := w.counters(true)
	if err != nil {
		return nil, nil, err
	}
	rest := runPhase(w, half, nil, false)
	plain.ops, plain.failed, plain.busy = plain.ops+rest.ops, plain.failed+rest.failed, plain.busy+rest.busy
	v := w.verify()
	spans := tr.finish()
	path, err := writeTrace(o.outDir, sp.name, spans)
	if err != nil {
		return nil, nil, err
	}
	sum := summarize(spans)

	rep := newReport(ph, v)
	rep.Attempted += plain.ops
	rep.Failed += plain.failed
	rep.Correct = rep.Failed == 0
	set := func(name string, x float64) { rep.Metrics[name] = value{x, unitOf(perLayer, name)} }

	queries := float64(len(ph.queryMs))
	pl := after.planner
	hits, misses := pl.Hits-before.planner.Hits, pl.Misses-before.planner.Misses
	built := pl.PlansBuilt - before.planner.PlansBuilt
	set("lp.solves_per_query", float64(pl.LPSolves-before.planner.LPSolves)/queries)
	set("plan.hit_ratio", ratio(float64(hits), float64(hits+misses)))
	set("plan.plans_built", float64(built))
	set("plan.duplicate_builds", float64(built)-float64(misses))
	stmtHits, stmtMisses := after.stmtHits-before.stmtHits, after.stmtMisses-before.stmtMisses
	set("server.stmt_cache_hit_ratio", ratio(stmtHits, stmtHits+stmtMisses))
	var querySeconds float64
	for _, ms := range ph.queryMs {
		querySeconds += ms / 1e3
	}
	set("server.query_exec_pct", 100*(after.execSeconds-before.execSeconds)/querySeconds)
	set("router.shapes_ensured", after.shapesEnsured-before.shapesEnsured)
	set("router.push_entries", after.pushEntries-before.pushEntries)
	set("router.retries", after.retries-before.retries)
	set("router.failovers", after.failovers-before.failovers)
	var most, total float64
	for replica, n := range after.routed {
		n -= before.routed[replica]
		most, total = max(most, n), total+n
	}
	set("router.replica_skew", ratio(most*replicaCount, total))

	// One client, closed loop: operations per second of busy time, so that
	// the sampling the traced run does between operations is not charged.
	plainRate := float64(plain.ops) / plain.busy.Seconds()
	tracedRate := float64(ph.ops) / ph.busy.Seconds()
	set("trace.overhead_pct", 100*(1-tracedRate/plainRate))
	set("trace.coverage_pct", sum.coveragePct())
	byLayer := map[string]int64{}
	for name, ns := range sum.selfByName {
		byLayer[layerOf(name)] += ns
	}
	for _, d := range perLayer {
		if layer, ok := strings.CutPrefix(d.name, "trace.self_pct."); ok {
			set(d.name, ratio(100*float64(byLayer[layer]), float64(sum.rootNs)))
		}
	}
	rep.notef("%d untraced + %d traced ops by 1 client (%d traced cycles); %d spans written to %s",
		plain.ops, ph.ops, lim.cycles, len(spans), path)
	rep.notef("untraced %.1f ops/s, traced %.1f ops/s of busy time; traced query p50 %.4f ms",
		plainRate, tracedRate, percentile(ph.queryMs, 50))
	return rep, spans, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
