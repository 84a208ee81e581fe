// Command panda is the CLI front end of the library: it parses a query
// file, reports size bounds and width parameters, and optionally evaluates
// the query over CSV relations. It is a thin shell over the panda.DB
// session API — evaluation opens a session, ingests the data directory
// into the catalog, and runs the query text through DB.Query.
//
// Usage:
//
//	panda bounds  <query-file>
//	panda widths  <query-file>
//	panda eval    [-j N] [-timeout D] <query-file> <data-dir>
//	panda explain [-timeout D] <query-file>         # proof sequence / plan trace
//	panda plan    [-timeout D] <query-file>         # reified prepared-query plan
//
// -j bounds how many independent rule executions run concurrently (0 picks
// the number of CPUs); -timeout aborts evaluation after a duration (e.g.
// 30s) via context cancellation.
//
// The query language (see internal/query):
//
//	Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D), U(D,A).
//	T1(A,B,C) v T2(B,C,D) :- R(A,B), S(B,C), T(C,D).
//	|R| <= 1000
//	deg(R: B | A) <= 5
//	fd(S: B -> C)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"panda"
	"panda/internal/query"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("panda: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, errUsage) {
			usage()
		}
		log.Fatal(err)
	}
}

var errUsage = errors.New("usage")

// run dispatches one CLI invocation, writing its report to w. Factored out
// of main so the end-to-end tests can drive the exact production path.
func run(args []string, w io.Writer) error {
	if len(args) < 1 {
		return errUsage
	}
	cmd := args[0]
	fs := flag.NewFlagSet("panda "+cmd, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	jobs := fs.Int("j", 1, "parallel rule executions per query (0 = NumCPU)")
	timeout := fs.Duration("timeout", 0, "abort evaluation after this duration (0 = none)")
	if err := fs.Parse(args[1:]); err != nil {
		return errUsage
	}
	rest := fs.Args()
	if len(rest) < 1 {
		return errUsage
	}
	file := rest[0]
	src, err := os.ReadFile(file)
	if err != nil {
		return err
	}
	res, err := panda.Parse(string(src))
	if err != nil {
		return err
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	// Reject flags a subcommand does not honor instead of silently
	// ignoring them: only eval executes rules in parallel, and the pure
	// analysis commands (bounds, widths) have no cancellable phase. The
	// check runs on the user-supplied value, before -j 0 is normalized to
	// NumCPU, so rejection does not depend on the core count.
	if *jobs != 1 && cmd != "eval" {
		return fmt.Errorf("flag -j applies to eval only")
	}
	if *timeout > 0 && (cmd == "bounds" || cmd == "widths") {
		return fmt.Errorf("flag -timeout applies to eval, explain and plan")
	}
	if *jobs == 0 {
		*jobs = runtime.NumCPU()
	}
	switch cmd {
	case "bounds":
		return cmdBounds(w, res)
	case "widths":
		return cmdWidths(w, res)
	case "eval":
		if len(rest) < 2 {
			return errUsage
		}
		return cmdEval(ctx, w, res, string(src), rest[1], *jobs)
	case "explain":
		return cmdExplain(ctx, w, res)
	case "plan":
		return cmdPlan(ctx, w, res)
	default:
		return errUsage
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  panda bounds  <query-file>
  panda widths  <query-file>
  panda eval    [-j N] [-timeout D] <query-file> <data-dir>
  panda explain [-timeout D] <query-file>
  panda plan    [-timeout D] <query-file>`)
	os.Exit(2)
}

// defaultCard is assumed for atoms with no declared cardinality so the
// data-independent planning LPs are bounded; `panda plan` reports the
// assumption.
const defaultCard = 1024

func fmtStep(s *query.Schema, st panda.ProofStep) string {
	w := st.W.RatString()
	switch st.Kind {
	case panda.StepSubmodularity:
		return fmt.Sprintf("%s·s[%s,%s]", w, s.VarLabel(st.A), s.VarLabel(st.B))
	case panda.StepMonotonicity:
		return fmt.Sprintf("%s·m[%s⊂%s]", w, s.VarLabel(st.A), s.VarLabel(st.B))
	case panda.StepComposition:
		return fmt.Sprintf("%s·c[%s,%s]", w, s.VarLabel(st.A), s.VarLabel(st.B))
	default:
		return fmt.Sprintf("%s·d[%s,%s]", w, s.VarLabel(st.B), s.VarLabel(st.A))
	}
}

func printRulePlan(w io.Writer, s *query.Schema, idx int, rp *panda.RulePlan) {
	var targets []string
	for _, b := range rp.Targets {
		targets = append(targets, "T_"+s.VarLabel(b))
	}
	fmt.Fprintf(w, "rule %d: %s\n", idx, strings.Join(targets, " ∨ "))
	if rp.Trivial {
		fmt.Fprintln(w, "  trivial: ∅ target, answered by the unit table")
		return
	}
	fmt.Fprintf(w, "  bound: 2^%s\n", rp.Bound.FloatString(4))
	fmt.Fprintf(w, "  proof sequence (%d steps):\n", len(rp.Seq))
	for _, st := range rp.Seq {
		fmt.Fprintf(w, "    %s\n", fmtStep(s, st))
	}
}

func cmdPlan(ctx context.Context, w io.Writer, res *query.ParseResult) error {
	s := &res.Rule.Schema
	dcs, assumed := panda.DefaultCardinalities(s, res.Constraints, defaultCard)
	if len(assumed) > 0 {
		fmt.Fprintf(w, "# no cardinality declared for %s; assuming ≤ %d\n",
			strings.Join(assumed, ", "), defaultCard)
	}
	// Plan through a fresh session so the cache ops counters below describe
	// exactly this invocation's planning work; -timeout bounds the LP
	// solves through the context.
	db := panda.Open()
	defer db.Close()
	var p *panda.QueryPlan
	var err error
	if res.Conj == nil {
		p, err = db.PlanRuleContext(ctx, res.Rule, nil, dcs)
	} else {
		p, err = db.PlanContext(ctx, res.Conj, nil, dcs)
	}
	if err != nil {
		return err
	}
	widthName := map[panda.PlanMode]string{
		panda.ModeRule: "polymatroid bound",
		panda.ModeFull: "polymatroid bound",
		panda.ModeFhtw: "da-fhtw",
		panda.ModeSubw: "da-subw",
	}[p.Mode]
	fmt.Fprintf(w, "mode      : %v\n", p.Mode)
	fmt.Fprintf(w, "signature : %s (%d-byte canonical key)\n", panda.SignatureDigest(p.Key), len(p.Key))
	fmt.Fprintf(w, "width     : %s = %s (log₂ units)\n", widthName, p.Width.FloatString(4))
	if p.Chosen >= 0 {
		td := p.TDs[p.Chosen]
		fmt.Fprintf(w, "tree decomposition (%d of %d enumerated):\n", p.Chosen+1, len(p.TDs))
		for i, b := range td.Bags {
			parent := "root"
			if td.Parent[i] >= 0 {
				parent = fmt.Sprintf("child of %s", s.VarLabel(td.Bags[td.Parent[i]]))
			}
			fmt.Fprintf(w, "  bag %s (%s)\n", s.VarLabel(b), parent)
		}
	} else if len(p.Transversals) > 0 {
		fmt.Fprintf(w, "bag universe: %d bags across %d tree decompositions, %d minimal transversals\n",
			len(p.Bags), len(p.TDs), len(p.Transversals))
	}
	covers, err := p.Covers()
	if err != nil {
		return err
	}
	for _, cov := range covers {
		var terms []string
		for j, wt := range cov.Weights {
			if wt.Sign() != 0 {
				terms = append(terms, fmt.Sprintf("%s=%s", s.Atoms[j].Name, wt.RatString()))
			}
		}
		fmt.Fprintf(w, "cover %s: ρ* = %s  [%s]\n", s.VarLabel(cov.Bag), cov.Value.RatString(), strings.Join(terms, " "))
	}
	for i, rp := range p.Rules {
		printRulePlan(w, s, i, rp)
	}
	// Cache ops counters: what this plan cost (lp-solves) and what a
	// server reusing the cache would save per hit (lp-saved accumulates).
	fmt.Fprintf(w, "planner   : %v\n", db.PlannerStats())
	return nil
}

func cmdBounds(w io.Writer, res *query.ParseResult) error {
	if res.Conj != nil {
		rep, err := panda.Bounds(res.Conj, res.Constraints)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "size bounds (log₂ units; |Q| ≤ 2^value):")
		fmt.Fprintf(w, "  vertex bound      : %v\n", rep.Vertex.FloatString(4))
		if rep.IntegralCover != nil {
			fmt.Fprintf(w, "  integral cover ρ  : %v\n", rep.IntegralCover.FloatString(4))
			fmt.Fprintf(w, "  AGM bound ρ*      : %v\n", rep.AGM.FloatString(4))
		}
		fmt.Fprintf(w, "  polymatroid bound : %v\n", rep.Polymatroid.FloatString(4))
		return nil
	}
	b, err := panda.RuleBound(res.Rule, res.Constraints)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "disjunctive rule polymatroid bound: 2^%v\n", b.FloatString(4))
	return nil
}

func cmdWidths(w io.Writer, res *query.ParseResult) error {
	if res.Conj == nil {
		return errors.New("widths apply to conjunctive queries")
	}
	rep, err := panda.Widths(res.Conj)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "tw   = %d\n", rep.Treewidth)
	fmt.Fprintf(w, "ghtw = %d\n", rep.GHTW)
	fmt.Fprintf(w, "fhtw = %v\n", rep.FHTW.RatString())
	fmt.Fprintf(w, "subw = %v\n", rep.Subw.RatString())
	fmt.Fprintf(w, "adw  = %v\n", rep.Adw.RatString())
	if len(res.Constraints) > 0 {
		df, err := panda.DaFhtw(res.Conj, res.Constraints)
		if err != nil {
			return err
		}
		ds, err := panda.DaSubw(res.Conj, res.Constraints)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "da-fhtw = %v (log₂ units)\n", df.FloatString(4))
		fmt.Fprintf(w, "da-subw = %v (log₂ units)\n", ds.FloatString(4))
	}
	return nil
}

// cmdEval is the DB path end to end: ingest each referenced <Atom>.csv
// into a session catalog, run the query text through Prepare +
// QueryContext, print the unified result. Every head shape — full,
// Boolean, proper projection (which previously fell through to the
// disjunctive branch and printed T_ tables) and disjunctive rules — routes
// through the same call. Only the atoms the query names are loaded, so
// unrelated files in the data directory are ignored; a relation's CSV may
// be empty (the atom arity comes from the query), but it must exist. The
// context carries the -timeout deadline; -j sets the rule-execution
// parallelism.
func cmdEval(ctx context.Context, w io.Writer, parsed *query.ParseResult, src, dir string, jobs int) error {
	db := panda.Open()
	defer db.Close()
	s := &parsed.Rule.Schema
	for i, a := range s.Atoms {
		if err := db.CreateRelation(a.Name, s.Arity(i)); err != nil {
			if errors.Is(err, panda.ErrRelationExists) {
				continue // self-join: both atoms read one table
			}
			return err
		}
		f, err := os.Open(filepath.Join(dir, a.Name+".csv"))
		if err != nil {
			return fmt.Errorf("relation %s: %w", a.Name, err)
		}
		_, err = db.LoadCSVContext(ctx, a.Name, f)
		f.Close()
		if err != nil {
			return err
		}
	}
	stmt, err := db.Prepare(src)
	if err != nil {
		return err
	}
	res, err := stmt.QueryContext(ctx, panda.WithParallelism(jobs))
	if err != nil {
		return err
	}
	switch {
	case res.Mode == panda.ModeRule:
		targets := make([]panda.Set, 0, len(res.Tables))
		for b := range res.Tables {
			targets = append(targets, b)
		}
		sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
		for _, b := range targets {
			fmt.Fprintf(w, "# T_%s: %d tuples\n", s.VarLabel(b), res.Tables[b].Size())
		}
	case res.Rel == nil: // Boolean
		fmt.Fprintf(w, "%v  (max intermediate %d)\n", res.OK, res.Stats.MaxIntermediate)
	case res.Mode == panda.ModeFull:
		fmt.Fprintf(w, "# |Q| = %d  (bound 2^%v, max intermediate %d)\n",
			res.Size(), res.Bound.FloatString(3), res.Stats.MaxIntermediate)
		printRows(w, res)
	default: // proper projection (da-subw / da-fhtw)
		fmt.Fprintf(w, "# |Q| = %d  (%s 2^%v, max intermediate %d)\n",
			res.Size(), res.Mode, res.Width.FloatString(3), res.Stats.MaxIntermediate)
		printRows(w, res)
	}
	return nil
}

func printRows(w io.Writer, res *panda.Result) {
	for row := range res.Iter() {
		strs := make([]string, len(row))
		for i, v := range row {
			strs[i] = strconv.FormatInt(v, 10)
		}
		fmt.Fprintln(w, strings.Join(strs, ","))
	}
}

func cmdExplain(ctx context.Context, w io.Writer, res *query.ParseResult) error {
	// Build a small synthetic instance to drive the planner and show the
	// operator trace.
	ins := panda.RandomInstance(1, &res.Rule.Schema, 32, 8)
	db := panda.Open()
	defer db.Close()
	r, err := db.EvalRuleContext(ctx, res.Rule, ins, res.Constraints, panda.WithTrace(true))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "polymatroid bound: 2^%v\n", r.Bound.FloatString(4))
	fmt.Fprintln(w, "operator trace on a 32-tuple synthetic instance:")
	for _, line := range r.Stats.Trace {
		fmt.Fprintln(w, "  ", line)
	}
	fmt.Fprintf(w, "steps: %v, joins %d, projections %d, partitions %d, restarts %d\n",
		r.Stats.StepsByKind, r.Stats.Joins, r.Stats.Projections, r.Stats.Partitions, r.Stats.Restarts)
	return nil
}
