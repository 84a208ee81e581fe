package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"panda/internal/bitset"
	"panda/internal/plan"
	"panda/internal/query"
	"panda/internal/relation"
	"panda/internal/workload"
)

// digestCase is one execution of the pinned matrix.
type digestCase struct {
	name  string
	q     *query.Conjunctive // nil for the rule
	rule  *query.Disjunctive
	ins   *query.Instance
	mode  plan.Mode
	parts int
}

// digestMatrix is the 165-execution matrix behind
// testdata/pr16-exec-digest.golden: Example 1.10's adversarial 4-cycle input
// at m ∈ {16, 64, 256} (full query under every mode, the (A1,A3) projection,
// the Boolean query, Example 1.4's rule on Example 1.8's input), and twelve
// seeds of skewed random instances for the 4-cycle, the Boolean 4-cycle, the
// triangle and the rule, unpartitioned and three-way partitioned.
func digestMatrix() []digestCase {
	c4 := workload.FourCycleQuery()
	c4proj := workload.FourCycleQuery()
	c4proj.Free = bitset.Of(0, 2)
	c4bool := workload.BooleanFourCycle()
	tri := workload.TriangleQuery()
	rule := workload.PathRule()

	var cases []digestCase
	for _, m := range []int{16, 64, 256} {
		worst := workload.CycleWorstCase(c4, m)
		for _, mode := range []plan.Mode{plan.ModeFull, plan.ModeFhtw, plan.ModeSubw} {
			cases = append(cases, digestCase{name: fmt.Sprintf("worst/m=%d/c4/%v", m, mode), q: c4, ins: worst, mode: mode, parts: 1})
		}
		cases = append(cases,
			digestCase{name: fmt.Sprintf("worst/m=%d/c4-proj/subw", m), q: c4proj, ins: worst, mode: plan.ModeSubw, parts: 1},
			digestCase{name: fmt.Sprintf("worst/m=%d/c4-bool/fhtw", m), q: c4bool, ins: worst, mode: plan.ModeFhtw, parts: 1},
			digestCase{name: fmt.Sprintf("worst/m=%d/c4-bool/subw", m), q: c4bool, ins: worst, mode: plan.ModeSubw, parts: 1},
			digestCase{name: fmt.Sprintf("worst/m=%d/path-rule", m), rule: rule, ins: workload.PathWorstCase(rule, m), mode: plan.ModeRule, parts: 1},
		)
	}
	for seed := int64(1); seed <= 12; seed++ {
		// Few distinct values on one side of every atom: heavy keys, so
		// Lemma 6.1 partitions and Case-4b restarts fire.
		rows, dom := 40+10*int(seed), 6+int(seed)
		c4ins := skewedBinary(seed, &c4.Schema, rows, dom)
		triIns := skewedBinary(seed, &tri.Schema, rows, dom)
		ruleIns := skewedBinary(seed, &rule.Schema, rows, dom)
		for _, parts := range []int{1, 3} {
			at := func(shape string) string { return fmt.Sprintf("random/seed=%d/K=%d/%s", seed, parts, shape) }
			cases = append(cases,
				digestCase{name: at("c4/full"), q: c4, ins: c4ins, mode: plan.ModeFull, parts: parts},
				digestCase{name: at("c4/fhtw"), q: c4, ins: c4ins, mode: plan.ModeFhtw, parts: parts},
				digestCase{name: at("c4/subw"), q: c4, ins: c4ins, mode: plan.ModeSubw, parts: parts},
				digestCase{name: at("c4-bool/subw"), q: c4bool, ins: c4ins, mode: plan.ModeSubw, parts: parts},
				digestCase{name: at("tri/subw"), q: tri, ins: triIns, mode: plan.ModeSubw, parts: parts},
				digestCase{name: at("path-rule"), rule: rule, ins: ruleIns, mode: plan.ModeRule, parts: parts},
			)
		}
	}
	return cases
}

// prepare plans the case the way TestExecDigestGolden does.
func (tc digestCase) prepare(ctx context.Context) (*plan.Plan, error) {
	if tc.rule != nil {
		return plan.NewPlanner(1).PrepareRuleContext(ctx, tc.rule, CompleteConstraints(&tc.rule.Schema, tc.ins, nil))
	}
	p, _, err := plan.Prepare(tc.q, CompleteConstraints(&tc.q.Schema, tc.ins, nil), tc.mode)
	return p, err
}

// TestParallelDigestParity: every execution of digestMatrix digests the same
// at Parallelism 1 and 4. The pool runs the rule tasks, the per-bag
// reductions and the Yannakakis passes, and no merge may see the order they
// finished in. Run it with -race: the workers share the inputs and their
// memoized indexes.
func TestParallelDigestParity(t *testing.T) {
	ctx := context.Background()
	for i, tc := range digestMatrix() {
		if testing.Short() && i%5 != 0 { // coprime to the matrix's periods: every shape still comes up
			continue
		}
		p, err := tc.prepare(ctx)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var digests [2]string
		for k, par := range []int{1, 4} {
			ex, err := (&Executor{Partitions: tc.parts, Parallelism: par, Opt: Options{Trace: true}}).Execute(ctx, p, tc.ins)
			if err != nil {
				t.Fatalf("%s P=%d: %v", tc.name, par, err)
			}
			digests[k] = execDigest(ex)
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: digest %s at P=1, %s at P=4", tc.name, digests[0], digests[1])
		}
	}
}

// TestExecuteRuleIsTheRulePlan: ExecuteRule runs a prepared rule as the
// planner's own ModeRule plan, so for every rule case of digestMatrix it
// digests the same as Execute of that plan, under each Partitions ×
// Parallelism an Executor takes.
func TestExecuteRuleIsTheRulePlan(t *testing.T) {
	ctx := context.Background()
	for _, tc := range digestMatrix() {
		if tc.rule == nil || tc.parts != 1 { // the K=3 cases repeat the K=1 instances
			continue
		}
		p, err := tc.prepare(ctx)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, parts := range []int{1, 4} {
			for _, par := range []int{1, 4} {
				ex := &Executor{Partitions: parts, Parallelism: par, Opt: Options{Trace: true}}
				want, err := ex.Execute(ctx, p, tc.ins)
				if err != nil {
					t.Fatalf("%s K=%d P=%d: Execute: %v", tc.name, parts, par, err)
				}
				got, err := ex.ExecuteRule(ctx, &tc.rule.Schema, p.Rules[0], p.Cons, tc.ins)
				if err != nil {
					t.Fatalf("%s K=%d P=%d: ExecuteRule: %v", tc.name, parts, par, err)
				}
				if g, w := execDigest(got), execDigest(want); g != w {
					t.Errorf("%s K=%d P=%d: ExecuteRule digests %s, Execute of the rule plan %s", tc.name, parts, par, g, w)
				}
			}
		}
	}
}

// skewedBinary fills every binary atom with up to n tuples whose first
// column ranges over [dom] and whose second ranges over [dom²].
func skewedBinary(seed int64, s *query.Schema, n, dom int) *query.Instance {
	rng := rand.New(rand.NewSource(seed))
	ins := query.NewInstance(s)
	for i := range s.Atoms {
		for t := 0; t < n; t++ {
			ins.Relations[i].Insert([]relation.Value{relation.Value(rng.Intn(dom)), relation.Value(rng.Intn(dom * dom))})
		}
	}
	return ins
}

// execDigest hashes everything an execution did and returned: Stats with the
// operator trace, the answer's rows in physical order, and the model tables.
func execDigest(ex *ExecResult) string {
	h := sha256.New()
	stats, err := json.Marshal(ex.Stats)
	if err != nil {
		panic(err)
	}
	h.Write(stats)
	fmt.Fprintf(h, "\nnonempty=%v\n", ex.NonEmpty)
	var buf []byte
	writeRel := func(r *relation.Relation) {
		fmt.Fprintf(h, "%v %d\n", r.Cols(), r.Size())
		for row := range r.All() {
			buf = buf[:0]
			for _, v := range row {
				buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
			}
			h.Write(buf)
		}
	}
	if ex.Out != nil {
		writeRel(ex.Out)
	}
	targets := make([]bitset.Set, 0, len(ex.Tables))
	for b := range ex.Tables {
		targets = append(targets, b)
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
	for _, b := range targets {
		fmt.Fprintf(h, "T%d ", b)
		writeRel(ex.Tables[b])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestExecDigestGolden pins "same work": one line per execution of
// digestMatrix — name, restart count, sha256 of execDigest — compared with a
// golden written by the commit before the Case-4b restart stopped solving an
// LP (the way TestPlanBytesGolden pins plan bytes). The restart's truncated
// inequality and rebuilt proof sequence decide every later join, partition
// and table, so a restart that took a different (even if valid) route would
// change Stats, the trace or the physical row order and show up here, where
// an answer-only oracle would not see it. The conjunctive rows were
// rewritten when plan.Prepare began planning the canonical spelling, from
// the commit before with each case planned by a Planner.
func TestExecDigestGolden(t *testing.T) {
	ctx := context.Background()
	var got strings.Builder
	restarts := 0
	for _, tc := range digestMatrix() {
		p, err := tc.prepare(ctx)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		ex, err := (&Executor{Partitions: tc.parts, Opt: Options{Trace: true}}).Execute(ctx, p, tc.ins)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		restarts += ex.Stats.Restarts
		fmt.Fprintf(&got, "%s restarts=%d %s\n", tc.name, ex.Stats.Restarts, execDigest(ex))
	}
	if restarts < 100 {
		t.Errorf("matrix reached %d Case-4b restarts; it is meant to exercise them (≥ 100)", restarts)
	}
	const golden = "testdata/pr16-exec-digest.golden"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v; got:\n%s", err, got.String())
	}
	if got.String() != string(want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Errorf("execution differs from %s:\n got %s\nwant %s", golden, gl[i], wl[i])
			}
		}
		if len(gl) != len(wl) {
			t.Errorf("%d executions, %s has %d", len(gl)-1, golden, len(wl)-1)
		}
	}
}
