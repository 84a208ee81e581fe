package core

import (
	"context"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
	"testing"

	"panda/internal/flow"
	"panda/internal/plan"
	"panda/internal/workload"
)

// restartWalk visits every Case-4b restart an execution of one prepared rule
// can reach. A frame's (λ, δ, remaining steps) depends on the data only
// through which composition steps went over budget — decomposition children
// inherit all three unchanged, base cases merely stop early — so taking both
// branches at every composition step, to any depth, covers every restart of
// every instance. At each site it truncates twice, with the witness
// production reads off the remaining steps and with the reference LP's
// (flow.FindWitness), and requires both to yield a proof sequence that
// validates; it then continues from the production branch.
type restartWalk struct {
	t      *testing.T
	n      int
	seen   map[string]bool
	sites  int
	differ int
}

func (w *restartWalk) walk(name string, lambda, delta flow.Vec, seq flow.ProofSequence) {
	state := fmt.Sprint(lambda, "|", delta, "|", seq)
	if w.seen[state] {
		return
	}
	w.seen[state] = true
	delta = delta.Clone()
	for i, step := range seq {
		if err := step.Apply(delta); err != nil {
			w.t.Fatalf("%s: step %d: %v", name, i, err)
		}
		if step.Kind != flow.Composition {
			continue
		}
		// Case 4b at this step: δ is already past the virtual composition.
		w.sites++
		rest := seq[i+1:]
		readOff, err := flow.WitnessOfProof(delta, rest)
		if err != nil {
			w.t.Fatalf("%s: site %d: %v", name, i, err)
		}
		fromLP, err := flow.FindWitness(w.n, lambda, delta)
		if err != nil {
			w.t.Fatalf("%s: site %d: reference LP: %v", name, i, err)
		}
		var next [2]*flow.TruncateResult
		var nextSeq [2]flow.ProofSequence
		for k, wit := range []*flow.Witness{readOff, fromLP} {
			tr, err := flow.Truncate(lambda, delta, wit, step.B, step.W)
			if err != nil {
				w.t.Fatalf("%s: site %d, witness %d: truncate: %v", name, i, k, err)
			}
			s, err := flow.ConstructProof(tr.Lambda, tr.Delta, tr.Witness)
			if err != nil {
				w.t.Fatalf("%s: site %d, witness %d: proof: %v", name, i, k, err)
			}
			if _, err := flow.ValidateProof(tr.Lambda, tr.Delta, s); err != nil {
				w.t.Fatalf("%s: site %d, witness %d: %v", name, i, k, err)
			}
			next[k], nextSeq[k] = tr, s
		}
		if fmt.Sprint(next[0].Lambda, next[0].Delta) != fmt.Sprint(next[1].Lambda, next[1].Delta) {
			// Both are valid truncations (Lemma 5.11); which one the engine
			// takes changes the work, never the answer.
			w.differ++
			w.t.Logf("%s: site %d: read-off truncation (λ' = %v, δ' = %v) differs from the LP witness's (λ' = %v, δ' = %v)",
				name, i, next[0].Lambda, next[0].Delta, next[1].Lambda, next[1].Delta)
		}
		if next[0].Lambda.L1().Sign() > 0 {
			w.walk(name+"→"+strconv.Itoa(i), next[0].Lambda, next[0].Delta, nextSeq[0])
		}
	}
}

// TestRestartWitnessAgainstLP is the differential of the Case-4b restart
// against the decision procedure it no longer calls, over every rule of the
// plans the worst-case fixtures execute.
func TestRestartWitnessAgainstLP(t *testing.T) {
	ctx := context.Background()
	c4 := workload.FourCycleQuery()
	c4bool := workload.BooleanFourCycle()
	rule := workload.PathRule()
	for _, m := range []int{16, 256} {
		worst := workload.CycleWorstCase(c4, m)
		cons := CompleteConstraints(&c4.Schema, worst, nil)
		var plans []*plan.Plan
		for _, mode := range []plan.Mode{plan.ModeFull, plan.ModeFhtw, plan.ModeSubw} {
			p, _, err := plan.Prepare(c4, cons, mode)
			if err != nil {
				t.Fatal(err)
			}
			plans = append(plans, p)
		}
		p, _, err := plan.Prepare(c4bool, cons, plan.ModeSubw)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, p)
		pathIns := workload.PathWorstCase(rule, m)
		p, err = plan.NewPlanner(1).PrepareRuleContext(ctx, rule, CompleteConstraints(&rule.Schema, pathIns, nil))
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, p)

		w := &restartWalk{t: t, n: 4, seen: map[string]bool{}}
		for pi, p := range plans {
			for ri, pr := range p.Rules {
				if !pr.Trivial {
					w.walk(fmt.Sprintf("m=%d/plan%d/rule%d", m, pi, ri), pr.Lambda, pr.Delta, pr.Seq)
				}
			}
		}
		if w.sites == 0 {
			t.Fatalf("m=%d: no restart site visited", m)
		}
		t.Logf("m=%d: %d restart sites over %d frame states, %d truncations differ from the LP witness's", m, w.sites, len(w.seen), w.differ)
	}
}

// TestNoSimplexAtRunTime guards the property that executing a plan solves no
// LP: no non-test file of this package may import internal/lp or mention the
// LP-backed entry points of internal/flow.
func TestNoSimplexAtRunTime(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	banned := map[string]bool{"FindWitness": true, "MaximinBound": true, "LinearBound": true}
	checked := 0
	for _, pkg := range pkgs {
		for name, file := range pkg.Files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			checked++
			for _, imp := range file.Imports {
				if path, _ := strconv.Unquote(imp.Path.Value); path == "panda/internal/lp" {
					t.Errorf("%s imports %s", name, path)
				}
			}
			ast.Inspect(file, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "flow" && banned[sel.Sel.Name] {
					t.Errorf("%s: flow.%s solves an LP; the execution path must not", fset.Position(sel.Pos()), sel.Sel.Name)
				}
				return true
			})
		}
	}
	if checked == 0 {
		t.Fatal("no source file checked")
	}
}
