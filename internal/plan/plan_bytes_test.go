package plan

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"panda/internal/query"
)

// goldenShape is one shape of TestPlanBytesGolden: the parsed query or
// rule, the mode, and the constraint set core.CompleteConstraints derives
// from its card-row relations.
type goldenShape struct {
	name string
	pr   *query.ParseResult
	mode Mode
	cons []query.DegreeConstraint
}

// goldenShapes are the bench plan-cold corpus (ten shapes over 8-row
// relations), the three plans of testdata/pr12-plans.json, and the subw
// 4-cycle at sizes whose logs put 2³⁰-scale denominators into the bound LP's
// objective.
func goldenShapes(t *testing.T) []goldenShape {
	const (
		tri  = "R(A,B), S(B,C), T(A,C)."
		c4   = "R(A,B), S(B,C), T(C,D), U(D,A)."
		path = "R(A,B), S(B,C), T(C,D)."
	)
	shapes := []struct {
		name, src string
		mode      Mode
		card      int64
	}{
		{"tri-full", "Q(A,B,C) :- " + tri, ModeAuto, 8},
		{"tri-bool", "Q() :- " + tri, ModeAuto, 8},
		{"c4-full", "Q(A,B,C,D) :- " + c4, ModeFull, 8},
		{"c4-fhtw", "Q(A,B,C,D) :- " + c4, ModeFhtw, 8},
		{"c4-subw", "Q(A,B,C,D) :- " + c4, ModeSubw, 8},
		{"c4-bool", "Q() :- " + c4, ModeSubw, 8},
		{"path3-proj", "Q(A,D) :- " + path, ModeFhtw, 8},
		{"rule", "T1(A,B,C) v T2(B,C,D) :- " + path, ModeAuto, 8},
		{"c4-deg", "Q(A,B,C,D) :- " + c4 + "\ndeg(R: A,B | A) <= 8", ModeAuto, 8},
		{"path2-proj", "Q(A,C) :- R(A,B), S(B,C).", ModeAuto, 8},
		{"pr12-c4-fhtw", "Q(A,B,C,D) :- " + c4, ModeFhtw, 100},
		{"pr12-tri-full", "Q(A,B,C) :- " + tri, ModeFull, 7},
		{"pr12-c4-bool", "Q() :- " + c4, ModeAuto, 100},
		{"c4-subw-1000", "Q(A,B,C,D) :- " + c4, ModeSubw, 1000},
		{"c4-subw-12345", "Q(A,B,C,D) :- " + c4, ModeSubw, 12345},
		{"c4-bool-12345", "Q() :- " + c4, ModeSubw, 12345},
	}
	out := make([]goldenShape, len(shapes))
	for i, sh := range shapes {
		pr, err := query.Parse(sh.src)
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		cons := pr.Constraints
		for i, a := range pr.Rule.Atoms {
			cons = append(cons, query.Cardinality(a.Vars, sh.card, i))
		}
		out[i] = goldenShape{sh.name, pr, sh.mode, cons}
	}
	return out
}

// TestPlanBytesGolden pins the encoded bytes of the plan of every
// goldenShape. The golden's rows were first written by the commit before
// internal/lp moved to machine-word rationals: λ, δ, the witness and the
// proof sequence all come out of the LP's optimal vertex and dual, so a
// solver that reached an equal objective through a different pivot order
// would change these bytes. The query rows were rewritten when Prepare
// began planning the canonical spelling, from the planner's encodings of the
// commit before, Key cleared.
func TestPlanBytesGolden(t *testing.T) {
	var got strings.Builder
	for _, sh := range goldenShapes(t) {
		var buf bytes.Buffer
		var payload []byte
		format := "panda-plan"
		if sh.pr.Conj != nil {
			p, _, err := Prepare(sh.pr.Conj, sh.cons, sh.mode)
			if err != nil {
				t.Fatalf("%s: %v", sh.name, err)
			}
			wp, err := planOut(p)
			if err != nil {
				t.Fatalf("%s: %v", sh.name, err)
			}
			payload, err = json.Marshal(wp)
			if err != nil {
				t.Fatalf("%s: %v", sh.name, err)
			}
		} else {
			r, _, err := PrepareRule(&sh.pr.Rule.Schema, sh.cons, sh.pr.Rule.Targets)
			if err != nil {
				t.Fatalf("%s: %v", sh.name, err)
			}
			wr, err := ruleOut(r)
			if err != nil {
				t.Fatalf("%s: %v", sh.name, err)
			}
			payload, err = json.Marshal(&wr)
			if err != nil {
				t.Fatalf("%s: %v", sh.name, err)
			}
			format = "panda-rule"
		}
		// The golden's rows were written in the single-plan frames this
		// tree once had (panda-plan for a query, panda-rule for a rule).
		// The bytes pin the planning payload, so the test keeps writing
		// those frames.
		frame := struct {
			Format  string          `json:"format"`
			Version int             `json:"version"`
			Digest  string          `json:"digest"`
			Payload json.RawMessage `json:"plan"`
		}{format, FormatVersion, digestOf(payload), payload}
		if err := json.NewEncoder(&buf).Encode(&frame); err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		fmt.Fprintf(&got, "%s %d %x\n", sh.name, buf.Len(), sha256.Sum256(buf.Bytes()))
	}
	want, err := os.ReadFile("testdata/pr15-plan-bytes.golden")
	if err != nil {
		t.Fatalf("%v; got:\n%s", err, got.String())
	}
	if got.String() != string(want) {
		t.Errorf("encoded plans differ from testdata/pr15-plan-bytes.golden (name, length, sha256); got:\n%swant:\n%s", got.String(), want)
	}
}

// TestDirectPlanIsThePlannersPlan: a direct Prepare is a Planner miss
// without the cache, so on every goldenShape its plan is the Planner's plan
// with Key cleared, and a directly prepared rule is the Planner's Rules[0].
func TestDirectPlanIsThePlannersPlan(t *testing.T) {
	ctx := context.Background()
	pl := NewPlanner(8)
	for _, sh := range goldenShapes(t) {
		var direct, served any
		if sh.pr.Conj != nil {
			p, _, err := Prepare(sh.pr.Conj, sh.cons, sh.mode)
			if err != nil {
				t.Fatalf("%s: %v", sh.name, err)
			}
			sp, err := pl.Prepare(sh.pr.Conj, sh.cons, sh.mode)
			if err != nil {
				t.Fatalf("%s: %v", sh.name, err)
			}
			sp.Key = ""
			direct, served = p, sp
		} else {
			r, _, err := PrepareRule(&sh.pr.Rule.Schema, sh.cons, sh.pr.Rule.Targets)
			if err != nil {
				t.Fatalf("%s: %v", sh.name, err)
			}
			sp, err := pl.PrepareRuleContext(ctx, sh.pr.Rule, sh.cons)
			if err != nil {
				t.Fatalf("%s: %v", sh.name, err)
			}
			direct, served = r, sp.Rules[0]
		}
		if !reflect.DeepEqual(direct, served) {
			t.Errorf("%s: the direct plan is not the planner's", sh.name)
		}
	}
}

// TestSeveralHeadsPlanOnlyUnderModeRule: a rule's targets are several heads,
// which only ModeRule plans. Under any other mode the Planner and the direct
// entries refuse them, where planCanonical would plan the query of the first
// target alone; under ModeRule the Planner's plan is PrepareRuleContext's.
func TestSeveralHeadsPlanOnlyUnderModeRule(t *testing.T) {
	ctx := context.Background()
	for _, sh := range goldenShapes(t) {
		if sh.pr.Conj != nil {
			continue
		}
		r := sh.pr.Rule
		if len(r.Targets) < 2 {
			t.Fatalf("%s has %d targets; the check needs several", sh.name, len(r.Targets))
		}
		pl := NewPlanner(8)
		for _, mode := range []Mode{ModeAuto, ModeFull, ModeFhtw, ModeSubw} {
			if p, err := pl.prepare(ctx, &r.Schema, r.Targets, sh.cons, mode); err == nil {
				t.Errorf("%s under %v: the Planner planned %d targets as a %d-rule plan", sh.name, mode, len(r.Targets), len(p.Rules))
			}
			if _, _, err := prepareDirect(ctx, &r.Schema, r.Targets, sh.cons, mode); err == nil {
				t.Errorf("%s under %v: the direct entry planned %d targets", sh.name, mode, len(r.Targets))
			}
		}
		if st := pl.Stats(); st.Misses != 0 || st.LPSolves != 0 {
			t.Errorf("%s: refused inputs reached the planning phase: %+v", sh.name, st)
		}
		p, err := pl.prepare(ctx, &r.Schema, r.Targets, sh.cons, ModeRule)
		if err != nil {
			t.Fatalf("%s under ModeRule: %v", sh.name, err)
		}
		want, _, err := PrepareRuleContext(ctx, &r.Schema, sh.cons, r.Targets)
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		if len(p.Rules) != 1 || !reflect.DeepEqual(p.Rules[0], want) {
			t.Errorf("%s: the Planner's ModeRule plan (%d rules) is not PrepareRuleContext's rule", sh.name, len(p.Rules))
		}
	}
}
