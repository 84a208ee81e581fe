package plan

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/big"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"panda/internal/bitset"
	"panda/internal/flow"
	"panda/internal/query"
	"panda/internal/widths"
)

// TestPricedCertificatesMatchTheLP: a plan's bounds and width are its
// certificate priced at its constraints (price.go), not copies of the LP's
// objective, so they must be the LP's values. On the shapes of
// TestPlanBytesGolden (goldenShapes), on 5-variable paths and cycles under
// every mode (seeded cardinalities, a second cardinality on one atom, a
// degree constraint) and on the plans of testdata/pr12-plans.json, every
// rule's bound equals the bound LP of its targets, and the width equals
// da-fhtw's min-max over the bag LPs (ModeFhtw, which must also pick
// Chosen), the largest transversal LP (ModeSubw) or the one rule's LP. A
// renamed spelling's plan, a planner hit rebound by fromCanonical, prices to
// the same bounds and width, and decodes.
func TestPricedCertificatesMatchTheLP(t *testing.T) {
	shapes := goldenShapes(t)
	rng := rand.New(rand.NewSource(43))
	for _, cyclic := range []bool{false, true} {
		var atoms []string
		for i := 0; i < 4 || (cyclic && i < 5); i++ {
			atoms = append(atoms, fmt.Sprintf("R%d(%c,%c)", i, 'A'+i, 'A'+(i+1)%5))
		}
		cards := make([]int64, len(atoms))
		for i := range cards {
			cards[i] = 2 + rng.Int63n(199)
		}
		d := rng.Intn(len(atoms))
		deg := fmt.Sprintf("\ndeg(R%d: %c,%c | %c) <= %d", d, 'A'+d, 'A'+(d+1)%5, 'A'+d, 1+rng.Int63n(cards[d]))
		// A second cardinality on one atom's pair: the smaller prices it.
		a, n := rng.Intn(len(atoms)), 2+rng.Int63n(199)
		body := strings.Join(atoms, ", ") + "." + deg
		kind := map[bool]string{false: "path5", true: "c5"}[cyclic]
		for _, head := range []string{"Q(A,B,C,D,E)", "Q()", "Q(A,E)"} {
			pr, err := query.Parse(head + " :- " + body)
			if err != nil {
				t.Fatal(err)
			}
			cons := pr.Constraints
			for i, at := range pr.Rule.Atoms {
				cons = append(cons, query.Cardinality(at.Vars, cards[i], i))
			}
			cons = append(cons, query.Cardinality(pr.Rule.Atoms[a].Vars, n, a))
			modes := []Mode{ModeFhtw, ModeSubw, ModeAuto}
			if head == "Q(A,B,C,D,E)" {
				modes = append(modes, ModeFull)
			}
			for _, m := range modes {
				shapes = append(shapes, goldenShape{fmt.Sprintf("%s-%s-%v", kind, head, m), pr, m, cons})
			}
		}
	}

	ctx := context.Background()
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			pr, cons := sh.pr, sh.cons
			s, heads := &pr.Rule.Schema, pr.Rule.Targets
			if pr.Conj != nil {
				s, heads = &pr.Conj.Schema, []bitset.Set{pr.Conj.Free}
			}
			var err error
			var p *Plan
			if pr.Conj != nil {
				p, _, err = PrepareContext(ctx, pr.Conj, cons, sh.mode)
			} else {
				var r *PreparedRule
				if r, _, err = PrepareRuleContext(ctx, s, cons, heads); err == nil {
					p = NewRulePlan(s, cons, r)
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			checkPricesAgainstLP(t, p)

			// The planner takes a rule under ModeRule; the direct path above
			// ignores the mode goldenShapes names for it.
			mode := ModeRule
			if pr.Conj != nil {
				mode = ResolveMode(pr.Conj, sh.mode)
			}
			pl := NewPlanner(2)
			if _, err := pl.prepare(ctx, s, heads, cons, mode); err != nil {
				t.Fatal(err)
			}
			rs, rheads, rcons := renameInput(s, heads, cons)
			rp, err := pl.prepare(ctx, rs, rheads, rcons, mode)
			if err != nil {
				t.Fatal(err)
			}
			if st := pl.Stats(); st.Hits != 1 {
				t.Fatalf("the renamed spelling missed the planner: %v", st)
			}
			// Both spellings run the key's one plan: rule i of each is its
			// rule i rebound through that spelling's signature, so in
			// canonical space the two answer one target set, at one bound.
			if len(rp.Rules) != len(p.Rules) {
				t.Fatalf("renamed plan has %d rules, the direct plan %d", len(rp.Rules), len(p.Rules))
			}
			sig, err := canonicalize(s, heads, cons, mode)
			if err != nil {
				t.Fatal(err)
			}
			rsig, err := canonicalize(rs, rheads, rcons, mode)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range rp.Rules {
				want := p.Rules[i]
				if got, canon := remapSets(r.Targets, rsig.VarPerm), remapSets(want.Targets, sig.VarPerm); !slices.Equal(got, canon) {
					t.Fatalf("renamed rule %d answers %v in canonical space, the direct plan's %v", i, got, canon)
				}
				c := *r
				if err := priceRule(&c, rp.Cons); err != nil {
					t.Fatal(err)
				}
				if c.Bound.Cmp(want.Bound) != 0 || r.Bound.Cmp(want.Bound) != 0 {
					t.Errorf("renamed rule %d: bound %v, priced %v, want %v", i, r.Bound, c.Bound, want.Bound)
				}
			}
			if rp.Width.Cmp(p.Width) != 0 {
				t.Errorf("renamed plan: width %v, want %v", rp.Width, p.Width)
			}
			var buf bytes.Buffer
			if err := EncodePlan(&buf, rp); err != nil {
				t.Fatal(err)
			}
			if _, err := DecodePlan(&buf); err != nil {
				t.Errorf("renamed plan does not decode: %v", err)
			}
		})
	}

	t.Run("pr12-plans", func(t *testing.T) {
		data, err := os.ReadFile("testdata/pr12-plans.json")
		if err != nil {
			t.Fatal(err)
		}
		var env cacheEnvelope
		if err := json.Unmarshal(data, &env); err != nil {
			t.Fatal(err)
		}
		for _, ent := range env.Entries {
			var wp wirePlan
			if err := json.Unmarshal(ent.Plan, &wp); err != nil {
				t.Fatal(err)
			}
			p, err := planIn(&wp)
			if err != nil {
				t.Fatal(err)
			}
			checkPricesAgainstLP(t, p)
		}
	})
}

// checkPricesAgainstLP holds p's priced bounds and width to fresh LP solves
// over p's constraints.
func checkPricesAgainstLP(t *testing.T, p *Plan) {
	t.Helper()
	fdcs, err := FlowDCs(&p.Schema, p.Cons)
	if err != nil {
		t.Fatal(err)
	}
	lp := func(targets []bitset.Set) (*big.Rat, error) {
		res, err := flow.MaximinBound(p.Schema.NumVars, fdcs, targets)
		if err != nil {
			return nil, err
		}
		return res.Bound, nil
	}
	for i, r := range p.Rules {
		want, err := lp(r.Targets)
		if err != nil {
			t.Fatal(err)
		}
		if r.Bound.Cmp(want) != 0 {
			t.Errorf("%v rule %d: priced bound %v, LP bound %v", p.Mode, i, r.Bound, want)
		}
	}
	var want *big.Rat
	switch p.Mode {
	case ModeFull, ModeRule:
		want, err = lp(p.Rules[0].Targets)
	case ModeFhtw:
		// Chosen indexes the plan's decompositions, in the order they were
		// enumerated for the canonical spelling; the width is the min-max
		// over all of them in any order.
		e := &widths.Engine{TDs: p.TDs, Bags: p.Bags, TDBags: p.TDBags}
		var bags []*big.Rat
		if bags, err = widths.SolveBags(e, lp); err != nil {
			break
		}
		var chosen int
		chosen, want = widths.Minimax(e, bags, func(v *big.Rat) *big.Rat { return v })
		if chosen != p.Chosen {
			t.Errorf("fhtw plan chose decomposition %d, the min-max %d", p.Chosen, chosen)
		}
		var fresh *big.Rat
		if fresh, err = widths.DaFhtw(p.Schema.Hypergraph(), fdcs); err == nil && fresh.Cmp(want) != 0 {
			t.Errorf("fhtw plan's decompositions reach %v, da-fhtw is %v", want, fresh)
		}
	case ModeSubw:
		want = new(big.Rat)
		for _, tr := range p.Transversals {
			b, err := lp(widths.Targets(p.Bags, tr))
			if err != nil {
				t.Fatal(err)
			}
			if b.Cmp(want) > 0 {
				want = b
			}
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	if p.Width.Cmp(want) != 0 {
		t.Errorf("%v plan: width %v, want %v", p.Mode, p.Width, want)
	}
}

// renameInput is a spelling of a planner input under another variable
// numbering, with atoms and constraints in reverse order.
func renameInput(s *query.Schema, heads []bitset.Set, cons []query.DegreeConstraint) (*query.Schema, []bitset.Set, []query.DegreeConstraint) {
	n, k := s.NumVars, len(s.Atoms)
	perm := renamePerm(n)
	rs := &query.Schema{NumVars: n, VarNames: make([]string, len(s.VarNames))}
	for v, name := range s.VarNames {
		rs.VarNames[perm[v]] = name
	}
	for j := k - 1; j >= 0; j-- {
		rs.Atoms = append(rs.Atoms, query.Atom{Name: s.Atoms[j].Name, Vars: mapSet(s.Atoms[j].Vars, perm)})
	}
	rheads := make([]bitset.Set, len(heads))
	for i, h := range heads {
		rheads[i] = mapSet(h, perm)
	}
	var rcons []query.DegreeConstraint
	for j := len(cons) - 1; j >= 0; j-- {
		c := cons[j]
		c.X, c.Y, c.Guard = mapSet(c.X, perm), mapSet(c.Y, perm), k-1-c.Guard
		rcons = append(rcons, c)
	}
	return rs, rheads, rcons
}

// renamePerm is renameInput's variable renaming over n variables.
func renamePerm(n int) []int {
	perm := make([]int, n)
	for v := range perm {
		perm[v] = (n + 1 - v) % n
	}
	return perm
}

// TestPriceRuleNeedsAConstraintPerPair: a trivial rule prices at 0 whatever
// it carries, and a δ pair that no constraint bounds is refused by name.
func TestPriceRuleNeedsAConstraintPerPair(t *testing.T) {
	q, cons := cycleQuery(4, nil, nil, 100)
	p, _, err := Prepare(q, cons, ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	r := *p.Rules[0]
	r.Trivial = true
	if err := priceRule(&r, cons); err != nil || r.Bound.Sign() != 0 {
		t.Fatalf("trivial rule priced at %v (err %v), want 0", r.Bound, err)
	}
	r = *p.Rules[0]
	pair := flow.Pair{X: bitset.Of(0), Y: bitset.Of(0, 2)}
	r.Delta = r.Delta.Clone()
	r.Delta[pair] = big.NewRat(1, 2)
	want := fmt.Sprintf("no constraint prices δ's pair %v", pair)
	if err := priceRule(&r, cons); err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %s", err, want)
	}
}
