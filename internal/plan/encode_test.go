package plan

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math/big"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"panda/internal/bitset"
	"panda/internal/flow"
	"panda/internal/hypergraph"
	"panda/internal/query"
	"panda/internal/widths"
)

// encodePlan round-trips through the wire format, failing the test on any
// codec error.
func encodePlan(t *testing.T, p *Plan) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodePlan(&buf, p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// codecPlans prepares one plan per committed mode: the 4-cycle under
// ModeFull/ModeFhtw/ModeSubw and Example 1.4's rule under ModeRule.
func codecPlans(t *testing.T) map[Mode]*Plan {
	t.Helper()
	out := map[Mode]*Plan{}
	q, cons := cycleQuery(4, nil, nil, 100)
	for _, mode := range []Mode{ModeFull, ModeFhtw, ModeSubw} {
		p, _, err := Prepare(q, cons, mode)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		out[mode] = p
	}
	r, rcons := pathRule(nil, nil, false, 100)
	p, err := NewPlanner(1).PrepareRuleContext(context.Background(), r, rcons)
	if err != nil {
		t.Fatal(err)
	}
	out[ModeRule] = p
	return out
}

// TestEncodeDeterministic: encoding the same plan twice must produce
// identical bytes (the digest and the snapshot diffing rely on it).
func TestEncodeDeterministic(t *testing.T) {
	for mode, p := range codecPlans(t) {
		a, b := encodePlan(t, p), encodePlan(t, p)
		if !bytes.Equal(a, b) {
			t.Fatalf("%v: two encodings of the same plan differ", mode)
		}
	}
}

// TestEncodeDecodePlanFields: the decoded plan must carry every field of
// the original, exactly.
func TestEncodeDecodePlanFields(t *testing.T) {
	for mode, p := range codecPlans(t) {
		got, err := DecodePlan(bytes.NewReader(encodePlan(t, p)))
		if err != nil {
			t.Fatalf("%v: decode: %v", mode, err)
		}
		samePlan(t, mode.String(), got, p)
	}
}

// TestDecodePlanReadsWhatThePlannerShips: DecodePlan reads the snapshot a
// planning tier ships (SavePlan) into the plan its cache holds, and
// EncodePlan of that plan is a snapshot a replica's LoadCache installs.
func TestDecodePlanReadsWhatThePlannerShips(t *testing.T) {
	pl := NewPlanner(8)
	q, cons := cycleQuery(4, nil, nil, 100)
	for _, mode := range []Mode{ModeFull, ModeFhtw, ModeSubw} {
		if _, err := pl.Prepare(q, cons, mode); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
	}
	r, rcons := pathRule(nil, nil, false, 100)
	if _, err := pl.PrepareRuleContext(context.Background(), r, rcons); err != nil {
		t.Fatal(err)
	}
	for _, key := range pl.Keys() {
		cached := pl.index[key].Value.(*entry).plan
		var shipped bytes.Buffer
		if saved, err := pl.SavePlan(&shipped, key); err != nil || !saved {
			t.Fatalf("%s: SavePlan: %t, %v", key, saved, err)
		}
		got, err := DecodePlan(&shipped)
		if err != nil {
			t.Fatalf("%s: decode of the shipped snapshot: %v", key, err)
		}
		samePlan(t, key, got, cached)

		stats, err := NewPlanner(8).LoadCache(bytes.NewReader(encodePlan(t, cached)))
		if err != nil || stats.Loaded != 1 || stats.Skipped != 0 {
			t.Fatalf("%s: LoadCache of EncodePlan's bytes: %v (%v), want loaded=1", key, stats, err)
		}
	}
}

// samePlan fails the test unless got carries every field of p, exactly, and
// re-encodes to p's bytes.
func samePlan(t *testing.T, what string, got, p *Plan) {
	t.Helper()
	if got.Mode != p.Mode || got.Key != p.Key || got.Free != p.Free || got.Chosen != p.Chosen {
		t.Fatalf("%s: header fields differ: %+v vs %+v", what, got, p)
	}
	if got.Width.Cmp(p.Width) != 0 {
		t.Fatalf("%s: width %v ≠ %v", what, got.Width, p.Width)
	}
	if len(got.Rules) != len(p.Rules) {
		t.Fatalf("%s: %d rules ≠ %d", what, len(got.Rules), len(p.Rules))
	}
	for i, r := range p.Rules {
		g := got.Rules[i]
		if !slices.Equal(g.Targets, r.Targets) || g.Bound.Cmp(r.Bound) != 0 || len(g.Seq) != len(r.Seq) ||
			len(g.Lambda) != len(r.Lambda) || len(g.Delta) != len(r.Delta) || !slices.Equal(g.Zeroed, r.Zeroed) {
			t.Fatalf("%s: rule %d differs after round trip", what, i)
		}
		for p0, w := range r.Lambda {
			if g.Lambda.Get(p0).Cmp(w) != 0 {
				t.Fatalf("%s: rule %d λ%v differs", what, i, p0)
			}
		}
		for p0, w := range r.Delta {
			if g.Delta.Get(p0).Cmp(w) != 0 {
				t.Fatalf("%s: rule %d δ%v differs", what, i, p0)
			}
		}
		for j, s := range r.Seq {
			gs := g.Seq[j]
			if gs.Kind != s.Kind || gs.A != s.A || gs.B != s.B || gs.W.Cmp(s.W) != 0 {
				t.Fatalf("%s: rule %d step %d differs", what, i, j)
			}
		}
	}
	// The re-encoding of the decoded plan must be byte-identical.
	if !bytes.Equal(encodePlan(t, got), encodePlan(t, p)) {
		t.Fatalf("%s: re-encoding the decoded plan changed the bytes", what)
	}
}

// tamper edits a snapshot through the typed envelope and re-marshals it. The
// raw payload bytes of every entry fn leaves alone, and so their digests,
// survive the round trip, so a case fails because of its own edit.
func tamper(t *testing.T, data []byte, fn func(env *cacheEnvelope)) []byte {
	t.Helper()
	var env cacheEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	fn(&env)
	out, err := json.Marshal(&env)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDecodeRejectsBadInput: wrong versions, digests, truncation and
// garbage must all be rejected cleanly, with the typed sentinels where they
// apply.
func TestDecodeRejectsBadInput(t *testing.T) {
	q, cons := cycleQuery(4, nil, nil, 100)
	p, _, err := Prepare(q, cons, ModeFhtw)
	if err != nil {
		t.Fatal(err)
	}
	enc := encodePlan(t, p)

	t.Run("untouched", func(t *testing.T) {
		// The control: the helper alone breaks nothing.
		if _, err := DecodePlan(bytes.NewReader(tamper(t, enc, func(*cacheEnvelope) {}))); err != nil {
			t.Fatalf("an untouched snapshot through tamper: %v", err)
		}
	})
	t.Run("wrong-version", func(t *testing.T) {
		bad := tamper(t, enc, func(env *cacheEnvelope) { env.Version = FormatVersion + 1 })
		if _, err := DecodePlan(bytes.NewReader(bad)); !errors.Is(err, ErrCodecVersion) {
			t.Fatalf("err = %v, want ErrCodecVersion", err)
		}
	})
	t.Run("digest-mismatch", func(t *testing.T) {
		bad := tamper(t, enc, func(env *cacheEnvelope) {
			env.Entries[0].Plan = json.RawMessage(`{"mode":1,"num_vars":1,"atoms":[{"name":"R","vars":1}],"free":1,"rules":[],"width":"0","chosen":-1}`)
		})
		if _, err := DecodePlan(bytes.NewReader(bad)); !errors.Is(err, ErrCodecDigest) {
			t.Fatalf("err = %v, want ErrCodecDigest", err)
		}
	})
	for _, n := range []int{0, 2} {
		t.Run(fmt.Sprintf("%d-entries", n), func(t *testing.T) {
			bad := tamper(t, enc, func(env *cacheEnvelope) {
				env.Entries = slices.Repeat(env.Entries, n)
			})
			want := fmt.Sprintf("snapshot holds %d entries, want 1", n)
			if _, err := DecodePlan(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("err = %v, want one naming %q", err, want)
			}
		})
	}
	t.Run("truncated", func(t *testing.T) {
		if _, err := DecodePlan(bytes.NewReader(enc[:len(enc)/2])); err == nil {
			t.Fatal("truncated input decoded without error")
		}
	})
	t.Run("garbage", func(t *testing.T) {
		if _, err := DecodePlan(strings.NewReader("not a plan at all")); err == nil {
			t.Fatal("garbage decoded without error")
		}
	})
	t.Run("wrong-format-tag", func(t *testing.T) {
		bad := tamper(t, enc, func(env *cacheEnvelope) { env.Format = "panda-plan" })
		if _, err := DecodePlan(bytes.NewReader(bad)); err == nil {
			t.Fatal("format-tag mismatch decoded without error")
		}
	})
	// A digest-valid rule that is not a proof of its own inequality must be
	// refused at decode, naming the step, and not panic mid-execution.
	withRule := func(edit func(r *PreparedRule)) []byte {
		r := *p.Rules[0]
		r.Seq = slices.Clone(r.Seq)
		r.Lambda = maps.Clone(r.Lambda)
		edit(&r)
		bad := *p
		bad.Rules = append([]*PreparedRule{&r}, p.Rules[1:]...)
		return encodePlan(t, &bad)
	}
	firstOf := func(r *PreparedRule, keep func(flow.Step) bool) int {
		for j, s := range r.Seq {
			if keep(s) {
				return j
			}
		}
		t.Fatal("rule 0 has no step of the kind the case needs")
		return -1
	}
	for _, bad := range []struct {
		name string
		edit func(r *PreparedRule) (want string)
	}{
		{"zero-weight", func(r *PreparedRule) string {
			r.Seq[1].W = new(big.Rat)
			return "rules[0].seq[1]: flow: step weight must be positive"
		}},
		{"overdrawn-weight", func(r *PreparedRule) string {
			r.Seq[0].W = new(big.Rat).Add(r.Delta.L1(), big.NewRat(1, 1))
			return "rules[0].seq[0]: flow: step"
		}},
		{"a-not-subset-of-b", func(r *PreparedRule) string {
			j := firstOf(r, func(s flow.Step) bool { return s.Kind != flow.Submodularity })
			r.Seq[j].A, r.Seq[j].B = r.Seq[j].B, r.Seq[j].A
			return fmt.Sprintf("rules[0].seq[%d]: flow: %v needs X ⊂ Y", j, r.Seq[j].Kind)
		}},
		{"final-delta-below-lambda", func(r *PreparedRule) string {
			b := r.Targets[0]
			r.Lambda[flow.Marginal(b)] = new(big.Rat).Add(r.Lambda.Get(flow.Marginal(b)), r.Delta.L1())
			return "rules[0].seq: flow: final δ_ℓ"
		}},
	} {
		t.Run(bad.name, func(t *testing.T) {
			var want string
			data := withRule(func(r *PreparedRule) { want = bad.edit(r) })
			_, err := DecodePlan(bytes.NewReader(data))
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("err = %v, want one naming %q", err, want)
			}
		})
	}
	// A digest-valid plan whose rule i answers another structure: each rule
	// still proves its own inequality, so only its targets give it away.
	for _, c := range []struct {
		name     string
		mode     Mode
		dst, src int
	}{{"subw-duplicated-rule", ModeSubw, 3, 2}, {"fhtw-duplicated-rule", ModeFhtw, 1, 0}, {"full-bag-rule", ModeFull, 0, -1}} {
		t.Run(c.name, func(t *testing.T) {
			good, _, err := Prepare(q, cons, c.mode)
			if err != nil {
				t.Fatal(err)
			}
			bad := *good
			bad.Rules = slices.Clone(good.Rules)
			if c.src >= 0 {
				bad.Rules[c.dst] = good.Rules[c.src]
			} else {
				bad.Rules[c.dst] = p.Rules[0] // the fhtw plan's first bag
			}
			want := fmt.Sprintf("rules[%d] targets", c.dst)
			if _, err := DecodePlan(bytes.NewReader(encodePlan(t, &bad))); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("err = %v, want one naming %q", err, want)
			}
		})
	}
	// A digest-valid plan whose stored prices are not its certificate's, or
	// whose decompositions or transversals are not the plan's: each rule
	// still proves its own inequality, so the executor would run it and
	// report a wrong width, drop a transversal's tuples or fail mid-run.
	sub, _, err := Prepare(q, cons, ModeSubw)
	if err != nil {
		t.Fatal(err)
	}
	pathPr, err := query.Parse("Q(A,E) :- R(A,B), S(B,C), T(C,D), U(D,E).")
	if err != nil {
		t.Fatal(err)
	}
	pathQ, pathCons := pathPr.Conj, pathPr.Constraints
	for i, a := range pathQ.Atoms {
		pathCons = append(pathCons, query.Cardinality(a.Vars, 8, i))
	}
	path, _, err := Prepare(pathQ, pathCons, ModeFhtw)
	if err != nil {
		t.Fatal(err)
	}
	// withParents is base with the last decomposition's parents edited.
	withParents := func(base *Plan, edit func(parent []int)) *Plan {
		bad := *base
		bad.TDs = slices.Clone(base.TDs)
		last := *bad.TDs[len(bad.TDs)-1]
		last.Parent = slices.Clone(last.Parent)
		edit(last.Parent)
		bad.TDs[len(bad.TDs)-1] = &last
		return &bad
	}
	for _, c := range []struct {
		name string
		bad  func() *Plan
		want string
	}{
		{"edited-width", func() *Plan {
			bad := *p
			bad.Width = big.NewRat(1, 7)
			return &bad
		}, "width is 1/7"},
		{"edited-bound", func() *Plan {
			r := *p.Rules[0]
			r.Bound = big.NewRat(1, 7)
			bad := *p
			bad.Rules = append([]*PreparedRule{&r}, p.Rules[1:]...)
			return &bad
		}, "rules[0].bound is 1/7"},
		{"dropped-transversal", func() *Plan {
			bad := *sub
			bad.Transversals = sub.Transversals[:len(sub.Transversals)-1]
			bad.Rules = sub.Rules[:len(sub.Rules)-1]
			return &bad
		}, fmt.Sprintf("carries %d rules, want %d", len(sub.Rules)-1, len(sub.Rules))},
		{"swapped-transversals", func() *Plan {
			// Rule i still answers transversal i; only the order is not
			// the minimal transversals' own.
			bad := *sub
			bad.Transversals = slices.Clone(sub.Transversals)
			bad.Rules = slices.Clone(sub.Rules)
			bad.Transversals[0], bad.Transversals[1] = sub.Transversals[1], sub.Transversals[0]
			bad.Rules[0], bad.Rules[1] = sub.Rules[1], sub.Rules[0]
			return &bad
		}, "want the minimal transversals"},
		{"parent-99", func() *Plan {
			return withParents(sub, func(parent []int) { parent[len(parent)-1] = 99 })
		}, "parent 99 out of range"},
		{"parent-cycle", func() *Plan {
			// One root, and two other bags each other's parent.
			return withParents(path, func(parent []int) {
				if len(parent) < 3 {
					t.Fatalf("the path's last decomposition has %d bags, want 3 or more", len(parent))
				}
				for i := range parent {
					parent[i] = 0
				}
				parent[0], parent[1], parent[2] = -1, 2, 1
			})
		}, "does not reach the root"},
	} {
		t.Run(c.name, func(t *testing.T) {
			if _, err := DecodePlan(bytes.NewReader(encodePlan(t, c.bad()))); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want one naming %q", err, c.want)
			}
		})
	}
	t.Run("inconsistent-plan", func(t *testing.T) {
		// A digest-valid payload describing an out-of-range chosen
		// decomposition must fail semantic validation.
		var buf bytes.Buffer
		bad := *p
		bad.Chosen = len(p.TDs) + 3
		if err := EncodePlan(&buf, &bad); err != nil {
			t.Fatal(err)
		}
		if _, err := DecodePlan(bytes.NewReader(buf.Bytes())); err == nil {
			t.Fatal("inconsistent plan decoded without error")
		}
	})
}

// TestDecodeCountsSevenCycleRulesPromptly: a digest-valid ModeSubw plan of
// the Boolean 7-cycle carries its 42 decompositions and 35 bags, and neither
// transversals nor rules. Decode derives the cycle's 2,725 minimal
// transversals to count the rules against, and refuses it within a second.
func TestDecodeCountsSevenCycleRulesPromptly(t *testing.T) {
	q, cons := cycleQuery(7, nil, nil, 100)
	e, err := widths.NewEngine(context.Background(), q.Schema.Hypergraph())
	if err != nil {
		t.Fatal(err)
	}
	data := encodePlan(t, &Plan{Mode: ModeSubw, Schema: q.Schema, Cons: cons,
		Bags: e.Bags, TDs: e.TDs, TDBags: e.TDBags, Chosen: -1, Width: new(big.Rat)})
	start := time.Now()
	_, err = DecodePlan(bytes.NewReader(data))
	if want := "plan: decode: subw plan carries 0 rules, want 2725"; err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %s", err, want)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("decoding a %d-byte plan took %v", len(data), d)
	}
}

// TestDecodeRefusesRepeatedBagsPromptly: a digest-valid ModeSubw plan of the
// Boolean 4-cycle whose bag universe is 10,000 copies of the full set, each
// of its 10,000 one-bag decompositions naming the last copy. The engine
// never repeats a bag, and decode refuses the plan within a second.
func TestDecodeRefusesRepeatedBagsPromptly(t *testing.T) {
	const n = 10000
	q, cons := cycleQuery(4, nil, nil, 100)
	full := bitset.Full(q.Schema.NumVars)
	p := &Plan{Mode: ModeSubw, Schema: q.Schema, Cons: cons, Chosen: -1, Width: new(big.Rat)}
	for range n {
		p.Bags = append(p.Bags, full)
		p.TDs = append(p.TDs, &hypergraph.Decomposition{Bags: []bitset.Set{full}, Parent: []int{-1}})
		p.TDBags = append(p.TDBags, []int{n - 1})
	}
	data := encodePlan(t, p)
	start := time.Now()
	_, err := DecodePlan(bytes.NewReader(data))
	if want := fmt.Sprintf("plan: decode: bag %v appears twice in the bag universe", full); err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %s", err, want)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("decoding a %d-byte plan took %v", len(data), d)
	}
}

// TestSaveLoadCacheWarmHit is the tentpole property: a planner re-seeded
// from a snapshot answers previously planned queries with zero LP solves,
// crediting LPSolvesSaved with the recorded build cost.
func TestSaveLoadCacheWarmHit(t *testing.T) {
	q, cons := cycleQuery(4, nil, nil, 100)
	donor := NewPlanner(8)
	if _, err := donor.Prepare(q, cons, ModeSubw); err != nil {
		t.Fatal(err)
	}
	built := donor.Stats()
	if built.LPSolves == 0 {
		t.Fatal("donor paid no LP solves")
	}

	var buf bytes.Buffer
	if err := donor.SaveCache(&buf); err != nil {
		t.Fatal(err)
	}
	fresh := NewPlanner(8)
	stats, err := fresh.LoadCache(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Loaded != 1 || stats.Skipped != 0 {
		t.Fatalf("load stats %v, want loaded=1 skipped=0", stats)
	}
	if fresh.Len() != 1 {
		t.Fatalf("fresh planner holds %d plans, want 1", fresh.Len())
	}

	// The same query — and a renamed variant — must hit without planning.
	if _, err := fresh.Prepare(q, cons, ModeSubw); err != nil {
		t.Fatal(err)
	}
	qr, cr := cycleQuery(4, []int{2, 3, 0, 1}, nil, 100)
	if _, err := fresh.Prepare(qr, cr, ModeSubw); err != nil {
		t.Fatal(err)
	}
	st := fresh.Stats()
	if st.LPSolves != 0 || st.Misses != 0 {
		t.Fatalf("warm planner did planning work: %v", st)
	}
	if st.Hits != 2 {
		t.Fatalf("hits = %d, want 2", st.Hits)
	}
	if st.LPSolvesSaved != 2*built.LPSolves {
		t.Fatalf("lp-saved = %d, want %d (2 hits × recorded cost %d)",
			st.LPSolvesSaved, 2*built.LPSolves, built.LPSolves)
	}
}

// TestLoadParentCommitSnapshot: testdata/pr12-plans.json was written by the
// commit before ModeRule became a plan mode (4-cycle fhtw, triangle full,
// Boolean 4-cycle auto). Conjunctive keys and payloads are unchanged, so it
// loads with zero skips and the same queries hit it without planning.
func TestLoadParentCommitSnapshot(t *testing.T) {
	f, err := os.Open("testdata/pr12-plans.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pl := NewPlanner(8)
	stats, err := pl.LoadCache(f)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Loaded != 3 || stats.Skipped != 0 || stats.Duplicates != 0 {
		t.Fatalf("load stats %v, want loaded=3 skipped=0", stats)
	}
	q4, c4 := cycleQuery(4, nil, nil, 100)
	q3, c3 := cycleQuery(3, nil, nil, 7)
	qb, cb := cycleQuery(4, nil, nil, 100)
	qb.Free = 0
	for _, tc := range []struct {
		q    *query.Conjunctive
		cons []query.DegreeConstraint
		mode Mode
	}{{q4, c4, ModeFhtw}, {q3, c3, ModeFull}, {qb, cb, ModeAuto}} {
		if _, err := pl.Prepare(tc.q, tc.cons, tc.mode); err != nil {
			t.Fatal(err)
		}
	}
	if st := pl.Stats(); st.Hits != 3 || st.Misses != 0 || st.LPSolves != 0 {
		t.Fatalf("queries planned at the parent commit did not hit its snapshot: %v", st)
	}
}

// TestLoadCacheSkipsBadEntries: a snapshot with one tampered entry loads
// the rest and reports the skip.
func TestLoadCacheSkipsBadEntries(t *testing.T) {
	donor := NewPlanner(8)
	q4, c4 := cycleQuery(4, nil, nil, 100)
	q3, c3 := cycleQuery(3, nil, nil, 100)
	if _, err := donor.Prepare(q4, c4, ModeFhtw); err != nil {
		t.Fatal(err)
	}
	if _, err := donor.Prepare(q3, c3, ModeFhtw); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := donor.SaveCache(&buf); err != nil {
		t.Fatal(err)
	}

	bad := tamper(t, buf.Bytes(), func(env *cacheEnvelope) {
		env.Entries[0].Digest = strings.Repeat("0", 64)
	})
	fresh := NewPlanner(8)
	stats, err := fresh.LoadCache(bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Loaded != 1 || stats.Skipped != 1 {
		t.Fatalf("load stats %v, want loaded=1 skipped=1", stats)
	}
	if !errors.Is(stats.FirstErr, ErrCodecDigest) {
		t.Fatalf("FirstErr = %v, want ErrCodecDigest", stats.FirstErr)
	}
	if fresh.Len() != 1 {
		t.Fatalf("planner holds %d plans, want 1", fresh.Len())
	}
}

// TestLoadCacheRefusesAPlanUnderAnotherShapesKey: an entry whose plan is
// well formed and records the entry's key, but is the plan of another shape
// (a triangle's under the 3-path's key), is skipped: the key must be the
// key of the plan's own shape. Installed, every query of the path would run
// the triangle's decompositions. The donor's own snapshot, whose ModeAuto
// key holds the fhtw or subw plan auto chose, loads whole.
func TestLoadCacheRefusesAPlanUnderAnotherShapesKey(t *testing.T) {
	donor := NewPlanner(8)
	var keys []string
	for _, src := range []string{
		"Q(A,B,C) :- R(A,B), S(B,C), T(A,C).",
		"Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D).",
		"Q() :- R(A,B), S(B,C), T(C,D), U(D,A).",
	} {
		pr, err := query.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		var cons []query.DegreeConstraint
		for j, a := range pr.Conj.Atoms {
			cons = append(cons, query.Cardinality(a.Vars, 16, j))
		}
		p, err := donor.Prepare(pr.Conj, cons, ModeAuto)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, p.Key)
	}
	var buf bytes.Buffer
	if err := donor.SaveCache(&buf); err != nil {
		t.Fatal(err)
	}
	if stats, err := NewPlanner(8).LoadCache(bytes.NewReader(buf.Bytes())); err != nil || stats.Loaded != 3 || stats.Skipped != 0 {
		t.Fatalf("the donor's own snapshot: %v (%v), want loaded=3", stats, err)
	}

	swapped := tamper(t, buf.Bytes(), func(env *cacheEnvelope) {
		i := slices.IndexFunc(env.Entries, func(e cacheEntry) bool { return e.Key == keys[0] })
		tri := &env.Entries[i]
		var wp wirePlan
		if err := json.Unmarshal(tri.Plan, &wp); err != nil {
			t.Fatal(err)
		}
		wp.Key = keys[1]
		payload, err := json.Marshal(&wp)
		if err != nil {
			t.Fatal(err)
		}
		tri.Key, tri.Plan, tri.Digest = keys[1], payload, digestOf(payload)
		env.Entries = env.Entries[i : i+1]
	})
	fresh := NewPlanner(8)
	stats, err := fresh.LoadCache(bytes.NewReader(swapped))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Loaded != 0 || stats.Skipped != 1 || fresh.Len() != 0 {
		t.Fatalf("a triangle plan under the path's key: %v, %d plans held; want loaded=0 skipped=1", stats, fresh.Len())
	}
}

// TestLoadCacheSkipsWholeSnapshotOnVersionMismatch: a snapshot from a
// different format version loads nothing, fails nothing.
func TestLoadCacheSkipsWholeSnapshotOnVersionMismatch(t *testing.T) {
	donor := NewPlanner(8)
	q, cons := cycleQuery(4, nil, nil, 100)
	if _, err := donor.Prepare(q, cons, ModeFhtw); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := donor.SaveCache(&buf); err != nil {
		t.Fatal(err)
	}
	bad := tamper(t, buf.Bytes(), func(env *cacheEnvelope) { env.Version = FormatVersion + 1 })
	fresh := NewPlanner(8)
	stats, err := fresh.LoadCache(bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Loaded != 0 || stats.Skipped != 1 || !errors.Is(stats.FirstErr, ErrCodecVersion) {
		t.Fatalf("load stats %v, want loaded=0 skipped=1 ErrCodecVersion", stats)
	}
	if fresh.Len() != 0 {
		t.Fatalf("planner holds %d plans, want 0", fresh.Len())
	}
	// Even an EMPTY snapshot at the wrong version must count a skip, so a
	// version mismatch can never read as a clean no-op.
	empty := strings.NewReader(`{"format":"panda-plan-cache","version":99,"entries":[]}`)
	stats, err = fresh.LoadCache(empty)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Skipped != 1 || !errors.Is(stats.FirstErr, ErrCodecVersion) {
		t.Fatalf("empty wrong-version snapshot: stats %v, want skipped=1 ErrCodecVersion", stats)
	}
}

// TestLoadCachePreservesLiveEntries: an import never clobbers a plan the
// cache already holds, and malformed containers error without mutating.
func TestLoadCachePreservesLiveEntries(t *testing.T) {
	pl := NewPlanner(8)
	q, cons := cycleQuery(4, nil, nil, 100)
	if _, err := pl.Prepare(q, cons, ModeFhtw); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pl.SaveCache(&buf); err != nil {
		t.Fatal(err)
	}
	// Importing its own snapshot: the single key is already live.
	stats, err := pl.LoadCache(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Loaded != 0 || stats.Skipped != 0 || stats.Duplicates != 1 {
		t.Fatalf("self-import stats %v, want loaded=0 skipped=0 duplicates=1", stats)
	}
	if pl.Len() != 1 {
		t.Fatalf("planner holds %d plans, want 1", pl.Len())
	}
	if _, err := pl.LoadCache(strings.NewReader("junk")); err == nil {
		t.Fatal("malformed container loaded without error")
	}
}

// TestLoadCacheRespectsCapacity: importing more plans than the cache holds
// evicts down to capacity.
func TestLoadCacheRespectsCapacity(t *testing.T) {
	donor := NewPlanner(8)
	for _, k := range []int{3, 4, 5} {
		q, cons := cycleQuery(k, nil, nil, 100)
		if _, err := donor.Prepare(q, cons, ModeFhtw); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := donor.SaveCache(&buf); err != nil {
		t.Fatal(err)
	}
	small := NewPlanner(2)
	stats, err := small.LoadCache(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Loaded != 3 {
		t.Fatalf("loaded %d, want 3", stats.Loaded)
	}
	if small.Len() != 2 {
		t.Fatalf("planner holds %d plans, want capacity 2", small.Len())
	}
	if small.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", small.Stats().Evictions)
	}
}

// TestDecodeNamesTheBadField: a value that is not a rational, or a repeated
// coordinate, is refused naming its field in the text the decoder has always
// used — the names are formatted only on this path.
func TestDecodeNamesTheBadField(t *testing.T) {
	q, cons := cycleQuery(4, nil, nil, 100)
	p, _, err := Prepare(q, cons, ModeSubw)
	if err != nil {
		t.Fatal(err)
	}
	wire := func() *wirePlan {
		wp, err := planOut(p)
		if err != nil {
			t.Fatal(err)
		}
		return wp
	}
	first := wire().Rules[1].Delta[0]
	for _, bad := range []struct {
		edit func(wp *wirePlan)
		want string
	}{
		{func(wp *wirePlan) { wp.Width = "w" }, `plan: decode: width is not a rational: "w"`},
		{func(wp *wirePlan) { wp.Cons[2].LogN = "x" }, `plan: decode: cons[2].log_n is not a rational: "x"`},
		{func(wp *wirePlan) { wp.Rules[1].Bound = "" }, `plan: decode: rules[1].bound is not a rational: ""`},
		{func(wp *wirePlan) { wp.Rules[1].Lambda[0].W = "1/0" }, `plan: decode: rules[1].lambda[0] is not a rational: "1/0"`},
		{func(wp *wirePlan) { wp.Rules[0].Delta[1].W = "-" }, `plan: decode: rules[0].delta[1] is not a rational: "-"`},
		{func(wp *wirePlan) { wp.Rules[1].Seq[2].W = "½" }, `plan: decode: rules[1].seq[2].w is not a rational: "½"`},
		{func(wp *wirePlan) { wp.Rules[1].Delta[1] = first },
			fmt.Sprintf("plan: decode: duplicate rules[1].delta coordinate %v", flow.Pair{X: bitset.Set(first.X), Y: bitset.Set(first.Y)})},
	} {
		wp := wire()
		bad.edit(wp)
		if _, err := planIn(wp); err == nil || err.Error() != bad.want {
			t.Errorf("err = %v, want %s", err, bad.want)
		}
	}
}

// TestReimportOfHeldSnapshotDecodesNothing: a re-shipped plan is counted as
// a duplicate off its key once its digest checks out, without the JSON
// decode, planIn and proof replay a first import pays — so re-importing a
// snapshot the cache holds allocates a small fraction of importing it.
func TestReimportOfHeldSnapshotDecodesNothing(t *testing.T) {
	src := NewPlanner(8)
	for _, k := range []int{3, 4, 5} {
		q, cons := cycleQuery(k, nil, nil, 100)
		if _, err := src.Prepare(q, cons, ModeSubw); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := src.SaveCache(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()
	load := func(pl *Planner) CacheLoadStats {
		stats, err := pl.LoadCache(bytes.NewReader(snap))
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	held := NewPlanner(8)
	if stats := load(held); stats.Loaded != 3 || stats.Duplicates != 0 || stats.Skipped != 0 {
		t.Fatalf("first import: %v, want loaded=3", stats)
	}
	if stats := load(held); stats.Loaded != 0 || stats.Duplicates != 3 || stats.Skipped != 0 {
		t.Fatalf("re-import: %v, want duplicates=3", stats)
	}
	first := testing.AllocsPerRun(20, func() { load(NewPlanner(8)) })
	again := testing.AllocsPerRun(20, func() { load(held) })
	t.Logf("allocs: first import %.0f, re-import %.0f", first, again)
	if again*10 > first {
		t.Fatalf("re-import allocates %.0f, more than a tenth of the first import's %.0f", again, first)
	}
}
