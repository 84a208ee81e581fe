package plan

import (
	"strings"
	"testing"

	"panda/internal/bitset"
	"panda/internal/query"
)

// cycleQuery builds a full k-cycle query with the vertex order given by
// perm (perm[i] is the variable index playing role i) and atoms listed in
// atomOrder. Cardinality n is attached to every atom.
func cycleQuery(k int, perm []int, atomOrder []int, card int64) (*query.Conjunctive, []query.DegreeConstraint) {
	if perm == nil {
		perm = make([]int, k)
		for i := range perm {
			perm[i] = i
		}
	}
	atoms := make([]query.Atom, k)
	for i := 0; i < k; i++ {
		atoms[i] = query.Atom{
			Name: "R" + string(rune('0'+i)),
			Vars: bitset.Of(perm[i], perm[(i+1)%k]),
		}
	}
	if atomOrder != nil {
		reordered := make([]query.Atom, k)
		for i, j := range atomOrder {
			reordered[i] = atoms[j]
		}
		atoms = reordered
	}
	q := &query.Conjunctive{
		Schema: query.Schema{NumVars: k, Atoms: atoms},
		Free:   bitset.Full(k),
	}
	var cons []query.DegreeConstraint
	for i, a := range q.Atoms {
		cons = append(cons, query.Cardinality(a.Vars, card, i))
	}
	return q, cons
}

// pathRule builds Example 1.4's rule T(0,1,2) ∨ T(1,2,3) ← R0(0,1), R1(1,2),
// R2(2,3) with the vertex roles renamed through perm, the atoms listed in
// atomOrder and the two targets optionally swapped. Cardinality card is
// attached to every atom.
func pathRule(perm, atomOrder []int, swapTargets bool, card int64) (*query.Disjunctive, []query.DegreeConstraint) {
	if perm == nil {
		perm = []int{0, 1, 2, 3}
	}
	if atomOrder == nil {
		atomOrder = []int{0, 1, 2}
	}
	r := &query.Disjunctive{
		Schema:  query.Schema{NumVars: 4},
		Targets: []bitset.Set{bitset.Of(perm[0], perm[1], perm[2]), bitset.Of(perm[1], perm[2], perm[3])},
	}
	if swapTargets {
		r.Targets[0], r.Targets[1] = r.Targets[1], r.Targets[0]
	}
	var cons []query.DegreeConstraint
	for i, j := range atomOrder {
		vars := bitset.Of(perm[j], perm[j+1])
		r.Atoms = append(r.Atoms, query.Atom{Name: "R" + string(rune('0'+j)), Vars: vars})
		cons = append(cons, query.Cardinality(vars, card, i))
	}
	return r, cons
}

func mustSig(t *testing.T, q *query.Conjunctive, cons []query.DegreeConstraint, mode Mode) *Signature {
	t.Helper()
	sig, err := Canonicalize(q, cons, mode)
	if err != nil {
		t.Fatal(err)
	}
	return sig
}

// TestSignatureRenameInvariant: renaming variables must not change the key.
func TestSignatureRenameInvariant(t *testing.T) {
	q1, c1 := cycleQuery(4, nil, nil, 100)
	// Rotate and swap the variable roles.
	q2, c2 := cycleQuery(4, []int{2, 3, 0, 1}, nil, 100)
	q3, c3 := cycleQuery(4, []int{3, 1, 2, 0}, nil, 100)
	s1 := mustSig(t, q1, c1, ModeFhtw)
	s2 := mustSig(t, q2, c2, ModeFhtw)
	s3 := mustSig(t, q3, c3, ModeFhtw)
	if s1.Key != s2.Key || s1.Key != s3.Key {
		t.Fatalf("renamed 4-cycles got distinct keys:\n%s\n%s\n%s", s1.Key, s2.Key, s3.Key)
	}
}

// TestRuleSignatureRenameInvariant: a rule's key is invariant under variable
// renaming, atom reordering and target reordering; it differs from the
// conjunctive key over the same body, from the same rule with another head,
// and from the same rule under other cardinalities.
func TestRuleSignatureRenameInvariant(t *testing.T) {
	ruleSig := func(r *query.Disjunctive, cons []query.DegreeConstraint) *Signature {
		t.Helper()
		sig, err := CanonicalizeRule(r, cons)
		if err != nil {
			t.Fatal(err)
		}
		return sig
	}
	r1, c1 := pathRule(nil, nil, false, 100)
	want := ruleSig(r1, c1)
	if want.Mode != ModeRule || !strings.HasPrefix(want.Key, "m-1;n4;F") {
		t.Fatalf("rule key %q (mode %v)", want.Key, want.Mode)
	}
	for _, v := range []struct {
		perm, atoms []int
		swap        bool
	}{
		{[]int{3, 2, 1, 0}, nil, false},           // the path read backwards
		{[]int{2, 0, 3, 1}, []int{2, 0, 1}, true}, // renamed, reordered, targets swapped
		{nil, []int{1, 2, 0}, true},
	} {
		r, c := pathRule(v.perm, v.atoms, v.swap, 100)
		if got := ruleSig(r, c); got.Key != want.Key {
			t.Fatalf("variant %+v got key\n%s\nwant\n%s", v, got.Key, want.Key)
		}
	}
	q := &query.Conjunctive{Schema: r1.Schema, Free: r1.Targets[0]}
	if mustSig(t, q, c1, ModeFhtw).Key == want.Key {
		t.Fatal("a conjunctive query shares the rule's key")
	}
	other := &query.Disjunctive{Schema: r1.Schema, Targets: []bitset.Set{bitset.Of(0, 1), bitset.Of(1, 2, 3)}}
	if ruleSig(other, c1).Key == want.Key {
		t.Fatal("a different head shares the rule's key")
	}
	if r2, c2 := pathRule(nil, nil, false, 101); ruleSig(r2, c2).Key == want.Key {
		t.Fatal("different cardinalities share the rule's key")
	}
}

// TestSignatureAtomOrderInvariant: listing body atoms in another order must
// not change the key.
func TestSignatureAtomOrderInvariant(t *testing.T) {
	q1, c1 := cycleQuery(4, nil, nil, 64)
	q2, c2 := cycleQuery(4, nil, []int{2, 0, 3, 1}, 64)
	s1 := mustSig(t, q1, c1, ModeSubw)
	s2 := mustSig(t, q2, c2, ModeSubw)
	if s1.Key != s2.Key {
		t.Fatalf("atom reorder changed key:\n%s\n%s", s1.Key, s2.Key)
	}
}

// TestSignatureDistinguishes: modes, free sets and constraint values are
// all part of the identity.
func TestSignatureDistinguishes(t *testing.T) {
	q, c := cycleQuery(4, nil, nil, 100)
	base := mustSig(t, q, c, ModeFhtw)
	if s := mustSig(t, q, c, ModeSubw); s.Key == base.Key {
		t.Fatal("mode not part of the key")
	}
	qb := &query.Conjunctive{Schema: q.Schema, Free: 0}
	if s := mustSig(t, qb, c, ModeFhtw); s.Key == base.Key {
		t.Fatal("free set not part of the key")
	}
	_, c2 := cycleQuery(4, nil, nil, 200)
	if s := mustSig(t, q, c2, ModeFhtw); s.Key == base.Key {
		t.Fatal("constraint bounds not part of the key")
	}
}

// TestSignatureDistinguishesShape: the triangle and the 4-cycle must not
// collide.
func TestSignatureDistinguishesShape(t *testing.T) {
	q3, c3 := cycleQuery(3, nil, nil, 100)
	q4, c4 := cycleQuery(4, nil, nil, 100)
	if mustSig(t, q3, c3, ModeFhtw).Key == mustSig(t, q4, c4, ModeFhtw).Key {
		t.Fatal("triangle and 4-cycle collide")
	}
}

// TestSignaturePermutationsAreValid: the recorded permutations must be
// bijections consistent with the caller's shapes.
func TestSignaturePermutationsAreValid(t *testing.T) {
	q, c := cycleQuery(5, []int{4, 2, 0, 3, 1}, []int{1, 0, 4, 2, 3}, 32)
	sig := mustSig(t, q, c, ModeSubw)
	seen := map[int]bool{}
	for _, p := range sig.VarPerm {
		if p < 0 || p >= 5 || seen[p] {
			t.Fatalf("VarPerm %v is not a permutation", sig.VarPerm)
		}
		seen[p] = true
	}
	seen = map[int]bool{}
	for _, p := range sig.AtomPerm {
		if p < 0 || p >= len(q.Atoms) || seen[p] {
			t.Fatalf("AtomPerm %v is not a permutation", sig.AtomPerm)
		}
		seen[p] = true
	}
	seen = map[int]bool{}
	for _, p := range sig.ConsPerm {
		if p < 0 || p >= len(c) || seen[p] {
			t.Fatalf("ConsPerm %v is not a permutation", sig.ConsPerm)
		}
		seen[p] = true
	}
}

// TestCanonicalizeAllocs: scoring an ordering allocates nothing, so a
// canonicalisation costs its set-up — buffers, the variable classes, the
// result — however many orderings it visits. Formatting one key per
// ordering spent 2,376 allocations on the first case and 540 on the second.
func TestCanonicalizeAllocs(t *testing.T) {
	q, cons := cycleQuery(4, nil, nil, 100)
	for _, tc := range []struct {
		name    string
		cons    []query.DegreeConstraint
		ceiling float64
	}{{"4-cycle with cardinalities", cons, 200}, {"bare 4-cycle", nil, 100}} {
		got := testing.AllocsPerRun(50, func() {
			if _, err := Canonicalize(q, tc.cons, ModeSubw); err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.ceiling {
			t.Errorf("%s: %.0f allocs per Canonicalize, ceiling %.0f", tc.name, got, tc.ceiling)
		}
	}
}
