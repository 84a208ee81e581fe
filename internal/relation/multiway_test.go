package relation

import (
	"fmt"
	"math/rand"
	"testing"

	"panda/internal/bitset"
)

// sharesStorage reports whether some column of a and of b start at the same
// address.
func sharesStorage(a, b *Relation) bool {
	for _, ca := range a.data {
		for _, cb := range b.data {
			if cap(ca) > 0 && cap(cb) > 0 && &ca[:1][0] == &cb[:1][0] {
				return true
			}
		}
	}
	return false
}

// TestUnionMultiway holds Union(ss...) to the chain of binary unions worked
// out by nested loops: the same rows in the same physical order, whatever the
// parts look like — none, empty ones, overlapping ones, one listed twice,
// arity 0 to 4. A lone part comes back by pointer, unwritten; the union of
// several owns its storage and leaves every part as it was.
func TestUnionMultiway(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 300; trial++ {
		var attrs bitset.Set
		if trial%6 != 0 { // every sixth trial is over the empty schema
			attrs = randomAttrs(rng)
		}
		dom := 2 + rng.Intn(5)
		parts := make([]*Relation, 1+rng.Intn(7))
		for k := range parts {
			switch {
			case k > 0 && rng.Intn(5) == 0:
				parts[k] = parts[rng.Intn(k)] // a part repeated
			case rng.Intn(4) == 0:
				parts[k] = New(fmt.Sprintf("P%d", k), attrs) // an empty part
			default:
				parts[k] = randomRelation(rng, attrs, rng.Intn(40), dom)
				parts[k].Name = fmt.Sprintf("P%d", k)
			}
			if rng.Intn(3) == 0 {
				// Shared column storage and a trailing dedup table, like an
				// input bound into an instance.
				parts[k] = parts[k].Snapshot(parts[k].Name)
			}
		}
		tag := fmt.Sprintf("trial %d %v ×%d", trial, attrs, len(parts))

		type state struct {
			rows [][]Value
			mut  uint64
			seen int
		}
		before := make([]state, len(parts))
		want := [][]Value{}
		for k, p := range parts {
			before[k] = state{rows: p.Rows(), mut: p.mut, seen: p.seen.rows()}
			want = refUnion(refRel{rows: want}, refRel{rows: before[k].rows})
		}

		got := parts[0].Union(parts[1:]...)
		sameRows(t, tag+" Union", got, want)
		if got.Attrs() != attrs {
			t.Fatalf("%s: union is over %v", tag, got.Attrs())
		}
		if len(parts) == 1 {
			if got != parts[0] {
				t.Fatalf("%s: a lone part must come back by pointer", tag)
			}
		} else {
			for k, p := range parts {
				if got == p || sharesStorage(got, p) {
					t.Fatalf("%s: the union shares storage with part %d", tag, k)
				}
			}
			// The result is the caller's to write to; no part may notice. The
			// row is new (parts draw from a domain under 10) unless the schema
			// is empty, where there is only the one row.
			extra := make([]Value, attrs.Card())
			for i := range extra {
				extra[i] = Value(1000 + trial)
			}
			wantSize := len(want) + 1
			if attrs == 0 {
				wantSize = 1
			}
			if got.Insert(extra); !got.Contains(extra) || got.Size() != wantSize {
				t.Fatalf("%s: insert into the union: %d rows, want %d", tag, got.Size(), wantSize)
			}
		}
		for k, p := range parts {
			if p.mut != before[k].mut || p.seen.rows() != before[k].seen {
				t.Fatalf("%s: part %d was written to: tick %d → %d, dedup table %d → %d rows",
					tag, k, before[k].mut, p.mut, before[k].seen, p.seen.rows())
			}
			sameRows(t, fmt.Sprintf("%s part %d afterwards", tag, k), p, before[k].rows)
		}
	}
}

// TestSemijoinMultiway holds Semijoin(ss...) to the chain of one-sided
// semijoins: the nested-loop reference for the rows and their order, the
// chain of one-argument calls for the name. Sides may share no attribute with
// r (they keep everything unless empty) and may be empty.
func TestSemijoinMultiway(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 300; trial++ {
		ra := randomAttrs(rng)
		dom := 2 + rng.Intn(4)
		r := randomRelation(rng, ra, rng.Intn(80), dom)
		r.Name = "T"
		sides := make([]*Relation, rng.Intn(6))
		for k := range sides {
			sa := randomAttrs(rng)
			if k == 0 && trial%3 == 0 {
				sa = bitset.Of(5, 6) // shares nothing with r
			}
			n := 1 + rng.Intn(40)
			if rng.Intn(8) == 0 {
				n = 0
			}
			sides[k] = randomRelation(rng, sa, n, dom)
			sides[k].Name = fmt.Sprintf("S%d", k)
		}
		tag := fmt.Sprintf("trial %d T%v[%d] ×%d", trial, ra, r.Size(), len(sides))

		want, chain := refOf(r), r
		for _, s := range sides {
			want.rows = refSemijoin(want, refOf(s), ra.Intersect(s.Attrs()))
			chain = chain.Semijoin(s)
		}
		before := r.Rows()
		got := r.Semijoin(sides...)
		sameRows(t, tag+" Semijoin", got, want.rows)
		sameRows(t, tag+" chain of Semijoins", chain, want.rows)
		if got.Name != chain.Name {
			t.Fatalf("%s: named %q, the chain is named %q", tag, got.Name, chain.Name)
		}
		if len(sides) == 0 && got != r {
			t.Fatalf("%s: no side must hand r back by pointer", tag)
		}
		if len(sides) > 0 && (got == r || sharesStorage(got, r)) {
			t.Fatalf("%s: the reduced table shares storage with r", tag)
		}
		sameRows(t, tag+" r afterwards", r, before)
	}
}

// TestReduceMultiway holds Reduce(attrs, parts, sides...) to
// Union(parts...).Semijoin(sides...) worked out by nested loops: the same rows
// in the same physical order, over generated part lists — none to six parts,
// empty parts, a part listed twice, rows shared across parts, sides sharing no
// attribute (empty or not), empty sides, the empty schema. With one part it is
// Semijoin, name included, and builds no dedup table; no part is written to.
func TestReduceMultiway(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 400; trial++ {
		var attrs bitset.Set
		if trial%7 != 0 { // every seventh trial is over the empty schema
			attrs = randomAttrs(rng)
		}
		dom := 2 + rng.Intn(4)
		parts := make([]*Relation, rng.Intn(7))
		for k := range parts {
			switch {
			case k > 0 && rng.Intn(5) == 0:
				parts[k] = parts[rng.Intn(k)] // a part repeated
			case rng.Intn(5) == 0:
				parts[k] = New(fmt.Sprintf("P%d", k), attrs) // an empty part
			default:
				parts[k] = randomRelation(rng, attrs, rng.Intn(40), dom)
				parts[k].Name = fmt.Sprintf("P%d", k)
			}
			if rng.Intn(3) == 0 {
				parts[k] = parts[k].Snapshot(parts[k].Name)
			}
		}
		sides := make([]*Relation, rng.Intn(5))
		for k := range sides {
			sa := randomAttrs(rng)
			if rng.Intn(5) == 0 {
				sa = bitset.Of(5, 6) // shares nothing with the parts
			}
			n := 1 + rng.Intn(40)
			if rng.Intn(6) == 0 {
				n = 0
			}
			sides[k] = randomRelation(rng, sa, n, dom)
			sides[k].Name = fmt.Sprintf("S%d", k)
		}
		tag := fmt.Sprintf("trial %d %v ×%d ⋉%d", trial, attrs, len(parts), len(sides))

		type state struct {
			mut  uint64
			seen int
		}
		before := make([]state, len(parts))
		want := refRel{cols: attrs.Vars(), rows: [][]Value{}}
		for k, p := range parts {
			before[k] = state{mut: p.mut, seen: p.seen.rows()}
			want.rows = refUnion(want, refOf(p))
		}
		for _, s := range sides {
			want.rows = refSemijoin(want, refOf(s), attrs.Intersect(s.Attrs()))
		}

		got := Reduce(attrs, parts, sides...)
		sameRows(t, tag+" Reduce", got, want.rows)
		if got.Attrs() != attrs {
			t.Fatalf("%s: reduced over %v", tag, got.Attrs())
		}
		switch {
		case len(parts) == 1 && len(sides) == 0:
			if got != parts[0] {
				t.Fatalf("%s: a lone part and no side must come back by pointer", tag)
			}
		case len(parts) == 1:
			sj := parts[0].Semijoin(sides...)
			if got.Name != sj.Name {
				t.Fatalf("%s: named %q, Semijoin is named %q", tag, got.Name, sj.Name)
			}
			if got.seen.rows() != 0 {
				t.Fatalf("%s: one part built a dedup table of %d rows", tag, got.seen.rows())
			}
			fallthrough
		default:
			for k, p := range parts {
				if got == p || sharesStorage(got, p) {
					t.Fatalf("%s: the result shares storage with part %d", tag, k)
				}
			}
		}
		for k, p := range parts {
			if p.mut != before[k].mut || p.seen.rows() != before[k].seen {
				t.Fatalf("%s: part %d was written to", tag, k)
			}
		}
	}
}

// TestSemijoinSideOrder: a row is kept only if every side matches it, so the
// order the sides are tried in — the sieve moves the side that last dropped a
// row to the front — decides cost alone. Every permutation of the sides gives
// the same rows, in the same order, under the same name.
func TestSemijoinSideOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	names := []string{"U", "R", "T", "S"} // passed out of name order
	for trial := 0; trial < 40; trial++ {
		r := randomRelation(rng, bitset.Of(0, 1, 2), 30+rng.Intn(80), 5)
		r.Name = "Q"
		sides := make([]*Relation, len(names))
		for k := range sides {
			sides[k] = randomRelation(rng, randomAttrs(rng), 1+rng.Intn(30), 5)
			sides[k].Name = names[k]
		}
		want := refOf(r)
		for _, s := range sides {
			want.rows = refSemijoin(want, refOf(s), r.Attrs().Intersect(s.Attrs()))
		}
		first := r.Semijoin(sides...)
		sameRows(t, fmt.Sprintf("trial %d", trial), first, want.rows)
		for _, perm := range permutations(len(sides)) {
			ps := make([]*Relation, len(perm))
			for i, k := range perm {
				ps[i] = sides[k]
			}
			got := r.Semijoin(ps...)
			tag := fmt.Sprintf("trial %d sides %v", trial, perm)
			sameRows(t, tag, got, want.rows)
			if got.Name != first.Name {
				t.Fatalf("%s: named %q, the first order named it %q", tag, got.Name, first.Name)
			}
		}
	}
}

// permutations lists every ordering of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for at := 0; at <= len(p); at++ {
			q := append(append(append([]int{}, p[:at]...), n-1), p[at:]...)
			out = append(out, q)
		}
	}
	return out
}
