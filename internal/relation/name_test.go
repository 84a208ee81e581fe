package relation

import (
	"fmt"
	"slices"
	"testing"

	"panda/internal/bitset"
)

// refReducedName is the name a chain of binary operators gives Reduce's
// result, in the fmt formats the operators used before their names were
// concatenated: the union of the parts (named after its first two), then one
// ⋉ per side, the sides in name order.
func refReducedName(parts, sides []*Relation) string {
	name := "∅"
	switch len(parts) {
	case 0:
	case 1:
		name = parts[0].Name
	case 2:
		name = fmt.Sprintf("(%s∪%s)", parts[0].Name, parts[1].Name)
	default:
		name = fmt.Sprintf("(%s∪%s∪…)", parts[0].Name, parts[1].Name)
	}
	var names []string
	for _, s := range sides {
		names = append(names, s.Name)
	}
	slices.Sort(names)
	for _, n := range names {
		name = fmt.Sprintf("(%s⋉%s)", name, n)
	}
	return name
}

// TestOperatorNamesMatchFmt holds every operator's output Name to the fmt
// format it was built with before: the empty set, variable ids past 9,
// bucket, partition and degree-class numbers past 9, operand names holding
// '%', and reductions with more than two parts and sides out of name order
// (one name twice).
func TestOperatorNamesMatchFmt(t *testing.T) {
	x, y := 3, 12
	r := New("R%d", bitset.Of(x, y))
	// X-values 0..11 of degree 1, 1, 2, 2, 4, 4, …, 32, 32 fill twelve
	// buckets; X-value 12 of degree 1024 adds degree class 10.
	for v := 0; v < 12; v++ {
		for d := 0; d < 1<<(v/2); d++ {
			r.Insert([]Value{Value(v), Value(d)})
		}
	}
	for d := 0; d < 1024; d++ {
		r.Insert([]Value{12, Value(d)})
	}
	s := pairs("S%", y, 20, [][2]Value{{0, 1}, {1, 2}, {5, 5}})
	check := func(what string, got *Relation, want string) {
		t.Helper()
		if got.Name != want {
			t.Errorf("%s: name %q, want %q", what, got.Name, want)
		}
	}

	for _, on := range []bitset.Set{0, bitset.Of(x), bitset.Of(y), bitset.Of(x, y)} {
		check(fmt.Sprintf("Project(%v)", on), r.Project(on), fmt.Sprintf("Π%v(%s)", on, r.Name))
	}
	check("Join", r.Join(s), fmt.Sprintf("(%s⋈%s)", r.Name, s.Name))
	check("Join nested", r.Join(s).Join(r), fmt.Sprintf("(%s⋈%s)", fmt.Sprintf("(%s⋈%s)", r.Name, s.Name), r.Name))

	for _, k := range []int{2, 12} {
		for j, p := range r.Partition(k, bitset.Of(x)) {
			check(fmt.Sprintf("Partition(%d)", k), p, fmt.Sprintf("%s[p%d/%d]", r.Name, j, k))
		}
	}

	buckets := r.SplitByDegree(r.Attrs(), bitset.Of(x))
	if len(buckets) < 11 {
		t.Fatalf("SplitByDegree made %d buckets, want ≥ 11", len(buckets))
	}
	for b, bk := range buckets {
		check("SplitByDegree", bk.Rel, fmt.Sprintf("%s[b%d]", r.Name, b))
	}

	for _, yx := range [][2]bitset.Set{{r.Attrs(), bitset.Of(x)}, {bitset.Of(x), 0}} {
		classes := r.Project(yx[0]).SplitByDegree(yx[0], yx[1])
		parts := r.PartitionByDegree(yx[0], yx[1])
		if len(parts) != len(classes) {
			t.Fatalf("PartitionByDegree(%v, %v): %d parts, %d buckets", yx[0], yx[1], len(parts), len(classes))
		}
		for b, p := range parts {
			check("PartitionByDegree", p, fmt.Sprintf("%s[deg2^%d.%d]", r.Name, classes[b].class, classes[b].half))
		}
		if yx[1] != 0 && classes[len(classes)-1].class < 10 {
			t.Fatalf("top degree class %d, want ≥ 10", classes[len(classes)-1].class)
		}
	}

	u1, u2, u3 := New("U1", r.Attrs()), New("U%2", r.Attrs()), New("U3", r.Attrs())
	u1.Insert([]Value{1, 1})
	u2.Insert([]Value{2, 2})
	u3.Insert([]Value{1, 1})
	a := pairs("A", x, 7, [][2]Value{{1, 0}, {2, 0}})
	unsorted := []*Relation{s, a, New("B10", bitset.Of(x)), s, New("%s", 0)}
	for _, tc := range []struct {
		parts, sides []*Relation
	}{
		{nil, nil},
		{nil, unsorted},
		{[]*Relation{u1}, unsorted},
		{[]*Relation{u1, u2}, nil},
		{[]*Relation{u1, u2}, unsorted[:2]},
		{[]*Relation{u1, u2, u3}, nil},
		{[]*Relation{u1, u2, u3, r}, unsorted},
	} {
		want := refReducedName(tc.parts, tc.sides)
		check(fmt.Sprintf("Reduce(%d parts, %d sides)", len(tc.parts), len(tc.sides)), Reduce(r.Attrs(), tc.parts, tc.sides...), want)
	}
	check("Union", u1.Union(u2, u3, r), refReducedName([]*Relation{u1, u2, u3, r}, nil))
	check("Semijoin", r.Semijoin(unsorted...), refReducedName([]*Relation{r}, unsorted))
}
