package bitset

import (
	"testing"
	"testing/quick"
)

func TestOfAndVars(t *testing.T) {
	s := Of(0, 2, 5)
	if s.Card() != 3 {
		t.Fatalf("Card = %d, want 3", s.Card())
	}
	want := []int{0, 2, 5}
	got := s.Vars()
	if len(got) != len(want) {
		t.Fatalf("Vars = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Vars = %v, want %v", got, want)
		}
	}
}

func TestFull(t *testing.T) {
	if Full(4) != Of(0, 1, 2, 3) {
		t.Fatalf("Full(4) = %v", Full(4))
	}
	if Full(0) != 0 {
		t.Fatalf("Full(0) = %v", Full(0))
	}
}

func TestSetAlgebra(t *testing.T) {
	a, b := Of(0, 1, 2), Of(1, 2, 3)
	if a.Union(b) != Of(0, 1, 2, 3) {
		t.Errorf("union wrong")
	}
	if a.Intersect(b) != Of(1, 2) {
		t.Errorf("intersect wrong")
	}
	if a.Minus(b) != Of(0) {
		t.Errorf("minus wrong")
	}
	if !a.Incomparable(b) {
		t.Errorf("a ⊥ b expected")
	}
	if a.Incomparable(a) {
		t.Errorf("a ⊥ a unexpected")
	}
	if Of(1).Incomparable(a) {
		t.Errorf("{1} ⊥ a unexpected: {1} ⊂ a")
	}
}

func TestSubsetRelations(t *testing.T) {
	a := Of(1, 3)
	if !a.SubsetOf(Of(0, 1, 2, 3)) {
		t.Errorf("subset expected")
	}
	if !a.ProperSubsetOf(Of(1, 2, 3)) {
		t.Errorf("proper subset expected")
	}
	if a.ProperSubsetOf(a) {
		t.Errorf("a ⊂ a unexpected")
	}
	if !Set(0).SubsetOf(a) {
		t.Errorf("∅ ⊆ a expected")
	}
}

func TestAddRemoveContains(t *testing.T) {
	s := Set(0).Add(3).Add(1)
	if !s.Contains(3) || !s.Contains(1) || s.Contains(0) {
		t.Fatalf("contains wrong: %v", s)
	}
	s = s.Remove(3)
	if s != Of(1) {
		t.Fatalf("remove wrong: %v", s)
	}
	s = s.Remove(3) // removing an absent element is a no-op
	if s != Of(1) {
		t.Fatalf("remove absent changed set: %v", s)
	}
}

func TestString(t *testing.T) {
	if got := Of(0, 1).Label([]string{"X", "Y"}); got != "XY" {
		t.Errorf("Label = %q", got)
	}
	if got := Set(0).String(); got != "∅" {
		t.Errorf("String(∅) = %q", got)
	}
	if got := Of(10).String(); got != "A10" {
		t.Errorf("String = %q", got)
	}
	// AppendLabel writes after what dst holds; names run out into Ai.
	for _, c := range []struct {
		s     Set
		names []string
		want  string
	}{
		{0, nil, "pre∅"},
		{Of(0, 3, 12, 31), nil, "preA0A3A12A31"},
		{Of(0, 1, 2, 11), []string{"X", "Yy", "%d"}, "preXYy%dA11"},
	} {
		if got := string(c.s.AppendLabel([]byte("pre"), c.names)); got != c.want {
			t.Errorf("AppendLabel(%#x) = %q, want %q", uint32(c.s), got, c.want)
		}
		if got := c.s.Label(c.names); "pre"+got != c.want {
			t.Errorf("Label(%#x) = %q, want %q", uint32(c.s), got, c.want[3:])
		}
	}
}

func TestSorted(t *testing.T) {
	in := []Set{Of(0, 1, 2), Of(3), Of(0, 1), Of(1)}
	out := Sorted(in)
	if out[0] != Of(1) || out[1] != Of(3) || out[2] != Of(0, 1) || out[3] != Of(0, 1, 2) {
		t.Fatalf("Sorted = %v", out)
	}
	// input unchanged
	if in[0] != Of(0, 1, 2) {
		t.Fatalf("Sorted mutated input")
	}
}

// Property: union is the smallest set containing both, and De Morgan-ish
// identities hold on the 16-variable universe.
func TestQuickSetIdentities(t *testing.T) {
	f := func(x, y uint16) bool {
		a, b := Set(x), Set(y)
		u := a.Union(b)
		if !a.SubsetOf(u) || !b.SubsetOf(u) {
			return false
		}
		if a.Intersect(b).Union(a.Minus(b)) != a {
			return false
		}
		if a.Card()+b.Card() != u.Card()+a.Intersect(b).Card() {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Incomparable is symmetric and irreflexive, and equivalent to the
// definitional form.
func TestQuickIncomparable(t *testing.T) {
	f := func(x, y uint16) bool {
		a, b := Set(x), Set(y)
		def := !(a.SubsetOf(b)) && !(b.SubsetOf(a))
		return a.Incomparable(b) == def && a.Incomparable(b) == b.Incomparable(a) && !a.Incomparable(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
