package hypergraph

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"panda/internal/bitset"
)

// fourCycle is the running-example query of the paper (Example 1.2):
// R12(A1,A2), R23(A2,A3), R34(A3,A4), R41(A4,A1) with vertices 0..3.
func fourCycle() *Hypergraph {
	return New(4,
		bitset.Of(0, 1), bitset.Of(1, 2), bitset.Of(2, 3), bitset.Of(3, 0))
}

func triangle() *Hypergraph {
	return New(3, bitset.Of(0, 1), bitset.Of(1, 2), bitset.Of(0, 2))
}

func TestFromOrderingValid(t *testing.T) {
	h := fourCycle()
	d := h.FromOrdering([]int{0, 1, 2, 3})
	if err := d.Validate(h); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

// TestValidateRejectsParentsThatAreNotOneTree: a Parent array with an entry
// out of range, no root, two roots or a cycle is refused before any bag is
// read through it.
func TestValidateRejectsParentsThatAreNotOneTree(t *testing.T) {
	h := New(4, bitset.Of(0, 1), bitset.Of(1, 2), bitset.Of(2, 3))
	bags := []bitset.Set{bitset.Of(0, 1), bitset.Of(1, 2), bitset.Of(2, 3)}
	if err := (&Decomposition{Bags: bags, Parent: []int{-1, 0, 1}}).Validate(h); err != nil {
		t.Fatalf("a path of bags: %v", err)
	}
	for _, c := range []struct {
		parent []int
		want   string
	}{
		{[]int{-1, 0, 99}, "hypergraph: bag 2 has parent 99 out of range"},
		{[]int{-1, 0, -2}, "hypergraph: bag 2 has parent -2 out of range"},
		{[]int{1, 2, 0}, "hypergraph: decomposition has 0 roots, want 1"},
		{[]int{-1, -1, 1}, "hypergraph: decomposition has 2 roots, want 1"},
		{[]int{-1, 2, 1}, "hypergraph: bag 1 does not reach the root"},
		{[]int{2, 1, -1}, "hypergraph: bag 1 does not reach the root"},
	} {
		d := &Decomposition{Bags: bags, Parent: c.parent}
		if err := d.Validate(h); err == nil || err.Error() != c.want {
			t.Errorf("parents %v: err = %v, want %s", c.parent, err, c.want)
		}
	}
}

// TestFourCycleTreeDecompositions reproduces Figure 2: the 4-cycle has
// exactly two non-dominated tree decompositions, with bag sets
// {A1A2A3, A3A4A1} and {A2A3A4, A4A1A2}.
func TestFourCycleTreeDecompositions(t *testing.T) {
	h := fourCycle()
	tds, err := h.AllDecompositions(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tds) != 2 {
		for _, d := range tds {
			t.Logf("bags: %v", d.Bags)
		}
		t.Fatalf("got %d decompositions, want 2 (Figure 2)", len(tds))
	}
	var keys []string
	for _, d := range tds {
		if err := d.Validate(h); err != nil {
			t.Fatalf("Validate: %v", err)
		}
		bags := bitset.Sorted(d.Bags)
		if len(bags) != 2 {
			t.Fatalf("decomposition has %d bags, want 2: %v", len(bags), bags)
		}
		keys = append(keys, bags[0].String()+"|"+bags[1].String())
	}
	sort.Strings(keys)
	// Tree 1: {A1,A2,A3} and {A3,A4,A1}; Tree 2: {A2,A3,A4} and {A4,A1,A2}.
	want := []string{"A0A1A2|A0A2A3", "A0A1A3|A1A2A3"}
	if keys[0] != want[0] || keys[1] != want[1] {
		t.Fatalf("decompositions = %v, want %v", keys, want)
	}
}

func TestTriangleDecompositions(t *testing.T) {
	h := triangle()
	tds, err := h.AllDecompositions(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tds) != 1 || len(tds[0].Bags) != 1 || tds[0].Bags[0] != bitset.Of(0, 1, 2) {
		t.Fatalf("triangle should have the single trivial decomposition, got %+v", tds)
	}
}

// TestSixCycleDecompositionCount checks the Catalan-number claim of
// Proposition 2.9: minimal non-redundant tree decompositions of an n-cycle
// correspond to triangulations of an n-gon, Catalan(n−2) many. For n=6
// that is C(4) = 14.
func TestSixCycleDecompositionCount(t *testing.T) {
	h := New(6,
		bitset.Of(0, 1), bitset.Of(1, 2), bitset.Of(2, 3),
		bitset.Of(3, 4), bitset.Of(4, 5), bitset.Of(5, 0))
	tds, err := h.AllDecompositions(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tds) != 14 {
		t.Fatalf("6-cycle has %d minimal decompositions, want Catalan(4) = 14", len(tds))
	}
	for _, d := range tds {
		if err := d.Validate(h); err != nil {
			t.Fatalf("Validate: %v", err)
		}
		if len(d.Bags) != 4 {
			t.Fatalf("triangulation should have 4 triangles, got %v", d.Bags)
		}
		for _, b := range d.Bags {
			if b.Card() != 3 {
				t.Fatalf("non-triangle bag %v", b)
			}
		}
	}
}

// TestMinimalTransversalsFourCycle reproduces the four disjunctive rules of
// Example 1.10: the minimal transversals of the two tree decompositions'
// bag sets are the four pairs {123,341}×{234,412}.
func TestMinimalTransversalsFourCycle(t *testing.T) {
	// Bag 0 = A1A2A3, 1 = A3A4A1, 2 = A2A3A4, 3 = A4A1A2.
	family := [][]int{{0, 1}, {2, 3}} // one bag from each decomposition
	ts, err := MinimalTransversals(context.Background(), family)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 4 {
		t.Fatalf("got %d transversals, want 4: %v", len(ts), ts)
	}
	for _, tr := range ts {
		if len(tr) != 2 {
			t.Fatalf("transversal %v should have 2 elements", tr)
		}
	}
}

func TestMinimalTransversalsSharedBag(t *testing.T) {
	// When one element hits every family member, it is the unique minimal
	// transversal of size 1 (and supersets are pruned).
	family := [][]int{{0, 1}, {0, 2}}
	ts, err := MinimalTransversals(context.Background(), family)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"[0]": true, "[1 2]": true}
	if len(ts) != 2 {
		t.Fatalf("transversals = %v, want {0} and {1,2}", ts)
	}
	for _, tr := range ts {
		s := intsKey(tr)
		if !want[s] {
			t.Fatalf("unexpected transversal %v", tr)
		}
	}
}

// TestMinimalTransversalsRepeatedElement: a member that names an element
// twice is the set it names, so each of its elements is a transversal.
func TestMinimalTransversalsRepeatedElement(t *testing.T) {
	ts, err := MinimalTransversals(context.Background(), [][]int{{0, 1, 0}})
	if err != nil || len(ts) != 2 || intsKey(ts[0]) != "[0]" || intsKey(ts[1]) != "[1]" {
		t.Fatalf("transversals = %v, %v; want [0] and [1]", ts, err)
	}
}

// TestMinimalTransversalsMemoryFollowsTheFamily: what the enumeration
// allocates grows with the family, not with its largest element nor with a
// member's length once a list passes the cap. 200,000 copies of {199,999}
// (a bit vector per kept set, sized to that element, would take 5 GB), an
// element near 2^62, and one member of 500,000 elements (as many
// singletons before the cap) each stay far below 64 MiB.
func TestMinimalTransversalsMemoryFollowsTheFamily(t *testing.T) {
	const n = 200000
	copies := make([][]int, n)
	for i := range copies {
		copies[i] = []int{n - 1}
	}
	wide := make([]int, 500000)
	for i := range wide {
		wide[i] = i
	}
	for _, c := range []struct {
		name    string
		family  [][]int
		want    string
		wantErr bool
	}{
		{"copies", copies, fmt.Sprint([][]int{{n - 1}}), false},
		{"large-element", [][]int{{1 << 62}, {0, 1 << 62}}, fmt.Sprint([][]int{{1 << 62}}), false},
		{"wide-member", [][]int{wide}, "", true},
	} {
		t.Run(c.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			trs, err := MinimalTransversals(context.Background(), c.family)
			runtime.ReadMemStats(&after)
			if (err != nil) != c.wantErr || !c.wantErr && fmt.Sprint(trs) != c.want {
				t.Fatalf("transversals = %v, %v; want %s (an error: %v)", trs, err, c.want, c.wantErr)
			}
			if b := after.TotalAlloc - before.TotalAlloc; b > 64<<20 {
				t.Fatalf("allocated %d MiB", b>>20)
			}
		})
	}
}

func intsKey(a []int) string {
	s := "["
	for i, v := range a {
		if i > 0 {
			s += " "
		}
		s += string(rune('0' + v))
	}
	return s + "]"
}

func TestCoversAll(t *testing.T) {
	if !fourCycle().CoversAll() {
		t.Fatal("4-cycle covers all vertices")
	}
	if New(3, bitset.Of(0, 1)).CoversAll() {
		t.Fatal("vertex 2 is uncovered")
	}
}

// Property test: decompositions built from random orderings of random
// connected hypergraphs always validate.
func TestRandomOrderingsProduceValidDecompositions(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := 3 + rng.Intn(4)
		var edges []bitset.Set
		// A spanning path guarantees every vertex is covered.
		for v := 0; v+1 < n; v++ {
			edges = append(edges, bitset.Of(v, v+1))
		}
		for k := 0; k < rng.Intn(4); k++ {
			var e bitset.Set
			for v := 0; v < n; v++ {
				if rng.Intn(2) == 0 {
					e = e.Add(v)
				}
			}
			if e.Card() >= 2 {
				edges = append(edges, e)
			}
		}
		h := New(n, edges...)
		order := rng.Perm(n)
		d := h.FromOrdering(order)
		if err := d.Validate(h); err != nil {
			t.Fatalf("trial %d: %v (order %v, edges %v)", trial, err, order, edges)
		}
	}
}
