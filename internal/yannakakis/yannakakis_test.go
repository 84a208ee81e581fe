package yannakakis

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"panda/internal/bitset"
	"panda/internal/relation"
)

// sortedRows materializes r's tuples in value order (AllSorted reuses its
// row buffer).
func sortedRows(r *relation.Relation) (rows [][]relation.Value) {
	for row := range r.AllSorted() {
		rows = append(rows, slices.Clone(row))
	}
	return rows
}

func path3() ([]*relation.Relation, []int) {
	r := relation.New("R", bitset.Of(0, 1))
	s := relation.New("S", bitset.Of(1, 2))
	t := relation.New("T", bitset.Of(2, 3))
	r.Insert([]relation.Value{1, 2})
	r.Insert([]relation.Value{9, 9}) // dangling
	s.Insert([]relation.Value{2, 3})
	t.Insert([]relation.Value{3, 4})
	t.Insert([]relation.Value{8, 8}) // dangling
	// Join tree: R → S ← T (S is root).
	return []*relation.Relation{r, s, t}, []int{1, -1, 1}
}

func TestFullReduce(t *testing.T) {
	rels, parent := path3()
	red, err := FullReduceContext(context.Background(), rels, parent)
	if err != nil {
		t.Fatal(err)
	}
	if red[0].Size() != 1 || red[1].Size() != 1 || red[2].Size() != 1 {
		t.Fatalf("sizes after reduction: %d %d %d, want 1 1 1",
			red[0].Size(), red[1].Size(), red[2].Size())
	}
	if red[0].Contains([]relation.Value{9, 9}) {
		t.Fatal("dangling tuple survived reduction")
	}
	// Originals untouched.
	if rels[0].Size() != 2 {
		t.Fatal("FullReduceContext mutated input")
	}
}

func TestJoin(t *testing.T) {
	rels, parent := path3()
	out, err := Join(rels, parent)
	if err != nil {
		t.Fatal(err)
	}
	if out.Size() != 1 || !out.Contains([]relation.Value{1, 2, 3, 4}) {
		t.Fatalf("join = %v", sortedRows(out))
	}
}

func TestNonEmpty(t *testing.T) {
	rels, parent := path3()
	ok, err := NonEmpty(rels, parent)
	if err != nil || !ok {
		t.Fatalf("NonEmpty = %v, %v", ok, err)
	}
	// Remove the matching S tuple → empty join.
	s := relation.New("S", bitset.Of(1, 2))
	s.Insert([]relation.Value{7, 7})
	rels[1] = s
	ok, err = NonEmpty(rels, parent)
	if err != nil || ok {
		t.Fatalf("NonEmpty on empty join = %v, %v", ok, err)
	}
}

func TestErrors(t *testing.T) {
	rels, _ := path3()
	if _, err := FullReduceContext(context.Background(), rels, []int{-1, 0}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := FullReduceContext(context.Background(), rels, []int{1, 2, 1}); err == nil {
		t.Fatal("cycle accepted (no root)")
	}
	if _, err := FullReduceContext(context.Background(), rels, []int{-1, 2, 1}); err == nil {
		t.Fatal("unreachable cycle accepted")
	}
}

// TestJoinEqualsBruteForce compares Yannakakis output with a direct join on
// random acyclic (path) instances.
func TestJoinEqualsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 25; trial++ {
		r := relation.New("R", bitset.Of(0, 1))
		s := relation.New("S", bitset.Of(1, 2))
		u := relation.New("U", bitset.Of(2, 3))
		for i := 0; i < 25; i++ {
			r.Insert([]relation.Value{relation.Value(rng.Intn(4)), relation.Value(rng.Intn(4))})
			s.Insert([]relation.Value{relation.Value(rng.Intn(4)), relation.Value(rng.Intn(4))})
			u.Insert([]relation.Value{relation.Value(rng.Intn(4)), relation.Value(rng.Intn(4))})
		}
		got, err := Join([]*relation.Relation{r, s, u}, []int{1, -1, 1})
		if err != nil {
			t.Fatal(err)
		}
		want := r.Join(s).Join(u)
		if !got.Equal(want) {
			t.Fatalf("trial %d: yannakakis %d tuples, direct %d", trial, got.Size(), want.Size())
		}
	}
}

// TestIntermediateSizesBounded: after reduction, the bottom-up join's
// intermediates never exceed |output| (on instances with non-empty output).
func TestIntermediateSizesBounded(t *testing.T) {
	// Star schema where unreduced join would blow up: R(0,1) with heavy 9s.
	r := relation.New("R", bitset.Of(0, 1))
	s := relation.New("S", bitset.Of(1, 2))
	for i := 0; i < 50; i++ {
		r.Insert([]relation.Value{relation.Value(i), 9})
	}
	r.Insert([]relation.Value{0, 1})
	s.Insert([]relation.Value{1, 5})
	red, err := FullReduceContext(context.Background(), []*relation.Relation{r, s}, []int{1, -1})
	if err != nil {
		t.Fatal(err)
	}
	if red[0].Size() != 1 {
		t.Fatalf("reducer kept %d tuples of R, want 1", red[0].Size())
	}
}
