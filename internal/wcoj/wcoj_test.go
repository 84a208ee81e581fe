package wcoj

import (
	"math/rand"
	"slices"
	"testing"

	"panda/internal/bitset"
	"panda/internal/query"
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

func triangleSchema() *query.Schema {
	return &query.Schema{
		NumVars: 3,
		Atoms: []query.Atom{
			{Name: "R", Vars: bitset.Of(0, 1)},
			{Name: "S", Vars: bitset.Of(1, 2)},
			{Name: "T", Vars: bitset.Of(0, 2)},
		},
	}
}

func TestTriangleJoin(t *testing.T) {
	s := triangleSchema()
	ins := query.NewInstance(s)
	ins.Relations[0].Insert([]relation.Value{1, 2})
	ins.Relations[1].Insert([]relation.Value{2, 3})
	ins.Relations[2].Insert([]relation.Value{1, 3})
	ins.Relations[2].Insert([]relation.Value{1, 4}) // no matching S
	out, err := Join(s, ins, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Size() != 1 || !out.Contains([]relation.Value{1, 2, 3}) {
		t.Fatalf("join = %v", sortedRows(out))
	}
}

func TestAgainstFullJoinRandom(t *testing.T) {
	s := triangleSchema()
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 25; trial++ {
		ins := query.NewInstance(s)
		for i := range ins.Relations {
			for k := 0; k < 30; k++ {
				ins.Relations[i].Insert([]relation.Value{
					relation.Value(rng.Intn(6)), relation.Value(rng.Intn(6))})
			}
		}
		got, err := Join(s, ins, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(ins.FullJoin()) {
			t.Fatalf("trial %d: mismatch", trial)
		}
	}
}

func TestExplicitOrder(t *testing.T) {
	s := triangleSchema()
	ins := query.NewInstance(s)
	for i := range ins.Relations {
		ins.Relations[i].Insert([]relation.Value{1, 1})
	}
	out, err := Join(s, ins, []int{2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if out.Size() != 1 {
		t.Fatalf("size %d", out.Size())
	}
	if _, err := Join(s, ins, []int{0}); err == nil {
		t.Fatal("short order accepted")
	}
}

func TestBoolean(t *testing.T) {
	s := triangleSchema()
	ins := query.NewInstance(s)
	ok, err := Boolean(s, ins)
	if err != nil || ok {
		t.Fatalf("empty instance: %v %v", ok, err)
	}
	ins.Relations[0].Insert([]relation.Value{1, 1})
	ins.Relations[1].Insert([]relation.Value{1, 1})
	ins.Relations[2].Insert([]relation.Value{1, 1})
	ok, err = Boolean(s, ins)
	if err != nil || !ok {
		t.Fatalf("self-loop triangle: %v %v", ok, err)
	}
}

func TestUncoveredVariable(t *testing.T) {
	s := &query.Schema{NumVars: 2, Atoms: []query.Atom{{Name: "R", Vars: bitset.Of(0)}}}
	ins := query.NewInstance(s)
	ins.Relations[0].Insert([]relation.Value{1})
	if _, err := Join(s, ins, nil); err == nil {
		t.Fatal("uncovered variable accepted")
	}
}
