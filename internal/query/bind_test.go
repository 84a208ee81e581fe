package query

import (
	"errors"
	"reflect"
	"testing"

	"panda/internal/relation"
)

// TestBindInstancePermutesAndSelects binds one stored table through a plain,
// a permuted, a repeated-variable and a self-joined atom, from a relation and
// from boxed rows alike: both entry points are one binding loop.
func TestBindInstancePermutesAndSelects(t *testing.T) {
	res, err := Parse(`Q(A,B,C) :- R(A,B), R(B,A), R(C,C), R(B,C).`)
	if err != nil {
		t.Fatal(err)
	}
	s := &res.Rule.Schema
	rows := [][]relation.Value{{1, 2}, {3, 3}, {2, 1}, {4, 5}, {1, 2}}
	want := [][][]relation.Value{
		{{1, 2}, {3, 3}, {2, 1}, {4, 5}}, // R(A,B): as stored, duplicate dropped
		{{2, 1}, {3, 3}, {1, 2}, {5, 4}}, // R(B,A): columns (A,B) ← stored (B,A)
		{{3}},                            // R(C,C): the rows whose two positions agree
		{{1, 2}, {3, 3}, {2, 1}, {4, 5}}, // R(B,C): the same table once more
	}
	fromRows, err := BindInstanceRows(s, func(name string) ([][]relation.Value, int, bool) {
		return rows, 2, name == "R"
	})
	if err != nil {
		t.Fatal(err)
	}
	stored := fromRows.Relations[0]
	fromRel, err := BindInstance(s, func(name string) (*relation.Relation, bool) {
		return stored, name == "R"
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, ins := range map[string]*Instance{"rows": fromRows, "relation": fromRel} {
		for i, r := range ins.Relations {
			if r.Attrs() != s.Atoms[i].Vars || !reflect.DeepEqual(r.Rows(), want[i]) {
				t.Errorf("%s: atom %d bound to %v over %v, want %v", name, i, r.Rows(), r.Attrs(), want[i])
			}
		}
	}
}

func TestBindInstanceRowsErrors(t *testing.T) {
	res, err := Parse(`Q(A,B,C) :- R(A,B), S(B,C).`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = BindInstanceRows(&res.Rule.Schema, func(name string) ([][]relation.Value, int, bool) {
		return nil, 2, name == "R"
	})
	if !errors.Is(err, ErrUnknownRelation) || err.Error() != "query: unknown relation: S" {
		t.Fatalf("missing table: %v", err)
	}
	_, err = BindInstanceRows(&res.Rule.Schema, func(name string) ([][]relation.Value, int, bool) {
		return [][]relation.Value{{1, 2, 3}}, 3, true
	})
	if !errors.Is(err, ErrArity) || err.Error() != "query: arity mismatch: relation R has arity 3, atom R needs 2" {
		t.Fatalf("wrong arity: %v", err)
	}
}
