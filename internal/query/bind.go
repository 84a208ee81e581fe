package query

import (
	"errors"
	"fmt"

	"panda/internal/bitset"
	"panda/internal/relation"
)

// Named-relation binding: a catalog (any store of named tables) is bound to
// a schema by looking up each atom's relation by name and permuting stored
// rows — which are in the atom's declared argument order — into the sorted
// variable order the relational layer uses. This is the seam between a
// long-lived session owning named relations and the positional Instance the
// evaluators consume.

// Binding errors. Callers compare with errors.Is; the facade re-exports
// them as panda.ErrUnknownRelation and panda.ErrArity.
var (
	ErrUnknownRelation = errors.New("query: unknown relation")
	ErrArity           = errors.New("query: arity mismatch")
)

// ArgOrder returns atom i's variable indices in declared argument order:
// Args when the parser recorded them, the ascending variable order of Vars
// otherwise. The length of the result is the atom's declared arity.
func (s *Schema) ArgOrder(i int) []int {
	a := s.Atoms[i]
	if a.Args != nil {
		return a.Args
	}
	return a.Vars.Vars()
}

// Arity returns atom i's declared arity (repeated variables count per
// occurrence).
func (s *Schema) Arity(i int) int { return len(s.ArgOrder(i)) }

// Lookup resolves a relation name to its stored relation. Columns must be
// in the declared argument order of the atoms naming the relation.
type Lookup func(name string) (*relation.Relation, bool)

// RowsLookup resolves a relation name to decoded rows (in declared argument
// order) and an arity — the variant of Lookup for callers that hold boxed
// tuples rather than relations.
type RowsLookup func(name string) (rows [][]relation.Value, arity int, ok bool)

// BindInstance builds an Instance for s from named tables: each atom's
// relation is resolved by name and its rows are permuted from declared
// argument order into sorted variable order. Atoms sharing a name share the
// stored rows (a self-join reads one table twice). An atom with a repeated
// variable, R(A,A), binds only the rows whose repeated positions agree —
// the selection the atom denotes.
//
// Binding stays on the interned-id plane. When an atom's declared argument
// order is already the ascending variable order (the common case), the
// bound relation is an O(arity) column snapshot of the stored one — no row
// is copied or re-hashed; permuted and repeated-variable atoms fall back to
// an id-level row copy.
//
// Errors wrap ErrUnknownRelation (no table of that name) or ErrArity (the
// table's arity differs from the atom's declared arity).
func BindInstance(s *Schema, lookup Lookup) (*Instance, error) {
	ins := NewInstance(s)
	for i, a := range s.Atoms {
		t, ok := lookup(a.Name)
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrUnknownRelation, a.Name)
		}
		order := s.ArgOrder(i)
		if len(t.Cols()) != len(order) {
			return nil, fmt.Errorf("%w: relation %s has arity %d, atom %s needs %d",
				ErrArity, a.Name, len(t.Cols()), a.Name, len(order))
		}
		vars := a.Vars.Vars()
		if identityOrder(order, vars) {
			ins.Relations[i] = t.SnapshotAs(a.Name, a.Vars)
			continue
		}
		// Permuted or repeated-variable atom: copy row ids through the
		// declared-order → sorted-order mapping, dropping rows whose
		// repeated positions disagree.
		pos := make(map[int]int, len(vars))
		for j, v := range vars {
			pos[v] = j
		}
		cols := make([][]uint32, len(order))
		for k := range cols {
			cols[k] = t.Column(k)
		}
		ids := make([]uint32, len(vars))
		set := make([]bool, len(vars))
		for ri := 0; ri < t.Size(); ri++ {
			for j := range set {
				set[j] = false
			}
			match := true
			for k, v := range order {
				j := pos[v]
				id := cols[k][ri]
				if set[j] && ids[j] != id {
					match = false // repeated variable with unequal values
					break
				}
				ids[j], set[j] = id, true
			}
			if match {
				ins.Relations[i].InsertIDs(ids)
			}
		}
	}
	return ins, nil
}

// identityOrder reports whether the declared argument order is exactly the
// ascending variable order with no repetitions.
func identityOrder(order, vars []int) bool {
	if len(order) != len(vars) {
		return false
	}
	for k := range order {
		if order[k] != vars[k] {
			return false
		}
	}
	return true
}

// BindInstanceRows is BindInstance over materialized rows: each named row set
// is stored once as a catalog-shaped relation (column k ↔ argument k, shared
// by the atoms naming it) and bound like any other table.
func BindInstanceRows(s *Schema, lookup RowsLookup) (*Instance, error) {
	tables := map[string]*relation.Relation{}
	return BindInstance(s, func(name string) (*relation.Relation, bool) {
		if t, ok := tables[name]; ok {
			return t, true
		}
		rows, arity, ok := lookup(name)
		if !ok {
			return nil, false
		}
		b := relation.NewBuilder(name, bitset.Full(arity), len(rows))
		for _, row := range rows {
			b.Add(row)
		}
		tables[name] = b.Build()
		return tables[name], true
	})
}
