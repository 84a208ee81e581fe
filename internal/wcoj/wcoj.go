// Package wcoj implements a generic worst-case optimal join in the style of
// NPRR / Generic-Join [42, 43]: variables are eliminated one at a time, and
// at each level the candidate set is the intersection of the matching
// values across all relations covering the variable, seeded from the
// relation with the fewest candidates. Under cardinality constraints its
// runtime is Õ(AGM(Q)) — the baseline PANDA is compared against for full
// conjunctive queries.
//
// The package sits on no production path: Join and Boolean are the oracle of
// core/pipeline_test.go (they share no code with the engine) and the
// generic-join baseline bench/ measures. Nothing the facade, the server or
// the CLI runs reaches them.
//
// The join runs entirely on the interned id plane: candidate sets intersect
// uint32 ids against the relations' column vectors and output rows are
// emitted as id-tuples, so no value is decoded except to order candidates
// deterministically.
package wcoj

import (
	"fmt"
	"sort"

	"panda/internal/bitset"
	"panda/internal/query"
	"panda/internal/relation"
)

// Join computes the natural join of all atoms of the query over the
// instance using the generic worst-case optimal algorithm. The variable
// order is chosen greedily (most-covered variables first) unless order is
// supplied.
func Join(s *query.Schema, ins *query.Instance, order []int) (*relation.Relation, error) {
	if len(ins.Relations) != len(s.Atoms) {
		return nil, fmt.Errorf("wcoj: instance/atom mismatch")
	}
	n := s.NumVars
	if order == nil {
		order = defaultOrder(s)
	}
	if len(order) != n {
		return nil, fmt.Errorf("wcoj: order has %d variables, want %d", len(order), n)
	}
	out := relation.New("Q", bitset.Full(n))
	itn := out.Interner()
	assignment := make([]uint32, n)

	// Per relation, per prefix-depth we filter the surviving row-index list
	// lazily: we keep, for each relation, the rows consistent with the
	// current partial assignment (semi-naive but worst-case-optimal per
	// level because candidates come from intersections).
	type relState struct {
		rel  *relation.Relation
		cols [][]uint32 // column id vectors
		rows []int32    // surviving row indices
	}
	states := make([]*relState, len(ins.Relations))
	for i, r := range ins.Relations {
		st := &relState{rel: r, cols: make([][]uint32, len(r.Cols()))}
		for c := range st.cols {
			st.cols[c] = r.Column(c)
		}
		st.rows = make([]int32, r.Size())
		for j := range st.rows {
			st.rows[j] = int32(j)
		}
		states[i] = st
	}

	var rec func(depth int, states []*relState) error
	rec = func(depth int, states []*relState) error {
		if depth == n {
			out.InsertIDs(assignment)
			return nil
		}
		v := order[depth]
		// Relations covering v.
		var covering []*relState
		for _, st := range states {
			if st.rel.Attrs().Contains(v) {
				covering = append(covering, st)
			}
		}
		if len(covering) == 0 {
			return fmt.Errorf("wcoj: variable %d not covered by any atom", v)
		}
		// Candidate ids: intersect over covering relations, seeded from the
		// smallest.
		sort.Slice(covering, func(i, j int) bool { return len(covering[i].rows) < len(covering[j].rows) })
		col0 := covering[0].cols[colPos(covering[0].rel, v)]
		cand := map[uint32]bool{}
		for _, ri := range covering[0].rows {
			cand[col0[ri]] = true
		}
		for _, st := range covering[1:] {
			col := st.cols[colPos(st.rel, v)]
			seen := map[uint32]bool{}
			for _, ri := range st.rows {
				seen[col[ri]] = true
			}
			for id := range cand {
				if !seen[id] {
					delete(cand, id)
				}
			}
		}
		ids := make([]uint32, 0, len(cand))
		for id := range cand {
			ids = append(ids, id)
		}
		// Order candidates by decoded value so the output row order — and
		// with it every downstream trace — is a function of the data, not of
		// id-assignment history.
		sort.Slice(ids, func(i, j int) bool { return itn.ValueOf(ids[i]) < itn.ValueOf(ids[j]) })
		for _, id := range ids {
			assignment[v] = id
			// Filter each covering relation's rows to those matching id.
			next := make([]*relState, len(states))
			for i, st := range states {
				if !st.rel.Attrs().Contains(v) {
					next[i] = st
					continue
				}
				col := st.cols[colPos(st.rel, v)]
				var rows []int32
				for _, ri := range st.rows {
					if col[ri] == id {
						rows = append(rows, ri)
					}
				}
				next[i] = &relState{rel: st.rel, cols: st.cols, rows: rows}
			}
			if err := rec(depth+1, next); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0, states); err != nil {
		return nil, err
	}
	return out, nil
}

// Boolean answers the Boolean query: does the join have any tuple?
func Boolean(s *query.Schema, ins *query.Instance) (bool, error) {
	// Early exit by joining with a row cap would be faster; for baseline
	// purposes the full join suffices on test scales.
	out, err := Join(s, ins, nil)
	if err != nil {
		return false, err
	}
	return out.Size() > 0, nil
}

func defaultOrder(s *query.Schema) []int {
	type vc struct{ v, c int }
	counts := make([]vc, s.NumVars)
	for v := range counts {
		counts[v].v = v
	}
	for _, a := range s.Atoms {
		for _, v := range a.Vars.Vars() {
			counts[v].c++
		}
	}
	sort.Slice(counts, func(i, j int) bool {
		if counts[i].c != counts[j].c {
			return counts[i].c > counts[j].c
		}
		return counts[i].v < counts[j].v
	})
	order := make([]int, s.NumVars)
	for i, x := range counts {
		order[i] = x.v
	}
	return order
}

func colPos(r *relation.Relation, v int) int {
	for i, c := range r.Cols() {
		if c == v {
			return i
		}
	}
	return -1
}
