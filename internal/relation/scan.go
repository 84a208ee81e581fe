package relation

import (
	"iter"
	"sort"
)

// Row is one decoded tuple in column order (sorted variable ids).
type Row = []Value

// All iterates the decoded rows in storage order. One buffer is reused for
// every yielded row: the slice is valid only for the body of the loop —
// copy it if it must be retained.
func (r *Relation) All() iter.Seq[Row] {
	return func(yield func(Row) bool) {
		buf := make([]Value, len(r.cols))
		for i := 0; i < r.nrows; i++ {
			r.decodeInto(buf, i)
			if !yield(buf) {
				return
			}
		}
	}
}

// AllSorted iterates the decoded rows in lexicographic value order, reusing
// one buffer like All. It sorts a row permutation, not the rows themselves.
func (r *Relation) AllSorted() iter.Seq[Row] {
	return func(yield func(Row) bool) {
		perm := r.sortedPerm()
		buf := make([]Value, len(r.cols))
		for _, i := range perm {
			r.decodeInto(buf, int(i))
			if !yield(buf) {
				return
			}
		}
	}
}

// sortedPerm returns the row indices in lexicographic decoded-value order.
func (r *Relation) sortedPerm() []int32 {
	perm := make([]int32, r.nrows)
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.Slice(perm, func(a, b int) bool {
		i, j := int(perm[a]), int(perm[b])
		for c := range r.data {
			vi, vj := r.in.ValueOf(r.data[c][i]), r.in.ValueOf(r.data[c][j])
			if vi != vj {
				return vi < vj
			}
		}
		return false
	})
	return perm
}

// decodeRange materializes rows [from, to) as boxed tuples backed by one
// flat allocation.
func (r *Relation) decodeRange(from, to int) [][]Value {
	n := to - from
	if n < 0 {
		n = 0
	}
	out := make([][]Value, n)
	w := len(r.cols)
	flat := make([]Value, n*w)
	for i := 0; i < n; i++ {
		buf := flat[i*w : (i+1)*w : (i+1)*w]
		r.decodeInto(buf, from+i)
		out[i] = buf
	}
	return out
}

// Rows returns a decoded copy of every tuple; callers own the result.
//
// Deprecated: Rows materializes size×arity boxed values on every call. Hot
// paths should iterate with All or AllSorted, or stay on the id plane via
// Column/InsertIDs.
func (r *Relation) Rows() [][]Value { return r.decodeRange(0, r.nrows) }
