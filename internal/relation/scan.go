package relation

import (
	"cmp"
	"iter"
	"slices"
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
// one buffer like All. The order is a row permutation computed once per
// relation state (sortedPerm) and shared by every caller, read-only; a pass
// over an unwritten relation allocates the row buffer and decodes each row
// it yields once.
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

// sortedPerm returns the row indices in lexicographic decoded-value order,
// memoized against the mutation tick like index and Partition: a relation
// that is not written to is ordered once. Rows are unique, so the order is
// total and the permutation a function of the rows alone. Callers must
// treat it as read-only.
func (r *Relation) sortedPerm() []int32 {
	r.memo.Lock()
	defer r.memo.Unlock()
	if m := r.memo.sorted; m == nil || m.mut != r.mut {
		r.memo.sorted = &memoPerm{mut: r.mut, perm: r.rankSort()}
	}
	return r.memo.sorted.perm
}

// rankSort orders the rows by a stable counting sort per column, last
// column first. A column's sort keys are the ranks of its distinct values:
// the rows are grouped by id (ids are handed out in interning order, so id
// order is not value order), each group's value is decoded once and the
// groups are ordered by it — no comparison between rows ever decodes.
func (r *Relation) rankSort() []int32 {
	n := r.nrows
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	if n < 2 {
		return perm
	}
	next := make([]int32, n) // the permutation after the column in hand
	of := make([]int32, n)   // per row: its group in that column
	var groups []valueGroup
	g := grouper{r: r, pos: make([]int, 1)}
	for c := len(r.data) - 1; c >= 0; c-- {
		g.pos[0] = c
		g.tab.reset()
		g.first, groups = g.first[:0], groups[:0]
		for i := range of {
			gi, fresh := g.group(i)
			if fresh {
				groups = append(groups, valueGroup{val: r.in.ValueOf(r.data[c][i]), id: gi})
			}
			of[i] = gi
			groups[gi].rows++
		}
		if len(groups) == 1 {
			continue // a constant column orders nothing
		}
		slices.SortFunc(groups, func(a, b valueGroup) int { return cmp.Compare(a.val, b.val) })
		// at[g] is where group g's next row goes: the groups laid end to
		// end in value order.
		at, start := g.first, int32(0)
		for _, vg := range groups {
			at[vg.id] = start
			start += vg.rows
		}
		for _, i := range perm {
			next[at[of[i]]] = i
			at[of[i]]++
		}
		perm, next = next, perm
	}
	return perm
}

// valueGroup is one distinct value of a column during rankSort: the rows
// holding it form group id, numbered in first-appearance order.
type valueGroup struct {
	val  Value
	id   int32
	rows int32
}

// Rows returns a decoded copy of every tuple, in storage order, backed by one
// flat allocation; callers own the result.
//
// Deprecated: Rows materializes size×arity boxed values on every call. Hot
// paths should iterate with All or AllSorted, or stay on the id plane via
// Column/InsertIDs.
func (r *Relation) Rows() [][]Value {
	out := make([][]Value, r.nrows)
	w := len(r.cols)
	flat := make([]Value, r.nrows*w)
	for i := range out {
		out[i] = flat[i*w : (i+1)*w : (i+1)*w]
		r.decodeInto(out[i], i)
	}
	return out
}
