package relation

import "iter"

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
// relation state (sortedPerm, by radixSort) and shared by every caller,
// read-only; a pass over an unwritten relation allocates the row buffer and
// decodes each row it yields once.
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
		r.memo.sorted = &memoPerm{mut: r.mut, perm: r.radixSort()}
	}
	return r.memo.sorted.perm
}

// radixSort orders the rows by an LSD radix sort on their decoded values,
// last column first. A cell's key is its value with the sign bit flipped,
// uint64(v) ^ 1<<63, so that unsigned key order is signed value order. Per
// column one pass decodes every cell once and notes which of the eight key
// bytes vary; then each varying byte, least significant first, gets a count
// and one stable scatter. A byte every row shares orders nothing and costs
// nothing. No two rows are compared.
func (r *Relation) radixSort() []int32 {
	n := r.nrows
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	if n < 2 {
		return perm
	}
	next := make([]int32, n)  // the scatter's destination
	keys := make([]uint64, n) // per row: its key in the column in hand
	dir := *r.in.chunks.Load()
	for c := len(r.data) - 1; c >= 0; c-- {
		var varies uint64 // the bits in which some key differs from row 0's
		for i, id := range r.data[c][:n] {
			keys[i] = uint64(dir[id>>chunkBits][id&chunkMask]) ^ 1<<63
			varies |= keys[i] ^ keys[0]
		}
		for shift := 0; varies>>shift != 0; shift += 8 {
			if byte(varies>>shift) == 0 {
				continue
			}
			// at[d] is where the next row with byte d goes: the byte values
			// laid end to end in order.
			var at [256]int32
			for _, k := range keys {
				at[byte(k>>shift)]++
			}
			start := int32(0)
			for d, cnt := range at {
				at[d] = start
				start += cnt
			}
			for _, i := range perm {
				d := byte(keys[i] >> shift)
				next[at[d]] = i
				at[d]++
			}
			perm, next = next, perm
		}
	}
	return perm
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
