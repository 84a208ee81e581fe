package relation

import (
	"errors"
	"math"
	"slices"
)

// rowTable is the package's one hash structure: an open-addressed table
// over dense row ids. Row e is the e-th push; the caller keeps whatever the
// row stands for (a stored tuple, a group's first tuple) and verifies
// candidates itself — the table only ever sees hashes.
//
// All rows pushed with the same 64-bit hash form one chain, and each chain
// owns one slot. A slot holds the chain's newest row (+1, so the zero value
// is "empty"); links run from older to newer and the newest row links back
// to the oldest, closing a ring. That gives O(1) push and iteration in
// ascending row order — the order Join's matches and therefore every
// operator's output rows are emitted in — from three pointer-free slices
// the garbage collector never scans.
//
// Slots are probed linearly from hash&mask and kept at most half full,
// counting chains, not rows: an index over a low-cardinality key stays
// small however many rows it threads. The zero value is an empty table and
// allocates nothing until the first push.
type rowTable struct {
	slots  []int32  // power-of-two length; newest row of the chain + 1, 0 = empty
	hash   []uint64 // per row: the hash it was pushed with
	next   []int32  // per row: the next newer row of its chain; newest → oldest
	chains int      // occupied slots
}

// minSlots is the smallest slot array: a table over the 8-row relations of a
// planning-bound workload must cost no more than a small map.
const minSlots = 8

// maxRows is the most rows one relation (and so one table) may hold: slots
// store row+1 in an int32. A variable only so tests can lower it.
var maxRows = math.MaxInt32 - 1

// ErrTooManyRows reports a relation that would grow past the row limit of
// its int32 row ids.
var ErrTooManyRows = errors.New("relation: too many rows")

// rows returns the number of rows pushed.
func (t *rowTable) rows() int { return len(t.hash) }

// reserve sizes the table for the given numbers of rows and chains in total,
// so pushes up to there neither reallocate nor rehash. An index over a key
// of unknown cardinality reserves its rows only and lets the slots double.
func (t *rowTable) reserve(rows, chains int) {
	if extra := rows - len(t.hash); extra > 0 {
		t.hash = slices.Grow(t.hash, extra)
		t.next = slices.Grow(t.next, extra)
	}
	if chains <= 0 {
		return
	}
	want := minSlots
	for want < 2*chains {
		want *= 2
	}
	if want > len(t.slots) {
		t.rehash(want)
	}
}

// rehash moves every chain into a fresh slot array of the given size. Only
// the chains move: a chain's hash is its newest row's.
func (t *rowTable) rehash(size int) {
	old := t.slots
	t.slots = make([]int32, size)
	mask := uint64(size - 1)
	for _, s := range old {
		if s == 0 {
			continue
		}
		i := t.hash[s-1] & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// room makes sure one more chain fits under the load limit. Call it before
// slot when a pushAt may follow: growing moves the slots.
func (t *rowTable) room() {
	if 2*(t.chains+1) > len(t.slots) {
		t.rehash(max(minSlots, 2*len(t.slots)))
	}
}

// slot returns the slot of h's chain, or the empty slot that chain would
// claim. The table must have slots (room or reserve was called).
func (t *rowTable) slot(h uint64) int {
	mask := uint64(len(t.slots) - 1)
	i := h & mask
	for s := t.slots[i]; s != 0 && t.hash[s-1] != h; s = t.slots[i] {
		i = (i + 1) & mask
	}
	return int(i)
}

// chain returns the oldest and newest row of the chain in slot i, or
// (-1, -1) when the slot is empty. Walk it with after.
func (t *rowTable) chain(i int) (first, last int32) {
	s := t.slots[i]
	if s == 0 {
		return -1, -1
	}
	return t.next[s-1], s - 1
}

// lookup returns the chain of rows pushed with hash h, like chain.
func (t *rowTable) lookup(h uint64) (first, last int32) {
	if len(t.slots) == 0 {
		return -1, -1
	}
	return t.chain(t.slot(h))
}

// after returns the row following e in a chain ending at last, or -1.
func (t *rowTable) after(e, last int32) int32 {
	if e == last {
		return -1
	}
	return t.next[e]
}

// pushAt appends the next row with hash h to the chain in slot i, which
// must be slot(h) on a table with room.
func (t *rowTable) pushAt(i int, h uint64) {
	e := int32(len(t.hash))
	t.hash = append(t.hash, h)
	if s := t.slots[i]; s == 0 {
		t.chains++
		t.next = append(t.next, e)
	} else {
		t.next = append(t.next, t.next[s-1])
		t.next[s-1] = e
	}
	t.slots[i] = e + 1
}

// push appends the next row with hash h.
func (t *rowTable) push(h uint64) {
	t.room()
	t.pushAt(t.slot(h), h)
}
