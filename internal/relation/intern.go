package relation

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Interner is a bijective mapping Value ⇄ dense uint32 id. All relations that
// may ever meet in a join, semijoin, union or equality check must share one
// interner so that id equality coincides with value equality; the package
// keeps a single process-wide table (Global) that relation.New wires in, so
// every relation built through the public API is automatically compatible.
//
// Intern is safe for concurrent use. ValueOf is lock-free: ids are decoded
// through an atomically published chunk directory whose chunks are
// preallocated at full size and never moved, so readers never observe a
// reallocation. An id handed to another goroutine through any of the usual
// synchronization points (db mutex, channel, goroutine start) is safe to
// decode there.
type Interner struct {
	mu     sync.RWMutex
	ids    map[Value]uint32
	n      uint32                    // next id to assign
	chunks atomic.Pointer[[][]Value] // directory; chunk c holds ids [c<<chunkBits, …)
}

// A chunk is 32 kB: the first one is allocated with the first value, so a
// process over a handful of values (the plan-cold benchmark's sixteen) should
// not hold half a megabyte for them, while a million values still need only
// a 256-entry directory.
const (
	chunkBits = 12
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1
)

// NewInterner returns an empty intern table.
func NewInterner() *Interner {
	in := &Interner{ids: make(map[Value]uint32)}
	dir := make([][]Value, 0, 8)
	in.chunks.Store(&dir)
	return in
}

// Global is the process-wide intern table used by relation.New. Sharing one
// table across every DB keeps all relations on the id fast path; the id
// space is dense per process, not per catalog.
var Global = NewInterner()

// maxValues is the most distinct values a table may hold: ids are uint32,
// and Intern keeps the last one back as its overflow guard. A variable so
// that tests can lower it.
var maxValues uint64 = math.MaxUint32

// ErrTooManyValues reports a batch whose values the intern table might not
// have ids left for.
var ErrTooManyValues = errors.New("relation: too many distinct values")

// checkRoom returns an ErrTooManyValues error unless n more distinct values
// are sure to fit.
func (in *Interner) checkRoom(n uint64) error {
	if have := uint64(in.Len()); have+n > maxValues {
		return fmt.Errorf("%w: the intern table holds %d, %d more could pass the limit of %d",
			ErrTooManyValues, have, n, maxValues)
	}
	return nil
}

// Intern returns the dense id for v, assigning the next free id on first
// sight. It panics if the table exceeds 2³² distinct values; the ingest paths
// ask first (Relation.CheckRoom) and refuse the batch with an error, so the
// panic is a backstop.
func (in *Interner) Intern(v Value) uint32 {
	in.mu.RLock()
	id, ok := in.ids[v]
	in.mu.RUnlock()
	if ok {
		return id
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if id, ok = in.ids[v]; ok {
		return id
	}
	id = in.n
	if id == ^uint32(0) {
		panic("relation: intern table overflow (2^32 distinct values)")
	}
	dir := *in.chunks.Load()
	c, off := int(id>>chunkBits), int(id&chunkMask)
	if c == len(dir) {
		// Publish a fresh directory with one more preallocated chunk. The
		// old directory stays valid for concurrent readers.
		next := make([][]Value, c+1, 2*(c+1))
		copy(next, dir)
		next[c] = make([]Value, chunkSize)
		in.chunks.Store(&next)
		dir = next
	}
	dir[c][off] = v
	in.ids[v] = id
	in.n = id + 1
	return id
}

// Lookup returns the id for v without assigning one; ok is false when v has
// never been interned (and therefore cannot appear in any relation using
// this table).
func (in *Interner) Lookup(v Value) (uint32, bool) {
	in.mu.RLock()
	id, ok := in.ids[v]
	in.mu.RUnlock()
	return id, ok
}

// ValueOf decodes an id back to its value. The id must have been returned by
// Intern on this table.
func (in *Interner) ValueOf(id uint32) Value {
	dir := *in.chunks.Load()
	return dir[id>>chunkBits][id&chunkMask]
}

// Len returns the number of distinct values interned so far.
func (in *Interner) Len() int {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return int(in.n)
}

// sameInterner panics unless the two relations decode through the same
// table; binary operators rely on id equality ⇔ value equality.
func sameInterner(r, s *Relation) {
	if r.in != s.in {
		panic(fmt.Sprintf("relation: %s and %s use different intern tables", r.Name, s.Name))
	}
}
