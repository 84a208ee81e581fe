package relation

import (
	"panda/internal/bitset"
)

// Builder constructs a relation in bulk: rows are interned and deduplicated
// as they arrive into preallocated column vectors. Use it when the whole
// row set is known up front (query binding, CSV ingest, test fixtures);
// incremental catalog writes keep using Relation.Insert.
type Builder struct {
	r *Relation
}

// NewBuilder starts a relation with the given schema, preallocating for
// sizeHint rows (0 is fine).
func NewBuilder(name string, attrs bitset.Set, sizeHint int) *Builder {
	r := New(name, attrs)
	r.reserve(sizeHint)
	r.seen.reserve(sizeHint, sizeHint)
	return &Builder{r: r}
}

// Add inserts one tuple in column order; duplicates are dropped.
func (b *Builder) Add(t []Value) { b.r.Insert(t) }

// Size returns the number of distinct rows added so far.
func (b *Builder) Size() int { return b.r.Size() }

// Build finalizes and returns the relation. The builder must not be used
// afterwards.
func (b *Builder) Build() *Relation {
	r := b.r
	b.r = nil
	return r
}
