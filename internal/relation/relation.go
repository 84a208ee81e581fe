// Package relation implements the in-memory relational substrate used by
// PANDA and the baseline evaluators: set-semantics relations over integer
// domains with natural join, projection, semijoin, union, degree statistics
// (Definition 2.10) and the heavy/light degree-bucket partitioning of
// Lemma 6.1.
//
// Storage is interned and columnar: every Value is mapped once to a dense
// uint32 id (see Interner) and a relation holds one []uint32 vector per
// attribute, so equality, dedup and index builds operate on machine words
// and iteration walks contiguous memory. Values are decoded back only at
// the read boundary (All, AllSorted, Rows), and there once per row yielded:
// value order is worked out without decoding rows — each column's distinct
// ids are ranked by value once, the rows counting-sorted by those ranks — and
// the resulting permutation is kept against the mutation tick, so a relation
// that is not written to is ordered once however often it is read out.
//
// Everything that hashes rows — set-semantics dedup, the build side of Join
// and Semijoin, the grouping under Project, Degree and the Lemma 6.1 split —
// goes through one structure, rowTable (rowtable.go): an open-addressed
// table over int32 row ids that stores, per row, only a 64-bit hash and a
// chain link. It holds no pointers, allocates per doubling rather than per
// key, and never re-hashes a row it has seen. Rows hash by an FNV-1a fold of
// their ids closed with an avalanche step (mix): a masked table, unlike
// Go's map, uses the low bits as they come, and the bare fold leaves them a
// function of the ids' low bits alone. Chains run in ascending row order, so
// the physical row order of every operator's output is a function of its
// inputs' row order and nothing else. Operators size their outputs before
// they write them. Semijoin, Union and the executor's per-bag reduce
// (Corollary 7.10: a bag's tables from every rule and partition, unioned and
// semijoin-reduced by the inputs) are one multiway kernel, Reduce, that
// filters before it dedups: each row of each part is probed against the
// sides, trying first the side that last dropped a row, and only the
// survivors are counted, written and hashed into the dedup table — a row the
// sides drop never reaches it. Row ids being int32 caps a relation at maxRows
// rows; growing past it fails with ErrTooManyRows. Value ids being uint32
// caps the intern table at 2³²−1 distinct values; a batch that might pass it
// fails with ErrTooManyValues.
//
// Interning stays (ablation at PR 19: an identity interner over []int64
// columns, every test and the executor digest golden green, read exec-large
// alloc_kb_per_op 1007.4 → 1312.5 (+30%), live_heap_mb 1.05 → 1.22 and
// ops_per_s 463 → 446 — half-width columns are worth more than the table
// costs).
package relation

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"

	"panda/internal/bitset"
)

// Value is a single attribute value.
type Value = int64

// Relation is a finite relation with set semantics. Attribute order inside
// tuples follows the sorted order of the schema's variable indices.
//
// Writes (Insert and friends) require external synchronization against
// everything else; concurrent reads are safe, the ones that build derived
// state on first use — the memoized indexes and partitions, the dedup table
// under Contains and Equal — doing so under the memo mutex.
type Relation struct {
	Name  string
	attrs bitset.Set
	cols  []int // sorted variable ids; tuple positions follow this order
	in    *Interner

	data  [][]uint32 // one id vector per column, each of length nrows
	nrows int
	// seen dedups rows: table row i is stored row i, pushed with rowHash(i),
	// so a chain holds the stored rows sharing a full 64-bit hash and a
	// probe verifies them by column comparison. It may trail the rows —
	// operator outputs are unique by construction and are appended without
	// it, snapshots start without it — and ensureSeen indexes the missing
	// suffix before the first dedup insert or membership probe.
	seen rowTable

	marks []tickMark
	// mut counts accepted inserts; derived-structure memos are keyed by it
	// (a strictly monotone per-relation tick, never fooled by equal row
	// counts the way a cardinality check could be).
	mut uint64

	// scratch is reused by Insert to intern into; writes are externally
	// synchronized so a single buffer suffices.
	scratch []uint32

	// memo caches derived read-only structures — hash indexes (the build
	// side of Join and Semijoin) and hash partitions, keyed by attribute
	// set, and the sorted row permutation behind AllSorted — each
	// invalidated by the mutation tick, so a relation that is joined,
	// semijoin-reduced, partitioned or read out repeatedly (standing-query
	// rounds, per-partition rule executions, a memoized answer served again)
	// hashes or orders its rows once instead of once per call. Guarded by
	// its own mutex, which also covers a read path catching up seen:
	// executions share instance relations across worker goroutines.
	memo struct {
		sync.Mutex
		indexes map[bitset.Set]*memoIndex
		parts   map[partMemoKey]*memoParts
		sorted  *memoPerm
	}
}

// memoIndex caches index(x) at a given mutation tick: table row i is stored
// row i, pushed with its hash on x's positions, so a chain lists — in
// ascending order — the rows a probe with that hash must verify.
type memoIndex struct {
	mut uint64
	tab rowTable
}

// partMemoKey identifies a cached hash partitioning.
type partMemoKey struct {
	k  int
	on bitset.Set
}

// memoParts caches Partition(k, on) at a given mutation tick.
type memoParts struct {
	mut   uint64
	parts []*Relation
}

// memoPerm caches sortedPerm at a given mutation tick. The memo holds it by
// pointer so that the many relations never read out in order pay nothing for
// it: Relation stays inside its 256-byte allocation class.
type memoPerm struct {
	mut  uint64
	perm []int32
}

// tickMark records that the relation held exactly `rows` tuples when the
// catalog tick `tick` was stamped. Because row storage is append-only, the
// prefix [:rows] is immutable and Since can answer "what arrived after tick
// T" with the column suffix.
type tickMark struct {
	tick uint64
	rows int
}

// FNV-1a constants; rows hash by folding 32-bit ids through the FNV-1a
// recurrence (word-at-a-time — collisions are resolved by id comparison)
// and finishing with mix.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// mix is the 64-bit avalanche finaliser (MurmurHash3's fmix64) every row
// hash ends with. The FNV multiply only carries upwards: without it, ids
// that differ in high bits only — strided keys, a varying last column —
// agree on the low bits a table masks by.
func mix(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// New returns an empty relation with the given schema, decoding through the
// process-wide intern table.
func New(name string, attrs bitset.Set) *Relation {
	cols := attrs.Vars()
	return &Relation{
		Name:  name,
		attrs: attrs,
		cols:  cols,
		in:    Global,
		data:  make([][]uint32, len(cols)),
	}
}

// Attrs returns the relation's schema.
func (r *Relation) Attrs() bitset.Set { return r.attrs }

// Cols returns the tuple layout: variable ids in tuple-position order.
func (r *Relation) Cols() []int { return r.cols }

// Size returns the number of distinct tuples.
func (r *Relation) Size() int { return r.nrows }

// Interner returns the intern table this relation decodes through.
func (r *Relation) Interner() *Interner { return r.in }

// Column returns the id vector of tuple position i; callers must treat it
// as read-only. Ids decode through Interner().ValueOf.
func (r *Relation) Column(i int) []uint32 { return r.data[i][:r.nrows:r.nrows] }

// hashIDs hashes an id-tuple.
func hashIDs(ids []uint32) uint64 {
	h := uint64(fnvOffset64)
	for _, id := range ids {
		h ^= uint64(id)
		h *= fnvPrime64
	}
	return mix(h)
}

// rowHash hashes row i over all columns (the dedup key).
func (r *Relation) rowHash(i int) uint64 {
	h := uint64(fnvOffset64)
	for c := range r.data {
		h ^= uint64(r.data[c][i])
		h *= fnvPrime64
	}
	return mix(h)
}

// hashRowAt hashes row i over the given tuple positions.
func (r *Relation) hashRowAt(i int, pos []int) uint64 {
	h := uint64(fnvOffset64)
	for _, p := range pos {
		h ^= uint64(r.data[p][i])
		h *= fnvPrime64
	}
	return mix(h)
}

// rowMatchIDs reports whether row i equals the id-tuple.
func (r *Relation) rowMatchIDs(i int, ids []uint32) bool {
	for c := range r.data {
		if r.data[c][i] != ids[c] {
			return false
		}
	}
	return true
}

// sameRow reports whether r's row i equals s's row j (same schema).
func (r *Relation) sameRow(i int, s *Relation, j int) bool {
	for c := range r.data {
		if r.data[c][i] != s.data[c][j] {
			return false
		}
	}
	return true
}

// rowsMatchAt reports whether rows i and j agree on the given positions.
func (r *Relation) rowsMatchAt(i, j int, pos []int) bool {
	for _, p := range pos {
		if r.data[p][i] != r.data[p][j] {
			return false
		}
	}
	return true
}

// rowIDs copies row i's ids into buf.
func (r *Relation) rowIDs(i int, buf []uint32) []uint32 {
	buf = buf[:len(r.data)]
	for c := range r.data {
		buf[c] = r.data[c][i]
	}
	return buf
}

// decodeInto decodes row i into buf (which must have the relation's arity).
func (r *Relation) decodeInto(buf []Value, i int) {
	for c := range r.data {
		buf[c] = r.in.ValueOf(r.data[c][i])
	}
}

// ensureSeen brings the dedup table up to date with the stored rows. It
// mutates r: read paths call it through seenForRead.
func (r *Relation) ensureSeen() {
	if r.seen.rows() == r.nrows {
		return
	}
	r.seen.reserve(r.nrows, r.nrows)
	for i := r.seen.rows(); i < r.nrows; i++ {
		r.seen.push(r.rowHash(i))
	}
}

// seenForRead is ensureSeen for the read paths (Contains, Equal), which may
// run concurrently on one relation: the catch-up happens under the memo
// mutex, after which the table is only read. The write path stays
// lock-free — writes are externally synchronized against everything.
func (r *Relation) seenForRead() {
	r.memo.Lock()
	r.ensureSeen()
	r.memo.Unlock()
}

// reserve makes room for n rows in total, so appends up to there do not
// reallocate a column.
func (r *Relation) reserve(n int) {
	if extra := n - r.nrows; extra > 0 {
		for c := range r.data {
			r.data[c] = slices.Grow(r.data[c], extra)
		}
	}
}

// CheckRoom returns an error unless n more rows fit: ErrTooManyRows naming r
// when they would pass the row limit, ErrTooManyValues when the intern table
// might run out of ids for their values — counted as one new value per cell,
// since nothing is interned before a batch is accepted. Ingest paths ask
// before they insert, so bad input is refused with an error.
func (r *Relation) CheckRoom(n int) error {
	if n > maxRows-r.nrows {
		return fmt.Errorf("%w: relation %s holds %d rows, %d more would pass the limit of %d",
			ErrTooManyRows, r.Name, r.nrows, n, maxRows)
	}
	return r.in.checkRoom(uint64(n) * uint64(len(r.cols)))
}

// checkRoom is CheckRoom for the append paths, which have no error to
// return: an operator whose output outgrows int32 row ids panics with the
// error instead of wrapping around and corrupting its table.
func (r *Relation) checkRoom(n int) {
	if n > maxRows-r.nrows {
		panic(r.CheckRoom(n))
	}
}

// appendUnique appends a row the caller guarantees is not present, bumping
// the mutation tick. The dedup table is left to trail (see seen).
func (r *Relation) appendUnique(ids []uint32) {
	r.checkRoom(1)
	for c := range r.data {
		r.data[c] = append(r.data[c], ids[c])
	}
	r.nrows++
	r.mut++
}

// insertIDs appends a row unless present; reports whether it was new.
func (r *Relation) insertIDs(ids []uint32) bool {
	r.ensureSeen()
	h := hashIDs(ids)
	r.seen.room()
	slot := r.seen.slot(h)
	for e, last := r.seen.chain(slot); e >= 0; e = r.seen.after(e, last) {
		if r.rowMatchIDs(int(e), ids) {
			return false
		}
	}
	r.appendUnique(ids)
	r.seen.pushAt(slot, h)
	return true
}

// containsIDs reports whether the id-tuple is present. The dedup table must
// be current (seenForRead).
func (r *Relation) containsIDs(ids []uint32) bool {
	for e, last := r.seen.lookup(hashIDs(ids)); e >= 0; e = r.seen.after(e, last) {
		if r.rowMatchIDs(int(e), ids) {
			return true
		}
	}
	return false
}

// Insert adds a tuple given in column order (sorted variable ids) and
// reports whether it was new; duplicates are ignored. The slice is copied.
func (r *Relation) Insert(t []Value) bool {
	if len(t) != len(r.cols) {
		panic(fmt.Sprintf("relation %s: tuple arity %d, want %d", r.Name, len(t), len(r.cols)))
	}
	if cap(r.scratch) < len(t) {
		r.scratch = make([]uint32, len(t))
	}
	ids := r.scratch[:len(t)]
	for i, v := range t {
		ids[i] = r.in.Intern(v)
	}
	return r.insertIDs(ids)
}

// InsertIDs adds a row of already-interned ids (from this relation's intern
// table) in column order and reports whether it was new; duplicates are
// ignored. The slice is copied.
func (r *Relation) InsertIDs(ids []uint32) bool {
	if len(ids) != len(r.cols) {
		panic(fmt.Sprintf("relation %s: tuple arity %d, want %d", r.Name, len(ids), len(r.cols)))
	}
	return r.insertIDs(ids)
}

// InsertAll merges every row of s (same schema, same intern table) into r.
func (r *Relation) InsertAll(s *Relation) {
	if r.attrs != s.attrs {
		panic(fmt.Sprintf("InsertAll schema mismatch: %v vs %v", r.attrs, s.attrs))
	}
	sameInterner(r, s)
	r.reserve(r.nrows + s.nrows)
	r.seen.reserve(r.nrows+s.nrows, r.nrows+s.nrows)
	r.ensureSeen()
	for i := 0; i < s.nrows; i++ {
		r.insertFrom(s, i)
	}
}

// insertFrom appends row i of s (same schema and intern table) unless r
// holds it. The dedup table must be current (ensureSeen).
func (r *Relation) insertFrom(s *Relation, i int) {
	h := s.rowHash(i)
	r.seen.room()
	slot := r.seen.slot(h)
	for e, last := r.seen.chain(slot); e >= 0; e = r.seen.after(e, last) {
		if r.sameRow(int(e), s, i) {
			return
		}
	}
	r.checkRoom(1)
	for c := range r.data {
		r.data[c] = append(r.data[c], s.data[c][i])
	}
	r.nrows++
	r.mut++
	r.seen.pushAt(slot, h)
}

// Stamp records that the relation's current contents correspond to the
// monotone catalog tick. Ticks must be stamped in increasing order. A
// re-stamp at an unchanged row count is a no-op: Since for any tick at or
// past the existing mark already answers "nothing new", and keeping the
// older tick keeps Tick() stable across content-preserving mutations
// (duplicate-only inserts), so statement memoization survives them.
func (r *Relation) Stamp(tick uint64) {
	if n := len(r.marks); n > 0 && r.marks[n-1].rows == r.nrows {
		return
	}
	r.marks = append(r.marks, tickMark{tick: tick, rows: r.nrows})
}

// Tick returns the latest stamped catalog tick (0 if never stamped).
func (r *Relation) Tick() uint64 {
	if n := len(r.marks); n > 0 {
		return r.marks[n-1].tick
	}
	return 0
}

// Born returns the first stamped catalog tick (0 if never stamped). A
// catalog stamps a relation when it creates it, each time with a newer tick,
// so Born tells a relation from one dropped and recreated under its name
// without holding on to either.
func (r *Relation) Born() uint64 {
	if len(r.marks) > 0 {
		return r.marks[0].tick
	}
	return 0
}

// Since returns the tuples inserted strictly after catalog tick `tick` was
// stamped — everything past the newest mark with mark.tick ≤ tick, or all
// rows when no such mark exists — as a suffix Snapshot: it shares r's column
// storage from that row on, costs O(arity), and stops growing when taken even
// as the relation keeps growing.
func (r *Relation) Since(tick uint64) *Relation {
	// Binary search: first mark with mark.tick > tick.
	i := sort.Search(len(r.marks), func(i int) bool { return r.marks[i].tick > tick })
	from := 0
	if i > 0 {
		from = r.marks[i-1].rows
	}
	return r.SnapshotFrom(r.Name, from)
}

// Contains reports whether the tuple (in column order) is present.
func (r *Relation) Contains(t []Value) bool {
	if len(t) != len(r.cols) {
		return false
	}
	ids := make([]uint32, len(t))
	for i, v := range t {
		id, ok := r.in.Lookup(v)
		if !ok {
			return false // value never interned ⇒ in no relation
		}
		ids[i] = id
	}
	r.seenForRead()
	return r.containsIDs(ids)
}

// positions returns the tuple positions of the attributes in x (which must
// be a subset of the schema), in sorted-variable order.
func (r *Relation) positions(x bitset.Set) []int {
	if !x.SubsetOf(r.attrs) {
		panic(fmt.Sprintf("relation %s: %v not in schema %v", r.Name, x, r.attrs))
	}
	pos := make([]int, 0, x.Card())
	for i, c := range r.cols {
		if x.Contains(c) {
			pos = append(pos, i)
		}
	}
	return pos
}

// grouper assigns rows of r to groups by their projection onto pos, numbering
// the groups in first-appearance order. Table row g is group g, pushed with
// the hash of the projection, so a chain holds the (almost always one)
// groups a row with that hash must be verified against.
type grouper struct {
	r     *Relation
	pos   []int
	tab   rowTable
	first []int32 // per group: the row that opened it
}

// group returns row i's group, opening a new one if its projection is new.
func (g *grouper) group(i int) (gi int32, fresh bool) {
	h := g.r.hashRowAt(i, g.pos)
	g.tab.room()
	slot := g.tab.slot(h)
	for e, last := g.tab.chain(slot); e >= 0; e = g.tab.after(e, last) {
		if g.r.rowsMatchAt(int(g.first[e]), i, g.pos) {
			return e, false
		}
	}
	g.tab.pushAt(slot, h)
	g.first = append(g.first, int32(i))
	return int32(len(g.first) - 1), true
}

// gather returns a relation over attrs whose row m is r's row rows[m] at the
// tuple positions pos (one per output column). The caller guarantees the
// rows are distinct there. Columns are cut from one exact-size block,
// capacity-capped so a later append to one reallocates it alone.
func (r *Relation) gather(name string, attrs bitset.Set, pos []int, rows []int32) *Relation {
	out := New(name, attrs)
	n := len(rows)
	flat := make([]uint32, n*len(pos))
	for j, p := range pos {
		col, src := flat[j*n:(j+1)*n:(j+1)*n], r.data[p]
		for m, i := range rows {
			col[m] = src[i]
		}
		out.data[j] = col
	}
	out.nrows, out.mut = n, uint64(n)
	return out
}

// allPositions returns the identity position list.
func (r *Relation) allPositions() []int {
	pos := make([]int, len(r.cols))
	for i := range pos {
		pos[i] = i
	}
	return pos
}

// Project returns Π_X(r) for X ⊆ schema, rows in first-appearance order. A
// projection onto the whole schema drops nothing, so it shares r's column
// storage like Snapshot instead of hashing every row.
func (r *Relation) Project(x bitset.Set) *Relation {
	name := fmt.Sprintf("Π%v(%s)", x, r.Name)
	pos := r.positions(x)
	if x == r.attrs {
		return r.Snapshot(name)
	}
	g := grouper{r: r, pos: pos, first: make([]int32, 0, r.nrows)}
	g.tab.reserve(r.nrows, r.nrows)
	for i := 0; i < r.nrows; i++ {
		g.group(i)
	}
	return r.gather(name, x, pos, g.first)
}

// index returns the hash index of r on the attribute set x (see memoIndex);
// probes verify candidates by id comparison. The result is memoized per
// attribute set against the mutation tick; callers must treat it as
// read-only.
func (r *Relation) index(x bitset.Set) *rowTable {
	r.memo.Lock()
	defer r.memo.Unlock()
	if m, ok := r.memo.indexes[x]; ok && m.mut == r.mut {
		return &m.tab
	}
	pos := r.positions(x)
	m := &memoIndex{mut: r.mut}
	m.tab.reserve(r.nrows, 0)
	for i := 0; i < r.nrows; i++ {
		m.tab.push(r.hashRowAt(i, pos))
	}
	if r.memo.indexes == nil {
		r.memo.indexes = map[bitset.Set]*memoIndex{}
	}
	r.memo.indexes[x] = m
	return &m.tab
}

// matchOn reports whether r's row i and s's row j agree position-wise on
// rPos/sPos (same attribute order, shared intern table assumed).
func (r *Relation) matchOn(i int, rPos []int, s *Relation, j int, sPos []int) bool {
	for t := range rPos {
		if r.data[rPos[t]][i] != s.data[sPos[t]][j] {
			return false
		}
	}
	return true
}

// Join returns the natural join r ⋈ s: for each row of the larger side in
// order, its matches on the smaller side in order. Both sides being sets,
// so is the output — a joined tuple determines the pair it came from — and
// it is written once, at its exact size, without a dedup pass.
func (r *Relation) Join(s *Relation) *Relation {
	sameInterner(r, s)
	common := r.attrs.Intersect(s.attrs)
	out := New(fmt.Sprintf("(%s⋈%s)", r.Name, s.Name), r.attrs.Union(s.attrs))
	// Build on the smaller side.
	build, probe := s, r
	if r.Size() < s.Size() {
		build, probe = r, s
	}
	idx := build.index(common)
	probePos := probe.positions(common)
	buildPos := build.positions(common)
	// The matching (probe row, build row) pairs, in output order.
	pi := make([]int32, 0, probe.nrows)
	bi := make([]int32, 0, probe.nrows)
	for i := 0; i < probe.nrows; i++ {
		h := probe.hashRowAt(i, probePos)
		for e, last := idx.lookup(h); e >= 0; e = idx.after(e, last) {
			if build.matchOn(int(e), buildPos, probe, i, probePos) {
				pi, bi = append(pi, int32(i)), append(bi, e)
			}
		}
	}
	n := len(pi)
	out.checkRoom(n)
	// Output tuple layout: union schema, sorted ids; each column is gathered
	// from the side that has it (the probe side for the common ones).
	flat := make([]uint32, n*len(out.cols))
	for o, c := range out.cols {
		col := flat[o*n : (o+1)*n : (o+1)*n]
		src, rows := build, bi
		if probe.attrs.Contains(c) {
			src, rows = probe, pi
		}
		from := src.data[slices.Index(src.cols, c)]
		for m, i := range rows {
			col[m] = from[i]
		}
		out.data[o] = col
	}
	out.nrows, out.mut = n, uint64(n)
	return out
}

// Semijoin returns r reduced by every side, ((r ⋉ s₁) ⋉ s₂) ⋉ …: Reduce with
// r as the one part. A row of r is kept when on each side some tuple matches
// it on the attributes that side shares with r, and the survivors are
// gathered once, in r's row order; no dedup table is built. A side sharing no
// attribute keeps every row unless it is empty; with no side at all the
// result is r itself, by pointer.
func (r *Relation) Semijoin(ss ...*Relation) *Relation {
	return Reduce(r.attrs, []*Relation{r}, ss...)
}

// Union returns the union of r and every s, all over one schema: Reduce with
// no side. The result holds r's rows, then the rows of each s in turn that no
// earlier part held. With no s it is r itself, by pointer and untouched — the
// caller must not write to it. Otherwise it is a new relation sharing no
// storage with a part, named after its first two parts.
func (r *Relation) Union(ss ...*Relation) *Relation {
	return Reduce(r.attrs, append([]*Relation{r}, ss...))
}

// Reduce returns (p₁ ∪ p₂ ∪ …) ⋉ s₁ ⋉ s₂ ⋉ … for parts all over attrs, in one
// pass that filters before it dedups. Every row of every part, in part
// order, is probed against the sides (see sieve), and only the rows every
// side matches are written: the first part's survivors as they are (a part is
// a set), every later survivor hashed and probed once against the rows
// written before it. A row is kept or dropped by its values alone and the
// first occurrence wins, so the rows and their physical order are those of
// parts[0].Union(parts[1:]...).Semijoin(sides...), without hashing a row the
// sides drop.
//
// Storage is sized before it is written: the survivors are counted first,
// and the columns and the dedup table reserved at that count. With one part
// the survivors are gathered and no dedup table is built; with one part and
// no side the result is that part itself, by pointer; with no part it is
// empty. Otherwise the result is a new relation sharing no storage with a
// part. Each side's index is memoized (see index), so reducing many
// relations against shared sides — the Corollary 7.10 reduction,
// incremental-maintenance rounds — hashes a side once, not once per call.
// The result is named after the parts and the sides, the sides sorted by
// name, so the order they are passed in changes nothing about it.
func Reduce(attrs bitset.Set, parts []*Relation, sides ...*Relation) *Relation {
	for _, p := range parts {
		if p.attrs != attrs {
			panic(fmt.Sprintf("union schema mismatch: %v vs %v", attrs, p.attrs))
		}
		sameInterner(parts[0], p)
	}
	name := reducedName(parts, sides)
	switch {
	case len(parts) == 0:
		return New(name, attrs)
	case len(parts) == 1 && len(sides) == 0:
		return parts[0]
	}
	// keep[k] lists the rows of part k every side matches; nil keep (no side)
	// keeps every row.
	var keep [][]int32
	total := 0
	for _, p := range parts {
		total += p.nrows
	}
	if len(sides) > 0 {
		sv := newSieve(parts[0], sides)
		keep = make([][]int32, len(parts))
		flat := make([]int32, 0, total)
		for k, p := range parts {
			from := len(flat)
			flat = sv.filter(p, flat)
			keep[k] = flat[from:len(flat):len(flat)]
		}
		total = len(flat)
		if len(parts) == 1 {
			return parts[0].gather(name, attrs, parts[0].allPositions(), keep[0])
		}
	}
	out := New(name, attrs)
	out.reserve(total)
	for k, p := range parts {
		var rows []int32
		n := p.nrows
		if keep != nil {
			rows, n = keep[k], len(keep[k])
		}
		switch {
		case n == 0:
		case out.nrows == 0:
			out.appendRows(p, rows)
		default:
			if out.seen.rows() < out.nrows {
				out.seen.reserve(total, total)
				out.ensureSeen()
			}
			for m := 0; m < n; m++ {
				i := m
				if rows != nil {
					i = int(rows[m])
				}
				out.insertFrom(p, i)
			}
		}
	}
	return out
}

// reducedName names Reduce's result the way a chain of binary operators
// would be named: the union of the parts (named after its first two), then
// one ⋉ per side, the sides in name order.
func reducedName(parts, sides []*Relation) string {
	var b strings.Builder
	b.WriteString(strings.Repeat("(", len(sides)))
	switch len(parts) {
	case 0:
		b.WriteString("∅")
	case 1:
		b.WriteString(parts[0].Name)
	default:
		b.WriteString("(" + parts[0].Name + "∪" + parts[1].Name)
		if len(parts) > 2 {
			b.WriteString("∪…")
		}
		b.WriteString(")")
	}
	names := make([]string, len(sides))
	for k, s := range sides {
		names[k] = s.Name
	}
	slices.Sort(names)
	for _, n := range names {
		b.WriteString("⋉")
		b.WriteString(n)
		b.WriteString(")")
	}
	return b.String()
}

// sieve holds the sides of a semijoin, set up to probe the rows of
// relations over one schema. A row is kept only if every side matches it, so
// the order the sides are tried in decides what a row costs, never whether it
// is kept: filter swaps the side that drops a row to the front, so the side
// that drops most rows — wherever it was passed — is usually the one a
// dropped row is probed against, and often the only one.
type sieve []sieveSide

// sieveSide is one side with its memoized index on the attributes it shares
// with the rows probed, and the tuple positions of those attributes in a
// probed row (rPos) and in the side (sPos).
type sieveSide struct {
	s          *Relation
	idx        *rowTable
	rPos, sPos []int
}

// newSieve sets up the sides for probing rows laid out like r.
func newSieve(r *Relation, ss []*Relation) sieve {
	sv := make(sieve, len(ss))
	for k, s := range ss {
		sameInterner(r, s)
		common := r.attrs.Intersect(s.attrs)
		sv[k] = sieveSide{s: s, idx: s.index(common), rPos: r.positions(common), sPos: s.positions(common)}
	}
	return sv
}

// filter appends to keep the rows of r that every side matches on the
// attributes it shares with them, in r's row order.
func (sv sieve) filter(r *Relation, keep []int32) []int32 {
rows:
	for i := 0; i < r.nrows; i++ {
	probe:
		for k := range sv {
			sd := &sv[k]
			for e, last := sd.idx.lookup(r.hashRowAt(i, sd.rPos)); e >= 0; e = sd.idx.after(e, last) {
				if r.matchOn(i, sd.rPos, sd.s, int(e), sd.sPos) {
					continue probe
				}
			}
			if k > 0 {
				sv[0], sv[k] = sv[k], sv[0]
			}
			continue rows
		}
		keep = append(keep, int32(i))
	}
	return keep
}

// Partition hash-partitions r into k buckets by the FNV-1a hash of each
// tuple's projection onto `on` (which must be a subset of the schema).
// The split is deterministic — a fixed function of the tuple values, never
// of insertion order, id assignment or capacity — so two relations
// partitioned with the same k and the same shared attributes are
// co-partitioned: rows agreeing on `on` land in the same bucket index.
// Bucket relations are memoized per (k, on) against the mutation tick;
// callers must treat them as read-only.
func (r *Relation) Partition(k int, on bitset.Set) []*Relation {
	if k <= 1 {
		return []*Relation{r}
	}
	mk := partMemoKey{k: k, on: on}
	r.memo.Lock()
	defer r.memo.Unlock()
	if m, ok := r.memo.parts[mk]; ok && m.mut == r.mut {
		return m.parts
	}
	pos := r.positions(on)
	dest := make([]int32, r.nrows)
	for i := range dest {
		dest[i] = int32(r.bucketOf(i, pos, k))
	}
	parts := r.scatter(dest, k, func(j int) string { return fmt.Sprintf("%s[p%d/%d]", r.Name, j, k) })
	if r.memo.parts == nil {
		r.memo.parts = map[partMemoKey]*memoParts{}
	}
	r.memo.parts[mk] = &memoParts{mut: r.mut, parts: parts}
	return parts
}

// scatter splits r into k relations over its schema: row i goes to part
// dest[i] (a negative dest drops it), rows keeping their relative order.
func (r *Relation) scatter(dest []int32, k int, name func(part int) string) []*Relation {
	rows := make([][]int32, k)
	counts := make([]int, k)
	for _, d := range dest {
		if d >= 0 {
			counts[d]++
		}
	}
	for j := range rows {
		rows[j] = make([]int32, 0, counts[j])
	}
	for i, d := range dest {
		if d >= 0 {
			rows[d] = append(rows[d], int32(i))
		}
	}
	parts := make([]*Relation, k)
	pos := r.allPositions()
	for j := range parts {
		parts[j] = r.gather(name(j), r.attrs, pos, rows[j])
	}
	return parts
}

// bucketOf maps row i's projection onto pos to a bucket in [0, k), hashing
// the decoded values byte-wise with FNV-1a (little-endian), bit-identical to
// the pre-columnar layout so partition contents are stable across releases.
func (r *Relation) bucketOf(i int, pos []int, k int) int {
	h := uint64(fnvOffset64)
	for _, p := range pos {
		v := uint64(r.in.ValueOf(r.data[p][i]))
		for s := uint(0); s < 64; s += 8 {
			h ^= (v >> s) & 0xff
			h *= fnvPrime64
		}
	}
	return int(h % uint64(k))
}

// degrees groups the rows by their projection onto xPos, in first-appearance
// order, and counts per group the distinct projections onto yPos ⊇ xPos:
// of[i] is row i's group and deg[g] = deg_r(Y | X = x_g) (Definition 2.10).
func (r *Relation) degrees(yPos, xPos []int) (of, deg []int32) {
	of = make([]int32, r.nrows)
	gx := grouper{r: r, pos: xPos}
	gy := grouper{r: r, pos: yPos}
	distinctOnY := len(yPos) == len(r.cols) // Y is the whole schema: every row counts
	for i := range of {
		g, fresh := gx.group(i)
		of[i] = g
		if fresh {
			deg = append(deg, 0)
		}
		if !distinctOnY {
			_, fresh = gy.group(i)
		}
		if distinctOnY || fresh {
			deg[g]++
		}
	}
	return of, deg
}

// Degree returns deg_r(Y|X) = max over X-tuples t of |Π_Y(σ_{X=t}(r))|,
// per Definition 2.10, with X ⊆ Y ⊆ schema. Degree(Y, ∅) = |Π_Y(r)|.
func (r *Relation) Degree(y, x bitset.Set) int {
	if !x.SubsetOf(y) || !y.SubsetOf(r.attrs) {
		panic(fmt.Sprintf("relation %s: bad degree query Y=%v X=%v schema=%v", r.Name, y, x, r.attrs))
	}
	_, deg := r.degrees(r.positions(y), r.positions(x))
	best := int32(0)
	for _, d := range deg {
		best = max(best, d)
	}
	return int(best)
}

// DegreeBucket is one part of a Lemma 6.1 split on (Y, X): the rows whose
// X-value fell into the bucket, the number of distinct X-values among them,
// and the largest deg(Y | X = x) over those — so |Π_X(Rel)| and
// deg_Rel(Y|X) come with the split instead of from three more passes.
type DegreeBucket struct {
	Rel    *Relation
	Keys   int
	Degree int

	class, half int // log₂ degree class and which half of it
}

// degreeClasses is Lemma 6.1 on a degree vector: groups (X-values, in
// first-appearance order) whose degree lies in [2^j, 2^{j+1}) form class j,
// and each class is halved by group order so that a half has at most
// ⌈|class|/2⌉ X-values, which is what bounds |Π_X| · deg by |Π_Y(r)|. The
// non-empty halves are the buckets, in (j, half) order; dest maps a group
// to its bucket.
func degreeClasses(deg []int32) (dest []int32, buckets []DegreeBucket) {
	var count, seen [32]int
	for _, d := range deg {
		count[bits.Len32(uint32(d))-1]++
	}
	var bucketOf [32][2]int32
	for j, n := range count {
		for h, size := range [2]int{(n + 1) / 2, n / 2} {
			if size > 0 {
				bucketOf[j][h] = int32(len(buckets))
				buckets = append(buckets, DegreeBucket{class: j, half: h})
			}
		}
	}
	dest = make([]int32, len(deg))
	for g, d := range deg {
		j, h := bits.Len32(uint32(d))-1, 0
		if seen[j] >= (count[j]+1)/2 {
			h = 1
		}
		seen[j]++
		b := &buckets[bucketOf[j][h]]
		b.Keys++
		b.Degree = max(b.Degree, int(d))
		dest[g] = bucketOf[j][h]
	}
	return dest, buckets
}

// SplitByDegree applies Lemma 6.1 to r itself: r's rows (whole schema, in
// row order) are split by the degree bucket their X-value gets in Π_Y(r), so
// each part can go on guarding everything r guarded. With T = Π_Y(r), in
// every bucket Keys · Degree ≤ |T|, and there are at most 2·log₂|T|+2
// buckets.
func (r *Relation) SplitByDegree(y, x bitset.Set) []DegreeBucket {
	of, deg := r.degrees(r.positions(y), r.positions(x))
	dest, buckets := degreeClasses(deg)
	for i, g := range of {
		of[i] = dest[g]
	}
	parts := r.scatter(of, len(buckets), func(b int) string { return fmt.Sprintf("%s[b%d]", r.Name, b) })
	for b := range buckets {
		buckets[b].Rel = parts[b]
	}
	return buckets
}

// PartitionByDegree implements Lemma 6.1: it splits Π_Y(r) into at most
// 2·log₂|Π_Y(r)|+2 buckets such that in bucket j,
// |Π_X(bucket)| · max-degree(Y|X within bucket) ≤ |Π_Y(r)|.
// Bucket j collects X-tuples whose degree lies in [2^j, 2^{j+1}), halved
// again by X-value so that the product bound holds. Within a bucket the
// rows of one X-value stay together, X-values in first-appearance order.
func (r *Relation) PartitionByDegree(y, x bitset.Set) []*Relation {
	t := r.Project(y)
	pos := t.allPositions()
	of, deg := t.degrees(pos, t.positions(x))
	dest, buckets := degreeClasses(deg)
	// Bucket b's rows are its groups' rows, group after group: at[g] is where
	// group g's next row goes.
	size := make([]int32, len(buckets))
	at := make([]int32, len(deg))
	for g, b := range dest {
		at[g] = size[b]
		size[b] += deg[g]
	}
	rows := make([][]int32, len(buckets))
	for b := range rows {
		rows[b] = make([]int32, size[b])
	}
	for i, g := range of {
		rows[dest[g]][at[g]] = int32(i)
		at[g]++
	}
	out := make([]*Relation, len(buckets))
	for b, bk := range buckets {
		out[b] = t.gather(fmt.Sprintf("%s[deg2^%d.%d]", r.Name, bk.class, bk.half), y, pos, rows[b])
	}
	return out
}

// appendRows appends the listed rows of s (same schema), or every row of s
// when rows is nil; the caller guarantees none of them is present.
func (r *Relation) appendRows(s *Relation, rows []int32) {
	if rows == nil {
		r.appendAllUnique(s)
		return
	}
	r.checkRoom(len(rows))
	for c := range r.data {
		col, src := r.data[c], s.data[c]
		for _, i := range rows {
			col = append(col, src[i])
		}
		r.data[c] = col
	}
	r.nrows += len(rows)
	r.mut += uint64(len(rows))
}

// appendAllUnique appends every row of s (same schema); the caller
// guarantees none of them is present.
func (r *Relation) appendAllUnique(s *Relation) {
	r.checkRoom(s.nrows)
	for c := range r.data {
		r.data[c] = append(r.data[c], s.data[c][:s.nrows]...)
	}
	r.nrows += s.nrows
	r.mut += uint64(s.nrows)
}

// Clone returns a deep copy with a new name.
func (r *Relation) Clone(name string) *Relation {
	out := New(name, r.attrs)
	out.appendAllUnique(r)
	return out
}

// Snapshot returns a read-mostly copy sharing r's column storage: O(arity)
// pointer copies instead of O(rows) re-hashing, which is what makes binding
// a catalog relation into a query instance cheap. Columns are
// capacity-capped, so a later append to either relation reallocates rather
// than aliasing; the snapshot rebuilds its dedup table lazily on first
// mutation or membership probe. Ticks and marks are not carried over.
func (r *Relation) Snapshot(name string) *Relation { return r.SnapshotFrom(name, 0) }

// SnapshotFrom is Snapshot restricted to the rows from row `from` on: rows
// are append-only, so after an insert the rows past the old Size are exactly
// the new ones.
func (r *Relation) SnapshotFrom(name string, from int) *Relation {
	out := &Relation{
		Name:  name,
		attrs: r.attrs,
		cols:  r.cols,
		in:    r.in,
		data:  make([][]uint32, len(r.data)),
		nrows: r.nrows - from,
	}
	for c := range r.data {
		out.data[c] = r.data[c][from:r.nrows:r.nrows]
	}
	return out
}

// Compact drops what only growing r needs, for a relation that is about to
// be kept and read — a memoized answer: the dedup table (rebuilt lazily by
// ensureSeen, as for a Snapshot, should anything insert or probe after all)
// and column capacity running well past the rows, by copying such a column
// to its size. A column shared with another relation (Snapshot) is already
// capacity-capped and stays shared. It counts as a write: the caller must be
// the only holder of r.
func (r *Relation) Compact() {
	r.seen = rowTable{}
	for c, col := range r.data {
		if cap(col)-len(col) > len(col)/8 {
			r.data[c] = append([]uint32(nil), col...)
		}
	}
}

// SnapshotAs is Snapshot with the columns reinterpreted under a new schema
// of equal arity: position k of the new schema's sorted variables reads r's
// column k. This is how query binding renames a stored catalog relation
// ({0..arity-1}) onto an atom's variable set without touching a row.
func (r *Relation) SnapshotAs(name string, attrs bitset.Set) *Relation {
	if attrs.Card() != len(r.cols) {
		panic(fmt.Sprintf("relation %s: SnapshotAs arity %d, want %d", r.Name, attrs.Card(), len(r.cols)))
	}
	out := r.Snapshot(name)
	out.attrs = attrs
	out.cols = attrs.Vars()
	return out
}

// Equal reports whether two relations hold the same tuple set over the same
// schema.
func (r *Relation) Equal(s *Relation) bool {
	if r.attrs != s.attrs || r.Size() != s.Size() {
		return false
	}
	sameInterner(r, s)
	r.seenForRead()
	buf := make([]uint32, len(r.cols))
	for i := 0; i < s.nrows; i++ {
		if !r.containsIDs(s.rowIDs(i, buf)) {
			return false
		}
	}
	return true
}

func (r *Relation) String() string {
	return fmt.Sprintf("%s(%v)[%d tuples]", r.Name, r.attrs, r.Size())
}
