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
// the read boundary (All, AllSorted, Rows, SortedRows).
package relation

import (
	"fmt"
	"sort"
	"sync"

	"panda/internal/bitset"
)

// Value is a single attribute value.
type Value = int64

// Relation is a finite relation with set semantics. Attribute order inside
// tuples follows the sorted order of the schema's variable indices.
//
// Writes (Insert and friends) require external synchronization, as before;
// concurrent reads — including the internally-memoized index builds — are
// safe.
type Relation struct {
	Name  string
	attrs bitset.Set
	cols  []int // sorted variable ids; tuple positions follow this order
	in    *Interner

	data  [][]uint32 // one id vector per column, each of length nrows
	nrows int
	// seen dedups rows by the FNV hash of their id-tuple; each bucket holds
	// candidate row indices verified by column comparison. Built lazily:
	// operators whose output is unique by construction (Semijoin, Partition,
	// Clone, degree buckets, snapshots) skip it until the first membership
	// probe or dedup insert.
	seen map[uint64][]int32

	marks []tickMark
	// mut counts accepted inserts; derived-structure memos are keyed by it
	// (a strictly monotone per-relation tick, never fooled by equal row
	// counts the way a cardinality check could be).
	mut uint64

	// partHint is the partition count recorded for this relation (catalog
	// entries carry it so the executor can pick a data-parallel fan-out
	// without an explicit per-query option); 0 means unset.
	partHint int

	// scratch is reused by Insert to intern into; writes are externally
	// synchronized so a single buffer suffices.
	scratch []uint32

	// memo caches derived read-only structures — hash indexes (the build
	// side of Join and Semijoin) and hash partitions — keyed by attribute
	// set and invalidated by the mutation tick, so a relation that is
	// joined, semijoin-reduced or partitioned repeatedly (standing-query
	// rounds, per-partition rule executions) hashes its rows once instead
	// of once per call. Guarded by its own mutex: executions share instance
	// relations across worker goroutines.
	memo struct {
		sync.Mutex
		indexes map[bitset.Set]*memoIndex
		parts   map[partMemoKey]*memoParts
	}
}

// memoIndex caches index(x) at a given mutation tick.
type memoIndex struct {
	mut uint64
	idx map[uint64][]int32
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

// tickMark records that the relation held exactly `rows` tuples when the
// catalog tick `tick` was stamped. Because row storage is append-only, the
// prefix [:rows] is immutable and RowsSince can answer "what arrived after
// tick T" by decoding the suffix.
type tickMark struct {
	tick uint64
	rows int
}

// FNV-1a constants; rows hash by folding 32-bit ids through the FNV-1a
// recurrence (word-at-a-time — collisions are resolved by id comparison).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

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

// SetPartitionHint records the partition count for this relation (0 clears
// it). The executor uses the largest hint across a query's relations as the
// data-parallel fan-out when no explicit partition option is given.
func (r *Relation) SetPartitionHint(k int) {
	if k < 0 {
		k = 0
	}
	r.partHint = k
}

// PartitionHint returns the recorded partition count (0 when unset).
func (r *Relation) PartitionHint() int { return r.partHint }

// hashIDs folds an id-tuple through FNV-1a.
func hashIDs(ids []uint32) uint64 {
	h := uint64(fnvOffset64)
	for _, id := range ids {
		h ^= uint64(id)
		h *= fnvPrime64
	}
	return h
}

// rowHash hashes row i over all columns (the dedup key).
func (r *Relation) rowHash(i int) uint64 {
	h := uint64(fnvOffset64)
	for c := range r.data {
		h ^= uint64(r.data[c][i])
		h *= fnvPrime64
	}
	return h
}

// hashRowAt hashes row i over the given tuple positions.
func (r *Relation) hashRowAt(i int, pos []int) uint64 {
	h := uint64(fnvOffset64)
	for _, p := range pos {
		h ^= uint64(r.data[p][i])
		h *= fnvPrime64
	}
	return h
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

// ensureSeen builds the dedup table from the stored rows if it is absent.
func (r *Relation) ensureSeen() {
	if r.seen != nil {
		return
	}
	r.seen = make(map[uint64][]int32, r.nrows+1)
	for i := 0; i < r.nrows; i++ {
		h := r.rowHash(i)
		r.seen[h] = append(r.seen[h], int32(i))
	}
}

// appendIDs appends a row unconditionally, bumping the mutation tick.
func (r *Relation) appendIDs(ids []uint32) {
	for c := range r.data {
		r.data[c] = append(r.data[c], ids[c])
	}
	r.nrows++
	r.mut++
}

// appendUnique appends a row the caller guarantees is not present.
func (r *Relation) appendUnique(ids []uint32) {
	if r.seen != nil {
		h := hashIDs(ids)
		r.seen[h] = append(r.seen[h], int32(r.nrows))
	}
	r.appendIDs(ids)
}

// insertIDs appends a row unless present; reports whether it was new.
func (r *Relation) insertIDs(ids []uint32) bool {
	r.ensureSeen()
	h := hashIDs(ids)
	for _, i := range r.seen[h] {
		if r.rowMatchIDs(int(i), ids) {
			return false
		}
	}
	r.seen[h] = append(r.seen[h], int32(r.nrows))
	r.appendIDs(ids)
	return true
}

// containsIDs reports whether the id-tuple is present.
func (r *Relation) containsIDs(ids []uint32) bool {
	r.ensureSeen()
	for _, i := range r.seen[hashIDs(ids)] {
		if r.rowMatchIDs(int(i), ids) {
			return true
		}
	}
	return false
}

// Insert adds a tuple given in column order (sorted variable ids);
// duplicates are ignored. The slice is copied.
func (r *Relation) Insert(t []Value) {
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
	r.insertIDs(ids)
}

// InsertIDs adds a row of already-interned ids (from this relation's intern
// table) in column order; duplicates are ignored. The slice is copied.
func (r *Relation) InsertIDs(ids []uint32) {
	if len(ids) != len(r.cols) {
		panic(fmt.Sprintf("relation %s: tuple arity %d, want %d", r.Name, len(ids), len(r.cols)))
	}
	r.insertIDs(ids)
}

// InsertMap adds a tuple given as a variable→value assignment covering the
// schema.
func (r *Relation) InsertMap(m map[int]Value) {
	t := make([]Value, len(r.cols))
	for i, c := range r.cols {
		v, ok := m[c]
		if !ok {
			panic(fmt.Sprintf("relation %s: missing attribute %d", r.Name, c))
		}
		t[i] = v
	}
	r.Insert(t)
}

// InsertAll merges every row of s (same schema, same intern table) into r.
func (r *Relation) InsertAll(s *Relation) {
	if r.attrs != s.attrs {
		panic(fmt.Sprintf("InsertAll schema mismatch: %v vs %v", r.attrs, s.attrs))
	}
	sameInterner(r, s)
	buf := make([]uint32, len(r.cols))
	for i := 0; i < s.nrows; i++ {
		r.insertIDs(s.rowIDs(i, buf))
	}
}

// Stamp records that the relation's current contents correspond to the
// monotone catalog tick. Ticks must be stamped in increasing order. A
// re-stamp at an unchanged row count is a no-op: RowsSince for any tick at
// or past the existing mark already answers "nothing new", and keeping the
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

// RowsSince returns the tuples inserted strictly after catalog tick `tick`
// was stamped: everything past the newest mark with mark.tick ≤ tick, or
// all rows when no such mark exists. The result is a freshly decoded copy —
// it stays valid, and stops growing, even as the relation keeps growing.
func (r *Relation) RowsSince(tick uint64) [][]Value {
	// Binary search: first mark with mark.tick > tick.
	i := sort.Search(len(r.marks), func(i int) bool { return r.marks[i].tick > tick })
	from := 0
	if i > 0 {
		from = r.marks[i-1].rows
	}
	return r.decodeRange(from, r.nrows)
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

// Project returns Π_X(r) for X ⊆ schema.
func (r *Relation) Project(x bitset.Set) *Relation {
	out := New(fmt.Sprintf("Π%v(%s)", x, r.Name), x)
	pos := r.positions(x)
	out.ensureSeen()
	buf := make([]uint32, len(pos))
	for i := 0; i < r.nrows; i++ {
		for j, p := range pos {
			buf[j] = r.data[p][i]
		}
		out.insertIDs(buf)
	}
	return out
}

// index groups row indices by the hash of their id-tuple on the attribute
// set x (buckets may mix hash-colliding keys; probes verify by id
// comparison). The result is memoized per attribute set against the
// mutation tick; callers must treat it as read-only.
func (r *Relation) index(x bitset.Set) map[uint64][]int32 {
	r.memo.Lock()
	defer r.memo.Unlock()
	if m, ok := r.memo.indexes[x]; ok && m.mut == r.mut {
		return m.idx
	}
	pos := r.positions(x)
	idx := make(map[uint64][]int32, r.nrows)
	for i := 0; i < r.nrows; i++ {
		h := r.hashRowAt(i, pos)
		idx[h] = append(idx[h], int32(i))
	}
	if r.memo.indexes == nil {
		r.memo.indexes = map[bitset.Set]*memoIndex{}
	}
	r.memo.indexes[x] = &memoIndex{mut: r.mut, idx: idx}
	return idx
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

// Join returns the natural join r ⋈ s.
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
	// Output tuple layout: union schema, sorted ids; map positions.
	outCols := out.cols
	fromProbe := make([]int, len(outCols))
	fromBuild := make([]int, len(outCols))
	for i, c := range outCols {
		fromProbe[i], fromBuild[i] = -1, -1
		for j, pc := range probe.cols {
			if pc == c {
				fromProbe[i] = j
			}
		}
		for j, bc := range build.cols {
			if bc == c {
				fromBuild[i] = j
			}
		}
	}
	out.ensureSeen()
	outBuf := make([]uint32, len(outCols))
	for i := 0; i < probe.nrows; i++ {
		h := probe.hashRowAt(i, probePos)
		for _, bi := range idx[h] {
			if !build.matchOn(int(bi), buildPos, probe, i, probePos) {
				continue
			}
			for o := range outCols {
				if fromProbe[o] >= 0 {
					outBuf[o] = probe.data[fromProbe[o]][i]
				} else {
					outBuf[o] = build.data[fromBuild[o]][int(bi)]
				}
			}
			out.insertIDs(outBuf)
		}
	}
	return out
}

// Semijoin returns r ⋉ s: tuples of r matching some tuple of s on the
// common attributes. The index over s is memoized (see index), so reducing
// many relations against one shared side — the ModeFull semijoin loop,
// incremental-maintenance rounds — hashes s once, not once per call.
func (r *Relation) Semijoin(s *Relation) *Relation {
	sameInterner(r, s)
	common := r.attrs.Intersect(s.attrs)
	idx := s.index(common)
	rPos := r.positions(common)
	sPos := s.positions(common)
	out := New(fmt.Sprintf("(%s⋉%s)", r.Name, s.Name), r.attrs)
	buf := make([]uint32, len(r.cols))
	for i := 0; i < r.nrows; i++ {
		h := r.hashRowAt(i, rPos)
		for _, si := range idx[h] {
			if r.matchOn(i, rPos, s, int(si), sPos) {
				out.appendUnique(r.rowIDs(i, buf))
				break
			}
		}
	}
	return out
}

// Union returns r ∪ s; both must share the schema.
func (r *Relation) Union(s *Relation) *Relation {
	if r.attrs != s.attrs {
		panic(fmt.Sprintf("union schema mismatch: %v vs %v", r.attrs, s.attrs))
	}
	sameInterner(r, s)
	out := New(fmt.Sprintf("(%s∪%s)", r.Name, s.Name), r.attrs)
	out.ensureSeen()
	buf := make([]uint32, len(r.cols))
	for i := 0; i < r.nrows; i++ {
		out.appendUnique(r.rowIDs(i, buf))
	}
	for i := 0; i < s.nrows; i++ {
		out.insertIDs(s.rowIDs(i, buf))
	}
	return out
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
	parts := make([]*Relation, k)
	for j := range parts {
		parts[j] = New(fmt.Sprintf("%s[p%d/%d]", r.Name, j, k), r.attrs)
	}
	buf := make([]uint32, len(r.cols))
	for i := 0; i < r.nrows; i++ {
		parts[r.bucketOf(i, pos, k)].appendUnique(r.rowIDs(i, buf))
	}
	if r.memo.parts == nil {
		r.memo.parts = map[partMemoKey]*memoParts{}
	}
	r.memo.parts[mk] = &memoParts{mut: r.mut, parts: parts}
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

// groupRows partitions the row indices into groups agreeing on pos, in
// first-appearance order.
func (r *Relation) groupRows(pos []int) [][]int32 {
	var out [][]int32
	m := make(map[uint64][]int32, r.nrows)
	for i := 0; i < r.nrows; i++ {
		h := r.hashRowAt(i, pos)
		gi := -1
		for _, g := range m[h] {
			if r.rowsMatchAt(int(out[g][0]), i, pos) {
				gi = int(g)
				break
			}
		}
		if gi < 0 {
			gi = len(out)
			out = append(out, nil)
			m[h] = append(m[h], int32(gi))
		}
		out[gi] = append(out[gi], int32(i))
	}
	return out
}

// distinctAt counts the distinct projections of the given rows onto pos.
func (r *Relation) distinctAt(rows []int32, pos []int) int {
	m := make(map[uint64][]int32, len(rows))
	n := 0
	for _, i := range rows {
		h := r.hashRowAt(int(i), pos)
		dup := false
		for _, j := range m[h] {
			if r.rowsMatchAt(int(j), int(i), pos) {
				dup = true
				break
			}
		}
		if !dup {
			m[h] = append(m[h], i)
			n++
		}
	}
	return n
}

// Degree returns deg_r(Y|X) = max over X-tuples t of |Π_Y(σ_{X=t}(r))|,
// per Definition 2.10, with X ⊆ Y ⊆ schema. Degree(Y, ∅) = |Π_Y(r)|.
func (r *Relation) Degree(y, x bitset.Set) int {
	if !x.SubsetOf(y) || !y.SubsetOf(r.attrs) {
		panic(fmt.Sprintf("relation %s: bad degree query Y=%v X=%v schema=%v", r.Name, y, x, r.attrs))
	}
	xPos := r.positions(x)
	yPos := r.positions(y)
	best := 0
	for _, g := range r.groupRows(xPos) {
		if d := r.distinctAt(g, yPos); d > best {
			best = d
		}
	}
	return best
}

// PartitionByDegree implements Lemma 6.1: it splits Π_Y(r) into at most
// 2·log₂|Π_Y(r)|+2 buckets such that in bucket j,
// |Π_X(bucket)| · max-degree(Y|X within bucket) ≤ |Π_Y(r)|.
// Bucket j collects X-tuples whose degree lies in [2^j, 2^{j+1}), halved
// again by X-value so that the product bound holds.
func (r *Relation) PartitionByDegree(y, x bitset.Set) []*Relation {
	t := r.Project(y)
	xPos := t.positions(x)
	// Groups of t's rows by X-value, in first-appearance order.
	groups := t.groupRows(xPos)
	// log-degree bucket of each group.
	buckets := map[int][][]int32{}
	for _, g := range groups {
		// Bucket j holds X-values whose degree lies in [2^j, 2^{j+1}).
		j := 0
		for (1 << uint(j+1)) <= len(g) {
			j++
		}
		buckets[j] = append(buckets[j], g)
	}
	var out []*Relation
	var js []int
	for j := range buckets {
		js = append(js, j)
	}
	sort.Ints(js)
	buf := make([]uint32, len(t.cols))
	for _, j := range js {
		gs := buckets[j]
		// Split the groups of this bucket into two halves by X-value count
		// so each half has ≤ ⌈|groups|/2⌉ distinct X-values.
		half := (len(gs) + 1) / 2
		for part := 0; part < 2; part++ {
			lo, hi := 0, half
			if part == 1 {
				lo, hi = half, len(gs)
			}
			if lo >= hi {
				continue
			}
			sub := New(fmt.Sprintf("%s[deg2^%d.%d]", r.Name, j, part), y)
			for _, g := range gs[lo:hi] {
				for _, ri := range g {
					sub.appendUnique(t.rowIDs(int(ri), buf))
				}
			}
			out = append(out, sub)
		}
	}
	return out
}

// Clone returns a deep copy with a new name.
func (r *Relation) Clone(name string) *Relation {
	out := New(name, r.attrs)
	buf := make([]uint32, len(r.cols))
	for i := 0; i < r.nrows; i++ {
		out.appendUnique(r.rowIDs(i, buf))
	}
	return out
}

// Snapshot returns a read-mostly copy sharing r's column storage: O(arity)
// pointer copies instead of O(rows) re-hashing, which is what makes binding
// a catalog relation into a query instance cheap. Columns are
// capacity-capped, so a later append to either relation reallocates rather
// than aliasing; the snapshot rebuilds its dedup table lazily on first
// mutation or membership probe. Ticks, marks and hints are not carried
// over.
func (r *Relation) Snapshot(name string) *Relation {
	out := &Relation{
		Name:  name,
		attrs: r.attrs,
		cols:  r.cols,
		in:    r.in,
		data:  make([][]uint32, len(r.data)),
		nrows: r.nrows,
	}
	for c := range r.data {
		out.data[c] = r.data[c][:r.nrows:r.nrows]
	}
	return out
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
