package plan

import (
	"bytes"
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"strings"

	"panda/internal/bitset"
	"panda/internal/query"
)

// Signature is the canonical cache identity of a (query shape, head,
// constraint set, mode) quadruple, where the head is the free set of a
// conjunctive query or the target list of a disjunctive rule (ModeRule). Two
// inputs that differ only by a renaming of variables or a reordering of
// atoms, constraints or rule targets produce the same Key; the permutations
// record how to move a plan between the caller's space and the canonical
// space.
type Signature struct {
	Key  string
	Mode Mode
	// VarPerm maps a caller variable v to its canonical index VarPerm[v].
	VarPerm []int
	// AtomPerm maps a canonical atom index j to the caller atom AtomPerm[j].
	AtomPerm []int
	// ConsPerm maps a canonical constraint index k to the caller
	// constraint ConsPerm[k].
	ConsPerm []int
}

// permLimit caps the number of candidate variable orderings explored while
// searching for the lexicographically minimal encoding. Queries whose
// automorphism classes explode past it fall back to a deterministic (but not
// rename-invariant) ordering — the cache stays correct, it just treats such
// renamings as distinct. The search runs on every Prepare that no Stmt memo
// shields, so below the cap an all-symmetric shape pays for its orderings
// per Prepare: the 6-cycle (720) 0.15 ms and the 7-cycle (all 5040) 1.1 ms,
// against 7 to 35 µs for the 4- and 5-cycle (BenchmarkCanonicalize, 2-core
// Xeon @ 2.1 GHz). Nothing in the tree plans a shape over 5 variables, so
// that cost is unmeasured on such traffic.
const permLimit = 5040 // 7!

// Canonicalize computes the canonical signature of (q, cons, mode).
func Canonicalize(q *query.Conjunctive, cons []query.DegreeConstraint, mode Mode) (*Signature, error) {
	return canonicalize(&q.Schema, []bitset.Set{q.Free}, cons, ResolveMode(q, mode))
}

// CanonicalizeRule computes the canonical signature of a disjunctive rule:
// the same encoding under ModeRule, with the sorted renamed target masks
// where a conjunctive key has its free mask.
func CanonicalizeRule(r *query.Disjunctive, cons []query.DegreeConstraint) (*Signature, error) {
	return canonicalize(&r.Schema, r.Targets, cons, ModeRule)
}

// canonicalize searches the class-respecting variable orderings for the one
// whose key is smallest as bytes; among equal keys the first one visited
// wins, so the visiting order (varClasses' class order, forEachClassPerm's
// permutation order) is part of what a key means.
func canonicalize(s *query.Schema, heads []bitset.Set, cons []query.DegreeConstraint, mode Mode) (*Signature, error) {
	n := s.NumVars
	if n > 32 {
		return nil, fmt.Errorf("plan: %d variables exceed the bitset universe", n)
	}
	sr := newSearch(s, heads, cons, mode)
	classes := varClasses(s, heads, cons, sr.logNs)
	if countPerms(classes) > permLimit {
		perm := make([]int, n)
		pos := 0
		for _, cl := range classes {
			for _, v := range cl {
				perm[v] = pos
				pos++
			}
		}
		sr.try(perm)
	} else {
		forEachClassPerm(classes, n, sr.try)
	}
	best := &sr.best
	return &Signature{
		Key:      string(best.key),
		Mode:     mode,
		VarPerm:  best.varPerm,
		AtomPerm: best.atomPerm,
		ConsPerm: best.consPerm,
	}, nil
}

// keyOf is the key of (s, heads, cons) under mode with the variables in
// the order s numbers them: one ordering scored, no search. A plan the
// planner built is of the canonical input, whose own key is its signature's.
func keyOf(s *query.Schema, heads []bitset.Set, cons []query.DegreeConstraint, mode Mode) string {
	perm := make([]int, s.NumVars)
	for v := range perm {
		perm[v] = v
	}
	sr := newSearch(s, heads, cons, mode)
	sr.try(perm)
	return string(sr.best.key)
}

// varClasses partitions variables into equivalence classes by an iterated
// structural invariant (head membership, atom arities, constraint roles,
// then Weisfeiler–Lehman-style neighbour refinement), ordered by invariant.
// logNs[k] is cons[k].LogN.RatString().
func varClasses(s *query.Schema, heads []bitset.Set, cons []query.DegreeConstraint, logNs []string) [][]int {
	n := s.NumVars
	inv := make([]string, n)
	var parts []string
	for v := 0; v < n; v++ {
		parts = parts[:0]
		for _, h := range heads {
			if h.Contains(v) {
				parts = append(parts, "f")
			}
		}
		arities := len(parts)
		for _, a := range s.Atoms {
			if a.Vars.Contains(v) {
				parts = append(parts, "a"+strconv.Itoa(a.Vars.Card()))
			}
		}
		slices.Sort(parts[arities:])
		roles := len(parts)
		for k, c := range cons {
			switch {
			case c.X.Contains(v):
				parts = append(parts, "x"+logNs[k])
			case c.Y.Contains(v):
				parts = append(parts, "y"+logNs[k])
			}
		}
		slices.Sort(parts[roles:])
		inv[v] = strings.Join(parts, ",")
	}
	// Refine by the multiset of co-occurring invariants until stable.
	count := classCount(inv)
	for round := 0; round < n; round++ {
		next := make([]string, n)
		for v := 0; v < n; v++ {
			nb := parts[:0] // the first pass is done with parts: reuse its storage
			for _, a := range s.Atoms {
				if !a.Vars.Contains(v) {
					continue
				}
				for m := uint32(a.Vars.Remove(v)); m != 0; m &= m - 1 {
					nb = append(nb, inv[bits.TrailingZeros32(m)])
				}
			}
			slices.Sort(nb)
			next[v] = inv[v] + "|" + strings.Join(nb, ";")
			parts = nb
		}
		inv = next
		refined := classCount(inv)
		if refined == count {
			break
		}
		count = refined
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return strings.Compare(inv[a], inv[b]) })
	var classes [][]int
	for i := 0; i < n; {
		j := i
		for j < n && inv[order[j]] == inv[order[i]] {
			j++
		}
		classes = append(classes, order[i:j])
		i = j
	}
	return classes
}

func classCount(inv []string) int {
	count := 0
	for i, s := range inv {
		if !slices.Contains(inv[:i], s) {
			count++
		}
	}
	return count
}

func countPerms(classes [][]int) int {
	total := 1
	for _, cl := range classes {
		f := 1
		for i := 2; i <= len(cl); i++ {
			f *= i
			if total*f > 4*permLimit {
				return 4 * permLimit
			}
		}
		total *= f
	}
	return total
}

// forEachClassPerm enumerates every variable ordering that assigns
// consecutive canonical positions to each class, permuting within classes.
// It permutes the classes in place: each is back in the order it came in
// whenever the class before it moves on, and on return.
func forEachClassPerm(classes [][]int, n int, fn func(perm []int)) {
	perm := make([]int, n)
	var rec func(ci, pos, k int)
	rec = func(ci, pos, k int) {
		if ci == len(classes) {
			fn(perm)
			return
		}
		cl := classes[ci]
		if k == len(cl) {
			rec(ci+1, pos+len(cl), 0)
			return
		}
		for i := k; i < len(cl); i++ {
			cl[k], cl[i] = cl[i], cl[k]
			perm[cl[k]] = pos + k
			rec(ci, pos, k+1)
			cl[k], cl[i] = cl[i], cl[k]
		}
	}
	rec(0, 0, 0)
}

// mapSet renames every element of s through perm.
func mapSet(s bitset.Set, perm []int) bitset.Set {
	var out bitset.Set
	for m := uint32(s); m != 0; m &= m - 1 {
		out |= 1 << uint(perm[bits.TrailingZeros32(m)])
	}
	return out
}

// A key reads
//
//	m<mode>;n<vars>;F<head>,<head>…;A:<atom>:<atom>…;C:<x>/<y>/<logN>/g<guard>:…
//
// with every variable set as eight hex digits of its mask under the
// candidate ordering: the heads sorted, the atoms sorted, then the
// constraints sorted by their own x/y/logN/g<guard> bytes (logN a RatString,
// guard the guarding atom's position among the sorted atoms, -1 for none;
// both compare as text, never as numbers). Up to ";C" the key has one width
// for every ordering of one input and hex digits sort like the numbers they
// spell, so that part of two keys compares like the mask lists themselves.

// candidate is one variable ordering's key and the permutations behind it.
type candidate struct {
	key []byte
	// masks is the sorted head masks, then the sorted atom masks.
	masks                       []uint32
	varPerm, atomPerm, consPerm []int
}

// search scores the orderings canonicalize visits and keeps the first with
// the smallest key. Scoring formats nothing: an ordering whose masks already
// sort after the best one's is dropped on those integers, and the others are
// written into a reused buffer and compared as bytes.
type search struct {
	s     *query.Schema
	heads []bitset.Set
	cons  []query.DegreeConstraint
	logNs []string // cons[k].LogN.RatString()
	head  []byte   // "m<mode>;n<vars>;F"

	found      bool      // best holds a candidate
	cand, best candidate // try swaps them when cand wins

	atoms   []atomRef // the atoms under the ordering being scored, sorted
	invAtom []int     // caller atom → its position in atoms
	enc     rows      // enc.row(k): constraint k's x/y/logN/g<guard>
	// tie is set when two atoms share a variable set: only then does atom
	// order need the tie-break on the constraints each guards.
	tie *tieBreak
}

type atomRef struct {
	mask uint32
	idx  int // caller atom index
}

// tieBreak is breakTies' scratch: ties.row(i) is caller atom i's tie-break,
// joined from parts, the encodings of the constraints it guards, in order.
type tieBreak struct {
	ties, parts rows
	order       []int
}

func newSearch(s *query.Schema, heads []bitset.Set, cons []query.DegreeConstraint, mode Mode) search {
	n, na, nc := s.NumVars, len(s.Atoms), len(cons)
	sr := search{
		s: s, heads: heads, cons: cons, logNs: make([]string, nc),
		head:    fmt.Appendf(nil, "m%d;n%d;F", int(mode), n),
		atoms:   make([]atomRef, na),
		invAtom: make([]int, na),
	}
	// Buffers are sized once: a constraint is :x/y/logN/g<guard> in the key,
	// 21 bytes around logN and the guard (given three digits; a longer one
	// grows the buffer).
	consLen := 0
	for k, c := range cons {
		sr.logNs[k] = c.LogN.RatString()
		consLen += 24 + len(sr.logNs[k])
	}
	sr.enc = rows{buf: make([]byte, 0, consLen), end: make([]int, 0, nc)}
	keyLen := len(sr.head) + 9*(len(heads)+na) + len(";A;C") + consLen
	for _, c := range []*candidate{&sr.cand, &sr.best} {
		ints := make([]int, n+na+nc)
		c.varPerm, c.atomPerm, c.consPerm = ints[:n:n], ints[n:n+na:n+na], ints[n+na:]
		c.masks = make([]uint32, len(heads)+na)
		c.key = make([]byte, 0, keyLen)
	}
	for i, a := range s.Atoms {
		if slices.ContainsFunc(s.Atoms[:i], func(b query.Atom) bool { return b.Vars == a.Vars }) {
			sr.tie = &tieBreak{}
			break
		}
	}
	return sr
}

func byMask(a, b atomRef) int { return cmp.Compare(a.mask, b.mask) }

// try scores the ordering perm (caller variable → canonical index).
func (sr *search) try(perm []int) {
	c := &sr.cand
	nh := len(sr.heads)
	for i, h := range sr.heads {
		c.masks[i] = uint32(mapSet(h, perm))
	}
	slices.Sort(c.masks[:nh])
	for i, a := range sr.s.Atoms {
		sr.atoms[i] = atomRef{mask: uint32(mapSet(a.Vars, perm)), idx: i}
	}
	slices.SortStableFunc(sr.atoms, byMask)
	for j, a := range sr.atoms {
		c.masks[nh+j] = a.mask
	}
	order := -1
	if sr.found {
		if order = slices.Compare(c.masks, sr.best.masks); order > 0 {
			return
		}
	}

	if sr.tie != nil {
		sr.breakTies(perm)
	}
	for j, a := range sr.atoms {
		c.atomPerm[j] = a.idx
		sr.invAtom[a.idx] = j
	}
	sr.enc.reset()
	for k, con := range sr.cons {
		g := -1
		if con.Guard >= 0 && con.Guard < len(sr.invAtom) {
			g = sr.invAtom[con.Guard]
		}
		b := append(sr.appendCons(sr.enc.buf, k, perm), "/g"...)
		sr.enc.buf = strconv.AppendInt(b, int64(g), 10)
		sr.enc.close()
		c.consPerm[k] = k
	}
	slices.SortStableFunc(c.consPerm, func(a, b int) int { return bytes.Compare(sr.enc.row(a), sr.enc.row(b)) })

	key := append(c.key[:0], sr.head...)
	for i, h := range c.masks[:nh] {
		if i > 0 {
			key = append(key, ',')
		}
		key = appendHex8(key, h)
	}
	key = append(key, ";A"...)
	for _, m := range c.masks[nh:] {
		key = appendHex8(append(key, ':'), m)
	}
	key = append(key, ";C"...)
	for _, k := range c.consPerm {
		key = append(append(key, ':'), sr.enc.row(k)...)
	}
	c.key = key
	if order < 0 || bytes.Compare(c.key, sr.best.key) < 0 {
		copy(c.varPerm, perm)
		sr.cand, sr.best = sr.best, sr.cand
		sr.found = true
	}
}

// breakTies orders atoms with one variable set by the constraints each
// guards — their x/y/logN encodings, sorted and joined by '+', compared as
// text — so that e.g. two same-shape atoms with different cardinalities
// order canonically. Atoms it cannot tell apart stay in caller order.
func (sr *search) breakTies(perm []int) {
	t := sr.tie
	t.ties.reset()
	for i := range sr.s.Atoms {
		t.parts.reset()
		t.order = t.order[:0]
		for k, con := range sr.cons {
			if con.Guard == i {
				t.parts.buf = sr.appendCons(t.parts.buf, k, perm)
				t.parts.close()
				t.order = append(t.order, len(t.order))
			}
		}
		slices.SortFunc(t.order, func(a, b int) int { return bytes.Compare(t.parts.row(a), t.parts.row(b)) })
		for j, p := range t.order {
			if j > 0 {
				t.ties.buf = append(t.ties.buf, '+')
			}
			t.ties.buf = append(t.ties.buf, t.parts.row(p)...)
		}
		t.ties.close()
	}
	slices.SortStableFunc(sr.atoms, func(a, b atomRef) int {
		if c := cmp.Compare(a.mask, b.mask); c != 0 {
			return c
		}
		return bytes.Compare(t.ties.row(a.idx), t.ties.row(b.idx))
	})
}

// appendCons appends constraint k's x/y/logN under perm.
func (sr *search) appendCons(dst []byte, k int, perm []int) []byte {
	c := &sr.cons[k]
	dst = append(appendHex8(dst, uint32(mapSet(c.X, perm))), '/')
	dst = append(appendHex8(dst, uint32(mapSet(c.Y, perm))), '/')
	return append(dst, sr.logNs[k]...)
}

// appendHex8 appends v as %08x.
func appendHex8(dst []byte, v uint32) []byte {
	const digits = "0123456789abcdef"
	for shift := 28; shift >= 0; shift -= 4 {
		dst = append(dst, digits[v>>shift&15])
	}
	return dst
}

// rows is a list of byte strings laid end to end in one reused buffer: a
// row is appended to buf, then closed.
type rows struct {
	buf []byte
	end []int // end[i] is where row i stops
}

func (r *rows) reset() { r.buf, r.end = r.buf[:0], r.end[:0] }
func (r *rows) close() { r.end = append(r.end, len(r.buf)) }

func (r *rows) row(i int) []byte {
	start := 0
	if i > 0 {
		start = r.end[i-1]
	}
	return r.buf[start:r.end[i]]
}
