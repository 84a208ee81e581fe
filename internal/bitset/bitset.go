// Package bitset implements subsets of a small variable universe [n] as
// bitmasks. Throughout the repository a variable set S ⊆ [n] (n ≤ 16) is a
// Set whose bit i is 1 iff variable i ∈ S. The empty set is 0.
package bitset

import (
	"math/bits"
	"sort"
	"strconv"
)

// Set is a subset of [n] for n ≤ 16, encoded as a bitmask.
type Set uint32

// Of builds a Set from the listed variable indices.
func Of(vars ...int) Set {
	var s Set
	for _, v := range vars {
		s |= 1 << uint(v)
	}
	return s
}

// Full returns the full set [n] = {0, …, n−1}.
func Full(n int) Set { return Set(1<<uint(n)) - 1 }

// Singleton returns {v}.
func Singleton(v int) Set { return 1 << uint(v) }

// Card returns |s|.
func (s Set) Card() int { return bits.OnesCount32(uint32(s)) }

// Contains reports whether v ∈ s.
func (s Set) Contains(v int) bool { return s&(1<<uint(v)) != 0 }

// SubsetOf reports whether s ⊆ t.
func (s Set) SubsetOf(t Set) bool { return s&^t == 0 }

// ProperSubsetOf reports whether s ⊂ t.
func (s Set) ProperSubsetOf(t Set) bool { return s != t && s.SubsetOf(t) }

// Union returns s ∪ t.
func (s Set) Union(t Set) Set { return s | t }

// Intersect returns s ∩ t.
func (s Set) Intersect(t Set) Set { return s & t }

// Minus returns s \ t.
func (s Set) Minus(t Set) Set { return s &^ t }

// Add returns s ∪ {v}.
func (s Set) Add(v int) Set { return s | 1<<uint(v) }

// Remove returns s \ {v}.
func (s Set) Remove(v int) Set { return s &^ (1 << uint(v)) }

// Incomparable reports whether s ⊥ t, i.e. s ⊄ t and t ⊄ s and s ≠ t.
// This is the paper's I ⊥ J relation (I ⊄ J and J ⊄ I).
func (s Set) Incomparable(t Set) bool { return !s.SubsetOf(t) && !t.SubsetOf(s) }

// Vars returns the elements of s in increasing order.
func (s Set) Vars() []int {
	out := make([]int, 0, s.Card())
	for m := s; m != 0; {
		v := bits.TrailingZeros32(uint32(m))
		out = append(out, v)
		m &= m - 1
	}
	return out
}

// String renders s using the default variable names A0, A1, ….
func (s Set) String() string { return s.Label(nil) }

// Label renders s using the given variable names (falling back to Ai).
// The empty set renders as "∅".
func (s Set) Label(names []string) string {
	var buf [48]byte
	return string(s.AppendLabel(buf[:0], names))
}

// AppendLabel appends Label(names) to dst and returns the extended slice, so
// a caller building a longer name around the label writes it in place
// instead of allocating it first.
func (s Set) AppendLabel(dst []byte, names []string) []byte {
	if s == 0 {
		return append(dst, "∅"...)
	}
	for m := s; m != 0; m &= m - 1 {
		v := bits.TrailingZeros32(uint32(m))
		if v < len(names) {
			dst = append(dst, names[v]...)
		} else {
			dst = strconv.AppendInt(append(dst, 'A'), int64(v), 10)
		}
	}
	return dst
}

// Sorted returns the sets sorted by (cardinality, mask value); useful for
// deterministic iteration in tests and printed reports.
func Sorted(sets []Set) []Set {
	out := append([]Set(nil), sets...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Card() != out[j].Card() {
			return out[i].Card() < out[j].Card()
		}
		return out[i] < out[j]
	})
	return out
}
