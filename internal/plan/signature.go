package plan

import (
	"fmt"
	"slices"
	"sort"
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
// renamings as distinct. Canonicalization only runs when a Prepare's exact
// fingerprint is unregistered (see Fingerprint and maxExactsPerPlan), so
// this bounds a per-new-query-text cost, not a per-Prepare cost.
const permLimit = 5040 // 7!

// Fingerprint is a strictly order-sensitive encoding of (q, cons, mode):
// the caller's exact variable numbering, atom order and constraint order,
// with no sorting and no permutation search. Only byte-identical Prepare
// calls share a fingerprint — any renaming OR reordering falls through to
// Canonicalize once, after which its own fingerprint is registered against
// the shared canonical entry. (Sorting here would be a bug: two queries
// with the same atom-mask multiset but different orders need different
// rebind permutations, so they must not share a fingerprint slot.)
func Fingerprint(q *query.Conjunctive, cons []query.DegreeConstraint, mode Mode) string {
	return fingerprint(&q.Schema, []bitset.Set{q.Free}, cons, ResolveMode(q, mode))
}

func fingerprint(s *query.Schema, heads []bitset.Set, cons []query.DegreeConstraint, mode Mode) string {
	var sb strings.Builder
	writeHeader(&sb, mode, s.NumVars, heads)
	for _, a := range s.Atoms {
		fmt.Fprintf(&sb, ":%08x", uint32(a.Vars))
	}
	sb.WriteString(";C")
	for _, c := range cons {
		fmt.Fprintf(&sb, ":%08x/%08x/%s/g%d", uint32(c.X), uint32(c.Y), c.LogN.RatString(), c.Guard)
	}
	return sb.String()
}

// writeHeader starts an encoding: mode, variable count, the head section —
// one mask for a conjunctive query's free set, the comma-separated target
// masks for a rule — and the opening of the atom section.
func writeHeader(sb *strings.Builder, mode Mode, n int, heads []bitset.Set) {
	fmt.Fprintf(sb, "m%d;n%d;F", int(mode), n)
	for i, h := range heads {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(sb, "%08x", uint32(h))
	}
	sb.WriteString(";A")
}

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

func canonicalize(s *query.Schema, heads []bitset.Set, cons []query.DegreeConstraint, mode Mode) (*Signature, error) {
	n := s.NumVars
	if n > 32 {
		return nil, fmt.Errorf("plan: %d variables exceed the bitset universe", n)
	}
	classes := varClasses(s, heads, cons)
	best := ""
	var bestSig *Signature
	tryPerm := func(perm []int) {
		sig := encode(s, heads, cons, mode, perm)
		if bestSig == nil || sig.Key < best {
			best, bestSig = sig.Key, sig
		}
	}
	if countPerms(classes) > permLimit {
		perm := make([]int, n)
		pos := 0
		for _, cl := range classes {
			for _, v := range cl {
				perm[v] = pos
				pos++
			}
		}
		tryPerm(perm)
	} else {
		forEachClassPerm(classes, n, tryPerm)
	}
	return bestSig, nil
}

// varClasses partitions variables into equivalence classes by an iterated
// structural invariant (head membership, atom arities, constraint roles,
// then Weisfeiler–Lehman-style neighbour refinement), ordered by invariant.
func varClasses(s *query.Schema, heads []bitset.Set, cons []query.DegreeConstraint) [][]int {
	n := s.NumVars
	inv := make([]string, n)
	for v := 0; v < n; v++ {
		var parts []string
		for _, h := range heads {
			if h.Contains(v) {
				parts = append(parts, "f")
			}
		}
		var arities []string
		for _, a := range s.Atoms {
			if a.Vars.Contains(v) {
				arities = append(arities, fmt.Sprintf("a%d", a.Vars.Card()))
			}
		}
		sort.Strings(arities)
		parts = append(parts, arities...)
		var roles []string
		for _, c := range cons {
			switch {
			case c.X.Contains(v):
				roles = append(roles, "x"+c.LogN.RatString())
			case c.Y.Contains(v):
				roles = append(roles, "y"+c.LogN.RatString())
			}
		}
		sort.Strings(roles)
		parts = append(parts, roles...)
		inv[v] = strings.Join(parts, ",")
	}
	// Refine by the multiset of co-occurring invariants until stable.
	for round := 0; round < n; round++ {
		next := make([]string, n)
		changedShape := false
		for v := 0; v < n; v++ {
			var nb []string
			for _, a := range s.Atoms {
				if !a.Vars.Contains(v) {
					continue
				}
				for _, u := range a.Vars.Vars() {
					if u != v {
						nb = append(nb, inv[u])
					}
				}
			}
			sort.Strings(nb)
			next[v] = inv[v] + "|" + strings.Join(nb, ";")
		}
		if classCount(next) != classCount(inv) {
			changedShape = true
		}
		inv = next
		if !changedShape {
			break
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return inv[order[a]] < inv[order[b]] })
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
	seen := map[string]bool{}
	for _, s := range inv {
		seen[s] = true
	}
	return len(seen)
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
func forEachClassPerm(classes [][]int, n int, fn func(perm []int)) {
	perm := make([]int, n)
	var rec func(ci, pos int)
	rec = func(ci, pos int) {
		if ci == len(classes) {
			fn(perm)
			return
		}
		cl := append([]int(nil), classes[ci]...)
		var permute func(k int)
		permute = func(k int) {
			if k == len(cl) {
				rec(ci+1, pos+len(cl))
				return
			}
			for i := k; i < len(cl); i++ {
				cl[k], cl[i] = cl[i], cl[k]
				perm[cl[k]] = pos + k
				permute(k + 1)
				cl[k], cl[i] = cl[i], cl[k]
			}
		}
		permute(0)
	}
	rec(0, 0)
}

// mapSet renames every element of s through perm.
func mapSet(s bitset.Set, perm []int) bitset.Set {
	var out bitset.Set
	for _, v := range s.Vars() {
		out = out.Add(perm[v])
	}
	return out
}

// encode builds the deterministic canonical encoding of the query under a
// fixed variable permutation, together with the induced atom and constraint
// orders.
func encode(s *query.Schema, heads []bitset.Set, cons []query.DegreeConstraint, mode Mode, perm []int) *Signature {
	// Atoms sort by renamed variable set; ties (identical atom shapes)
	// break by the multiset of constraints each atom guards, so that e.g.
	// two same-shape atoms with different cardinalities order canonically.
	type atomKey struct {
		idx  int
		mask bitset.Set
		tie  string
	}
	atoms := make([]atomKey, len(s.Atoms))
	for i, a := range s.Atoms {
		var guarded []string
		for _, c := range cons {
			if c.Guard == i {
				guarded = append(guarded,
					fmt.Sprintf("%08x/%08x/%s", uint32(mapSet(c.X, perm)), uint32(mapSet(c.Y, perm)), c.LogN.RatString()))
			}
		}
		sort.Strings(guarded)
		atoms[i] = atomKey{idx: i, mask: mapSet(a.Vars, perm), tie: strings.Join(guarded, "+")}
	}
	sort.SliceStable(atoms, func(a, b int) bool {
		if atoms[a].mask != atoms[b].mask {
			return atoms[a].mask < atoms[b].mask
		}
		return atoms[a].tie < atoms[b].tie
	})
	atomPerm := make([]int, len(atoms))
	invAtom := make([]int, len(atoms))
	for j, a := range atoms {
		atomPerm[j] = a.idx
		invAtom[a.idx] = j
	}
	type consKey struct {
		idx int
		enc string
	}
	cks := make([]consKey, len(cons))
	for i, c := range cons {
		g := -1
		if c.Guard >= 0 && c.Guard < len(invAtom) {
			g = invAtom[c.Guard]
		}
		cks[i] = consKey{idx: i, enc: fmt.Sprintf("%08x/%08x/%s/g%d",
			uint32(mapSet(c.X, perm)), uint32(mapSet(c.Y, perm)), c.LogN.RatString(), g)}
	}
	sort.SliceStable(cks, func(a, b int) bool { return cks[a].enc < cks[b].enc })
	consPerm := make([]int, len(cks))
	canonHeads := remapSets(heads, perm)
	slices.Sort(canonHeads)
	var sb strings.Builder
	writeHeader(&sb, mode, s.NumVars, canonHeads)
	for _, a := range atoms {
		fmt.Fprintf(&sb, ":%08x", uint32(a.mask))
	}
	sb.WriteString(";C")
	for k, c := range cks {
		consPerm[k] = c.idx
		sb.WriteString(":")
		sb.WriteString(c.enc)
	}
	return &Signature{
		Key:      sb.String(),
		Mode:     mode,
		VarPerm:  append([]int(nil), perm...),
		AtomPerm: atomPerm,
		ConsPerm: consPerm,
	}
}
