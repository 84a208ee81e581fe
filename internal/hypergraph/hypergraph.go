// Package hypergraph implements multi-hypergraphs, tree decompositions and
// the combinatorial machinery of Sections 2.1.3 and 7 of the paper:
// enumeration of the non-redundant, non-dominated tree decompositions TD(H)
// (via variable orderings, Proposition 2.9), GYO-based join-tree
// construction for acyclic schemas, and enumeration of minimal bag
// transversals (the inclusion-minimal images of the "bag selector" maps β of
// Lemma 7.12, which drive the submodular-width computation).
package hypergraph

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"panda/internal/bitset"
)

// Hypergraph is a multi-hypergraph H = ([n], E); Edges may repeat.
type Hypergraph struct {
	N     int
	Edges []bitset.Set
}

// New builds a hypergraph over n vertices with the given edges.
func New(n int, edges ...bitset.Set) *Hypergraph {
	return &Hypergraph{N: n, Edges: append([]bitset.Set(nil), edges...)}
}

// CoversAll reports whether every vertex of [n] appears in some edge.
func (h *Hypergraph) CoversAll() bool {
	var u bitset.Set
	for _, e := range h.Edges {
		u = u.Union(e)
	}
	return u == bitset.Full(h.N)
}

// Decomposition is a tree decomposition: Bags[i] = χ(tᵢ) and Parent[i] is
// the index of the parent node (−1 for the root).
type Decomposition struct {
	Bags   []bitset.Set
	Parent []int
}

// Validate checks that Parent is one rooted tree over the bags, then the two
// tree-decomposition properties of Definition 2.5: every edge is contained
// in some bag, and for every vertex the set of bags containing it forms a
// connected subtree.
func (d *Decomposition) Validate(h *Hypergraph) error {
	if len(d.Bags) == 0 {
		return fmt.Errorf("hypergraph: decomposition has no bags")
	}
	if len(d.Parent) != len(d.Bags) {
		return fmt.Errorf("hypergraph: %d bags but %d parent entries", len(d.Bags), len(d.Parent))
	}
	roots := 0
	for i, p := range d.Parent {
		if p < -1 || p >= len(d.Parent) {
			return fmt.Errorf("hypergraph: bag %d has parent %d out of range", i, p)
		}
		if p == -1 {
			roots++
		}
	}
	if roots != 1 {
		return fmt.Errorf("hypergraph: decomposition has %d roots, want 1", roots)
	}
	for i := range d.Parent {
		// A walk up from bag i that takes more steps than there are bags
		// is caught in a cycle.
		for j, steps := i, 0; d.Parent[j] != -1; j = d.Parent[j] {
			if steps++; steps == len(d.Parent) {
				return fmt.Errorf("hypergraph: bag %d does not reach the root", i)
			}
		}
	}
	for _, e := range h.Edges {
		ok := false
		for _, b := range d.Bags {
			if e.SubsetOf(b) {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("hypergraph: edge %v not covered by any bag", e)
		}
	}
	// Connectivity per vertex: count connected components of the induced
	// forest; must be exactly 1 for each vertex that occurs.
	for v := 0; v < h.N; v++ {
		components := 0
		for i, b := range d.Bags {
			if !b.Contains(v) {
				continue
			}
			p := d.Parent[i]
			if p == -1 || !d.Bags[p].Contains(v) {
				components++
			}
		}
		occurs := false
		for _, b := range d.Bags {
			if b.Contains(v) {
				occurs = true
			}
		}
		if occurs && components != 1 {
			return fmt.Errorf("hypergraph: vertex %d induces %d subtree components", v, components)
		}
	}
	return nil
}

// key returns a canonical identifier of the decomposition's bag set.
func (d *Decomposition) key() string {
	bags := bitset.Sorted(d.Bags)
	s := make([]byte, 0, 4*len(bags))
	for _, b := range bags {
		s = append(s, byte(b), byte(b>>8), byte(b>>16), byte(b>>24))
	}
	return string(s)
}

// FromOrdering builds the tree decomposition induced by a variable
// elimination ordering (the standard construction referenced in
// Proposition 2.9), then removes redundant bags (bags contained in another
// bag are merged into it).
func (h *Hypergraph) FromOrdering(order []int) *Decomposition {
	n := h.N
	// Eliminate variables one at a time; bag of v = {v} ∪ current
	// neighborhood of v.
	edges := append([]bitset.Set(nil), h.Edges...)
	bags := make([]bitset.Set, 0, n)
	for _, v := range order {
		nb := bitset.Singleton(v)
		rest := edges[:0]
		for _, e := range edges {
			if e.Contains(v) {
				nb = nb.Union(e)
			} else {
				rest = append(rest, e)
			}
		}
		edges = append(rest, nb.Remove(v))
		bags = append(bags, nb)
	}
	// Parent of bag_i: the bag of the earliest-eliminated vertex among
	// bag_i \ {v_i} (standard clique-tree construction).
	pos := make([]int, n)
	for i, v := range order {
		pos[v] = i
	}
	parent := make([]int, len(bags))
	for i := range bags {
		rem := bags[i].Remove(order[i])
		parent[i] = -1
		best := -1
		for _, u := range rem.Vars() {
			if best == -1 || pos[u] < best {
				best = pos[u]
			}
		}
		if best != -1 {
			parent[i] = best
		}
	}
	d := &Decomposition{Bags: bags, Parent: parent}
	return d.removeRedundant()
}

// removeRedundant merges bags that are subsets of a neighboring bag,
// producing a non-redundant decomposition with the same coverage.
func (d *Decomposition) removeRedundant() *Decomposition {
	bags := append([]bitset.Set(nil), d.Bags...)
	parent := append([]int(nil), d.Parent...)
	for {
		merged := false
		for i := range bags {
			if bags[i] == 0 {
				continue
			}
			p := parent[i]
			// Merge child into parent if subset (or vice versa).
			if p >= 0 && bags[p] != 0 {
				if bags[i].SubsetOf(bags[p]) {
					reparent(parent, i, p)
					bags[i] = 0
					merged = true
					continue
				}
				if bags[p].SubsetOf(bags[i]) {
					bags[p] = bags[i]
					reparent(parent, i, p)
					bags[i] = 0
					merged = true
					continue
				}
			}
		}
		if !merged {
			break
		}
	}
	// Compact.
	idx := map[int]int{}
	var nb []bitset.Set
	for i, b := range bags {
		if b != 0 {
			idx[i] = len(nb)
			nb = append(nb, b)
		}
	}
	np := make([]int, len(nb))
	for i, b := range bags {
		if b == 0 {
			continue
		}
		p := parent[i]
		for p >= 0 && bags[p] == 0 {
			p = parent[p]
		}
		if p < 0 {
			np[idx[i]] = -1
		} else {
			np[idx[i]] = idx[p]
		}
	}
	return &Decomposition{Bags: nb, Parent: np}
}

func reparent(parent []int, from, to int) {
	for j := range parent {
		if parent[j] == from {
			parent[j] = to
		}
	}
	if parent[from] == to {
		parent[from] = -1
	}
}

// maxOrderings bounds the factorial enumeration in AllDecompositions.
const maxOrderings = 500000

// AllDecompositions enumerates the set TD(H) of Section 2.1.3: tree
// decompositions arising from variable orderings, deduplicated by bag set,
// keeping only the refinement-minimal ones (a decomposition is dropped when
// a strictly finer one exists, i.e. one dominated by it in the sense of the
// paper; dropped decompositions are never preferable under any monotone
// cost, so minimax/maximin widths are unaffected). It checks ctx as the
// enumeration branches and returns ctx.Err() once it is done.
func (h *Hypergraph) AllDecompositions(ctx context.Context) ([]*Decomposition, error) {
	n := h.N
	count := 1
	for i := 2; i <= n; i++ {
		count *= i
		if count > maxOrderings {
			return nil, fmt.Errorf("hypergraph: %d vertices yield too many orderings", n)
		}
	}
	seen := map[string]*Decomposition{}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	var err error
	var rec func(k int)
	rec = func(k int) {
		if err = ctx.Err(); err != nil {
			return
		}
		if k == n {
			d := h.FromOrdering(order)
			seen[d.key()] = d
			return
		}
		for i := k; i < n && err == nil; i++ {
			order[k], order[i] = order[i], order[k]
			rec(k + 1)
			order[k], order[i] = order[i], order[k]
		}
	}
	if rec(0); err != nil {
		return nil, err
	}

	all := make([]*Decomposition, 0, len(seen))
	for _, d := range seen {
		all = append(all, d)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].key() < all[j].key() })

	// Keep only refinement-minimal decompositions: drop d when some other
	// d' ≠ d is dominated by d (every bag of d' fits in a bag of d) but d
	// is not dominated by d'.
	dominatedBy := func(d1, d2 *Decomposition) bool {
		for _, b1 := range d1.Bags {
			ok := false
			for _, b2 := range d2.Bags {
				if b1.SubsetOf(b2) {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}
		return true
	}
	var out []*Decomposition
	for i, d := range all {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		minimal := true
		for j, d2 := range all {
			if i == j {
				continue
			}
			if dominatedBy(d2, d) && !dominatedBy(d, d2) {
				minimal = false
				break
			}
		}
		if minimal {
			out = append(out, d)
		}
	}
	return out, nil
}

// maxTransversals bounds every list MinimalTransversals keeps.
const maxTransversals = 20000

// MinimalTransversals enumerates the inclusion-minimal transversals of a set
// family: the sets of elements (non-negative ints) meeting every member. With
// tree decompositions as the members, each naming its bags by index, these
// are the inclusion-minimal images of the bag-selector maps β of Lemma 7.12,
// the collection B over which the submodular width maximizes.
//
// It is Berge's sequential dualisation: the minimal transversals of the
// members so far, each one that misses the next member extended by every
// element of it, less the extensions that hold a kept set meeting it. A kept
// set is its ascending elements, one per member at most, so memory follows
// the family, not the size of its elements. Each comes out ascending, and the
// list in discovery-path order — for each member the path does not yet meet,
// the position of its first element in the transversal — the order a
// depth-first search over the members' elements first finds them in. It
// fails as soon as a list passes maxTransversals, and checks ctx for each
// extension.
func MinimalTransversals(ctx context.Context, family [][]int) ([][]int, error) {
	sorted := make([][]int, len(family))
	for i, m := range family {
		sorted[i] = slices.Compact(slices.Sorted(slices.Values(m)))
	}
	trs := []keptSet{{}}
	var x []int
	for _, m := range sorted {
		// A kept set inside t ∪ {e} meets m at e alone: alone[j] lists the
		// kept sets meeting m at m[j] alone.
		var next, missed []keptSet
		alone := make([][]keptSet, len(m))
		for _, t := range trs {
			hit, hits := 0, 0
			for _, r := range t.elems {
				if j, ok := slices.BinarySearch(m, r); ok {
					hit, hits = j, hits+1
				}
			}
			if hits == 0 {
				missed = append(missed, t)
				continue
			}
			if hits == 1 {
				alone[hit] = append(alone[hit], t)
			}
			next = append(next, t)
		}
		for j, e := range m {
			for _, t := range missed {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				x = append(append(x[:0], t.elems...), e)
				slices.Sort(x)
				sig := t.sig | 1<<(e%64)
				if slices.ContainsFunc(alone[j], func(k keptSet) bool { return k.sig&^sig == 0 && subset(k.elems, x) }) {
					continue
				}
				if next = append(next, keptSet{slices.Clone(x), sig}); len(next) > maxTransversals {
					return nil, fmt.Errorf("hypergraph: more than %d minimal transversals", maxTransversals)
				}
			}
		}
		trs = next
	}
	type found struct{ path, elems []int }
	fs := make([]found, len(trs))
	for i, t := range trs {
		fs[i].elems = t.elems
		var on []int
		for mi, m := range family {
			if !slices.ContainsFunc(on, func(e int) bool { return has(sorted[mi], e) }) {
				j := slices.IndexFunc(m, func(e int) bool { return has(t.elems, e) })
				on = append(on, m[j])
				fs[i].path = append(fs[i].path, j)
			}
		}
	}
	slices.SortFunc(fs, func(a, b found) int { return slices.Compare(a.path, b.path) })
	out := make([][]int, len(fs))
	for i, f := range fs {
		out[i] = f.elems
	}
	return out, nil
}

// A keptSet is a set MinimalTransversals keeps: its ascending elements, and a
// word with bit e%64 set for each element e, to rule out most non-subsets.
type keptSet struct {
	elems []int
	sig   uint64
}

// has reports whether the ascending s holds e.
func has(s []int, e int) bool {
	_, ok := slices.BinarySearch(s, e)
	return ok
}

// subset reports whether the ascending a lies inside the ascending b.
func subset(a, b []int) bool {
	for _, e := range a {
		for len(b) > 0 && b[0] < e {
			b = b[1:]
		}
		if len(b) == 0 || b[0] != e {
			return false
		}
		b = b[1:]
	}
	return true
}
