package plan

import (
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"panda/internal/bitset"
	"panda/internal/query"
)

// The canonicaliser as it stood at commit 1cfe0d2, before the permutation
// search stopped formatting strings: one Sprintf-built key per candidate
// permutation, compared as Go strings. It is kept verbatim (names prefixed
// ref, its helpers copied so nothing here follows a later edit of
// signature.go) as the reference TestCanonicalizeMatchesReference holds the
// production search to — Key, VarPerm, AtomPerm and ConsPerm must stay
// byte-identical, because persisted plans, shape digests and the goldens are
// keyed by them.

const refPermLimit = 5040 // 7!

// refWriteHeader starts an encoding: mode, variable count, the head section —
// one mask for a conjunctive query's free set, the comma-separated target
// masks for a rule — and the opening of the atom section.
func refWriteHeader(sb *strings.Builder, mode Mode, n int, heads []bitset.Set) {
	fmt.Fprintf(sb, "m%d;n%d;F", int(mode), n)
	for i, h := range heads {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(sb, "%08x", uint32(h))
	}
	sb.WriteString(";A")
}

func refCanonicalize(s *query.Schema, heads []bitset.Set, cons []query.DegreeConstraint, mode Mode) (*Signature, error) {
	n := s.NumVars
	if n > 32 {
		return nil, fmt.Errorf("plan: %d variables exceed the bitset universe", n)
	}
	classes := refVarClasses(s, heads, cons)
	best := ""
	var bestSig *Signature
	tryPerm := func(perm []int) {
		sig := refEncode(s, heads, cons, mode, perm)
		if bestSig == nil || sig.Key < best {
			best, bestSig = sig.Key, sig
		}
	}
	if refCountPerms(classes) > refPermLimit {
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
		refForEachClassPerm(classes, n, tryPerm)
	}
	return bestSig, nil
}

// refVarClasses partitions variables into equivalence classes by an iterated
// structural invariant (head membership, atom arities, constraint roles,
// then Weisfeiler–Lehman-style neighbour refinement), ordered by invariant.
func refVarClasses(s *query.Schema, heads []bitset.Set, cons []query.DegreeConstraint) [][]int {
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
		if refClassCount(next) != refClassCount(inv) {
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

func refClassCount(inv []string) int {
	seen := map[string]bool{}
	for _, s := range inv {
		seen[s] = true
	}
	return len(seen)
}

func refCountPerms(classes [][]int) int {
	total := 1
	for _, cl := range classes {
		f := 1
		for i := 2; i <= len(cl); i++ {
			f *= i
			if total*f > 4*refPermLimit {
				return 4 * refPermLimit
			}
		}
		total *= f
	}
	return total
}

// refForEachClassPerm enumerates every variable ordering that assigns
// consecutive canonical positions to each class, permuting within classes.
func refForEachClassPerm(classes [][]int, n int, fn func(perm []int)) {
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

// refMapSet renames every element of s through perm.
func refMapSet(s bitset.Set, perm []int) bitset.Set {
	var out bitset.Set
	for _, v := range s.Vars() {
		out = out.Add(perm[v])
	}
	return out
}

// refEncode builds the deterministic canonical encoding of the query under a
// fixed variable permutation, together with the induced atom and constraint
// orders.
func refEncode(s *query.Schema, heads []bitset.Set, cons []query.DegreeConstraint, mode Mode, perm []int) *Signature {
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
					fmt.Sprintf("%08x/%08x/%s", uint32(refMapSet(c.X, perm)), uint32(refMapSet(c.Y, perm)), c.LogN.RatString()))
			}
		}
		sort.Strings(guarded)
		atoms[i] = atomKey{idx: i, mask: refMapSet(a.Vars, perm), tie: strings.Join(guarded, "+")}
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
			uint32(refMapSet(c.X, perm)), uint32(refMapSet(c.Y, perm)), c.LogN.RatString(), g)}
	}
	sort.SliceStable(cks, func(a, b int) bool { return cks[a].enc < cks[b].enc })
	consPerm := make([]int, len(cks))
	canonHeads := refRemapSets(heads, perm)
	slices.Sort(canonHeads)
	var sb strings.Builder
	refWriteHeader(&sb, mode, s.NumVars, canonHeads)
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

func refRemapSets(sets []bitset.Set, m []int) []bitset.Set {
	out := make([]bitset.Set, len(sets))
	for i, s := range sets {
		out[i] = refMapSet(s, m)
	}
	return out
}

// sigInput is one argument list of canonicalize.
type sigInput struct {
	s     *query.Schema
	heads []bitset.Set
	cons  []query.DegreeConstraint
	mode  Mode
}

// randomSigInput draws a hypergraph over at most maxVars variables with
// minAtoms..maxAtoms atoms of arity 1–3, a third of them repeating an earlier
// atom's variable set (the guarded-constraint tie-break), cardinalities from
// a pool with repeats, up to three proper degree constraints with fractional
// log bounds, 1–3 targets under ModeRule and one free set otherwise.
func randomSigInput(rng *rand.Rand, maxVars, minAtoms, maxAtoms int) sigInput {
	n := 1 + rng.Intn(maxVars)
	subset := func(of bitset.Set, size int) bitset.Set {
		vars := of.Vars()
		rng.Shuffle(len(vars), func(i, j int) { vars[i], vars[j] = vars[j], vars[i] })
		return bitset.Of(vars[:min(size, len(vars))]...)
	}
	in := sigInput{s: &query.Schema{NumVars: n}}
	for i, atoms := 0, minAtoms+rng.Intn(maxAtoms-minAtoms+1); i < atoms; i++ {
		vars := subset(bitset.Full(n), 1+rng.Intn(3))
		if i > 0 && rng.Intn(3) == 0 {
			vars = in.s.Atoms[rng.Intn(i)].Vars
		}
		in.s.Atoms = append(in.s.Atoms, query.Atom{Name: fmt.Sprintf("R%d", i), Vars: vars})
	}
	cards := []int64{8, 37, 100, 100, 1000}
	for i, a := range in.s.Atoms {
		if rng.Intn(5) > 0 {
			in.cons = append(in.cons, query.Cardinality(a.Vars, cards[rng.Intn(len(cards))], i))
		}
	}
	logNs := []*big.Rat{big.NewRat(3, 2), big.NewRat(7, 3), big.NewRat(21, 2), big.NewRat(1, 2), big.NewRat(10, 1)}
	for d := rng.Intn(4); d > 0; d-- {
		g := rng.Intn(len(in.s.Atoms))
		if in.s.Atoms[g].Vars.Card() < 2 {
			continue
		}
		y := subset(in.s.Atoms[g].Vars, 2+rng.Intn(2))
		x := subset(y, 1+rng.Intn(y.Card()-1))
		in.cons = append(in.cons, query.DegreeConstraint{X: x, Y: y, LogN: logNs[rng.Intn(len(logNs))], Guard: g})
	}
	rng.Shuffle(len(in.cons), func(i, j int) { in.cons[i], in.cons[j] = in.cons[j], in.cons[i] })
	in.mode = []Mode{ModeRule, ModeFull, ModeFhtw, ModeSubw}[rng.Intn(4)]
	heads := 1
	if in.mode == ModeRule {
		heads += rng.Intn(3)
	}
	for ; heads > 0; heads-- {
		in.heads = append(in.heads, subset(bitset.Full(n), rng.Intn(n+1)))
	}
	return in
}

// fixedSigInputs are shapes the generator does not reach: 11 and more atoms
// with a symmetry left to search, so that guard indexes reach two digits
// where their order as text is not their order as numbers, and an 8-cycle,
// whose 8! orderings take the permLimit fallback.
func fixedSigInputs() map[string]sigInput {
	full := func(s *query.Schema, cons []query.DegreeConstraint) sigInput {
		return sigInput{s: s, heads: []bitset.Set{bitset.Full(s.NumVars)}, cons: cons, mode: ModeSubw}
	}
	out := map[string]sigInput{}

	// A path of 11 atoms, cardinalities mirrored end to end so the reversal
	// stays an automorphism, plus an atom repeated under another cardinality.
	path := &query.Schema{NumVars: 12}
	var pathCons []query.DegreeConstraint
	for i := 0; i < 11; i++ {
		path.Atoms = append(path.Atoms, query.Atom{Name: fmt.Sprintf("P%d", i), Vars: bitset.Of(i, i+1)})
		pathCons = append(pathCons, query.Cardinality(bitset.Of(i, i+1), []int64{100, 8, 37}[min(i, 10-i)%3], i))
	}
	out["path-11"] = full(path, pathCons)
	twin := &query.Schema{NumVars: 12, Atoms: append(slices.Clone(path.Atoms), query.Atom{Name: "P5b", Vars: bitset.Of(5, 6)})}
	out["path-11-twin-atom"] = full(twin, append(slices.Clone(pathCons), query.Cardinality(bitset.Of(5, 6), 1000, 11)))

	// A 6-cycle with a unary atom on every vertex: 12 atoms, one class of six
	// variables (720 orderings). Cardinalities sit on two opposite edges only,
	// so rotations give equal mask prefixes and different guard positions.
	wheel := &query.Schema{NumVars: 6}
	for i := 0; i < 6; i++ {
		wheel.Atoms = append(wheel.Atoms,
			query.Atom{Name: fmt.Sprintf("E%d", i), Vars: bitset.Of(i, (i+1)%6)},
			query.Atom{Name: fmt.Sprintf("U%d", i), Vars: bitset.Of(i)})
	}
	out["cycle-6-unary"] = full(wheel, []query.DegreeConstraint{
		query.Cardinality(bitset.Of(0, 1), 100, 0), query.Cardinality(bitset.Of(3, 4), 100, 6)})

	// 13 ternary atoms T_i(v, w, u_i) around a hub pair, |T_i| = 2^(10+i)
	// except that T_9 and T_10 agree, so u_9 and u_10 share a class and land
	// on positions 9 and 10. The degree constraint on the hub is guarded by
	// T_9 alone: the class's two orderings give keys that differ only in
	// "g9" against "g10", and the second variant's two hub constraints differ
	// only in that text — where 10 sorts first.
	star := &query.Schema{NumVars: 15}
	var starCons []query.DegreeConstraint
	for i := 0; i < 13; i++ {
		vars := bitset.Of(0, 1, 2+i)
		star.Atoms = append(star.Atoms, query.Atom{Name: fmt.Sprintf("T%d", i), Vars: vars})
		logN := int64(10 + i)
		if i == 10 {
			logN--
		}
		starCons = append(starCons, query.DegreeConstraint{Y: vars, LogN: big.NewRat(logN, 1), Guard: i})
	}
	hub := query.DegreeConstraint{X: bitset.Of(0), Y: bitset.Of(0, 1), LogN: big.NewRat(3, 2), Guard: 9}
	out["star-13"] = full(star, append(slices.Clone(starCons), hub))
	hub10 := hub
	hub10.Guard = 10
	out["star-13-two-guards"] = full(star, append(slices.Clone(starCons), hub, hub10))

	// One key a proper prefix of the other. Twin variables x, x' (the only
	// free ones, so they take the top two positions) each sit in eight atoms
	// {x, w_i, z} and in A = {h1, h2, x}, A' = {h1, h2, x'}. The log bounds
	// put w_1 below h2 and w_2…w_8 above it, so A is atom 1 and A' atom 10
	// under one ordering of the twins and the reverse under the other. The
	// one constraint with a non-empty X sorts last and is guarded by A: the
	// two keys end in "g1" and in "g10".
	const z, h1, h2, w1, x0 = 0, 1, 2, 3, 11
	twins := &query.Schema{NumVars: 13}
	var twinCons []query.DegreeConstraint
	for i := 0; i < 8; i++ {
		logN := big.NewRat(int64(2+i), 1)
		if i == 0 {
			logN.SetInt64(1) // 1, 3, 4, …, 9: h2's 2 falls after the first
		}
		for _, x := range []int{x0, x0 + 1} {
			vars := bitset.Of(x, w1+i, z)
			twinCons = append(twinCons, query.DegreeConstraint{Y: vars, LogN: logN, Guard: len(twins.Atoms)})
			twins.Atoms = append(twins.Atoms, query.Atom{Name: fmt.Sprintf("W%d_%d", i, x), Vars: vars})
		}
	}
	twins.Atoms = append(twins.Atoms,
		query.Atom{Name: "A", Vars: bitset.Of(h1, h2, x0)}, query.Atom{Name: "A'", Vars: bitset.Of(h1, h2, x0+1)})
	twinCons = append(twinCons, query.DegreeConstraint{X: bitset.Of(h1), Y: bitset.Of(h1, h2), LogN: big.NewRat(2, 1), Guard: 16})
	out["twin-atoms-g1-g10"] = sigInput{s: twins, heads: []bitset.Set{bitset.Of(x0, x0+1)}, cons: twinCons, mode: ModeFhtw}

	q8, c8 := cycleQuery(8, []int{5, 2, 7, 0, 3, 6, 1, 4}, []int{3, 0, 6, 1, 7, 2, 5, 4}, 64)
	out["cycle-8-fallback"] = sigInput{s: &q8.Schema, heads: []bitset.Set{q8.Free}, cons: c8, mode: ModeFhtw}
	return out
}

// TestCanonicalizeMatchesReference: the byte-buffer search returns exactly
// the reference's signature — same key, same three permutations — on
// generated and fixed inputs.
func TestCanonicalizeMatchesReference(t *testing.T) {
	check := func(name string, in sigInput) {
		t.Helper()
		want, err := refCanonicalize(in.s, in.heads, in.cons, in.mode)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		got, err := canonicalize(in.s, in.heads, in.cons, in.mode)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Key != want.Key || got.Mode != want.Mode || !slices.Equal(got.VarPerm, want.VarPerm) ||
			!slices.Equal(got.AtomPerm, want.AtomPerm) || !slices.Equal(got.ConsPerm, want.ConsPerm) {
			t.Fatalf("%s: atoms %v heads %v cons %v mode %v\n got %+v\nwant %+v", name, in.s.Atoms, in.heads, in.cons, in.mode, got, want)
		}
	}
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 5000; i++ {
		check(fmt.Sprintf("small #%d", i), randomSigInput(rng, 6, 1, 5))
	}
	for i := 0; i < 400; i++ {
		check(fmt.Sprintf("wide #%d", i), randomSigInput(rng, 6, 11, 13))
	}
	for name, in := range fixedSigInputs() {
		check(name, in)
	}
}
