package plan

import (
	"slices"
	"strconv"

	"panda/internal/bitset"
	"panda/internal/flow"
	"panda/internal/hypergraph"
	"panda/internal/query"
)

// The plan cache holds one plan per key: the plan of the canonical input,
// which canonicalInput moves into canonical space through the permutations
// a Signature records, so the plan follows from the key and not from the
// spelling that was seen first. fromCanonical is the one translation back:
// a hit and a miss alike rebind the cached plan into the caller's space.
// Immutable leaves (*big.Rat values, Parent slices, a rule's per-step Zeroed
// masks) are shared; everything carrying variable or atom identity is
// rebuilt.

func invert(perm []int) []int {
	out := make([]int, len(perm))
	for i, p := range perm {
		out[p] = i
	}
	return out
}

func remapVec(v flow.Vec, m []int) flow.Vec {
	if v == nil {
		return nil
	}
	out := make(flow.Vec, len(v))
	for p, r := range v {
		out[flow.Pair{X: mapSet(p.X, m), Y: mapSet(p.Y, m)}] = r
	}
	return out
}

func remapSets(sets []bitset.Set, m []int) []bitset.Set {
	out := make([]bitset.Set, len(sets))
	for i, s := range sets {
		out[i] = mapSet(s, m)
	}
	return out
}

// canonicalInput moves a planner input into the canonical space of sig:
// atom j is the caller's atom AtomPerm[j], named R<j>, constraint k is the
// caller's constraint ConsPerm[k], and the heads are sorted as the key sorts
// them. The planner plans this input, so the plan a key names follows from
// the key alone.
func canonicalInput(sig *Signature, s *query.Schema, heads []bitset.Set, cons []query.DegreeConstraint) (*query.Schema, []bitset.Set, []query.DegreeConstraint) {
	m, invAtom := sig.VarPerm, invert(sig.AtomPerm)
	cs := &query.Schema{NumVars: s.NumVars, Atoms: make([]query.Atom, len(s.Atoms))}
	for j, ci := range sig.AtomPerm {
		cs.Atoms[j] = query.Atom{Name: "R" + strconv.Itoa(j), Vars: mapSet(s.Atoms[ci].Vars, m)}
	}
	ch := remapSets(heads, m)
	slices.Sort(ch)
	cc := make([]query.DegreeConstraint, len(cons))
	for k, ci := range sig.ConsPerm {
		c := cons[ci]
		c.X, c.Y, c.Guard = mapSet(c.X, m), mapSet(c.Y, m), invAtom[c.Guard]
		cc[k] = c
	}
	return cs, ch, cc
}

// fromCanonical rewrites a canonical-space plan into the caller space of
// sig, adopting the caller's schema (atom names and order, variable names).
// The fields that index Bags and TDs rather than variables are shared.
func (p *Plan) fromCanonical(sig *Signature, s *query.Schema) *Plan {
	m := invert(sig.VarPerm)
	out := &Plan{
		Mode:         p.Mode,
		Key:          p.Key,
		Schema:       copySchema(s),
		Free:         mapSet(p.Free, m),
		Cons:         make([]query.DegreeConstraint, len(p.Cons)),
		Bags:         remapSets(p.Bags, m),
		TDs:          make([]*hypergraph.Decomposition, len(p.TDs)),
		TDBags:       p.TDBags,
		Chosen:       p.Chosen,
		Transversals: p.Transversals,
		Rules:        make([]*PreparedRule, len(p.Rules)),
		Width:        p.Width,
	}
	for k, c := range p.Cons {
		c.X, c.Y, c.Guard = mapSet(c.X, m), mapSet(c.Y, m), sig.AtomPerm[c.Guard]
		out.Cons[k] = c
	}
	for i, d := range p.TDs {
		out.TDs[i] = &hypergraph.Decomposition{Bags: remapSets(d.Bags, m), Parent: d.Parent}
	}
	for i, r := range p.Rules {
		seq := make(flow.ProofSequence, len(r.Seq))
		for j, st := range r.Seq {
			st.A, st.B = mapSet(st.A, m), mapSet(st.B, m)
			seq[j] = st
		}
		out.Rules[i] = &PreparedRule{
			Targets: remapSets(r.Targets, m),
			Trivial: r.Trivial,
			Bound:   r.Bound,
			Lambda:  remapVec(r.Lambda, m),
			Delta:   remapVec(r.Delta, m),
			Seq:     seq,
			Zeroed:  r.Zeroed,
		}
	}
	return out
}
