package plan

import (
	"fmt"

	"panda/internal/bitset"
	"panda/internal/flow"
	"panda/internal/hypergraph"
	"panda/internal/query"
)

// The plan cache stores plans in canonical variable space so that a query
// that is a renaming of a cached one can reuse its plan. toCanonical and
// fromCanonical translate a Plan across the permutations recorded in a
// Signature. Immutable leaves (*big.Rat values, Parent slices, a rule's
// per-step Zeroed masks) are shared; everything carrying variable or atom
// identity is rebuilt.

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

func remapSeq(seq flow.ProofSequence, m []int) flow.ProofSequence {
	out := make(flow.ProofSequence, len(seq))
	for i, s := range seq {
		s.A, s.B = mapSet(s.A, m), mapSet(s.B, m)
		out[i] = s
	}
	return out
}

func remapRule(pr *PreparedRule, m []int) *PreparedRule {
	targets := make([]bitset.Set, len(pr.Targets))
	for i, t := range pr.Targets {
		targets[i] = mapSet(t, m)
	}
	return &PreparedRule{
		Targets: targets,
		Trivial: pr.Trivial,
		Bound:   pr.Bound,
		Lambda:  remapVec(pr.Lambda, m),
		Delta:   remapVec(pr.Delta, m),
		Seq:     remapSeq(pr.Seq, m),
		Zeroed:  pr.Zeroed,
	}
}

func remapSets(sets []bitset.Set, m []int) []bitset.Set {
	out := make([]bitset.Set, len(sets))
	for i, s := range sets {
		out[i] = mapSet(s, m)
	}
	return out
}

func remapTDs(tds []*hypergraph.Decomposition, m []int) []*hypergraph.Decomposition {
	out := make([]*hypergraph.Decomposition, len(tds))
	for i, d := range tds {
		out[i] = &hypergraph.Decomposition{Bags: remapSets(d.Bags, m), Parent: d.Parent}
	}
	return out
}

// shared copies the index-structured fields that are invariant under
// renaming (they index into Bags/TDs, not into the variable universe).
func (p *Plan) shell() *Plan {
	return &Plan{
		Mode:         p.Mode,
		Key:          p.Key,
		Chosen:       p.Chosen,
		TDBags:       p.TDBags,
		Transversals: p.Transversals,
		Width:        p.Width,
	}
}

// toCanonical rewrites a caller-space plan into the canonical space of sig.
func (p *Plan) toCanonical(sig *Signature) *Plan {
	m := sig.VarPerm
	invAtom := invert(sig.AtomPerm)
	out := p.shell()
	atoms := make([]query.Atom, len(p.Schema.Atoms))
	for j, ci := range sig.AtomPerm {
		atoms[j] = query.Atom{Name: fmt.Sprintf("R%d", j), Vars: mapSet(p.Schema.Atoms[ci].Vars, m)}
	}
	out.Schema = query.Schema{NumVars: p.Schema.NumVars, Atoms: atoms}
	out.Free = mapSet(p.Free, m)
	out.Cons = make([]query.DegreeConstraint, len(p.Cons))
	for k, ci := range sig.ConsPerm {
		c := p.Cons[ci]
		c.X, c.Y = mapSet(c.X, m), mapSet(c.Y, m)
		if c.Guard >= 0 {
			c.Guard = invAtom[c.Guard]
		}
		out.Cons[k] = c
	}
	out.Bags = remapSets(p.Bags, m)
	out.TDs = remapTDs(p.TDs, m)
	out.Rules = make([]*PreparedRule, len(p.Rules))
	for i, r := range p.Rules {
		out.Rules[i] = remapRule(r, m)
	}
	return out
}

// fromCanonical rewrites a canonical-space plan into the caller space of
// sig, adopting the caller's schema (atom names and order, variable names).
func (p *Plan) fromCanonical(sig *Signature, s *query.Schema) *Plan {
	m := invert(sig.VarPerm)
	out := p.shell()
	out.Schema = copySchema(s)
	out.Free = mapSet(p.Free, m)
	out.Cons = make([]query.DegreeConstraint, len(p.Cons))
	for k, c := range p.Cons {
		c.X, c.Y = mapSet(c.X, m), mapSet(c.Y, m)
		if c.Guard >= 0 {
			c.Guard = sig.AtomPerm[c.Guard]
		}
		out.Cons[k] = c
	}
	out.Bags = remapSets(p.Bags, m)
	out.TDs = remapTDs(p.TDs, m)
	out.Rules = make([]*PreparedRule, len(p.Rules))
	for i, r := range p.Rules {
		out.Rules[i] = remapRule(r, m)
	}
	return out
}
