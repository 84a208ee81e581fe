package flow

import (
	"math/big"

	"panda/internal/bitset"
	"panda/internal/lp"
)

// Elemental is the part every LP over Γn shares: the elemental Shannon
// inequalities on [n], which generate the polymatroid cone. It has one
// column per elemental submodularity σ_{S∪i,S∪j} (i < j outside S) followed
// by one per elemental monotonicity µ_{S,S∪i}, and knows the ±1 each column
// contributes to inflow(Z) (Eq. 74) — +1 at I∩J and I∪J, −1 at I and J for
// a σ; +1 at X, −1 at Y for a µ — stored by row, since the LPs have one row
// per subset Z. A builder adds its own columns and right-hand sides around
// it; the column order (S ascending, then i, then j) is part of what keeps
// plans reproducible, because Bland's rule breaks ties by column index.
//
// A skeleton is a few kB even at the planner's widest queries and is rebuilt
// per LP: nothing about it stays live after a solve.
type Elemental struct {
	sigs  []sigVar
	mus   []muVar
	start []int32 // terms[start[z]:start[z+1]] is row z
	terms []elemTerm
}

type sigVar struct {
	s    bitset.Set
	i, j uint8
}

type muVar struct {
	x bitset.Set
	i uint8
}

type elemTerm struct {
	col  int32
	coef int8
}

// NewElemental enumerates the elemental inequalities on [n].
func NewElemental(n int) *Elemental {
	e := &Elemental{}
	full := bitset.Full(n)
	for s := bitset.Set(0); s <= full; s++ {
		for i := 0; i < n; i++ {
			if s.Contains(i) {
				continue
			}
			e.mus = append(e.mus, muVar{x: s, i: uint8(i)})
			for j := i + 1; j < n; j++ {
				if !s.Contains(j) {
					e.sigs = append(e.sigs, sigVar{s: s, i: uint8(i), j: uint8(j)})
				}
			}
		}
	}
	// Two passes over the columns: count each row's terms, then place them.
	each := func(emit func(z bitset.Set, col int, coef int8)) {
		for v := range e.sigs {
			p := e.sigma(v)
			emit(p.I.Intersect(p.J), v, 1)
			emit(p.I.Union(p.J), v, 1)
			emit(p.I, v, -1)
			emit(p.J, v, -1)
		}
		for v := range e.mus {
			p := e.mu(v)
			emit(p.X, len(e.sigs)+v, 1)
			emit(p.Y, len(e.sigs)+v, -1)
		}
	}
	e.start = make([]int32, int(full)+2)
	each(func(z bitset.Set, _ int, _ int8) { e.start[z+1]++ })
	e.start[1] = 0 // h(∅) = 0: the ∅ row does not exist
	for z := range e.start[1:] {
		e.start[z+1] += e.start[z]
	}
	e.terms = make([]elemTerm, e.start[len(e.start)-1])
	next := append([]int32(nil), e.start...)
	each(func(z bitset.Set, col int, coef int8) {
		if z != 0 {
			e.terms[next[z]] = elemTerm{int32(col), coef}
			next[z]++
		}
	})
	return e
}

// NumCols is the number of σ and µ columns.
func (e *Elemental) NumCols() int { return len(e.sigs) + len(e.mus) }

// sigma is the (I, J) of σ column v.
func (e *Elemental) sigma(v int) SigPair {
	sv := e.sigs[v]
	return SigPair{I: sv.s.Add(int(sv.i)), J: sv.s.Add(int(sv.j))} // i < j: canonical
}

// mu is the (X, Y) of µ column v.
func (e *Elemental) mu(v int) Pair {
	mv := e.mus[v]
	return Pair{X: mv.x, Y: mv.x.Add(int(mv.i))}
}

// AppendRow appends row Z ≠ ∅ of the skeleton to dst, as sign·(±1) on columns
// off, off+1, …: with sign = 1 the σ/µ part of inflow(Z), with sign = −1 the
// coefficient of h(Z) in the elemental inequalities written as "… ≥ 0".
func (e *Elemental) AppendRow(dst []lp.Term, z bitset.Set, off int, sign int64) []lp.Term {
	for _, t := range e.terms[e.start[z]:e.start[z+1]] {
		dst = append(dst, lp.Term{Var: int32(off) + t.col, Coef: sign * int64(t.coef)})
	}
	return dst
}

// witness reads the (σ, µ) of an LP solution whose σ/µ columns are x, scaled
// by scale > 0.
func (e *Elemental) witness(x []*big.Rat, scale *big.Rat) *Witness {
	w := NewWitness()
	for v := range e.sigs {
		if x[v].Sign() > 0 {
			w.Sigma[e.sigma(v)] = new(big.Rat).Mul(x[v], scale)
		}
	}
	for v, xv := range x[len(e.sigs):e.NumCols()] {
		if xv.Sign() > 0 {
			w.Mu[e.mu(v)] = new(big.Rat).Mul(xv, scale)
		}
	}
	return w
}
