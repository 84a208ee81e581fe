// Package query defines the query-language layer of the reproduction:
// hypergraph schemas, full/Boolean conjunctive queries (Eq. 1), disjunctive
// datalog rules (Eq. 4), degree constraints (Definition 1.1/2.10) with their
// guards, and database instances. Cardinality constraints and functional
// dependencies are the special cases N_{Y|∅} and N_{Y|X} = 1 respectively.
package query

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"sort"

	"panda/internal/bitset"
	"panda/internal/hypergraph"
	"panda/internal/relation"
)

// Atom is one body atom R_F(A_F).
type Atom struct {
	Name string
	Vars bitset.Set
	// Args records the variable index at each declared argument position
	// (set by Parse; repeated variables allowed). Nil means the declared
	// order is the ascending variable order of Vars — the convention of
	// programmatically built schemas.
	Args []int
}

// Schema is the shared shape of queries and rules: a variable universe with
// named body atoms; its multi-hypergraph is ([n], {atom vars}).
type Schema struct {
	NumVars  int
	VarNames []string // optional; defaults to A0, A1, …
	Atoms    []Atom
}

// Hypergraph returns the multi-hypergraph of the schema.
func (s *Schema) Hypergraph() *hypergraph.Hypergraph {
	edges := make([]bitset.Set, len(s.Atoms))
	for i, a := range s.Atoms {
		edges[i] = a.Vars
	}
	return hypergraph.New(s.NumVars, edges...)
}

// VarLabel renders a variable set with the schema's names.
func (s *Schema) VarLabel(x bitset.Set) string { return x.Label(s.VarNames) }

// AtomIndex returns the index of the named atom, or −1.
func (s *Schema) AtomIndex(name string) int {
	for i, a := range s.Atoms {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// Conjunctive is a conjunctive query. Free = full variable set for a full
// query (Eq. 1), ∅ for a Boolean query.
type Conjunctive struct {
	Schema
	Free bitset.Set
}

// IsFull reports whether every variable is free.
func (q *Conjunctive) IsFull() bool { return q.Free == bitset.Full(q.NumVars) }

// IsBoolean reports whether no variable is free.
func (q *Conjunctive) IsBoolean() bool { return q.Free == 0 }

// Disjunctive is a disjunctive datalog rule (Eq. 4):
// ⋁_{B∈Targets} T_B(A_B) ← ⋀_F R_F(A_F).
type Disjunctive struct {
	Schema
	Targets []bitset.Set
}

// AsRule views a full conjunctive query as the single-target rule of
// Section 3.1.
func (q *Conjunctive) AsRule() *Disjunctive {
	return &Disjunctive{Schema: q.Schema, Targets: []bitset.Set{bitset.Full(q.NumVars)}}
}

// DegreeConstraint is a triple (X, Y, N_{Y|X}) asserting
// deg(A_Y | A_X) ≤ N, together with the exact rational log₂ N used by the
// information-theoretic machinery. Guard is the index of a guarding atom
// (Definition 2.10), or −1 when the constraint is declared without a guard.
type DegreeConstraint struct {
	X, Y  bitset.Set
	N     int64    // 0 means "unknown count; use LogN only"
	LogN  *big.Rat // exact log₂ bound (may over-approximate log₂ N)
	Guard int
}

// IsCardinality reports whether the constraint is (∅, Y, N).
func (c DegreeConstraint) IsCardinality() bool { return c.X == 0 }

// Validate checks the shape X ⊂ Y and a non-negative log bound.
func (c DegreeConstraint) Validate(n int) error {
	if !c.X.ProperSubsetOf(c.Y) {
		return fmt.Errorf("query: degree constraint needs X ⊂ Y, got X=%v Y=%v", c.X, c.Y)
	}
	if !c.Y.SubsetOf(bitset.Full(n)) {
		return fmt.Errorf("query: constraint set %v outside universe [%d]", c.Y, n)
	}
	if c.LogN == nil || c.LogN.Sign() < 0 {
		return fmt.Errorf("query: constraint needs LogN ≥ 0")
	}
	return nil
}

// Log2 returns an exact-or-over-approximating value for log₂ n, a dyadic
// rational with denominator dividing 2³⁰. Powers of two are exact; other
// values are rounded up by ~1e-9, which only relaxes upper bounds (they
// remain sound). The numerator stays below 2⁵³, so the float64 holds the
// value exactly and LogOf is the same number as a big.Rat.
func Log2(n int64) float64 {
	if n <= 1 {
		return 0
	}
	if n&(n-1) == 0 { // power of two: exact
		return float64(bits.Len64(uint64(n)) - 1)
	}
	const denom = 1 << 30
	v := math.Log2(float64(n))
	return float64(int64(math.Ceil(v*denom))+1) / denom
}

// LogOf returns Log2(n) as an exact rational.
func LogOf(n int64) *big.Rat {
	return new(big.Rat).SetFloat64(Log2(n))
}

// Cardinality builds the cardinality constraint (∅, Y, N) guarded by atom g.
func Cardinality(y bitset.Set, n int64, guard int) DegreeConstraint {
	return DegreeConstraint{X: 0, Y: y, N: n, LogN: LogOf(n), Guard: guard}
}

// FD builds the functional dependency X → Y (degree bound 1) guarded by
// atom g; the constraint set is (X, X∪Y, 1) per Definition 1.1.
func FD(x, y bitset.Set, guard int) DegreeConstraint {
	return DegreeConstraint{X: x, Y: x.Union(y), N: 1, LogN: new(big.Rat), Guard: guard}
}

// Degree builds a general degree constraint (X, Y, N) guarded by atom g.
func Degree(x, y bitset.Set, n int64, guard int) DegreeConstraint {
	return DegreeConstraint{X: x, Y: y, N: n, LogN: LogOf(n), Guard: guard}
}

// Instance binds one relation to each atom of a schema.
type Instance struct {
	Relations []*relation.Relation
}

// NewInstance allocates empty relations matching the schema's atoms.
func NewInstance(s *Schema) *Instance {
	ins := &Instance{Relations: make([]*relation.Relation, len(s.Atoms))}
	for i, a := range s.Atoms {
		ins.Relations[i] = relation.New(a.Name, a.Vars)
	}
	return ins
}

// MaxSize returns N = max over relations of |R_F| (Eq. 27). Tests only:
// core's TestPandaExample18, TestEvalFullTriangle and TestPandaWithFDs check
// the bound against 3/2·log N with it.
func (ins *Instance) MaxSize() int {
	best := 0
	for _, r := range ins.Relations {
		if r.Size() > best {
			best = r.Size()
		}
	}
	return best
}

// CompleteCardinalities returns dcs followed by (∅, F, size(i)), guarded by
// atom i, for every atom i over F that dcs has no cardinality constraint on,
// in atom order. It is the one way a constraint set gets a cardinality per
// atom, as the planning LP needs: from an instance's relation sizes
// (CardinalityConstraints, core.CompleteConstraints) or from an assumed
// default.
func CompleteCardinalities(s *Schema, dcs []DegreeConstraint, size func(atom int) int64) []DegreeConstraint {
	have := map[bitset.Set]bool{}
	for _, c := range dcs {
		if c.IsCardinality() {
			have[c.Y] = true
		}
	}
	out := append([]DegreeConstraint(nil), dcs...)
	for i, a := range s.Atoms {
		if !have[a.Vars] {
			out = append(out, Cardinality(a.Vars, size(i), i))
		}
	}
	return out
}

// CardinalityConstraints derives (∅, F, |R_F|) for every atom from the
// instance, the constraints used when only relation sizes are known.
func (ins *Instance) CardinalityConstraints(s *Schema) []DegreeConstraint {
	return CompleteCardinalities(s, nil, func(i int) int64 { return int64(ins.Relations[i].Size()) })
}

// Check verifies that the instance satisfies every guarded constraint,
// returning a descriptive error for the first violation.
func (ins *Instance) Check(s *Schema, dcs []DegreeConstraint) error {
	for _, c := range dcs {
		if err := c.Validate(s.NumVars); err != nil {
			return err
		}
		if c.Guard < 0 {
			continue
		}
		if c.Guard >= len(ins.Relations) {
			return fmt.Errorf("query: guard %d out of range", c.Guard)
		}
		r := ins.Relations[c.Guard]
		if !c.Y.SubsetOf(r.Attrs()) {
			return fmt.Errorf("query: guard %s (schema %v) cannot guard constraint on %v",
				r.Name, r.Attrs(), c.Y)
		}
		d := int64(r.Degree(c.Y, c.X))
		if c.N > 0 && d > c.N {
			return fmt.Errorf("query: constraint deg(%s|%s) ≤ %d violated: actual %d",
				s.VarLabel(c.Y), s.VarLabel(c.X), c.N, d)
		}
	}
	return nil
}

// FullJoin computes the join of all body atoms — the set of tuples
// satisfying the rule body. Exponential in general; used as ground truth in
// tests and for small examples.
func (ins *Instance) FullJoin() *relation.Relation {
	if len(ins.Relations) == 0 {
		return relation.New("⊤", 0)
	}
	// Join smallest-first for a bit of robustness.
	rels := append([]*relation.Relation(nil), ins.Relations...)
	sort.Slice(rels, func(i, j int) bool { return rels[i].Size() < rels[j].Size() })
	acc := rels[0]
	for _, r := range rels[1:] {
		acc = acc.Join(r)
	}
	return acc
}

// IsModel reports whether the target tables form a model of the rule on
// this instance (Section 1.2): for every tuple t satisfying the body there
// is a target B with Π_B(t) ∈ T_B. Targets missing from the map are treated
// as empty.
func (ins *Instance) IsModel(p *Disjunctive, tables map[bitset.Set]*relation.Relation) (bool, error) {
	join := ins.FullJoin()
	full := bitset.Full(p.NumVars)
	if join.Attrs() != full {
		return false, fmt.Errorf("query: body covers %v, not the full universe %v", join.Attrs(), full)
	}
	for t := range join.All() {
		ok := false
		for _, b := range p.Targets {
			tb, present := tables[b]
			if !present {
				continue
			}
			pos := make([]relation.Value, 0, b.Card())
			for i, v := range full.Vars() {
				if b.Contains(v) {
					pos = append(pos, t[i])
				}
			}
			if tb.Contains(pos) {
				ok = true
				break
			}
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// ModelSize returns max_B |T_B| over the provided tables (Eq. 5's inner max).
func ModelSize(tables map[bitset.Set]*relation.Relation) int {
	best := 0
	for _, t := range tables {
		if t.Size() > best {
			best = t.Size()
		}
	}
	return best
}
