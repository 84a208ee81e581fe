package query

import (
	"math"
	"math/big"
	"testing"

	"panda/internal/bitset"
	"panda/internal/relation"
)

// fourCycleSchema builds the paper's Example 1.2 query shape.
func fourCycleSchema() *Schema {
	return &Schema{
		NumVars:  4,
		VarNames: []string{"A1", "A2", "A3", "A4"},
		Atoms: []Atom{
			{Name: "R12", Vars: bitset.Of(0, 1)},
			{Name: "R23", Vars: bitset.Of(1, 2)},
			{Name: "R34", Vars: bitset.Of(2, 3)},
			{Name: "R41", Vars: bitset.Of(3, 0)},
		},
	}
}

func TestHypergraph(t *testing.T) {
	s := fourCycleSchema()
	h := s.Hypergraph()
	if h.N != 4 || len(h.Edges) != 4 {
		t.Fatalf("hypergraph %+v", h)
	}
}

func TestLogOf(t *testing.T) {
	if LogOf(1).Sign() != 0 || LogOf(0).Sign() != 0 {
		t.Fatal("log of 0/1 must be 0")
	}
	if LogOf(8).Cmp(big.NewRat(3, 1)) != 0 {
		t.Fatalf("log2 8 = %v, want exactly 3", LogOf(8))
	}
	if LogOf(1024).Cmp(big.NewRat(10, 1)) != 0 {
		t.Fatalf("log2 1024 = %v, want exactly 10", LogOf(1024))
	}
	// Non-powers are over-approximated: 2^LogOf(n) ≥ n, and within 1e-6.
	l := LogOf(1000)
	lo, hi := big.NewRat(9965784, 1000000), big.NewRat(9965790, 1000000)
	if l.Cmp(lo) < 0 || l.Cmp(hi) > 0 {
		t.Fatalf("log2 1000 = %v, want ≈ 9.9657843", l)
	}
}

// TestLogOfIsTheRationalFormula holds LogOf, now the float64 Log2 lifted to a
// big.Rat, to the rational it was built as before: ⌈log₂n·2³⁰⌉+1 over 2³⁰,
// exact for powers of two. The two must agree to the bit — plan bytes and
// signature keys print these rationals.
func TestLogOfIsTheRationalFormula(t *testing.T) {
	ref := func(n int64) *big.Rat {
		if n <= 1 {
			return new(big.Rat)
		}
		if n&(n-1) == 0 {
			e := int64(0)
			for m := n; m > 1; m >>= 1 {
				e++
			}
			return big.NewRat(e, 1)
		}
		const denom = 1 << 30
		return big.NewRat(int64(math.Ceil(math.Log2(float64(n))*denom))+1, denom)
	}
	ns := []int64{-1, 0, 1, 2, 3, 5, 7, 100, 1000, 1 << 20, 1_000_000_000, math.MaxInt64}
	for k := 1; k < 63; k++ {
		ns = append(ns, 1<<k-1, 1<<k, 1<<k+1)
	}
	for _, n := range ns {
		got, want := LogOf(n), ref(n)
		if got.Cmp(want) != 0 || got.RatString() != want.RatString() {
			t.Fatalf("LogOf(%d) = %s, want %s", n, got.RatString(), want.RatString())
		}
		if f, exact := want.Float64(); !exact || f != Log2(n) {
			t.Fatalf("Log2(%d) = %v, want %s exactly", n, Log2(n), want.RatString())
		}
	}
}

func TestConstraintConstructors(t *testing.T) {
	c := Cardinality(bitset.Of(0, 1), 100, 0)
	if !c.IsCardinality() || c.LogN.Sign() == 0 {
		t.Fatal("cardinality flags wrong")
	}
	f := FD(bitset.Of(0), bitset.Of(1), 0)
	if f.LogN.Sign() != 0 || f.IsCardinality() {
		t.Fatal("fd flags wrong")
	}
	if f.Y != bitset.Of(0, 1) {
		t.Fatalf("FD constraint set Y = %v, want X∪Y", f.Y)
	}
	if err := f.Validate(4); err != nil {
		t.Fatal(err)
	}
	bad := DegreeConstraint{X: bitset.Of(0, 1), Y: bitset.Of(0, 1), LogN: new(big.Rat)}
	if err := bad.Validate(4); err == nil {
		t.Fatal("X = Y should not validate")
	}
}

func TestInstanceCheck(t *testing.T) {
	s := fourCycleSchema()
	ins := NewInstance(s)
	for i := 0; i < 5; i++ {
		ins.Relations[0].Insert([]relation.Value{int64(i), 0})
	}
	ok := []DegreeConstraint{Cardinality(bitset.Of(0, 1), 5, 0)}
	if err := ins.Check(s, ok); err != nil {
		t.Fatalf("Check: %v", err)
	}
	tooSmall := []DegreeConstraint{Cardinality(bitset.Of(0, 1), 4, 0)}
	if err := ins.Check(s, tooSmall); err == nil {
		t.Fatal("violated cardinality constraint not detected")
	}
	// FD A2 → A1 is violated (several A1 values share A2 = 0).
	fd := []DegreeConstraint{FD(bitset.Of(1), bitset.Of(0), 0)}
	if err := ins.Check(s, fd); err == nil {
		t.Fatal("violated FD not detected")
	}
}

func TestFullJoinAndModel(t *testing.T) {
	s := &Schema{NumVars: 3, Atoms: []Atom{
		{Name: "R", Vars: bitset.Of(0, 1)},
		{Name: "S", Vars: bitset.Of(1, 2)},
	}}
	ins := NewInstance(s)
	ins.Relations[0].Insert([]relation.Value{1, 2})
	ins.Relations[1].Insert([]relation.Value{2, 3})
	ins.Relations[1].Insert([]relation.Value{2, 4})
	join := ins.FullJoin()
	if join.Size() != 2 {
		t.Fatalf("join size %d", join.Size())
	}
	rule := &Disjunctive{Schema: *s, Targets: []bitset.Set{bitset.Of(0, 1), bitset.Of(1, 2)}}
	// A model covering via the second target only.
	tb := relation.New("T12", bitset.Of(1, 2))
	tb.Insert([]relation.Value{2, 3})
	tb.Insert([]relation.Value{2, 4})
	ok, err := ins.IsModel(rule, map[bitset.Set]*relation.Relation{bitset.Of(1, 2): tb})
	if err != nil || !ok {
		t.Fatalf("IsModel = %v, %v", ok, err)
	}
	// Dropping one tuple breaks the model.
	tb2 := relation.New("T12", bitset.Of(1, 2))
	tb2.Insert([]relation.Value{2, 3})
	ok, err = ins.IsModel(rule, map[bitset.Set]*relation.Relation{bitset.Of(1, 2): tb2})
	if err != nil || ok {
		t.Fatalf("partial table accepted as model")
	}
}

func TestModelSize(t *testing.T) {
	a := relation.New("A", bitset.Of(0))
	a.Insert([]relation.Value{1})
	a.Insert([]relation.Value{2})
	b := relation.New("B", bitset.Of(1))
	b.Insert([]relation.Value{1})
	sz := ModelSize(map[bitset.Set]*relation.Relation{bitset.Of(0): a, bitset.Of(1): b})
	if sz != 2 {
		t.Fatalf("ModelSize = %d", sz)
	}
}

func TestParseConjunctive(t *testing.T) {
	src := `
# the 4-cycle
Q(A1,A2,A3,A4) :- R12(A1,A2), R23(A2,A3), R34(A3,A4), R41(A4,A1).
|R12| <= 100
deg(R12: A2 | A1) <= 5
fd(R23: A2 -> A3)
`
	res, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Conj == nil || !res.Conj.IsFull() {
		t.Fatalf("expected full CQ, got %+v", res.Conj)
	}
	if len(res.Rule.Schema.Atoms) != 4 || res.Rule.Schema.NumVars != 4 {
		t.Fatalf("schema %+v", res.Rule.Schema)
	}
	if len(res.Constraints) != 3 {
		t.Fatalf("constraints %+v", res.Constraints)
	}
	c := res.Constraints[1]
	if c.X != bitset.Of(0) || c.Y != bitset.Of(0, 1) || c.N != 5 {
		t.Fatalf("deg constraint %+v", c)
	}
	if res.Constraints[2].LogN.Sign() != 0 {
		t.Fatalf("fd constraint %+v", res.Constraints[2])
	}
}

func TestParseBoolean(t *testing.T) {
	res, err := Parse(`Q() :- R(A,B), S(B,C).`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Conj == nil || !res.Conj.IsBoolean() {
		t.Fatalf("expected Boolean query")
	}
	if len(res.Rule.Targets) != 1 || res.Rule.Targets[0] != 0 {
		t.Fatalf("Boolean rule targets = %v", res.Rule.Targets)
	}
}

func TestParseDisjunctive(t *testing.T) {
	res, err := Parse(`T1(A1,A2,A3) v T2(A2,A3,A4) :- R12(A1,A2), R23(A2,A3), R34(A3,A4).`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Conj != nil {
		t.Fatal("disjunctive head should not produce a CQ")
	}
	if len(res.Rule.Targets) != 2 {
		t.Fatalf("targets %v", res.Rule.Targets)
	}
	if res.Rule.Targets[0] != bitset.Of(0, 1, 2) || res.Rule.Targets[1] != bitset.Of(1, 2, 3) {
		t.Fatalf("targets %v", res.Rule.Targets)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`nonsense`,
		`|R| <= 5`,                     // constraint before rule
		`Q(A) :- R(A). junk trailing.`, // second line unparsable
		`Q(A) :- R(A).` + "\n" + `|Missing| <= 5`,
		`Q(A) :- R().`, // body atom without variables
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}
