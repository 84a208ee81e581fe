package workload

import (
	"math/rand"
	"testing"

	"panda/internal/bitset"
	"panda/internal/query"
)

func TestCycleWorstCaseShape(t *testing.T) {
	q := FourCycleQuery()
	m := 10
	ins := CycleWorstCase(q, m)
	for i, r := range ins.Relations {
		if r.Size() != m {
			t.Fatalf("relation %d has %d tuples, want %d", i, r.Size(), m)
		}
	}
	join := ins.FullJoin()
	if join.Size() != m*m {
		t.Fatalf("join size %d, want m² = %d (Example 1.10)", join.Size(), m*m)
	}
}

// TestAppendixATightness verifies the Appendix A claims: bound (a) instance
// achieves N², bound (c) instance achieves ~N^{3/2}, bound (b) instance
// achieves ~D·N^{3/2}.
func TestAppendixATightness(t *testing.T) {
	q := FourCycleQuery()
	// (a): |Q| = m² with N = m.
	insA := AppendixABoundA(q, 12)
	if got := insA.FullJoin().Size(); got != 144 {
		t.Fatalf("(a): |Q| = %d, want 144", got)
	}
	// (c): K = 6 → N = K² = 36, |Q| = K³ = 216 = N^{3/2}; FDs hold.
	k := 6
	insC := AppendixABoundC(q, k)
	dcs := []query.DegreeConstraint{
		query.FD(bitset.Of(0), bitset.Of(1), 0),
		query.FD(bitset.Of(1), bitset.Of(0), 0),
	}
	if err := insC.Check(&q.Schema, dcs); err != nil {
		t.Fatalf("(c) instance violates FDs: %v", err)
	}
	if got := insC.FullJoin().Size(); got != k*k*k {
		t.Fatalf("(c): |Q| = %d, want K³ = %d", got, k*k*k)
	}
	// (b): D = 2 → |Q| = D·K³.
	d := 2
	insB := AppendixABoundB(q, k, d)
	dcsB := []query.DegreeConstraint{
		query.Degree(bitset.Of(0), bitset.Of(0, 1), int64(d), 0),
		query.Degree(bitset.Of(1), bitset.Of(0, 1), int64(d), 0),
	}
	if err := insB.Check(&q.Schema, dcsB); err != nil {
		t.Fatalf("(b) instance violates degree bounds: %v", err)
	}
	if got := insB.FullJoin().Size(); got != d*k*k*k {
		t.Fatalf("(b): |Q| = %d, want D·K³ = %d", got, d*k*k*k)
	}
}

func TestExample74Graph(t *testing.T) {
	h := Example74Graph(1, 2) // degenerate: the 4-cycle
	if h.N != 4 || len(h.Edges) != 4 {
		t.Fatalf("m=1,k=2 should give C4: n=%d edges=%d", h.N, len(h.Edges))
	}
	h2 := Example74Graph(2, 2)
	if h2.N != 8 || len(h2.Edges) != 16 {
		t.Fatalf("m=2,k=2: n=%d edges=%d, want 8 and 16", h2.N, len(h2.Edges))
	}
	if !h2.CoversAll() {
		t.Fatal("uncovered vertices")
	}
}

func TestCycleQuery(t *testing.T) {
	q := CycleQuery(6)
	if q.NumVars != 6 || len(q.Atoms) != 6 {
		t.Fatalf("bad 6-cycle: %+v", q.Schema)
	}
	h := q.Hypergraph()
	if !h.CoversAll() {
		t.Fatal("cycle query uncovered")
	}
}

func TestRandomBinary(t *testing.T) {
	q := TriangleQuery()
	ins := RandomBinary(rand.New(rand.NewSource(1)), &q.Schema, 20, 4)
	for _, r := range ins.Relations {
		if r.Size() == 0 || r.Size() > 20 {
			t.Fatalf("size %d", r.Size())
		}
	}
}

// TestMinModelLowerBound: on the PathRule with complete bipartite inputs of
// side m (all four variables over [m]... here A2, A3 ∈ [m], A1, A4 ∈ [m]),
// the bound must be ≥ m³/2m = m²·…; we check the documented counting
// inequality holds against an explicit model.
func TestMinModelLowerBound(t *testing.T) {
	p := PathRule()
	m := 4
	ins := query.NewInstance(&p.Schema)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			ins.Relations[0].Insert([]int64{int64(i), int64(j)})
			ins.Relations[1].Insert([]int64{int64(i), int64(j)})
			ins.Relations[2].Insert([]int64{int64(i), int64(j)})
		}
	}
	lb := MinModelLowerBound(p, ins)
	// Join = m⁴ tuples; each target triple covers m of them; two targets →
	// max |T_B| ≥ m⁴/(2m) = m³/2.
	if lb < m*m*m/2 {
		t.Fatalf("lower bound %d < m³/2 = %d", lb, m*m*m/2)
	}
	// And the trivial full model T123 = [m]³ has size m³ ≥ lb.
	if lb > m*m*m {
		t.Fatalf("lower bound %d exceeds the trivial model size %d", lb, m*m*m)
	}
}

func TestMinModelLowerBoundEmpty(t *testing.T) {
	p := PathRule()
	if lb := MinModelLowerBound(p, query.NewInstance(&p.Schema)); lb != 0 {
		t.Fatalf("empty instance lower bound %d", lb)
	}
}

func TestPathWorstCase(t *testing.T) {
	p := PathRule()
	ins := PathWorstCase(p, 8)
	if ins.FullJoin().Size() != 8 {
		t.Fatalf("path worst case join %d, want 8", ins.FullJoin().Size())
	}
}
