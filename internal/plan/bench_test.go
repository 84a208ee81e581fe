package plan

import (
	"bytes"
	"testing"

	"panda/internal/query"
)

// BenchmarkPlanDecodeVsPrepare quantifies what plan shipping is worth: a
// warm restart (or an imported snapshot) pays DecodePlan where a cold boot
// pays the full planning phase — exact simplex solves plus proof-sequence
// construction. Prepare is a Planner miss without the cache (canonicalize,
// plan the canonical spelling, rebind), so cold-prepare is what a replica's
// first sighting pays and the decoded plan is the one a planner ships. The
// 4-cycle subw plan is the headline workload. Since the
// simplex moved to word-sized rationals a cold prepare is about 0.7 ms (it
// was 5.1 ms) against a 0.13 ms decode: shipping now saves a replica a
// factor of five per plan, not forty, and what it still buys outright is
// that replicas solve no LP at all (the Boolean 5-cycle is 25 ms to plan)
// and that every replica runs the same plan bytes. CI gates decode at
// 0.4x the same run's cold-prepare, and at 1,160 allocs/op: decode
// re-prices every bound and the width, re-derives the transversals and
// validates each decomposition (1,054 allocs; 974 when it trusted them).
func BenchmarkPlanDecodeVsPrepare(b *testing.B) {
	q, cons := cycleQuery(4, nil, nil, 100)
	p, _, err := Prepare(q, cons, ModeSubw)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodePlan(&buf, p); err != nil {
		b.Fatal(err)
	}
	enc := buf.Bytes()

	b.Run("cold-prepare", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := Prepare(q, cons, ModeSubw); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := DecodePlan(bytes.NewReader(enc)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode", func(b *testing.B) {
		var w bytes.Buffer
		for i := 0; i < b.N; i++ {
			w.Reset()
			if err := EncodePlan(&w, p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCanonicalize is what every Prepare pays to name its plan, cache
// hit or not: the class-permutation search over k! orderings of a k-cycle,
// with each atom's cardinality in the key (what the planner sees) and
// without (what the router's shapeOf sees). CI holds c4-cards to 200
// allocs/op; formatting one key per ordering spent 2,376 there.
func BenchmarkCanonicalize(b *testing.B) {
	for _, bc := range []struct {
		name  string
		k     int
		cards bool
	}{{"c4-cards", 4, true}, {"c4-bare", 4, false}, {"c5-cards", 5, true}, {"c7-cards", 7, true}} {
		q, cons := cycleQuery(bc.k, nil, nil, 100)
		if !bc.cards {
			cons = nil
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Canonicalize(q, cons, ModeSubw); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPrepareAuto is the planning phase under ModeAuto, 8-row
// cardinalities: the triangle's Boolean query (one bag, so its one
// transversal reuses the bag LP: 1 LP), the Boolean 5-cycle (subw commits,
// so every bag and transversal LP runs: 31) and the 6-variable path with
// free ends (α-acyclic, one decomposition: its 5 bag LPs settle fhtw and no
// transversal LP runs, where comparing both certificates solved 10).
func BenchmarkPrepareAuto(b *testing.B) {
	for _, bc := range []struct{ name, src string }{
		{"tri-bool", "Q() :- R(A,B), S(B,C), T(A,C)."},
		{"c5-bool", "Q() :- R(A,B), S(B,C), T(C,D), U(D,E), V(E,A)."},
		{"path6-ends", "Q(A,F) :- R(A,B), S(B,C), T(C,D), U(D,E), V(E,F)."},
	} {
		pr, err := query.Parse(bc.src)
		if err != nil {
			b.Fatal(err)
		}
		cons := pr.Constraints
		for i, a := range pr.Conj.Atoms {
			cons = append(cons, query.Cardinality(a.Vars, 8, i))
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := Prepare(pr.Conj, cons, ModeAuto); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
