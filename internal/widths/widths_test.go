package widths

import (
	"context"
	"errors"
	"math/big"
	"testing"
	"time"

	"panda/internal/bitset"
	"panda/internal/flow"
	"panda/internal/hypergraph"
)

func rat(a, b int64) *big.Rat { return big.NewRat(a, b) }

func cycle(n int) *hypergraph.Hypergraph {
	var edges []bitset.Set
	for i := 0; i < n; i++ {
		edges = append(edges, bitset.Of(i, (i+1)%n))
	}
	return hypergraph.New(n, edges...)
}

func triangle() *hypergraph.Hypergraph { return cycle(3) }

// TestExample78 reproduces Example 7.8: for the 4-cycle C4,
// subw = 3/2 and fhtw = 2 (da-variants with log N = 1 coincide).
func TestExample78(t *testing.T) {
	h := cycle(4)
	f, err := FHTW(h)
	if err != nil {
		t.Fatal(err)
	}
	if f.Cmp(rat(2, 1)) != 0 {
		t.Fatalf("fhtw(C4) = %v, want 2", f)
	}
	s, err := Subw(h)
	if err != nil {
		t.Fatal(err)
	}
	if s.Cmp(rat(3, 2)) != 0 {
		t.Fatalf("subw(C4) = %v, want 3/2", s)
	}
	// da-versions with unit logs coincide with the classic ones.
	one := big.NewRat(1, 1)
	var dcs []flow.DC
	for _, e := range h.Edges {
		dcs = append(dcs, flow.DC{X: 0, Y: e, LogN: one})
	}
	df, err := DaFhtw(h, dcs)
	if err != nil {
		t.Fatal(err)
	}
	if df.Cmp(rat(2, 1)) != 0 {
		t.Fatalf("da-fhtw(C4) = %v, want 2", df)
	}
	ds, err := DaSubw(h, dcs)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Cmp(rat(3, 2)) != 0 {
		t.Fatalf("da-subw(C4) = %v, want 3/2", ds)
	}
}

// TestProposition73Triangle: for the triangle, every width equals its known
// value: tw = 2, ghtw = 2, fhtw = 3/2, subw = 3/2, adw = 3/2.
func TestProposition73Triangle(t *testing.T) {
	s, err := Summarize(triangle())
	if err != nil {
		t.Fatal(err)
	}
	if s.TW != 2 {
		t.Errorf("tw = %d, want 2", s.TW)
	}
	if s.GHTW != 2 {
		t.Errorf("ghtw = %d, want 2 (one edge covers only 2 of 3 vertices)", s.GHTW)
	}
	if s.FHTW.Cmp(rat(3, 2)) != 0 {
		t.Errorf("fhtw = %v, want 3/2", s.FHTW)
	}
	if s.Subw.Cmp(rat(3, 2)) != 0 {
		t.Errorf("subw = %v, want 3/2", s.Subw)
	}
	if s.Adw.Cmp(rat(3, 2)) != 0 {
		t.Errorf("adw = %v, want 3/2", s.Adw)
	}
}

// TestCorollary75Hierarchy: 1+tw ≥ ghtw ≥ fhtw ≥ subw ≥ adw on several
// graphs (Corollary 7.5).
func TestCorollary75Hierarchy(t *testing.T) {
	graphs := map[string]*hypergraph.Hypergraph{
		"triangle": triangle(),
		"C4":       cycle(4),
		"C5":       cycle(5),
		"path4": hypergraph.New(4,
			bitset.Of(0, 1), bitset.Of(1, 2), bitset.Of(2, 3)),
		"K4": hypergraph.New(4,
			bitset.Of(0, 1), bitset.Of(0, 2), bitset.Of(0, 3),
			bitset.Of(1, 2), bitset.Of(1, 3), bitset.Of(2, 3)),
	}
	for name, h := range graphs {
		s, err := Summarize(h)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tw1 := rat(int64(s.TW+1), 1)
		ghtw := rat(int64(s.GHTW), 1)
		if tw1.Cmp(ghtw) < 0 {
			t.Errorf("%s: 1+tw = %v < ghtw = %v", name, tw1, ghtw)
		}
		if ghtw.Cmp(s.FHTW) < 0 {
			t.Errorf("%s: ghtw = %v < fhtw = %v", name, ghtw, s.FHTW)
		}
		if s.FHTW.Cmp(s.Subw) < 0 {
			t.Errorf("%s: fhtw = %v < subw = %v", name, s.FHTW, s.Subw)
		}
		if s.Subw.Cmp(s.Adw) < 0 {
			t.Errorf("%s: subw = %v < adw = %v", name, s.Subw, s.Adw)
		}
	}
}

// TestExample74CycleGap instantiates Example 7.4 with m = 1 (independent
// sets of size 1), where the construction degenerates to the 2k-cycle:
// fhtw = 2m = 2 while subw = m(2 − 1/k). For C6 (k = 3): subw = 5/3.
func TestExample74CycleGap(t *testing.T) {
	if testing.Short() {
		t.Skip("C6 submodular width solves ~174 exact LPs; skipped in -short")
	}
	h := cycle(6)
	f, err := FHTW(h)
	if err != nil {
		t.Fatal(err)
	}
	if f.Cmp(rat(2, 1)) != 0 {
		t.Fatalf("fhtw(C6) = %v, want 2", f)
	}
	s, err := Subw(h)
	if err != nil {
		t.Fatal(err)
	}
	if s.Cmp(rat(5, 3)) != 0 {
		t.Fatalf("subw(C6) = %v, want 5/3 (Example 7.4 with m=1, k=3)", s)
	}
	if s.Cmp(f) >= 0 {
		t.Fatalf("subw(C6) = %v should be strictly below fhtw = %v", s, f)
	}
}

// TestAcyclicWidthsAreOne: acyclic queries have ghtw = fhtw = subw = 1.
func TestAcyclicWidthsAreOne(t *testing.T) {
	h := hypergraph.New(4, bitset.Of(0, 1), bitset.Of(1, 2), bitset.Of(2, 3))
	s, err := Summarize(h)
	if err != nil {
		t.Fatal(err)
	}
	if s.GHTW != 1 || s.FHTW.Cmp(rat(1, 1)) != 0 || s.Subw.Cmp(rat(1, 1)) != 0 {
		t.Fatalf("path widths: ghtw=%d fhtw=%v subw=%v, want all 1", s.GHTW, s.FHTW, s.Subw)
	}
}

// TestDaSubwWithFDs: FDs reduce the degree-aware widths below their classic
// values — the 4-cycle with A1 ↔ A2 has da-subw ≤ da-fhtw... and in fact
// da-fhtw drops to 3/2 (the bag A1A2A3 costs 3/2·... with the FD the bag
// {A1,A2,A3} has bound h ≤ ... ). We assert the strict improvement over the
// FD-free value 2 for da-fhtw and ≤ 3/2 for da-subw.
func TestDaSubwWithFDs(t *testing.T) {
	h := cycle(4)
	one := big.NewRat(1, 1)
	zero := new(big.Rat)
	dcs := []flow.DC{
		{X: 0, Y: bitset.Of(0, 1), LogN: one},
		{X: 0, Y: bitset.Of(1, 2), LogN: one},
		{X: 0, Y: bitset.Of(2, 3), LogN: one},
		{X: 0, Y: bitset.Of(3, 0), LogN: one},
		{X: bitset.Of(0), Y: bitset.Of(0, 1), LogN: zero},
		{X: bitset.Of(1), Y: bitset.Of(0, 1), LogN: zero},
	}
	df, err := DaFhtw(h, dcs)
	if err != nil {
		t.Fatal(err)
	}
	if df.Cmp(rat(2, 1)) >= 0 {
		t.Fatalf("da-fhtw with FDs = %v, want < 2", df)
	}
	ds, err := DaSubw(h, dcs)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Cmp(df) > 0 {
		t.Fatalf("da-subw = %v > da-fhtw = %v", ds, df)
	}
	if ds.Cmp(rat(3, 2)) > 0 {
		t.Fatalf("da-subw with FDs = %v, want ≤ 3/2", ds)
	}
}

// TestIntegralCoverErrors: a vertex no edge covers leaves every bag that
// holds it uncoverable, and the cover widths say so rather than answer.
func TestIntegralCoverErrors(t *testing.T) {
	h := hypergraph.New(3, bitset.Of(0, 1))
	if _, err := GHTW(h); err == nil {
		t.Fatal("uncoverable bag accepted")
	}
	if _, err := FHTW(h); err == nil {
		t.Fatal("uncovered vertex accepted")
	}
}

// TestEnumerationHonoursItsContext: the 7-cycle's decompositions and
// transversals are the enumerations a plan of it waits on (its 2,725 minimal
// transversals take about 40 ms on a 2-vCPU Xeon). Under a context already
// cancelled each returns context.Canceled at once, and under one whose
// deadline passes mid-search the transversal search stops with
// context.DeadlineExceeded.
func TestEnumerationHonoursItsContext(t *testing.T) {
	h := cycle(7)
	done, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := NewEngine(done, h); !errors.Is(err, context.Canceled) {
		t.Fatalf("decompositions under a cancelled context: %v", err)
	}
	if d := time.Since(start); d > 10*time.Millisecond {
		t.Fatalf("the cancelled decompositions took %v", d)
	}
	e, err := NewEngine(context.Background(), h)
	if err != nil {
		t.Fatal(err)
	}
	start = time.Now()
	if _, err := e.Transversals(done); !errors.Is(err, context.Canceled) {
		t.Fatalf("transversals under a cancelled context: %v", err)
	}
	if d := time.Since(start); d > 10*time.Millisecond {
		t.Fatalf("the cancelled transversals took %v", d)
	}
	ctx, stop := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer stop()
	start = time.Now()
	if _, err := e.Transversals(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("transversals past a deadline: %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("the transversal search ran %v past a 20ms deadline", d)
	}
}
