package router

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// corpusShapes builds a corpus of distinct routing shapes the way real
// traffic would: triangle queries under increasingly loose cardinality
// bounds (declared constraints are part of the canonical signature, so
// each bound is its own shape), plus a handful of structural variants.
func corpusShapes(t testing.TB, n int) []string {
	t.Helper()
	shapes := make([]string, 0, n)
	seen := map[string]bool{}
	add := func(src string) {
		s, err := shapeOf(src, "")
		if err != nil {
			t.Fatalf("shapeOf(%q): %v", src, err)
		}
		if seen[s] {
			t.Fatalf("corpus shape collision for %q", src)
		}
		seen[s] = true
		shapes = append(shapes, s)
	}
	add(`Q(A,B,C) :- R(A,B), S(B,C), T(A,C).`)
	add(`Q(X,Z) :- R(X,Y), S(Y,Z).`)
	add(`Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D), U(D,A).`)
	for i := 0; len(shapes) < n; i++ {
		add(fmt.Sprintf("Q(A,B,C) :- R(A,B), S(B,C), T(A,C).\n|R| <= %d", 50+5*i))
	}
	return shapes
}

// TestRankDeterministicUnderPermutation: the ranking must depend only on
// the SET of replicas — any configuration order, any router instance, any
// restart agrees on who owns a shape.
func TestRankDeterministicUnderPermutation(t *testing.T) {
	replicas := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}
	rng := rand.New(rand.NewSource(7))
	for _, key := range corpusShapes(t, 20) {
		want := Rank(replicas, key)
		for trial := 0; trial < 10; trial++ {
			shuffled := append([]string(nil), replicas...)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			if got := Rank(shuffled, key); !reflect.DeepEqual(got, want) {
				t.Fatalf("Rank is order-sensitive for %q:\n %v\n %v", key, got, want)
			}
		}
	}
}

// TestRankMinimalDisruption: removing one replica moves ONLY the keys it
// owned (each to its previous second choice); no key moves between two
// surviving replicas. This is why a replica failure warms exactly one
// other replica's caches instead of reshuffling the whole fleet.
func TestRankMinimalDisruption(t *testing.T) {
	replicas := []string{"http://a:1", "http://b:1", "http://c:1"}
	survivors := []string{"http://a:1", "http://b:1"}
	const gone = "http://c:1"
	shapes := corpusShapes(t, 200)
	moved := 0
	for _, key := range shapes {
		before := Rank(replicas, key)
		after := Rank(survivors, key)
		if before[0] != gone {
			if after[0] != before[0] {
				t.Fatalf("key %q moved from survivor %s to %s when %s left", key, before[0], after[0], gone)
			}
			continue
		}
		moved++
		// The departed replica's keys fall to their previous second choice.
		want := before[1]
		if after[0] != want {
			t.Fatalf("key %q owned by the departed replica moved to %s, want its second choice %s", key, after[0], want)
		}
	}
	if moved == 0 {
		t.Fatal("corpus gave the departed replica no keys; test is vacuous")
	}
}

// TestRankBalance: shards even out over a query-shape corpus without any
// coordination — each of three replicas owns a healthy share of 300
// distinct shapes.
func TestRankBalance(t *testing.T) {
	replicas := []string{"http://a:1", "http://b:1", "http://c:1"}
	shapes := corpusShapes(t, 300)
	counts := map[string]int{}
	for _, key := range shapes {
		counts[Rank(replicas, key)[0]]++
	}
	for _, r := range replicas {
		if counts[r] < len(shapes)/6 || counts[r] > len(shapes)/2 {
			t.Fatalf("replica %s owns %d of %d shapes — outside [1/6, 1/2]: %v", r, counts[r], len(shapes), counts)
		}
	}
}

// TestRankTotalOrder: every replica appears exactly once in the ranking.
func TestRankTotalOrder(t *testing.T) {
	replicas := []string{"http://a:1", "http://b:1", "http://c:1"}
	for _, key := range corpusShapes(t, 10) {
		ranked := Rank(replicas, key)
		seen := map[string]bool{}
		for _, r := range ranked {
			seen[r] = true
		}
		if len(ranked) != len(replicas) || len(seen) != len(replicas) {
			t.Fatalf("Rank(%q) = %v is not a permutation of %v", key, ranked, replicas)
		}
	}
}

// TestShapeOfRenamingInvariant: variable renamings and atom reorderings of
// the same query compute the same routing shape — the property that makes
// a replica's plan cache hit for the whole renaming class the router sends
// it.
func TestShapeOfRenamingInvariant(t *testing.T) {
	variants := []string{
		`Q(A,B,C) :- R(A,B), S(B,C), T(A,C).`,
		`Q(X,Y,Z) :- R(X,Y), S(Y,Z), T(X,Z).`,
		`Q(C,A,B) :- T(C,B), R(C,A), S(A,B).`,
	}
	want, err := shapeOf(variants[0], "")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range variants[1:] {
		got, err := shapeOf(v, "")
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("shapeOf(%q) = %s, want %s", v, got, want)
		}
	}
	// A different mode is a different shape (plans are cached per mode).
	subw, err := shapeOf(variants[0], "subw")
	if err != nil {
		t.Fatal(err)
	}
	if subw == want {
		t.Fatal("mode should distinguish routing shapes")
	}
}
