package hypergraph

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"panda/internal/bitset"
)

// transversalCase is one family of the golden corpus.
type transversalCase struct {
	name   string
	family [][]int
}

func cycle(n int) *Hypergraph {
	var edges []bitset.Set
	for i := 0; i < n; i++ {
		edges = append(edges, bitset.Of(i, (i+1)%n))
	}
	return New(n, edges...)
}

func path(n int) *Hypergraph {
	var edges []bitset.Set
	for i := 0; i+1 < n; i++ {
		edges = append(edges, bitset.Of(i, i+1))
	}
	return New(n, edges...)
}

// bagFamily is the family whose minimal transversals a submodular-width plan
// of h runs one rule each for: h's decompositions as rows of indices into
// their distinct bags, numbered in order of first appearance.
func bagFamily(t testing.TB, h *Hypergraph) [][]int {
	tds, err := h.AllDecompositions(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	idx := map[bitset.Set]int{}
	var family [][]int
	for _, d := range tds {
		var row []int
		for _, b := range d.Bags {
			i, ok := idx[b]
			if !ok {
				i = len(idx)
				idx[b] = i
			}
			row = append(row, i)
		}
		family = append(family, row)
	}
	return family
}

// transversalCorpus is the golden file's corpus: the 3- to 6-cycles, the
// 6-variable path, the four hypergraphs of the bench module's plan-cold
// shapes, 200 seeded random hypergraphs on at most 6 vertices, and 100
// seeded families whose elements run up to 129.
func transversalCorpus(t testing.TB) []transversalCase {
	var cases []transversalCase
	add := func(name string, h *Hypergraph) {
		cases = append(cases, transversalCase{name, bagFamily(t, h)})
	}
	for n := 3; n <= 6; n++ {
		add(fmt.Sprintf("c%d", n), cycle(n))
	}
	add("path6", path(6))
	// plan-cold's ten shapes span four hypergraphs.
	add("plan-cold tri-full tri-bool", cycle(3))
	add("plan-cold c4-full c4-fhtw c4-subw c4-bool c4-deg", cycle(4))
	add("plan-cold path3-proj rule", path(4))
	add("plan-cold path2-proj", path(3))
	rng := rand.New(rand.NewSource(47))
	for i := 0; i < 200; i++ {
		n := 3 + rng.Intn(4)
		edges := make([]bitset.Set, 2+rng.Intn(5))
		for j := range edges {
			for edges[j].Card() < 2 {
				edges[j] = edges[j].Add(rng.Intn(n))
			}
			if rng.Intn(3) == 0 {
				edges[j] = edges[j].Add(rng.Intn(n))
			}
		}
		add(fmt.Sprintf("random%d n=%d %v", i, n, edges), New(n, edges...))
	}
	for i := 0; i < 100; i++ {
		// A member names an element once, as a decomposition names a bag.
		pool := rng.Perm(130)[:4+rng.Intn(9)]
		family := make([][]int, 1+rng.Intn(6))
		for j := range family {
			for _, k := range rng.Perm(len(pool))[:1+rng.Intn(4)] {
				family[j] = append(family[j], pool[k])
			}
		}
		cases = append(cases, transversalCase{fmt.Sprintf("wide%d", i), family})
	}
	return cases
}

// renderTransversals writes each case's family and its minimal transversals,
// one per line, in the order MinimalTransversals lists them.
func renderTransversals(t testing.TB, cases []transversalCase) string {
	var b strings.Builder
	for _, c := range cases {
		trs, err := MinimalTransversals(context.Background(), c.family)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fmt.Fprintf(&b, "# %s\nfamily %v\n%d transversals\n", c.name, c.family, len(trs))
		for _, tr := range trs {
			fmt.Fprintln(&b, tr)
		}
	}
	return b.String()
}

// TestMinimalTransversalsGolden: the transversals of every corpus family, and
// their order, are those of testdata/transversals.golden, which the earlier
// depth-first search wrote. A subw plan's rule i answers transversal i, and
// decode re-derives the list and requires it equal, so the order is part of
// every encoded subw plan.
func TestMinimalTransversalsGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/transversals.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := renderTransversals(t, transversalCorpus(t))
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			t.Fatalf("line %d: got %q, want %q", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("got %d lines, want %d", len(gl), len(wl))
}

// discoveryPath walks the family's members in order and, for each one the
// walk has not yet met, takes the first of its elements that lies in tr,
// recording that element's position in the member.
func discoveryPath(family [][]int, tr []int) []int {
	var path, on []int
	for _, m := range family {
		if slices.ContainsFunc(m, func(e int) bool { return slices.Contains(on, e) }) {
			continue
		}
		j := slices.IndexFunc(m, func(e int) bool { return slices.Contains(tr, e) })
		path, on = append(path, j), append(on, m[j])
	}
	return path
}

// TestMinimalTransversalsSevenCycle: the 7-cycle's 42 decompositions have
// 2,725 minimal bag transversals. Each is a transversal from which no
// element can be dropped, none repeats, and they come in discovery-path
// order.
func TestMinimalTransversalsSevenCycle(t *testing.T) {
	family := bagFamily(t, cycle(7))
	trs, err := MinimalTransversals(context.Background(), family)
	if err != nil {
		t.Fatal(err)
	}
	if len(family) != 42 || len(trs) != 2725 {
		t.Fatalf("%d transversals of %d decompositions, want 2725 of 42", len(trs), len(family))
	}
	seen := map[string]bool{}
	for i, tr := range trs {
		// tr meets every member, and each of its elements is the only one
		// meeting some member.
		only := map[int]bool{}
		for _, m := range family {
			var hit []int
			for _, e := range m {
				if slices.Contains(tr, e) && !slices.Contains(hit, e) {
					hit = append(hit, e)
				}
			}
			if len(hit) == 0 {
				t.Fatalf("transversal %d %v misses member %v", i, tr, m)
			}
			if len(hit) == 1 {
				only[hit[0]] = true
			}
		}
		if len(only) != len(tr) {
			t.Fatalf("transversal %d %v is not minimal", i, tr)
		}
		if k := fmt.Sprint(tr); seen[k] {
			t.Fatalf("transversal %d %v repeats", i, tr)
		} else {
			seen[k] = true
		}
		if i > 0 && slices.Compare(discoveryPath(family, trs[i-1]), discoveryPath(family, tr)) >= 0 {
			t.Fatalf("transversals %d %v and %d %v are out of discovery-path order", i-1, trs[i-1], i, tr)
		}
	}
}

// BenchmarkMinimalTransversals times the bag transversals of the 5-, 6- and
// 7-cycles, the family enumerated outside the timer.
func BenchmarkMinimalTransversals(b *testing.B) {
	for _, n := range []int{5, 6, 7} {
		family := bagFamily(b, cycle(n))
		b.Run(fmt.Sprintf("c%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := MinimalTransversals(context.Background(), family); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
