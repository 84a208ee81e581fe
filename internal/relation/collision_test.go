package relation

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"panda/internal/bitset"
)

// kernelRun is one operator output as a test compares it: its name, its rows
// in physical order and any counts it reports besides.
type kernelRun struct {
	what   string
	rows   [][]Value
	counts []int
}

// kernelRuns builds its inputs afresh — every hash table in them is built
// under the hash width in force — and runs every kernel that verifies
// candidates along a hash chain: Join (a common key, a cartesian product and
// a fan-out of ten matches per probe row, each side as the build side),
// Semijoin and Reduce, Project, Degree, both Lemma 6.1 splits, Insert and
// Contains, Union, InsertAll and AllSorted.
func kernelRuns() []kernelRun {
	rng := rand.New(rand.NewSource(34))
	var runs []kernelRun
	add := func(what string, r *Relation, counts ...int) {
		runs = append(runs, kernelRun{what: what, rows: r.Rows(), counts: counts})
	}

	r := randomRelation(rng, bitset.Of(0, 1), 300, 40)
	s := randomRelation(rng, bitset.Of(1, 2), 200, 40)
	small := randomRelation(rng, bitset.Of(2, 3), 20, 10)
	// fan: ten keys of twelve rows each; probe: a hundred rows over the same
	// ten keys, so each row of the larger side meets ten or twelve matches.
	fan, probe := New("F", bitset.Of(1, 2)), New("P", bitset.Of(0, 1))
	for k := 0; k < 10; k++ {
		for j := 0; j < 12; j++ {
			fan.Insert([]Value{Value(k), Value(j)})
		}
	}
	for i := 0; i < 100; i++ {
		probe.Insert([]Value{Value(i), Value(i % 10)})
	}
	add("R⋈S", r.Join(s))
	add("S⋈R", s.Join(r))
	add("R×small", r.Join(small))
	add("small×R", small.Join(r))
	add("F⋈P", fan.Join(probe))
	add("P⋈F", probe.Join(fan))

	rs := r.Join(s)
	add("R⋉S", r.Semijoin(s))
	add("RS⋉(S,small,R)", rs.Semijoin(s, small, r))
	parts := []*Relation{
		randomRelation(rng, bitset.Of(0, 1, 2), 150, 12),
		randomRelation(rng, bitset.Of(0, 1, 2), 150, 12),
		randomRelation(rng, bitset.Of(0, 1, 2), 150, 12),
	}
	add("Reduce", Reduce(bitset.Of(0, 1, 2), parts, r, s, small))
	add("Reduce(no side)", Reduce(bitset.Of(0, 1, 2), parts))

	add("Π0(R)", r.Project(bitset.Of(0)))
	add("Π02(RS)", rs.Project(bitset.Of(0, 2)))
	add("Degree", New("-", 0), r.Degree(bitset.Of(0, 1), bitset.Of(0)), rs.Degree(bitset.Of(0, 1, 2), bitset.Of(1)))
	for b, bk := range rs.SplitByDegree(bitset.Of(0, 1), bitset.Of(0)) {
		add(fmt.Sprintf("SplitByDegree[%d]", b), bk.Rel, bk.Keys, bk.Degree)
	}
	for b, p := range rs.PartitionByDegree(bitset.Of(1, 2), bitset.Of(2)) {
		add(fmt.Sprintf("PartitionByDegree[%d]", b), p)
	}

	ins, fresh := New("I", bitset.Of(0, 1)), []int{}
	for i := 0; i < 400; i++ {
		row := []Value{Value(rng.Intn(25)), Value(rng.Intn(25))}
		if ins.Insert(row) {
			fresh = append(fresh, i)
		}
	}
	found := []int{}
	for i := 0; i < 200; i++ {
		if ins.Contains([]Value{Value(rng.Intn(30)), Value(rng.Intn(30))}) {
			found = append(found, i)
		}
	}
	add("Insert", ins, fresh...)
	add("Contains", New("-", 0), found...)

	add("Union", parts[0].Union(parts[1], parts[2]))
	acc := parts[0].Clone("acc")
	acc.InsertAll(parts[1])
	add("InsertAll", acc)

	sorted := New("sorted", rs.Attrs())
	for row := range rs.AllSorted() {
		sorted.Insert(row)
	}
	add("AllSorted", sorted)
	return runs
}

// TestKernelsUnderHashCollisions narrows row hashes to three bits, so that
// every chain a probe walks mixes rows of many keys, and holds every kernel
// to the rows, physical order and counts it gives under full 64-bit hashes.
func TestKernelsUnderHashCollisions(t *testing.T) {
	want := kernelRuns()
	SetHashBits(t, 3)
	r := randomRelation(rand.New(rand.NewSource(35)), bitset.Of(0, 1), 300, 100)
	for i := 0; i < r.Size(); i++ {
		if h := r.rowHash(i); h >= 8 {
			t.Fatalf("SetHashBits(3) left a row hash of %d", h)
		}
	}
	got := kernelRuns()
	for k := range want {
		if got[k].what != want[k].what {
			t.Fatalf("run %d is %s under 3-bit hashes, %s under 64-bit ones", k, got[k].what, want[k].what)
		}
		if !reflect.DeepEqual(got[k], want[k]) {
			t.Fatalf("%s under 3-bit hashes:\n got  %v %v\n want %v %v",
				want[k].what, got[k].rows, got[k].counts, want[k].rows, want[k].counts)
		}
	}
}
