package relation

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"panda/internal/bitset"
)

// The reference operators below work on decoded rows with nested loops and
// share no code with the kernels. They return row *sequences*: the physical
// order of an operator's output decides Lemma 6.1's bucket halves downstream
// and with them PANDA's Stats and trace, so it is part of the contract.

type refRel struct {
	cols []int
	rows [][]Value
}

func refOf(r *Relation) refRel { return refRel{cols: r.Cols(), rows: r.Rows()} }

func (r refRel) at(row []Value, v int) Value {
	for i, c := range r.cols {
		if c == v {
			return row[i]
		}
	}
	panic("no such column")
}

func (r refRel) proj(row []Value, x bitset.Set) []Value {
	out := []Value{}
	for _, v := range x.Vars() {
		out = append(out, r.at(row, v))
	}
	return out
}

func hasRow(rows [][]Value, row []Value) bool {
	for _, o := range rows {
		if reflect.DeepEqual(o, row) {
			return true
		}
	}
	return false
}

func refProject(r refRel, x bitset.Set) [][]Value {
	out := [][]Value{}
	for _, row := range r.rows {
		if p := r.proj(row, x); !hasRow(out, p) {
			out = append(out, p)
		}
	}
	return out
}

func refJoin(r, s refRel, rAttrs, sAttrs bitset.Set) [][]Value {
	// Probe with the larger side in row order; matches in build-side order.
	build, probe, probeAttrs := s, r, rAttrs
	if len(r.rows) < len(s.rows) {
		build, probe, probeAttrs = r, s, sAttrs
	}
	common := rAttrs.Intersect(sAttrs)
	out := [][]Value{}
	for _, p := range probe.rows {
		for _, b := range build.rows {
			if !reflect.DeepEqual(probe.proj(p, common), build.proj(b, common)) {
				continue
			}
			row := []Value{}
			for _, v := range rAttrs.Union(sAttrs).Vars() {
				if probeAttrs.Contains(v) {
					row = append(row, probe.at(p, v))
				} else {
					row = append(row, build.at(b, v))
				}
			}
			out = append(out, row)
		}
	}
	return out
}

func refSemijoin(r, s refRel, common bitset.Set) [][]Value {
	out := [][]Value{}
	for _, row := range r.rows {
		for _, o := range s.rows {
			if reflect.DeepEqual(r.proj(row, common), s.proj(o, common)) {
				out = append(out, row)
				break
			}
		}
	}
	return out
}

func refUnion(r, s refRel) [][]Value {
	out := append([][]Value{}, r.rows...)
	for _, row := range s.rows {
		if !hasRow(out, row) {
			out = append(out, row)
		}
	}
	return out
}

// refDegrees lists the X-values of Π_Y(r) in first-appearance order with the
// Y-rows each one has, also in order.
func refDegrees(r refRel, y, x bitset.Set) (keys [][]Value, groups [][][]Value) {
	t := refRel{cols: y.Vars(), rows: refProject(r, y)}
	for _, row := range t.rows {
		k := t.proj(row, x)
		g := -1
		for i, o := range keys {
			if reflect.DeepEqual(o, k) {
				g = i
			}
		}
		if g < 0 {
			g = len(keys)
			keys, groups = append(keys, k), append(groups, nil)
		}
		groups[g] = append(groups[g], row)
	}
	return keys, groups
}

func refDegree(r refRel, y, x bitset.Set) int {
	_, groups := refDegrees(r, y, x)
	best := 0
	for _, g := range groups {
		best = max(best, len(g))
	}
	return best
}

// refBuckets is Lemma 6.1 as the paper states it: X-values by ⌊log₂ degree⌋,
// each class cut into a first half of ⌈n/2⌉ X-values and the rest. It returns,
// per non-empty half in (class, half) order, the indices of its X-values.
func refBuckets(groups [][][]Value) [][]int {
	classes := map[int][]int{}
	top := 0
	for g, rows := range groups {
		j := bits.Len(uint(len(rows))) - 1
		classes[j] = append(classes[j], g)
		top = max(top, j)
	}
	var out [][]int
	for j := 0; j <= top; j++ {
		gs := classes[j]
		half := (len(gs) + 1) / 2
		for _, part := range [][]int{gs[:half], gs[half:]} {
			if len(part) > 0 {
				out = append(out, part)
			}
		}
	}
	return out
}

func refPartitionByDegree(r refRel, y, x bitset.Set) [][][]Value {
	_, groups := refDegrees(r, y, x)
	out := [][][]Value{}
	for _, part := range refBuckets(groups) {
		rows := [][]Value{}
		for _, g := range part {
			rows = append(rows, groups[g]...)
		}
		out = append(out, rows)
	}
	return out
}

// refBucketOf is Partition's placement function: FNV-1a over the
// little-endian bytes of the projected values, modulo k.
func refBucketOf(vals []Value, k int) int {
	h := uint64(14695981039346656037)
	for _, v := range vals {
		for s := uint(0); s < 64; s += 8 {
			h ^= (uint64(v) >> s) & 0xff
			h *= 1099511628211
		}
	}
	return int(h % uint64(k))
}

func sameRows(t *testing.T, what string, got *Relation, want [][]Value) {
	t.Helper()
	if rows := got.Rows(); !reflect.DeepEqual(rows, want) && (len(rows) != 0 || len(want) != 0) {
		t.Fatalf("%s: row sequence differs from the reference\n got  %v\n want %v", what, rows, want)
	}
}

// randomAttrs draws a schema of arity 1–4 over five variables.
func randomAttrs(rng *rand.Rand) bitset.Set {
	for {
		var s bitset.Set
		for v := 0; v < 5; v++ {
			if rng.Intn(2) == 0 {
				s = s.Union(bitset.Of(v))
			}
		}
		if c := s.Card(); c >= 1 && c <= 4 {
			return s
		}
	}
}

func randomSubset(rng *rand.Rand, of bitset.Set) bitset.Set {
	var s bitset.Set
	for _, v := range of.Vars() {
		if rng.Intn(2) == 0 {
			s = s.Union(bitset.Of(v))
		}
	}
	return s
}

func TestOperatorsAgainstNestedLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 150; trial++ {
		ra, sa := randomAttrs(rng), randomAttrs(rng)
		dom := 2 + rng.Intn(6)
		r := randomRelation(rng, ra, rng.Intn(60), dom)
		s := randomRelation(rng, sa, rng.Intn(60), dom)
		r.Name, s.Name = "R", "S"
		tag := fmt.Sprintf("trial %d R%v[%d] S%v[%d]", trial, ra, r.Size(), sa, s.Size())
		rr, sr := refOf(r), refOf(s)

		sameRows(t, tag+" Join", r.Join(s), refJoin(rr, sr, ra, sa))
		sameRows(t, tag+" Semijoin", r.Semijoin(s), refSemijoin(rr, sr, ra.Intersect(sa)))

		// Projections, the full-schema one included.
		x := randomSubset(rng, ra)
		sameRows(t, tag+fmt.Sprintf(" Project%v", x), r.Project(x), refProject(rr, x))
		sameRows(t, tag+" Project(all)", r.Project(ra), rr.rows)

		// Union and InsertAll against a same-schema relation that overlaps r.
		u := randomRelation(rng, ra, rng.Intn(60), dom)
		for i, row := range rr.rows {
			if i%3 == 0 {
				u.Insert(row)
			}
		}
		ur := refOf(u)
		sameRows(t, tag+" Union", r.Union(u), refUnion(rr, ur))
		acc := r.Clone("acc")
		acc.InsertAll(u)
		sameRows(t, tag+" InsertAll", acc, refUnion(rr, ur))
		acc.InsertAll(u) // nothing new the second time
		sameRows(t, tag+" InsertAll twice", acc, refUnion(rr, ur))
		sameRows(t, tag+" source of InsertAll", u, ur.rows)

		// Degree statistics and both Lemma 6.1 splits, X ⊆ Y ⊆ schema.
		y := randomSubset(rng, ra)
		x = randomSubset(rng, y)
		dtag := fmt.Sprintf("%s Y=%v X=%v", tag, y, x)
		if got, want := r.Degree(y, x), refDegree(rr, y, x); got != want {
			t.Fatalf("%s: Degree = %d, reference %d", dtag, got, want)
		}
		wantParts := refPartitionByDegree(rr, y, x)
		parts := r.PartitionByDegree(y, x)
		if len(parts) != len(wantParts) {
			t.Fatalf("%s: PartitionByDegree made %d buckets, reference %d", dtag, len(parts), len(wantParts))
		}
		for b := range parts {
			sameRows(t, fmt.Sprintf("%s PartitionByDegree[%d]", dtag, b), parts[b], wantParts[b])
		}
		keys, groups := refDegrees(rr, y, x)
		split := r.SplitByDegree(y, x)
		buckets := refBuckets(groups)
		if len(split) != len(buckets) {
			t.Fatalf("%s: SplitByDegree made %d buckets, reference %d", dtag, len(split), len(buckets))
		}
		for b, part := range buckets {
			// r's rows, in r's order, whose X-value belongs to the bucket.
			want, deg := [][]Value{}, 0
			for _, row := range rr.rows {
				for _, g := range part {
					if reflect.DeepEqual(rr.proj(row, x), keys[g]) {
						want = append(want, row)
					}
				}
			}
			for _, g := range part {
				deg = max(deg, len(groups[g]))
			}
			sameRows(t, fmt.Sprintf("%s SplitByDegree[%d]", dtag, b), split[b].Rel, want)
			if split[b].Keys != len(part) || split[b].Degree != deg {
				t.Fatalf("%s: SplitByDegree[%d] reports %d keys of degree ≤ %d, reference %d and %d",
					dtag, b, split[b].Keys, split[b].Degree, len(part), deg)
			}
			if nx, d := split[b].Rel.Project(y).Project(x).Size(), split[b].Rel.Degree(y, x); nx != split[b].Keys || d != split[b].Degree {
				t.Fatalf("%s: SplitByDegree[%d] reports (%d,%d), its relation measures (%d,%d)", dtag, b, split[b].Keys, split[b].Degree, nx, d)
			}
		}

		// Hash partitioning: placement by value, order by row.
		k, on := 2+rng.Intn(4), randomSubset(rng, ra)
		wantHash := make([][][]Value, k)
		for _, row := range rr.rows {
			b := refBucketOf(rr.proj(row, on), k)
			wantHash[b] = append(wantHash[b], row)
		}
		for b, p := range r.Partition(k, on) {
			sameRows(t, fmt.Sprintf("%s Partition(%d,%v)[%d]", tag, k, on, b), p, wantHash[b])
		}
	}
}

// TestJoinOrderAgainstNestedLoops pins Join's output order to the nested
// loop that lists the matching pairs by probe row, then by build row: a
// cartesian product, a fan-out of many matches per key and a selective join,
// each with either input as the smaller (build) side and in both argument
// orders.
func TestJoinOrderAgainstNestedLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for _, tc := range []struct {
		name         string
		ra, sa       bitset.Set
		rDom, sDom   int // values per column
		small, large int // row counts
	}{
		{"cartesian", bitset.Of(0, 1), bitset.Of(2, 3), 20, 20, 15, 60},
		{"fan-out", bitset.Of(0, 1), bitset.Of(1, 2), 3, 3, 7, 9},
		{"fan-out-wide", bitset.Of(0, 1, 2), bitset.Of(1, 2, 3), 2, 6, 8, 60},
		{"selective", bitset.Of(0, 1), bitset.Of(1, 2), 200, 200, 40, 150},
		{"same-schema", bitset.Of(0, 1), bitset.Of(0, 1), 8, 8, 30, 50},
	} {
		for _, rSmall := range []bool{true, false} {
			nr, ns := tc.large, tc.small
			if rSmall {
				nr, ns = tc.small, tc.large
			}
			r := randomRelation(rng, tc.ra, nr, tc.rDom)
			s := randomRelation(rng, tc.sa, ns, tc.sDom)
			r.Name, s.Name = "R", "S"
			rr, sr := refOf(r), refOf(s)
			tag := fmt.Sprintf("%s |R|=%d |S|=%d", tc.name, r.Size(), s.Size())
			want := refJoin(rr, sr, tc.ra, tc.sa)
			if len(want) == 0 {
				t.Fatalf("%s: the case joins nothing", tag)
			}
			sameRows(t, tag+" R⋈S", r.Join(s), want)
			sameRows(t, tag+" S⋈R", s.Join(r), refJoin(sr, rr, tc.sa, tc.ra))
		}
	}
}
