package relation

import (
	"math"
	"sync"
	"testing"

	"panda/internal/bitset"
)

// FuzzInternRoundTrip: Intern/ValueOf is a bijection — every int64,
// including negatives and the sentinels, decodes back to itself, re-interning
// returns the same id, and distinct values get distinct ids.
func FuzzInternRoundTrip(f *testing.F) {
	for _, seed := range []int64{0, 1, -1, 42, math.MaxInt64, math.MinInt64, math.MaxInt32, math.MinInt32, 1 << 40, -(1 << 40)} {
		f.Add(seed, seed+1)
	}
	in := NewInterner()
	var mu sync.Mutex
	f.Fuzz(func(t *testing.T, a, b int64) {
		mu.Lock()
		defer mu.Unlock()
		ida := in.Intern(a)
		idb := in.Intern(b)
		if got := in.ValueOf(ida); got != a {
			t.Fatalf("ValueOf(Intern(%d)) = %d", a, got)
		}
		if got := in.ValueOf(idb); got != b {
			t.Fatalf("ValueOf(Intern(%d)) = %d", b, got)
		}
		if in.Intern(a) != ida {
			t.Fatalf("re-intern of %d changed id", a)
		}
		if (a == b) != (ida == idb) {
			t.Fatalf("id equality diverges from value equality: %d→%d, %d→%d", a, ida, b, idb)
		}
		if id, ok := in.Lookup(a); !ok || id != ida {
			t.Fatalf("Lookup(%d) = (%d, %v), want (%d, true)", a, id, ok, ida)
		}
	})
}

// TestInternChunkGrowth crosses several chunk boundaries and checks decode
// under concurrent interning (the chunk directory republish path).
func TestInternChunkGrowth(t *testing.T) {
	in := NewInterner()
	const n = 3*chunkSize + 17
	ids := make([]uint32, n)
	for i := 0; i < n; i++ {
		ids[i] = in.Intern(int64(i * 3))
	}
	if in.Len() != n {
		t.Fatalf("Len = %d, want %d", in.Len(), n)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += 4 {
				if got := in.ValueOf(ids[i]); got != int64(i*3) {
					t.Errorf("ValueOf(%d) = %d, want %d", ids[i], got, i*3)
					return
				}
			}
			// Concurrent writers forcing directory growth.
			for i := 0; i < chunkSize/4; i++ {
				in.Intern(int64(-1 - g*chunkSize - i))
			}
		}(g)
	}
	wg.Wait()
}

// TestContainsUninternedValue: a value the table has never seen cannot be in
// any relation; Contains must answer false without interning it.
func TestContainsUninternedValue(t *testing.T) {
	r := New("R", bitset.Of(0))
	r.Insert([]Value{5})
	before := Global.Len()
	if r.Contains([]Value{math.MinInt64 + 12345}) {
		t.Fatal("Contains claimed a never-interned value")
	}
	if Global.Len() != before {
		t.Fatal("Contains interned its probe value")
	}
}

// TestSentinelValues: extreme int64 values survive storage and decode
// through a relation round trip.
func TestSentinelValues(t *testing.T) {
	r := New("R", bitset.Of(0, 1))
	rows := [][]Value{
		{math.MinInt64, math.MaxInt64},
		{-1, 0},
		{math.MaxInt64, math.MinInt64},
	}
	for _, row := range rows {
		r.Insert(row)
	}
	for _, row := range rows {
		if !r.Contains(row) {
			t.Fatalf("lost sentinel row %v", row)
		}
	}
	if r.Size() != len(rows) {
		t.Fatalf("Size = %d, want %d", r.Size(), len(rows))
	}
	got := sortedRows(r)
	if got[0][0] != math.MinInt64 || got[len(got)-1][0] != math.MaxInt64 {
		t.Fatalf("sorted order wrong for sentinels: %v", got)
	}
}
