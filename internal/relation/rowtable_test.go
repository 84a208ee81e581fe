package relation

import (
	"math/rand"
	"slices"
	"testing"

	"panda/internal/bitset"
)

// chainOf collects the rows lookup(h) walks.
func chainOf(t *rowTable, h uint64) []int32 {
	var out []int32
	for e, last := t.lookup(h); e >= 0; e = t.after(e, last) {
		out = append(out, e)
	}
	return out
}

// TestRowTableModel drives a rowTable and a map[uint64][]int32 with the same
// random push/lookup stream: every chain must list exactly the rows pushed
// with its hash, oldest first, across several doublings and with hashes that
// collide in full or only in the masked low bits.
func TestRowTableModel(t *testing.T) {
	for _, tc := range []struct {
		name    string
		n       int
		hash    func(rng *rand.Rand) uint64
		reserve int
	}{
		{"spread", 5000, func(rng *rand.Rand) uint64 { return rng.Uint64() }, 0},
		{"few-keys", 5000, func(rng *rand.Rand) uint64 { return uint64(rng.Intn(37)) * 0x9e3779b97f4a7c15 }, 0},
		{"one-key", 600, func(*rand.Rand) uint64 { return 42 }, 0},
		{"low-bits-equal", 3000, func(rng *rand.Rand) uint64 { return uint64(rng.Intn(900)) << 32 }, 0},
		{"reserved", 3000, func(rng *rand.Rand) uint64 { return uint64(rng.Intn(2000)) }, 3000},
	} {
		rng := rand.New(rand.NewSource(7))
		var tab rowTable
		tab.reserve(tc.reserve, tc.reserve)
		model := map[uint64][]int32{}
		var keys []uint64
		grown := 0
		for i := 0; i < tc.n; i++ {
			h := tc.hash(rng)
			before := len(tab.slots)
			tab.push(h)
			if len(tab.slots) != before {
				grown++
			}
			if _, ok := model[h]; !ok {
				keys = append(keys, h)
			}
			model[h] = append(model[h], int32(i))
			if tab.rows() != i+1 || tab.chains != len(model) {
				t.Fatalf("%s: after %d pushes: rows=%d chains=%d, want %d and %d", tc.name, i+1, tab.rows(), tab.chains, i+1, len(model))
			}
			if 2*tab.chains > len(tab.slots) || len(tab.slots)&(len(tab.slots)-1) != 0 {
				t.Fatalf("%s: %d chains in %d slots", tc.name, tab.chains, len(tab.slots))
			}
			// Probe a pushed key and a (most likely) absent one.
			k := keys[rng.Intn(len(keys))]
			if got := chainOf(&tab, k); !slices.Equal(got, model[k]) {
				t.Fatalf("%s: chain of %#x = %v, want %v", tc.name, k, got, model[k])
			}
			if absent := rng.Uint64() | 1<<63; model[absent] == nil && chainOf(&tab, absent) != nil {
				t.Fatalf("%s: absent hash %#x has a chain", tc.name, absent)
			}
		}
		for k, want := range model {
			if got := chainOf(&tab, k); !slices.Equal(got, want) {
				t.Fatalf("%s: final chain of %#x = %v, want %v", tc.name, k, got, want)
			}
		}
		if tc.reserve == 0 && tc.name == "spread" && grown < 5 {
			t.Fatalf("%s: only %d growth steps — the test must cross several doublings", tc.name, grown)
		}
		if tc.reserve > 0 && grown != 0 {
			t.Fatalf("%s: a reserved table grew %d times", tc.name, grown)
		}
	}
}

// TestRowTableSmall pins the cost of a table at planning-workload sizes: none
// before the first push, and eight slots for the first four chains.
func TestRowTableSmall(t *testing.T) {
	var tab rowTable
	if f, l := tab.lookup(1); f != -1 || l != -1 || tab.slots != nil {
		t.Fatalf("lookup on the zero table: (%d,%d), slots %v", f, l, tab.slots)
	}
	for i := 0; i < 4; i++ {
		tab.push(uint64(i))
	}
	if len(tab.slots) != minSlots || minSlots > 8 {
		t.Fatalf("4 chains use %d slots (minimum %d)", len(tab.slots), minSlots)
	}
	if n := testing.AllocsPerRun(100, func() { New("R", bitset.Of(0, 1)).Snapshot("S") }); n > 4 {
		t.Fatalf("an empty relation and its snapshot cost %v allocations: the dedup table must not be among them", n)
	}
}

// TestHashQuality bounds the mean probe distance of a dedup table over id
// patterns that a masked table is sensitive to. The bare FNV-1a fold fails
// it: its low bits depend on the ids' low bits only, so strided ids pile
// into a fraction of the slots.
func TestHashQuality(t *testing.T) {
	const n = 1 << 16
	patterns := map[string]func(i int) [2]uint32{
		"sequential":   func(i int) [2]uint32 { return [2]uint32{uint32(i), uint32(i)} },
		"stride-256":   func(i int) [2]uint32 { return [2]uint32{uint32(i) << 8, 7} },
		"stride-64k":   func(i int) [2]uint32 { return [2]uint32{uint32(i) << 16, uint32(i) << 16} },
		"last-column":  func(i int) [2]uint32 { return [2]uint32{12345, uint32(i)} },
		"last-strided": func(i int) [2]uint32 { return [2]uint32{12345, uint32(i) << 12} },
	}
	for name, row := range patterns {
		var tab rowTable
		for i := 0; i < n; i++ {
			ids := row(i)
			tab.push(hashIDs(ids[:]))
		}
		if tab.chains < n-n/1000 {
			t.Errorf("%s: %d distinct rows share %d hashes", name, n, tab.chains)
		}
		// Distance from the home slot to the chain's slot, over all rows.
		mask := uint64(len(tab.slots) - 1)
		var steps uint64
		for i := 0; i < n; i++ {
			h := tab.hash[i]
			steps += (uint64(tab.slot(h)) - h&mask) & mask
		}
		if mean := float64(steps) / n; mean > 1.0 {
			t.Errorf("%s: mean probe distance %.2f slots at load %.2f, want ≤ 1", name, mean, float64(tab.chains)/float64(len(tab.slots)))
		}
	}
}
