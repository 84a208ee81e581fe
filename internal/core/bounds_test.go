package core

import (
	"math/big"
	"testing"

	"panda/internal/flow"
	"panda/internal/query"
)

// TestRuntimeBoundsAreExact: a bound the engine derives from a relation's
// size is the float64 query.Log2(n), and it must be the rational
// query.LogOf(n) exactly — checkInvariants lifts it back with SetFloat64 and
// the potential inequality is checked in rationals — and setSupport's float
// comparison must pick the support the rationals would.
func TestRuntimeBoundsAreExact(t *testing.T) {
	ns := []int64{0, 1, 2, 3, 1_000_000_000}
	for k := 2; k < 63; k++ {
		ns = append(ns, 1<<k-1, 1<<k, 1<<k+1)
	}
	for _, n := range ns {
		c := rtCon{logN: query.Log2(n)}
		if got := new(big.Rat).SetFloat64(c.logN); got.Cmp(query.LogOf(n)) != 0 {
			t.Fatalf("n = %d: the runtime bound lifts to %s, query.LogOf gives %s", n, got.RatString(), query.LogOf(n).RatString())
		}
	}
	p := flow.Pair{Y: 1}
	for i := range ns {
		for j := range ns {
			a, b := ns[i], ns[j]
			cons := []rtCon{{logN: query.Log2(a)}, {logN: query.Log2(b)}}
			f := frame{support: map[flow.Pair]int{}}
			f.setSupport(p, 0, cons)
			f.setSupport(p, 1, cons)
			want := 0
			if query.LogOf(b).Cmp(query.LogOf(a)) < 0 {
				want = 1
			}
			if f.support[p] != want {
				t.Fatalf("supports of log₂%d then log₂%d: kept %d, want %d", a, b, f.support[p], want)
			}
		}
	}
}
