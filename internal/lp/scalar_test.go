package lp

import (
	"math"
	"math/big"
	"testing"
)

// checkScalarOps runs every scalar operation on (a, f, b) through an arith
// and compares with big.Rat: values must be equal, a result must be a word
// pair exactly when its reduced form fits one, and the pure word-sized
// functions may decline (ok = false) but never be wrong.
func checkScalarOps(t *testing.T, a, f, b *big.Rat) {
	t.Helper()
	var ar arith
	cell := func(v *big.Rat) rat {
		c := ratZero
		ar.store(&c, v)
		return c
	}
	check := func(op string, got rat, want *big.Rat) {
		t.Helper()
		var v big.Rat
		ar.get(&v, got)
		if v.Cmp(want) != 0 {
			t.Fatalf("%s(%v, %v, %v) = %v, want %v", op, a, f, b, &v, want)
		}
		if _, fits := narrow(want); fits == got.wide() {
			t.Fatalf("%s(%v, %v, %v) = %v: fits a word pair %v, stored wide %v", op, a, f, b, want, fits, got.wide())
		}
		if got.sign() != want.Sign() {
			t.Fatalf("%s(%v, %v, %v): sign %d, want %d", op, a, f, b, got.sign(), want.Sign())
		}
		if !got.wide() && (got.den <= 0 || gcd(abs64(got.num), uint64(got.den)) != 1) {
			t.Fatalf("%s(%v, %v, %v) = %d/%d is not normalised", op, a, f, b, got.num, got.den)
		}
	}
	ca, cf, cb := cell(a), cell(f), cell(b)
	check("store", ca, a)

	want := new(big.Rat).Mul(f, b)
	want.Sub(a, want)
	if v, ok := mulSub(ca, cf, cb); ok {
		check("pure mulSub", v, want)
	}
	dst := cell(a)
	ar.mulSub(&dst, cf, cb)
	check("mulSub", dst, want)

	if b.Sign() != 0 {
		want.Quo(a, b)
		if v, ok := quo(ca, cb); ok {
			check("pure quo", v, want)
		}
		dst := cell(f) // an unrelated previous value, possibly holding a slot
		ar.quo(&dst, ca, cb)
		check("quo", dst, want)
		self := cell(a) // dst aliasing the dividend, as in the pivot row's scaling
		ar.quo(&self, self, cb)
		check("quo in place", self, want)
	}

	if got, want := ar.cmp(ca, cb), a.Cmp(b); got != want {
		t.Fatalf("cmp(%v, %v) = %d, want %d", a, b, got, want)
	}
	// Every slot is owned by exactly one live cell or is on the free list.
	if live := len(ar.slots) - len(ar.free); live < 0 {
		t.Fatalf("%d slots, %d free", len(ar.slots), len(ar.free))
	}
}

func TestScalarBoundaries(t *testing.T) {
	r := func(a, b int64) *big.Rat { return big.NewRat(a, b) }
	vals := []*big.Rat{
		r(0, 1), r(1, 1), r(-1, 1), r(2, 1), r(1, 2), r(-3, 2),
		r(math.MaxInt64, 1), r(-math.MaxInt64, 1), r(math.MinInt64, 1),
		r(1, math.MaxInt64), r(-1, math.MaxInt64), r(1, math.MinInt64),
		r(math.MaxInt64, math.MaxInt64-1), r(math.MaxInt64-1, math.MaxInt64),
		r(math.MinInt64, math.MaxInt64), r(1<<62, 1), r(1, 1<<62), r(1<<31, 3), r(3, 1<<31),
		r(2147483647, 2147483629), r(1073741789, 1<<30),
		new(big.Rat).SetFrac(new(big.Int).Lsh(big.NewInt(1), 64), big.NewInt(3)),
	}
	for _, a := range vals {
		for _, f := range vals {
			for _, b := range vals {
				checkScalarOps(t, a, f, b)
			}
		}
	}
}

func FuzzScalarOps(f *testing.F) {
	f.Add(int64(1), int64(1), int64(-1), int64(1), int64(1), int64(2))
	f.Add(int64(math.MaxInt64), int64(1), int64(math.MinInt64), int64(3), int64(-7), int64(math.MaxInt64))
	f.Add(int64(1)<<62, int64(1)<<31, int64(3), int64(1)<<30, int64(5), int64(2147483647))
	f.Fuzz(func(t *testing.T, an, ad, fn, fd, bn, bd int64) {
		if ad == 0 || fd == 0 || bd == 0 {
			t.Skip()
		}
		checkScalarOps(t, big.NewRat(an, ad), big.NewRat(fn, fd), big.NewRat(bn, bd))
	})
}
