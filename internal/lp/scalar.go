package lp

import (
	"cmp"
	"math"
	"math/big"
	"math/bits"
)

// rat is one tableau cell: a normalised machine-word rational num/den with
// den > 0, gcd(|num|, den) = 1 and |num| ≤ MaxInt64 (so negation never
// overflows). den == 0 marks a promoted cell whose value lives in the
// tableau's side table at slot |num|−1; num then still carries the value's
// sign, so zero and sign tests never touch the side table (a promoted value
// is never zero — zero fits a word). The struct's zero value is therefore
// not a number: cells are initialised to ratZero explicitly.
type rat struct{ num, den int64 }

var (
	ratZero = rat{0, 1}
	ratOne  = rat{1, 1}
)

func (a rat) sign() int { return cmp.Compare(a.num, 0) }

func (a rat) wide() bool { return a.den == 0 }

func abs64(x int64) uint64 {
	if x < 0 {
		return uint64(-x)
	}
	return uint64(x)
}

// gcd is the binary GCD of two non-negative words, not both zero.
func gcd(a, b uint64) uint64 {
	if a == 0 {
		return b
	}
	if b == 0 {
		return a
	}
	if a == 1 || b == 1 { // a unit operand is the common case; the loop would grind
		return 1
	}
	k := bits.TrailingZeros64(a | b)
	a >>= bits.TrailingZeros64(a)
	for b != 0 {
		b >>= bits.TrailingZeros64(b)
		if a > b {
			a, b = b, a
		}
		b -= a
	}
	return a << k
}

// mul64 is a·b through the 128-bit product; ok is false when |a·b| > MaxInt64.
func mul64(a, b int64) (int64, bool) {
	hi, lo := bits.Mul64(abs64(a), abs64(b))
	if hi != 0 || lo > math.MaxInt64 {
		return 0, false
	}
	if (a < 0) != (b < 0) {
		return -int64(lo), true
	}
	return int64(lo), true
}

// sub64 is a−b; ok is false when |a−b| > MaxInt64.
func sub64(a, b int64) (int64, bool) {
	d := a - b
	if ((a < 0) != (b < 0) && (d < 0) != (a < 0)) || d == math.MinInt64 {
		return 0, false
	}
	return d, true
}

// mulSub returns a − f·b in lowest terms. ok is false when an operand is
// promoted or a word-sized intermediate overflows; the caller then redoes
// the operation in big.Rat (see tableau.mulSub), which stores the result
// back as a word pair whenever its reduced form fits.
func mulSub(a, f, b rat) (rat, bool) {
	if a.den == 1 && f.den == 1 && b.den == 1 { // integers: the 0/±1 tableaus live here
		p, ok := mul64(f.num, b.num)
		if !ok {
			return rat{}, false
		}
		d, ok := sub64(a.num, p)
		return rat{d, 1}, ok
	}
	if a.wide() || f.wide() || b.wide() {
		return rat{}, false
	}
	if f.num == 0 || b.num == 0 {
		return a, true
	}
	// p = f·b, cross-reduced so pn/pd is already in lowest terms.
	g1 := int64(gcd(abs64(f.num), uint64(b.den)))
	g2 := int64(gcd(abs64(b.num), uint64(f.den)))
	pn, ok1 := mul64(f.num/g1, b.num/g2)
	pd, ok2 := mul64(f.den/g2, b.den/g1)
	if !ok1 || !ok2 {
		return rat{}, false
	}
	if a.num == 0 {
		return rat{-pn, pd}, true
	}
	// a − p over the least common denominator (Knuth 4.5.1): with
	// g = gcd(ad, pd), t = an·(pd/g) − pn·(ad/g), any common factor of t and
	// the denominator divides g.
	g := a.den // the reduced-cost row shares one denominator
	if a.den != pd {
		g = int64(gcd(uint64(a.den), uint64(pd)))
	}
	x, ok1 := mul64(a.num, pd/g)
	y, ok2 := mul64(pn, a.den/g)
	if !ok1 || !ok2 {
		return rat{}, false
	}
	t, ok := sub64(x, y)
	if !ok {
		return rat{}, false
	}
	if t == 0 {
		return ratZero, true
	}
	g3 := int64(gcd(abs64(t), uint64(g)))
	d, ok := mul64(a.den/g, pd/g3)
	return rat{t / g3, d}, ok
}

// quo returns a/b in lowest terms, b ≠ 0; ok as for mulSub.
func quo(a, b rat) (rat, bool) {
	if a.wide() || b.wide() {
		return rat{}, false
	}
	if b == ratOne || a.num == 0 {
		return a, true
	}
	g1 := int64(gcd(abs64(a.num), abs64(b.num)))
	g2 := int64(gcd(uint64(a.den), uint64(b.den)))
	n, ok1 := mul64(a.num/g1, b.den/g2)
	d, ok2 := mul64(a.den/g2, b.num/g1)
	if !ok1 || !ok2 {
		return rat{}, false
	}
	if d < 0 {
		n, d = -n, -d
	}
	return rat{n, d}, true
}

// cmp compares two word-sized rationals exactly through the 128-bit cross
// products an·bd and bn·ad; it never overflows.
func (a rat) cmp(b rat) int {
	sa, sb := a.sign(), b.sign()
	if sa != sb || sa == 0 {
		return cmp.Compare(sa, sb)
	}
	var c int
	if a.den == b.den {
		c = cmp.Compare(abs64(a.num), abs64(b.num))
	} else {
		ahi, alo := bits.Mul64(abs64(a.num), uint64(b.den))
		bhi, blo := bits.Mul64(abs64(b.num), uint64(a.den))
		if c = cmp.Compare(ahi, bhi); c == 0 {
			c = cmp.Compare(alo, blo)
		}
	}
	return sa * c
}

// narrow returns v as a word pair when its reduced form fits one.
func narrow(v *big.Rat) (rat, bool) {
	n := v.Num()
	if !n.IsInt64() || n.Int64() == math.MinInt64 {
		return rat{}, false
	}
	if v.IsInt() { // Denom() would allocate a fresh 1
		return rat{n.Int64(), 1}, true
	}
	d := v.Denom()
	if !d.IsInt64() {
		return rat{}, false
	}
	return rat{n.Int64(), d.Int64()}, true
}

// arith is the exact arithmetic a tableau computes in: the word-sized
// operations above, and behind them a side table of *big.Rat for the cells
// whose reduced value does not fit a word pair. Every operation is exact
// either way; which representation a cell is in depends only on its value
// (store narrows whenever it can), never on how it was reached. A side-table
// slot is owned by exactly one cell: cells are moved or swapped, not copied.
type arith struct {
	slots    []*big.Rat
	free     []int32    // released slots
	promoted int        // results that did not fit a word pair
	s        [3]big.Rat // operand scratch of the big.Rat path
	acc      big.Rat    // its result
}

// big returns c as a *big.Rat: its slot if promoted, else scratch set to it.
func (ar *arith) big(c rat, scratch *big.Rat) *big.Rat {
	if c.wide() {
		return ar.slots[abs64(c.num)-1]
	}
	if c.den == 1 {
		return scratch.SetInt64(c.num)
	}
	return scratch.SetFrac64(c.num, c.den)
}

// put overwrites *dst with a word-sized value, releasing its slot if it had one.
func (ar *arith) put(dst *rat, v rat) {
	if dst.wide() {
		ar.free = append(ar.free, int32(abs64(dst.num)-1))
	}
	*dst = v
}

// store overwrites *dst with v, as a word pair if v fits one and in dst's
// (possibly new) slot otherwise.
func (ar *arith) store(dst *rat, v *big.Rat) {
	if r, ok := narrow(v); ok {
		ar.put(dst, r)
		return
	}
	ar.promoted++
	var k int32
	switch {
	case dst.wide():
		k = int32(abs64(dst.num) - 1)
	case len(ar.free) > 0:
		k = ar.free[len(ar.free)-1]
		ar.free = ar.free[:len(ar.free)-1]
	default:
		k = int32(len(ar.slots))
		ar.slots = append(ar.slots, new(big.Rat))
	}
	ar.slots[k].Set(v)
	*dst = rat{int64(v.Sign()) * int64(k+1), 0}
}

// mulSub sets *dst −= f·b.
func (ar *arith) mulSub(dst *rat, f, b rat) {
	if v, ok := mulSub(*dst, f, b); ok {
		*dst = v // dst was an operand, so it held no slot
		return
	}
	ar.acc.Mul(ar.big(f, &ar.s[0]), ar.big(b, &ar.s[1]))
	ar.acc.Sub(ar.big(*dst, &ar.s[2]), &ar.acc)
	ar.store(dst, &ar.acc)
}

// quo sets *dst = a/b, b ≠ 0. dst may be one of the operands' cells.
func (ar *arith) quo(dst *rat, a, b rat) {
	if v, ok := quo(a, b); ok {
		ar.put(dst, v)
		return
	}
	ar.acc.Quo(ar.big(a, &ar.s[0]), ar.big(b, &ar.s[1]))
	ar.store(dst, &ar.acc)
}

func (ar *arith) cmp(a, b rat) int {
	if !a.wide() && !b.wide() {
		return a.cmp(b)
	}
	return ar.big(a, &ar.s[0]).Cmp(ar.big(b, &ar.s[1]))
}

// set stores ±v into *dst.
func (ar *arith) set(dst *rat, v *big.Rat, neg bool) {
	if neg {
		v = ar.acc.Neg(v)
	}
	ar.store(dst, v)
}

// setInt stores ±v into *dst.
func (ar *arith) setInt(dst *rat, v int64, neg bool) {
	if v == math.MinInt64 {
		ar.set(dst, ar.s[0].SetInt64(v), neg)
		return
	}
	if neg {
		v = -v
	}
	ar.put(dst, rat{v, 1})
}

// get sets out to the value of c.
func (ar *arith) get(out *big.Rat, c rat) {
	out.Set(ar.big(c, out))
}
