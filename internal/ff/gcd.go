package ff

import (
	"math/big"
	"math/bits"
)

// Modular inversion by binary extended GCD on the limbs (Pornin,
// "Optimized Binary GCD for Modular Inversion", ePrint 2020/972, Alg. 2).
// (a, b) runs from (y, m) to (0, 1) while a ≡ y·u·2^−t and b ≡ y·v·2^−t
// (mod m), t counting halvings. A round runs 31 steps on 64-bit
// approximations of a and b (low 31 and top 33 bits, exact once both fit
// a word) and applies their matrix of signed factors |f|, |g| ≤ 2^31 to
// (a, b), dividing by 2^31, and to (u, v), with a 64-bit Montgomery
// reduction. A round takes ≥ 31 bits off len(a)+len(b) ≤ 2·254; the loop
// stops at a = 0, and a montMul by gcdFix[rounds] removes the rounds'
// factors and the Montgomery one. It is not constant-time.

// gcdMaxRounds bounds the rounds of gcdInverse for a modulus below 2^254
// (initModulus checks the width): ⌈(2·254 − 1)/31⌉.
const gcdMaxRounds = 17

// initGCD fills m.gcdFix[j] = R³·2^(33j) mod m: montMul by it turns the
// v of j rounds over the limbs y = Y·R into the Montgomery form of Y⁻¹.
func initGCD(m *modulus) {
	f := new(big.Int).Lsh(big.NewInt(1), 3*256)
	f.Mod(f, m.big)
	for j := range m.gcdFix {
		bigToLimbs(f, &m.gcdFix[j])
		f.Lsh(f, 33).Mod(f, m.big)
	}
}

// gcdInverse sets z to the Montgomery form of the inverse of the element
// whose Montgomery limbs are x (x < m), or to 0 when x = 0.
func gcdInverse(z, x *[4]uint64, m *modulus) {
	a, b := *x, m.limbs
	u, v := [4]uint64{1}, [4]uint64{}
	j := 0
	var t [4]uint64
	for ; a != [4]uint64{}; j++ {
		f0, g0, f1, g1 := gcdSteps(gcdApprox(&a, &b))
		gcdCombine(&t, &a, &b, &f0, &g0)
		gcdCombine(&b, &a, &b, &f1, &g1)
		a = t
		gcdMontCombine(&t, &u, &v, f0, g0, m)
		gcdMontCombine(&v, &u, &v, f1, g1, m)
		u = t
	}
	montMul(z, &v, &m.gcdFix[j], m) // x = 0 leaves v = 0
}

// gcdApprox returns the 64-bit approximations of a and b: the low 31
// bits of each under the top 33 bits of a common window of
// n = max(len(a), len(b), 64) bits.
func gcdApprox(a, b *[4]uint64) (ah, bh uint64) {
	const low = 1<<31 - 1
	for i := 3; i > 0; i-- {
		if t := a[i] | b[i]; t != 0 {
			s := uint(i-1)*64 + uint(bits.Len64(t)) // n − 64; a shift by 64 is 0
			top := func(x *[4]uint64) uint64 { return x[s/64]>>(s%64) | x[min(s/64+1, 3)]<<(64-s%64) }
			return a[0]&low | top(a)&^low, b[0]&low | top(b)&^low
		}
	}
	return a[0], b[0]
}

// gcdSteps runs 31 binary-GCD steps on the approximations ah (any) and bh
// (odd) and returns the matrix that maps (a, b) to 2^31·(a', b'). A step
// halves ah when it is even; otherwise it first replaces (ah, bh) by
// (|ah − bh|, min(ah, bh)). A subtraction and the run of halvings after
// it are taken at once, a run capped at 31 so that |f1|, |g1| < 2^62.
func gcdSteps(ah, bh uint64) (f0, g0, f1, g1 int64) {
	i := uint(bits.TrailingZeros64(ah | 1<<31))
	ah >>= i
	f0, g1 = 1, 1<<i
	for i < 31 {
		d, borrow := bits.Sub64(ah, bh, 0)
		sw := -borrow // all ones when ah < bh: the pair swaps
		s := uint(bits.TrailingZeros64(d|1<<31)) & 63
		bh += d & sw
		ah = ((d ^ sw) - sw) >> s
		df, dg, ss := f0-f1, g0-g1, int64(sw)
		f1, g1 = (f1+df&ss)<<s, (g1+dg&ss)<<s
		f0, g0 = (df^ss)-ss, (dg^ss)-ss
		i += s
	}
	// The last run of halvings may overshoot step 31; undo the excess.
	return f0, g0, f1 >> (i - 31), g1 >> (i - 31)
}

// linComb returns x·f + y·g mod 2^320, the two's complement of the sum
// when |x·f + y·g| < 2^319: a negative f is multiplied as the word
// f + 2^64, and the surplus x·2^64 subtracted again.
func linComb(x, y *[4]uint64, f, g int64) (r0, r1, r2, r3, r4 uint64) {
	uf, ug := uint64(f), uint64(g)
	var c, b uint64
	c, r0 = bits.Mul64(x[0], uf)
	c, r1 = madd1(x[1], uf, c)
	c, r2 = madd1(x[2], uf, c)
	r4, r3 = madd1(x[3], uf, c)
	c, r0 = madd1(y[0], ug, r0)
	c, r1 = madd2(y[1], ug, r1, c)
	c, r2 = madd2(y[2], ug, r2, c)
	c, r3 = madd2(y[3], ug, r3, c)
	r4 += c
	mf, mg := uint64(f>>63), uint64(g>>63)
	r1, b = bits.Sub64(r1, x[0]&mf, 0)
	r2, b = bits.Sub64(r2, x[1]&mf, b)
	r3, b = bits.Sub64(r3, x[2]&mf, b)
	r4 -= x[3]&mf + b
	r1, b = bits.Sub64(r1, y[0]&mg, 0)
	r2, b = bits.Sub64(r2, y[1]&mg, b)
	r3, b = bits.Sub64(r3, y[2]&mg, b)
	r4 -= y[3]&mg + b
	return
}

// gcdCombine sets z = |a·f + b·g| / 2^31, a division that the matrix
// makes exact, and negates f and g when the sum was negative.
func gcdCombine(z, a, b *[4]uint64, f, g *int64) {
	t0, t1, t2, t3, t4 := linComb(a, b, *f, *g)
	neg := uint64(int64(t4) >> 63) // negate without a branch: flip, add one
	var c uint64
	t0, c = bits.Add64(t0^neg, neg&1, 0)
	t1, c = bits.Add64(t1^neg, 0, c)
	t2, c = bits.Add64(t2^neg, 0, c)
	t3, c = bits.Add64(t3^neg, 0, c)
	t4 = t4 ^ neg + c
	sf := int64(neg | 1)
	*f, *g = *f*sf, *g*sf
	*z = [4]uint64{t0>>31 | t1<<33, t1>>31 | t2<<33, t2>>31 | t3<<33, t3>>31 | t4<<33}
}

// gcdMontCombine sets z = (u·f + v·g)·2^−64 mod m for u, v < m: one
// Montgomery reduction step leaves a signed value in (−2^223, m + 2^223),
// which one addition or subtraction of m brings into [0, m).
func gcdMontCombine(z, u, v *[4]uint64, f, g int64, m *modulus) {
	t0, t1, t2, t3, t4 := linComb(u, v, f, g)
	q := t0 * m.ninv
	c, _ := madd1(q, m.limbs[0], t0)
	c, z[0] = madd2(q, m.limbs[1], t1, c)
	c, z[1] = madd2(q, m.limbs[2], t2, c)
	c, z[2] = madd2(q, m.limbs[3], t3, c)
	z[3] = t4 + c
	neg := uint64(int64(z[3]) >> 63) // add m to a negative z without a branch
	z[0], c = bits.Add64(z[0], m.limbs[0]&neg, 0)
	z[1], c = bits.Add64(z[1], m.limbs[1]&neg, c)
	z[2], c = bits.Add64(z[2], m.limbs[2]&neg, c)
	z[3], _ = bits.Add64(z[3], m.limbs[3]&neg, c)
	if geqLimbs(z, &m.limbs) {
		subModulus(z, m)
	}
}
