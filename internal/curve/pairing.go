package curve

import (
	"math/big"
	"math/bits"
	"sync/atomic"

	"zkvc/internal/ff"
	"zkvc/internal/parallel"
)

// GT is the pairing target group (the order-r subgroup of Fp12*).
type GT = ff.Fp12

// The pairing implemented here is the optimal ate pairing (Vercauteren,
// "Optimal Pairings", IEEE Trans. IT 2010)
//
//	e(P, Q) = (f_{6x+2,Q}(P) · l_{T,π(Q)}(P) · l_{T+π(Q),−π²(Q)}(P))^((p¹²−1)/r)
//
// with P ∈ G1 ⊂ E(Fp), Q ∈ G2 ⊂ E'(Fp2), x the BN parameter, T = [6x+2]Q
// and π the p-power Frobenius, which acts on G2 as multiplication by p
// (6x+2 + p − p² + p³ ≡ 0 mod r makes the product a pairing). The Miller
// loop walks the signed digits of 6x+2 with T kept in homogeneous
// projective coordinates over Fp2, so it inverts nothing, and multiplies
// each step's line, evaluated at P, into f as a sparse Fp12 element
// (ff.Fp12.MulByLine). Lines are computed up to Fp2 factors and vertical
// lines are dropped: both lie in Fp6, which the final exponentiation maps
// to 1. The final exponentiation splits (p¹²−1)/r = (p⁶−1)(p²+1) ·
// (p⁴−p²+1)/r into an easy part (one inversion and Frobenius maps) and a
// hard part (three exponentiations by x in cyclotomic squarings, combined
// through Frobenius maps); the result is bit-identical to raising to the
// full exponent. Bilinearity, non-degeneracy and verdict parity with the
// reduced Tate pairing are exercised by tests rather than assumed.

// bnX is the BN254 curve parameter: p = 36x⁴+36x³+24x²+6x+1 and
// r = 36x⁴+36x³+18x²+6x+1 (pinned by test).
const bnX uint64 = 4965661367192848881

// ateLoop holds the non-adjacent form of 6x+2, least significant digit
// first: 66 digits in {−1, 0, 1}, 22 of them nonzero (pinned by test).
var ateLoop = func() (digits []int8) {
	k := new(big.Int).SetUint64(bnX)
	k.Add(k.Mul(k, big.NewInt(6)), big.NewInt(2))
	for ; k.Sign() > 0; k.Rsh(k, 1) {
		var d int8
		if k.Bit(0) == 1 {
			d = 1 - 2*int8(k.Bit(1)) // k − d ≡ 0 mod 4
			k.Sub(k, big.NewInt(int64(d)))
		}
		digits = append(digits, d)
	}
	return digits
}()

// threeTwistB is 3b' for the twist equation y² = x³ + b'.
var threeTwistB = func() (t ff.Fp2) {
	b := TwistB()
	return *t.Add(t.Double(&b), &b)
}()

// atePair is one (P, Q) pair of a Miller loop: T runs from Q to
// [6x+2]Q in homogeneous projective coordinates (x = X/Z, y = Y/Z).
type atePair struct {
	xP, negYP  ff.Fp
	q, negQ    G2Affine
	tx, ty, tz ff.Fp2
}

// newAtePair starts the loop for finite P and Q at T = Q.
func newAtePair(p *G1Affine, q *G2Affine) atePair {
	a := atePair{xP: p.X, q: *q, tx: q.X, ty: q.Y}
	a.negYP.Neg(&p.Y)
	a.negQ.Neg(q)
	a.tz.SetOne()
	return a
}

// double sets T = 2T and multiplies f by the tangent at T, evaluated at
// P (Costello–Lange–Naehrig, PKC 2010). Scaled by −2y_T·Z², the tangent
// is −2YZ·yP + 3X²·xP·w + (3b'Z² − Y²)·w³, using y_T² = x_T³ + b'.
func (a *atePair) double(f *ff.Fp12) {
	var b, c, e, h, s, t ff.Fp2
	b.Square(&a.ty)
	c.Square(&a.tz)
	e.Mul(&c, &threeTwistB) // 3b'Z²
	h.Add(&a.ty, &a.tz)
	h.Square(&h)
	h.Sub(&h, &b)
	h.Sub(&h, &c) // 2YZ

	var l0, l1, l3 ff.Fp2
	l0.MulByFp(&h, &a.negYP)
	t.Square(&a.tx)
	l1.Double(&t)
	l1.Add(&l1, &t)
	l1.MulByFp(&l1, &a.xP)
	l3.Sub(&e, &b)

	// 2T, all coordinates scaled by 4 to avoid halvings:
	// X' = 2XY(Y² − 9b'Z²), Y' = (Y² + 9b'Z²)² − 12(3b'Z²)², Z' = 8Y³Z.
	s.Double(&e)
	s.Add(&s, &e) // 9b'Z²
	t.Mul(&a.tx, &a.ty)
	t.Double(&t)
	a.tx.Sub(&b, &s)
	a.tx.Mul(&a.tx, &t)
	a.ty.Add(&b, &s)
	a.ty.Square(&a.ty)
	t.Square(&e)
	s.Double(&t)
	s.Add(&s, &t)
	s.Double(&s)
	s.Double(&s) // 12(3b'Z²)²
	a.ty.Sub(&a.ty, &s)
	a.tz.Mul(&b, &h)
	a.tz.Double(&a.tz)
	a.tz.Double(&a.tz)

	f.MulByLine(f, &l0, &l1, &l3)
}

// add sets T = T + Q for an affine Q ≠ ±T and multiplies f by the line
// through T and Q, evaluated at P. With θ = Y − y_Q·Z and λ = X − x_Q·Z
// the slope is θ/λ, and the line scaled by −λ is
// −λ·yP + θ·xP·w + (λ·y_Q − θ·x_Q)·w³.
func (a *atePair) add(f *ff.Fp12, q *G2Affine) {
	var theta, lambda, c, d, e, g, h, t ff.Fp2
	theta.Mul(&q.Y, &a.tz)
	theta.Sub(&a.ty, &theta)
	lambda.Mul(&q.X, &a.tz)
	lambda.Sub(&a.tx, &lambda)
	c.Square(&theta)
	d.Square(&lambda)
	e.Mul(&lambda, &d) // λ³
	g.Mul(&a.tx, &d)   // Xλ²
	h.Mul(&a.tz, &c)
	h.Add(&h, &e)
	h.Sub(&h, &g)
	h.Sub(&h, &g) // λ³ + Zθ² − 2Xλ²

	var l0, l1, l3 ff.Fp2
	l0.MulByFp(&lambda, &a.negYP)
	l1.MulByFp(&theta, &a.xP)
	l3.Mul(&lambda, &q.Y)
	t.Mul(&theta, &q.X)
	l3.Sub(&l3, &t)

	// T + Q = (λH, θ(Xλ² − H) − Yλ³, Zλ³).
	a.tx.Mul(&lambda, &h)
	t.Sub(&g, &h)
	t.Mul(&t, &theta)
	a.ty.Mul(&a.ty, &e)
	a.ty.Sub(&t, &a.ty)
	a.tz.Mul(&a.tz, &e)

	f.MulByLine(f, &l0, &l1, &l3)
}

// multiMillerLoop returns the product of the optimal ate Miller values of
// the pairs: f is squared once per digit of 6x+2 for all of them, and each
// pair multiplies in its own lines. A pair with a point at infinity
// contributes 1.
//
// The projective steps have no branch for exceptional points, and need
// none when every P_i ∈ G1 and Q_i ∈ G2. T is always [m]Q with m ≥ 1 a
// prefix value of the NAF, so m < 6x+3 < r and T is never infinity nor,
// as Q has odd order, a point with y = 0. An addition of ±Q would break
// only at T = ±Q, m ≡ ±1 (mod r), but every addition follows a doubling,
// so m ≥ 2 there. The closing additions would break only at
// 6x+2 ≡ ±p or 6x+2+p ≡ ±p² (mod r), which do not hold (all pinned by
// test). Off G2, π is not multiplication by p and none of this holds.
func multiMillerLoop(ps []G1Affine, qs []G2Affine) ff.Fp12 {
	var buf [4]atePair
	pairs := buf[:0]
	if len(ps) > len(buf) {
		pairs = make([]atePair, 0, len(ps))
	}
	for i := range ps {
		if !ps[i].Infinity && !qs[i].Infinity {
			pairs = append(pairs, newAtePair(&ps[i], &qs[i]))
		}
	}

	var f ff.Fp12
	f.SetOne()
	for i := len(ateLoop) - 2; i >= 0; i-- {
		f.Square(&f)
		for j := range pairs {
			a := &pairs[j]
			a.double(&f)
			switch ateLoop[i] {
			case 1:
				a.add(&f, &a.q)
			case -1:
				a.add(&f, &a.negQ)
			}
		}
	}
	for j := range pairs {
		a := &pairs[j]
		var q1, q2 G2Affine
		q1.frobenius(&a.q, 1)
		q2.frobenius(&a.q, 2)
		a.add(&f, &q1)
		a.add(&f, q2.Neg(&q2))
	}
	return f
}

// Pairing work counters: Miller loops (one per pair, whether or not it
// shares a multi-Miller loop with others) and final exponentiations (one
// per pairing-product evaluation, shared by all pairs of a PairingCheck).
// A final exponentiation costs more than a Miller loop, so both counts
// matter when comparing per-proof with batched verification. Counts are
// process-wide and monotone; callers measure deltas around a workload.
var millerLoopCount, finalExpCount atomic.Uint64

// PairingCounts reports the process-wide totals of Miller-loop
// evaluations and final exponentiations (= pairing-product evaluations)
// performed so far. Tests and benchmark/ snapshot deltas around per-op
// and aggregate verification to pin the k→1 pairing reduction.
func PairingCounts() (millerLoops, finalExps uint64) {
	return millerLoopCount.Load(), finalExpCount.Load()
}

// MillerLoop computes the optimal ate Miller value of (P, Q), without the
// final exponentiation.
func MillerLoop(p *G1Affine, q *G2Affine) ff.Fp12 {
	millerLoopCount.Add(1)
	return multiMillerLoop([]G1Affine{*p}, []G2Affine{*q})
}

// FinalExponentiation maps a Miller-loop output into GT: it returns
// f^((p¹²−1)/r), allocation-free.
func FinalExponentiation(f *ff.Fp12) GT {
	finalExpCount.Add(1)
	// Easy part: m = f^((p⁶−1)(p²+1)), using f^(p⁶) = conj(f). From here
	// on every value lies in the cyclotomic subgroup.
	var m, t ff.Fp12
	t.Inverse(f)
	m.Conjugate(f)
	m.Mul(&m, &t)
	t.Frobenius(&m, 2)
	m.Mul(&m, &t)
	return finalExpHard(&m)
}

// finalExpHard returns m^((p⁴−p²+1)/r) for m in the cyclotomic subgroup,
// through the vectorial addition chain of Scott et al. ("On the Final
// Exponentiation for Calculating Pairings on Ordinary Elliptic Curves",
// Pairing 2009): the exponent is λ0 + λ1·p + λ2·p² + λ3·p³ with
// λ3 = 1, λ2 = 6x²+1, λ1 = −36x³−18x²−12x+1, λ0 = −36x³−30x²−18x−2,
// exactly (pinned by test), so
//
//	m^… = y0 · y1² · y2⁶ · y3¹² · y4¹⁸ · y5³⁰ · y6³⁶
//
// with the yᵢ below. Inversion on the subgroup is conjugation.
func finalExpHard(m *ff.Fp12) GT {
	var mx, mx2, mx3 ff.Fp12
	expByX(&mx, m)
	expByX(&mx2, &mx)
	expByX(&mx3, &mx2)

	var y0, y1, y2, y3, y4, y5, y6, t ff.Fp12
	y0.Frobenius(m, 1) // y0 = m^p · m^(p²) · m^(p³)
	t.Frobenius(m, 2)
	y0.Mul(&y0, &t)
	t.Frobenius(m, 3)
	y0.Mul(&y0, &t)
	y1.Conjugate(m)       // y1 = m⁻¹
	y2.Frobenius(&mx2, 2) // y2 = m^(x²p²)
	y3.Frobenius(&mx, 1)  // y3 = m^(−xp)
	y3.Conjugate(&y3)
	y4.Frobenius(&mx2, 1) // y4 = m^(−x−x²p)
	y4.Mul(&y4, &mx)
	y4.Conjugate(&y4)
	y5.Conjugate(&mx2)    // y5 = m^(−x²)
	y6.Frobenius(&mx3, 1) // y6 = m^(−x³−x³p)
	y6.Mul(&y6, &mx3)
	y6.Conjugate(&y6)

	// 13 multiplications and 4 squarings in all, counting the yᵢ above.
	var t0, t1 ff.Fp12
	t0.CyclotomicSquare(&y6)
	t0.Mul(&t0, &y4)
	t0.Mul(&t0, &y5)
	t1.Mul(&y3, &y5)
	t1.Mul(&t1, &t0)
	t0.Mul(&t0, &y2)
	t1.CyclotomicSquare(&t1)
	t1.Mul(&t1, &t0)
	t1.CyclotomicSquare(&t1)
	t0.Mul(&t1, &y1)
	t1.Mul(&t1, &y0)
	t0.CyclotomicSquare(&t0)
	t0.Mul(&t0, &t1)
	return t0
}

// expByX sets z = m^x for the BN parameter x (left-to-right binary, in
// cyclotomic squarings: m must be in the cyclotomic subgroup).
func expByX(z, m *ff.Fp12) {
	acc := *m
	for i := bits.Len64(bnX) - 2; i >= 0; i-- {
		acc.CyclotomicSquare(&acc)
		if bnX>>i&1 == 1 {
			acc.Mul(&acc, m)
		}
	}
	*z = acc
}

// Pair computes the optimal ate pairing e(P, Q).
func Pair(p *G1Affine, q *G2Affine) GT {
	f := MillerLoop(p, q)
	return FinalExponentiation(&f)
}

// PairingCheck reports whether Π e(P_i, Q_i) == 1 (the Groth16
// verification pattern). The pairs are cut into one chunk per worker of
// the shared budget, each chunk runs one multi-Miller loop, and the chunk
// values are multiplied before one shared final exponentiation. That
// product is exact, so the verdict does not depend on the worker count.
//
// Every P_i must lie in G1 and every Q_i in G2 (see multiMillerLoop).
// Callers get this from the wire decoders' subgroup checks and from
// groth16.Setup, which derives every key point from the generators.
func PairingCheck(ps []G1Affine, qs []G2Affine) bool {
	if len(ps) != len(qs) {
		panic("curve: PairingCheck length mismatch")
	}
	millerLoopCount.Add(uint64(len(ps)))
	var f ff.Fp12
	f.SetOne()
	if len(ps) > 0 {
		pool := parallel.Default()
		grain := (len(ps) + pool.Size() - 1) / pool.Size()
		f = parallel.MapReduce(pool, len(ps), grain, func(start, end int) ff.Fp12 {
			return multiMillerLoop(ps[start:end], qs[start:end])
		}, func(acc, next ff.Fp12) ff.Fp12 {
			return *acc.Mul(&acc, &next)
		})
	}
	out := FinalExponentiation(&f)
	return out.IsOne()
}
