package curve

import (
	"math/bits"
	"sync/atomic"

	"zkvc/internal/ff"
)

// GT is the pairing target group (the order-r subgroup of Fp12*).
type GT = ff.Fp12

// The pairing implemented here is the reduced Tate pairing
//
//	e(P, Q) = f_{r,P}(ψ(Q))^((p^12−1)/r)
//
// with P ∈ G1 ⊂ E(Fp), Q ∈ G2 ⊂ E'(Fp2) and ψ the untwist isomorphism
// ψ(x, y) = (x·w², y·w³) into E(Fp12). The Miller loop runs over the bits
// of r with affine line functions (line slopes live in Fp, so evaluating a
// line at ψ(Q) is a cheap sparse Fp12 product). The final exponentiation
// splits (p¹²−1)/r = (p⁶−1)(p²+1) · (p⁴−p²+1)/r into an easy part (one
// inversion and Frobenius maps) and a hard part (three exponentiations by
// the 63-bit BN parameter x in cyclotomic squarings, combined through
// Frobenius maps); the result is bit-identical to raising to the full
// exponent, which the tests keep as the reference. Bilinearity and
// non-degeneracy are exercised by tests rather than assumed.

// bnX is the BN254 curve parameter: p = 36x⁴+36x³+24x²+6x+1 and
// r = 36x⁴+36x³+18x²+6x+1 (pinned by test).
const bnX uint64 = 4965661367192848881

// millerState tracks the running point T of the Miller loop in affine
// coordinates over Fp.
type millerState struct {
	x, y ff.Fp
	inf  bool
}

// sparseLine builds the Fp12 element
//
//	c + a·x_Q·v + b·y_Q·v·w
//
// which is how every line function evaluates at the untwisted Q.
func sparseLine(c, a *ff.Fp, bIsOne bool, q *G2Affine) ff.Fp12 {
	var l ff.Fp12
	l.D0.C0.A0.Set(c)
	l.D0.C1.MulByFp(&q.X, a)
	if bIsOne {
		l.D1.C1.Set(&q.Y)
	}
	return l
}

// lineDouble evaluates the tangent line at T against ψ(Q) and doubles T.
func (t *millerState) lineDouble(q *G2Affine) ff.Fp12 {
	// λ = 3x²/(2y);  l(ψQ) = y_ψQ − λ·x_ψQ + (λ·x_T − y_T)
	var num, den, lambda, c, a ff.Fp
	num.Square(&t.x)
	var three ff.Fp
	three.SetUint64(3)
	num.Mul(&num, &three)
	den.Double(&t.y)
	den.Inverse(&den)
	lambda.Mul(&num, &den)

	c.Mul(&lambda, &t.x)
	c.Sub(&c, &t.y)
	a.Neg(&lambda)
	l := sparseLine(&c, &a, true, q)

	// T = 2T: x3 = λ² − 2x, y3 = λ(x − x3) − y
	var x3, y3 ff.Fp
	x3.Square(&lambda)
	x3.Sub(&x3, &t.x)
	x3.Sub(&x3, &t.x)
	y3.Sub(&t.x, &x3)
	y3.Mul(&y3, &lambda)
	y3.Sub(&y3, &t.y)
	t.x.Set(&x3)
	t.y.Set(&y3)
	return l
}

// lineAdd evaluates the line through T and P against ψ(Q) and sets
// T = T + P. When T = −P the line is the vertical x − x_T and T becomes
// the point at infinity (this happens exactly at the last bit of r).
func (t *millerState) lineAdd(p *G1Affine, q *G2Affine) ff.Fp12 {
	if t.x.Equal(&p.X) {
		var negY ff.Fp
		negY.Neg(&p.Y)
		if t.y.Equal(&negY) {
			// vertical: l = x_ψQ − x_T
			var c, a ff.Fp
			c.Neg(&t.x)
			a.SetOne()
			t.inf = true
			return sparseLine(&c, &a, false, q)
		}
		// T == P: tangent.
		return t.lineDouble(q)
	}
	var num, den, lambda, c, a ff.Fp
	num.Sub(&p.Y, &t.y)
	den.Sub(&p.X, &t.x)
	den.Inverse(&den)
	lambda.Mul(&num, &den)

	c.Mul(&lambda, &t.x)
	c.Sub(&c, &t.y)
	a.Neg(&lambda)
	l := sparseLine(&c, &a, true, q)

	var x3, y3 ff.Fp
	x3.Square(&lambda)
	x3.Sub(&x3, &t.x)
	x3.Sub(&x3, &p.X)
	y3.Sub(&t.x, &x3)
	y3.Mul(&y3, &lambda)
	y3.Sub(&y3, &t.y)
	t.x.Set(&x3)
	t.y.Set(&y3)
	return l
}

// Pairing work counters: Miller loops, and final exponentiations (one per
// pairing-product evaluation, shared by all pairs of a PairingCheck). A
// final exponentiation costs about a quarter of an affine Miller loop, so
// both counts matter when comparing per-proof with batched verification.
// Counts are process-wide and monotone; callers measure deltas around a
// workload.
var millerLoopCount, finalExpCount atomic.Uint64

// PairingCounts reports the process-wide totals of Miller-loop
// evaluations and final exponentiations (= pairing-product evaluations)
// performed so far. Tests and benchmark/ snapshot deltas around per-op
// and aggregate verification to pin the k→1 pairing reduction.
func PairingCounts() (millerLoops, finalExps uint64) {
	return millerLoopCount.Load(), finalExpCount.Load()
}

// MillerLoop computes f_{r,P}(ψ(Q)) without the final exponentiation.
func MillerLoop(p *G1Affine, q *G2Affine) ff.Fp12 {
	millerLoopCount.Add(1)
	var f ff.Fp12
	f.SetOne()
	if p.Infinity || q.Infinity {
		return f
	}
	r := ff.RModulus()
	t := millerState{x: p.X, y: p.Y}
	for i := r.BitLen() - 2; i >= 0; i-- {
		f.Square(&f)
		if t.inf {
			continue
		}
		l := t.lineDouble(q)
		f.Mul(&f, &l)
		if r.Bit(i) == 1 && !t.inf {
			l := t.lineAdd(p, q)
			f.Mul(&f, &l)
		}
	}
	return f
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

// Pair computes the reduced Tate pairing e(P, Q).
func Pair(p *G1Affine, q *G2Affine) GT {
	f := MillerLoop(p, q)
	return FinalExponentiation(&f)
}

// PairingCheck reports whether Π e(P_i, Q_i) == 1, sharing one final
// exponentiation across all pairs (the Groth16 verification pattern).
func PairingCheck(ps []G1Affine, qs []G2Affine) bool {
	if len(ps) != len(qs) {
		panic("curve: PairingCheck length mismatch")
	}
	var f ff.Fp12
	f.SetOne()
	millers := make([]ff.Fp12, len(ps))
	parallelFor(len(ps), func(start, end int) {
		for i := start; i < end; i++ {
			millers[i] = MillerLoop(&ps[i], &qs[i])
		}
	})
	for i := range millers {
		f.Mul(&f, &millers[i])
	}
	out := FinalExponentiation(&f)
	return out.IsOne()
}
