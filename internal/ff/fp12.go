package ff

import (
	"fmt"
	"math/big"
)

// Fp12 is an element d0 + d1·w of Fp6[w]/(w² − v). It is the target group
// of the pairing (after final exponentiation the element lies in GT, the
// order-r subgroup).
type Fp12 struct {
	D0, D1 Fp6
}

// SetZero sets z = 0 and returns z.
func (z *Fp12) SetZero() *Fp12 { z.D0.SetZero(); z.D1.SetZero(); return z }

// SetOne sets z = 1 and returns z.
func (z *Fp12) SetOne() *Fp12 { z.D0.SetOne(); z.D1.SetZero(); return z }

// Set sets z = x and returns z.
func (z *Fp12) Set(x *Fp12) *Fp12 { *z = *x; return z }

// Add sets z = x+y and returns z.
func (z *Fp12) Add(x, y *Fp12) *Fp12 {
	z.D0.Add(&x.D0, &y.D0)
	z.D1.Add(&x.D1, &y.D1)
	return z
}

// Sub sets z = x−y and returns z.
func (z *Fp12) Sub(x, y *Fp12) *Fp12 {
	z.D0.Sub(&x.D0, &y.D0)
	z.D1.Sub(&x.D1, &y.D1)
	return z
}

// Mul sets z = x·y and returns z.
func (z *Fp12) Mul(x, y *Fp12) *Fp12 {
	var v0, v1, t0, t1 Fp6
	v0.Mul(&x.D0, &y.D0)
	v1.Mul(&x.D1, &y.D1)
	t0.Add(&x.D0, &x.D1)
	t1.Add(&y.D0, &y.D1)
	t0.Mul(&t0, &t1)
	t0.Sub(&t0, &v0)
	t0.Sub(&t0, &v1) // = d0e1 + d1e0
	v1.MulByV(&v1)   // v·d1e1
	z.D0.Add(&v0, &v1)
	z.D1.Set(&t0)
	return z
}

// MulByLine sets z = x·(c0 + c1·w + c3·w³) and returns z: the product by a
// Miller-loop line, in thirteen Fp2 multiplications against Mul's eighteen.
//
// Every line has this shape. The untwist maps a twist point (x, y) to
// (x·w², y·w³), so a line of slope λ' on the twist through T has slope
// λ'·w on the curve, and at P = (xP, yP) ∈ E(Fp) it evaluates to
//
//	yP − λ'·xP·w + (λ'·x_T − y_T)·w³
//
// which, scaled by any Fp2 factor, has nonzero coefficients only at w⁰
// (D0.C0), w¹ (D1.C0) and w³ (D1.C1). In the tower the line is
// c0 + (c1 + c3·v)·w, so its D0 half is a scalar and its D1 half sparse.
func (z *Fp12) MulByLine(x *Fp12, c0, c1, c3 *Fp2) *Fp12 {
	// (d0 + d1·w)(c0 + e·w), e = c1 + c3·v:
	// d0·c0 + v·d1·e + ((d0 + d1)(c0 + e) − d0·c0 − d1·e)·w
	var a, b, t Fp6
	var s Fp2
	a.MulByFp2(&x.D0, c0)
	b.mulBy01(&x.D1, c1, c3)
	s.Add(c0, c1)
	t.Add(&x.D0, &x.D1)
	t.mulBy01(&t, &s, c3)
	t.Sub(&t, &a)
	z.D1.Sub(&t, &b)
	b.MulByV(&b)
	z.D0.Add(&a, &b)
	return z
}

// Square sets z = x² and returns z (complex method: two Fp6 multiplications,
// against Mul's three).
func (z *Fp12) Square(x *Fp12) *Fp12 {
	// (d0 + d1w)² = (d0 + d1)(d0 + v·d1) − t − v·t + 2t·w, t = d0·d1
	var t, s0, s1 Fp6
	t.Mul(&x.D0, &x.D1)
	s0.Add(&x.D0, &x.D1)
	s1.MulByV(&x.D1)
	s1.Add(&s1, &x.D0)
	s0.Mul(&s0, &s1)
	s0.Sub(&s0, &t)
	s1.MulByV(&t)
	z.D0.Sub(&s0, &s1)
	z.D1.Add(&t, &t)
	return z
}

// CyclotomicSquare sets z = x² and returns z, for x in the cyclotomic
// subgroup of order p⁴ − p² + 1 only. The final exponentiation's easy part
// f^((p⁶−1)(p²+1)) lands in it and the hard part never leaves it, so the
// hard part is the one caller. On any other x the result is not x².
//
// Granger–Scott (PKC 2010): view Fp12 as Fp4[w]/(w³ − t) with
// Fp4 = Fp2[t]/(t² − ξ), t = w³, and x = a + b·w + c·w². On the
// subgroup x² = (3a² − 2ā) + (3t·c² + 2b̄)·w + (3b² − 2c̄)·w², where ā is
// the conjugate over Fp2 — three Fp4 squarings, nine Fp2 squarings in all.
func (z *Fp12) CyclotomicSquare(x *Fp12) *Fp12 {
	// a = c0 + c3·t, b = c1 + c4·t, c = c2 + c5·t with cᵢ the wⁱ coefficient.
	a0, a1 := fp4Square(&x.D0.C0, &x.D1.C1)
	b0, b1 := fp4Square(&x.D1.C0, &x.D0.C2)
	c0, c1 := fp4Square(&x.D0.C1, &x.D1.C2)
	c1.MulByNonResidue(&c1) // t·c² = ξ·c1 + c0·t
	gsCoeff(&z.D0.C0, &a0, &x.D0.C0, false)
	gsCoeff(&z.D1.C1, &a1, &x.D1.C1, true)
	gsCoeff(&z.D1.C0, &c1, &x.D1.C0, true)
	gsCoeff(&z.D0.C2, &c0, &x.D0.C2, false)
	gsCoeff(&z.D0.C1, &b0, &x.D0.C1, false)
	gsCoeff(&z.D1.C2, &b1, &x.D1.C2, true)
	return z
}

// fp4Square returns (a + b·t)² = (a² + ξ·b²) + 2ab·t in Fp2[t]/(t² − ξ).
func fp4Square(a, b *Fp2) (c0, c1 Fp2) {
	var a2, b2 Fp2
	a2.Square(a)
	b2.Square(b)
	c1.Add(a, b)
	c1.Square(&c1)
	c1.Sub(&c1, &a2)
	c1.Sub(&c1, &b2)
	c0.MulByNonResidue(&b2)
	c0.Add(&c0, &a2)
	return c0, c1
}

// gsCoeff sets z = 3s + 2c when plus, else 3s − 2c.
func gsCoeff(z, s, c *Fp2, plus bool) {
	var t Fp2
	if plus {
		t.Add(s, c)
	} else {
		t.Sub(s, c)
	}
	t.Double(&t)
	z.Add(&t, s)
}

// Frobenius sets z = x^(p^k) for k ∈ {1, 2, 3} and returns z: the wⁱ
// coefficient cᵢ becomes conj^k(cᵢ)·γ_kⁱ (see frobGamma).
func (z *Fp12) Frobenius(x *Fp12, k int) *Fp12 {
	in := [6]*Fp2{&x.D0.C0, &x.D1.C0, &x.D0.C1, &x.D1.C1, &x.D0.C2, &x.D1.C2}
	out := [6]*Fp2{&z.D0.C0, &z.D1.C0, &z.D0.C1, &z.D1.C1, &z.D0.C2, &z.D1.C2}
	for i, c := range in {
		t := *c
		if k&1 == 1 {
			t.Conjugate(&t)
		}
		out[i].Mul(&t, &frobGamma[k-1][i])
	}
	return z
}

// Conjugate sets z = d0 − d1·w and returns z. For unitary elements (after
// final exponentiation) the conjugate equals the inverse.
func (z *Fp12) Conjugate(x *Fp12) *Fp12 {
	z.D0.Set(&x.D0)
	z.D1.Neg(&x.D1)
	return z
}

// Inverse sets z = x⁻¹ and returns z. The inverse of 0 is 0.
func (z *Fp12) Inverse(x *Fp12) *Fp12 {
	// 1/(d0 + d1w) = (d0 − d1w)/(d0² − v·d1²)
	var t0, t1 Fp6
	t0.Square(&x.D0)
	t1.Square(&x.D1)
	t1.MulByV(&t1)
	t0.Sub(&t0, &t1)
	t0.Inverse(&t0)
	z.D0.Mul(&x.D0, &t0)
	t0.Neg(&t0)
	z.D1.Mul(&x.D1, &t0)
	return z
}

// Exp sets z = x^e and returns z (generic square-and-multiply; a negative e
// inverts first). The pairing does not call it: the final exponentiation
// uses Frobenius maps and cyclotomic squarings, and its tests use Exp by
// (p¹²−1)/r as the reference.
func (z *Fp12) Exp(x *Fp12, e *big.Int) *Fp12 {
	var base Fp12
	base.Set(x)
	if e.Sign() < 0 {
		base.Inverse(&base)
		e = new(big.Int).Neg(e)
	}
	var acc Fp12
	acc.SetOne()
	for i := e.BitLen() - 1; i >= 0; i-- {
		acc.Square(&acc)
		if e.Bit(i) == 1 {
			acc.Mul(&acc, &base)
		}
	}
	return z.Set(&acc)
}

// Equal reports whether z == x.
func (z *Fp12) Equal(x *Fp12) bool { return z.D0.Equal(&x.D0) && z.D1.Equal(&x.D1) }

// IsZero reports whether z == 0.
func (z *Fp12) IsZero() bool { return z.D0.IsZero() && z.D1.IsZero() }

// IsOne reports whether z == 1.
func (z *Fp12) IsOne() bool {
	var one Fp12
	one.SetOne()
	return z.Equal(&one)
}

// String renders z as "(d0) + (d1)w".
func (z *Fp12) String() string { return fmt.Sprintf("(%v) + (%v)w", &z.D0, &z.D1) }
