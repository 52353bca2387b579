package ff

import "fmt"

// Fp6 is an element c0 + c1·v + c2·v² of Fp2[v]/(v³ − ξ), ξ = 9+u.
type Fp6 struct {
	C0, C1, C2 Fp2
}

// SetZero sets z = 0 and returns z.
func (z *Fp6) SetZero() *Fp6 { z.C0.SetZero(); z.C1.SetZero(); z.C2.SetZero(); return z }

// SetOne sets z = 1 and returns z.
func (z *Fp6) SetOne() *Fp6 { z.C0.SetOne(); z.C1.SetZero(); z.C2.SetZero(); return z }

// Set sets z = x and returns z.
func (z *Fp6) Set(x *Fp6) *Fp6 { *z = *x; return z }

// Add sets z = x+y and returns z.
func (z *Fp6) Add(x, y *Fp6) *Fp6 {
	z.C0.Add(&x.C0, &y.C0)
	z.C1.Add(&x.C1, &y.C1)
	z.C2.Add(&x.C2, &y.C2)
	return z
}

// Sub sets z = x−y and returns z.
func (z *Fp6) Sub(x, y *Fp6) *Fp6 {
	z.C0.Sub(&x.C0, &y.C0)
	z.C1.Sub(&x.C1, &y.C1)
	z.C2.Sub(&x.C2, &y.C2)
	return z
}

// Neg sets z = −x and returns z.
func (z *Fp6) Neg(x *Fp6) *Fp6 {
	z.C0.Neg(&x.C0)
	z.C1.Neg(&x.C1)
	z.C2.Neg(&x.C2)
	return z
}

// Mul sets z = x·y and returns z.
func (z *Fp6) Mul(x, y *Fp6) *Fp6 {
	var t0, t1, t2, c0, c1, c2, tmp Fp2
	t0.Mul(&x.C0, &y.C0)
	t1.Mul(&x.C1, &y.C1)
	t2.Mul(&x.C2, &y.C2)

	// c0 = t0 + ξ((a1+a2)(b1+b2) − t1 − t2)
	c0.Add(&x.C1, &x.C2)
	tmp.Add(&y.C1, &y.C2)
	c0.Mul(&c0, &tmp)
	c0.Sub(&c0, &t1)
	c0.Sub(&c0, &t2)
	c0.MulByNonResidue(&c0)
	c0.Add(&c0, &t0)

	// c1 = (a0+a1)(b0+b1) − t0 − t1 + ξ·t2
	c1.Add(&x.C0, &x.C1)
	tmp.Add(&y.C0, &y.C1)
	c1.Mul(&c1, &tmp)
	c1.Sub(&c1, &t0)
	c1.Sub(&c1, &t1)
	tmp.MulByNonResidue(&t2)
	c1.Add(&c1, &tmp)

	// c2 = (a0+a2)(b0+b2) − t0 − t2 + t1
	c2.Add(&x.C0, &x.C2)
	tmp.Add(&y.C0, &y.C2)
	c2.Mul(&c2, &tmp)
	c2.Sub(&c2, &t0)
	c2.Sub(&c2, &t2)
	c2.Add(&c2, &t1)

	z.C0.Set(&c0)
	z.C1.Set(&c1)
	z.C2.Set(&c2)
	return z
}

// Square sets z = x² and returns z (Chung–Hasan SQR2: three Fp2 squarings
// and two multiplications, against Mul's six multiplications).
func (z *Fp6) Square(x *Fp6) *Fp6 {
	// x² = (s0 + ξ·s3) + (s1 + ξ·s4)·v + (s1 + s2 + s3 − s0 − s4)·v²
	var s0, s1, s2, s3, s4, t Fp2
	s0.Square(&x.C0)
	s1.Mul(&x.C0, &x.C1)
	s1.Double(&s1)
	s2.Sub(&x.C0, &x.C1)
	s2.Add(&s2, &x.C2)
	s2.Square(&s2)
	s3.Mul(&x.C1, &x.C2)
	s3.Double(&s3)
	s4.Square(&x.C2)
	z.C2.Add(&s1, &s2)
	z.C2.Add(&z.C2, &s3)
	z.C2.Sub(&z.C2, &s0)
	z.C2.Sub(&z.C2, &s4)
	t.MulByNonResidue(&s3)
	z.C0.Add(&s0, &t)
	t.MulByNonResidue(&s4)
	z.C1.Add(&s1, &t)
	return z
}

// MulByV sets z = x·v and returns z (multiplication by the cubic generator).
func (z *Fp6) MulByV(x *Fp6) *Fp6 {
	// (c0 + c1v + c2v²)·v = ξ·c2 + c0·v + c1·v²
	var t Fp2
	t.MulByNonResidue(&x.C2)
	c0, c1 := x.C0, x.C1
	z.C0.Set(&t)
	z.C1.Set(&c0)
	z.C2.Set(&c1)
	return z
}

// mulBy01 sets z = x·(b0 + b1·v) and returns z (five Fp2 multiplications,
// against Mul's six).
func (z *Fp6) mulBy01(x *Fp6, b0, b1 *Fp2) *Fp6 {
	var t0, t1, c0, c1, c2, s Fp2
	t0.Mul(&x.C0, b0)
	t1.Mul(&x.C1, b1)
	// c0 = a0b0 + ξ·a2b1
	c0.Mul(&x.C2, b1)
	c0.MulByNonResidue(&c0)
	c0.Add(&c0, &t0)
	// c1 = (a0+a1)(b0+b1) − a0b0 − a1b1
	c1.Add(&x.C0, &x.C1)
	s.Add(b0, b1)
	c1.Mul(&c1, &s)
	c1.Sub(&c1, &t0)
	c1.Sub(&c1, &t1)
	// c2 = a2b0 + a1b1
	c2.Mul(&x.C2, b0)
	c2.Add(&c2, &t1)
	z.C0, z.C1, z.C2 = c0, c1, c2
	return z
}

// MulByFp2 sets z = x·c for c ∈ Fp2 and returns z.
func (z *Fp6) MulByFp2(x *Fp6, c *Fp2) *Fp6 {
	z.C0.Mul(&x.C0, c)
	z.C1.Mul(&x.C1, c)
	z.C2.Mul(&x.C2, c)
	return z
}

// Inverse sets z = x⁻¹ and returns z. The inverse of 0 is 0.
func (z *Fp6) Inverse(x *Fp6) *Fp6 {
	var c0, c1, c2, t, f Fp2
	// c0 = a0² − ξ·a1·a2
	c0.Square(&x.C0)
	t.Mul(&x.C1, &x.C2)
	t.MulByNonResidue(&t)
	c0.Sub(&c0, &t)
	// c1 = ξ·a2² − a0·a1
	c1.Square(&x.C2)
	c1.MulByNonResidue(&c1)
	t.Mul(&x.C0, &x.C1)
	c1.Sub(&c1, &t)
	// c2 = a1² − a0·a2
	c2.Square(&x.C1)
	t.Mul(&x.C0, &x.C2)
	c2.Sub(&c2, &t)
	// f = a0·c0 + ξ·a1·c2 + ξ·a2·c1
	f.Mul(&x.C0, &c0)
	t.Mul(&x.C1, &c2)
	t.MulByNonResidue(&t)
	f.Add(&f, &t)
	t.Mul(&x.C2, &c1)
	t.MulByNonResidue(&t)
	f.Add(&f, &t)
	f.Inverse(&f)
	z.C0.Mul(&c0, &f)
	z.C1.Mul(&c1, &f)
	z.C2.Mul(&c2, &f)
	return z
}

// Equal reports whether z == x.
func (z *Fp6) Equal(x *Fp6) bool {
	return z.C0.Equal(&x.C0) && z.C1.Equal(&x.C1) && z.C2.Equal(&x.C2)
}

// IsZero reports whether z == 0.
func (z *Fp6) IsZero() bool { return z.C0.IsZero() && z.C1.IsZero() && z.C2.IsZero() }

// String renders z as "(c0) + (c1)v + (c2)v²".
func (z *Fp6) String() string {
	return fmt.Sprintf("(%v) + (%v)v + (%v)v^2", &z.C0, &z.C1, &z.C2)
}
