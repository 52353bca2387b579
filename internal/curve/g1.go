// Package curve implements the BN254 (alt_bn128) elliptic curve groups G1
// and G2, multi-scalar multiplication, and the optimal ate pairing into
// Fp12.
//
// G1 is E(Fp): y² = x³ + 3, generator (1, 2).
// G2 is the order-r subgroup of the D-twist E'(Fp2): y² = x³ + 3/(9+u).
//
// Jacobian coordinates (X, Y, Z) represent the affine point (X/Z², Y/Z³);
// Z = 0 is the point at infinity.
package curve

import (
	"zkvc/internal/ff"
)

// G1Affine is a point on G1 in affine coordinates.
type G1Affine struct {
	X, Y     ff.Fp
	Infinity bool
}

// G1Jac is a point on G1 in Jacobian coordinates.
type G1Jac struct {
	X, Y, Z ff.Fp
}

// G1Generator returns the standard generator (1, 2).
func G1Generator() G1Affine {
	var g G1Affine
	g.X.SetUint64(1)
	g.Y.SetUint64(2)
	return g
}

// G1GeneratorJac returns the generator in Jacobian coordinates.
func G1GeneratorJac() G1Jac {
	var g G1Jac
	a := G1Generator()
	g.FromAffine(&a)
	return g
}

// IsOnCurve reports whether p satisfies y² = x³ + 3 (or is infinity).
func (p *G1Affine) IsOnCurve() bool {
	if p.Infinity {
		return true
	}
	var lhs, rhs, three ff.Fp
	three.SetUint64(3)
	lhs.Square(&p.Y)
	rhs.Square(&p.X)
	rhs.Mul(&rhs, &p.X)
	rhs.Add(&rhs, &three)
	return lhs.Equal(&rhs)
}

// Neg sets p = −q and returns p.
func (p *G1Affine) Neg(q *G1Affine) *G1Affine {
	p.X.Set(&q.X)
	p.Y.Neg(&q.Y)
	p.Infinity = q.Infinity
	return p
}

// Equal reports whether two affine points are the same.
func (p *G1Affine) Equal(q *G1Affine) bool {
	if p.Infinity || q.Infinity {
		return p.Infinity == q.Infinity
	}
	return p.X.Equal(&q.X) && p.Y.Equal(&q.Y)
}

// SetInfinity sets p to the point at infinity and returns p.
func (p *G1Jac) SetInfinity() *G1Jac {
	p.X.SetOne()
	p.Y.SetOne()
	p.Z.SetZero()
	return p
}

// IsInfinity reports whether p is the point at infinity.
func (p *G1Jac) IsInfinity() bool { return p.Z.IsZero() }

// zIsOne reports whether p is in affine form, Z = 1.
func (p *G1Jac) zIsOne() bool { return p.Z.IsOne() }

// Set sets p = q and returns p.
func (p *G1Jac) Set(q *G1Jac) *G1Jac { *p = *q; return p }

// FromAffine loads an affine point into Jacobian coordinates.
func (p *G1Jac) FromAffine(a *G1Affine) *G1Jac {
	if a.Infinity {
		return p.SetInfinity()
	}
	p.X.Set(&a.X)
	p.Y.Set(&a.Y)
	p.Z.SetOne()
	return p
}

// ToAffine converts p to affine coordinates (one field inversion).
func (p *G1Jac) ToAffine() G1Affine {
	var out G1Affine
	if p.IsInfinity() {
		out.Infinity = true
		return out
	}
	var zInv, zInv2, zInv3 ff.Fp
	zInv.Inverse(&p.Z)
	zInv2.Square(&zInv)
	zInv3.Mul(&zInv2, &zInv)
	out.X.Mul(&p.X, &zInv2)
	out.Y.Mul(&p.Y, &zInv3)
	return out
}

// Neg sets p = −q and returns p.
func (p *G1Jac) Neg(q *G1Jac) *G1Jac {
	p.X.Set(&q.X)
	p.Y.Neg(&q.Y)
	p.Z.Set(&q.Z)
	return p
}

// Double sets p = 2q and returns p (dbl-2009-l, a = 0).
func (p *G1Jac) Double(q *G1Jac) *G1Jac {
	if q.IsInfinity() {
		return p.Set(q)
	}
	var a, b, c, d, e, f, t ff.Fp
	a.Square(&q.X)
	b.Square(&q.Y)
	c.Square(&b)
	d.Add(&q.X, &b)
	d.Square(&d)
	d.Sub(&d, &a)
	d.Sub(&d, &c)
	d.Double(&d)
	e.Double(&a)
	e.Add(&e, &a) // 3a
	f.Square(&e)

	var x3, y3, z3 ff.Fp
	x3.Double(&d)
	x3.Sub(&f, &x3)
	t.Sub(&d, &x3)
	y3.Mul(&e, &t)
	t.Double(&c)
	t.Double(&t)
	t.Double(&t) // 8c
	y3.Sub(&y3, &t)
	z3.Mul(&q.Y, &q.Z)
	z3.Double(&z3)

	p.X.Set(&x3)
	p.Y.Set(&y3)
	p.Z.Set(&z3)
	return p
}

// AddAssign sets p = p + q and returns p (add-2007-bl).
func (p *G1Jac) AddAssign(q *G1Jac) *G1Jac {
	if q.IsInfinity() {
		return p
	}
	if p.IsInfinity() {
		return p.Set(q)
	}
	var z1z1, z2z2, u1, u2, s1, s2, h, i, j, r, v, t ff.Fp
	z1z1.Square(&p.Z)
	z2z2.Square(&q.Z)
	u1.Mul(&p.X, &z2z2)
	u2.Mul(&q.X, &z1z1)
	s1.Mul(&p.Y, &q.Z)
	s1.Mul(&s1, &z2z2)
	s2.Mul(&q.Y, &p.Z)
	s2.Mul(&s2, &z1z1)
	h.Sub(&u2, &u1)
	r.Sub(&s2, &s1)
	if h.IsZero() {
		if r.IsZero() {
			return p.Double(p)
		}
		return p.SetInfinity()
	}
	r.Double(&r)
	i.Double(&h)
	i.Square(&i)
	j.Mul(&h, &i)
	v.Mul(&u1, &i)

	var x3, y3, z3 ff.Fp
	x3.Square(&r)
	x3.Sub(&x3, &j)
	t.Double(&v)
	x3.Sub(&x3, &t)
	y3.Sub(&v, &x3)
	y3.Mul(&y3, &r)
	t.Mul(&s1, &j)
	t.Double(&t)
	y3.Sub(&y3, &t)
	z3.Add(&p.Z, &q.Z)
	z3.Square(&z3)
	z3.Sub(&z3, &z1z1)
	z3.Sub(&z3, &z2z2)
	z3.Mul(&z3, &h)

	p.X.Set(&x3)
	p.Y.Set(&y3)
	p.Z.Set(&z3)
	return p
}

// AddMixed sets p = p + a for affine a and returns p (madd-2007-bl).
func (p *G1Jac) AddMixed(a *G1Affine) *G1Jac {
	if a.Infinity {
		return p
	}
	if p.IsInfinity() {
		return p.FromAffine(a)
	}
	var z1z1, u2, s2, h, hh, i, j, r, v, t ff.Fp
	z1z1.Square(&p.Z)
	u2.Mul(&a.X, &z1z1)
	s2.Mul(&a.Y, &p.Z)
	s2.Mul(&s2, &z1z1)
	h.Sub(&u2, &p.X)
	r.Sub(&s2, &p.Y)
	if h.IsZero() {
		if r.IsZero() {
			return p.Double(p)
		}
		return p.SetInfinity()
	}
	hh.Square(&h)
	i.Double(&hh)
	i.Double(&i)
	j.Mul(&h, &i)
	r.Double(&r)
	v.Mul(&p.X, &i)

	var x3, y3, z3 ff.Fp
	x3.Square(&r)
	x3.Sub(&x3, &j)
	t.Double(&v)
	x3.Sub(&x3, &t)
	y3.Sub(&v, &x3)
	y3.Mul(&y3, &r)
	t.Mul(&p.Y, &j)
	t.Double(&t)
	y3.Sub(&y3, &t)
	z3.Add(&p.Z, &h)
	z3.Square(&z3)
	z3.Sub(&z3, &z1z1)
	z3.Sub(&z3, &hh)

	p.X.Set(&x3)
	p.Y.Set(&y3)
	p.Z.Set(&z3)
	return p
}

// subMixed sets p = p − a for affine a and returns p.
func (p *G1Jac) subMixed(a *G1Affine) *G1Jac {
	var na G1Affine
	return p.AddMixed(na.Neg(a))
}

// ScalarMul sets p = s·q and returns p (see scalarMul).
//
//go:noinline
func (p *G1Jac) ScalarMul(q *G1Jac, s *ff.Fr) *G1Jac {
	return scalarMul[G1Jac, G1Affine](p, q, s, &g1JacPool)
}

// Equal reports whether p and q represent the same point.
func (p *G1Jac) Equal(q *G1Jac) bool {
	if p.IsInfinity() || q.IsInfinity() {
		return p.IsInfinity() == q.IsInfinity()
	}
	// Cross-multiply: X1·Z2² == X2·Z1² and Y1·Z2³ == Y2·Z1³.
	var z1z1, z2z2, a, b ff.Fp
	z1z1.Square(&p.Z)
	z2z2.Square(&q.Z)
	a.Mul(&p.X, &z2z2)
	b.Mul(&q.X, &z1z1)
	if !a.Equal(&b) {
		return false
	}
	var z13, z23 ff.Fp
	z13.Mul(&z1z1, &p.Z)
	z23.Mul(&z2z2, &q.Z)
	a.Mul(&p.Y, &z23)
	b.Mul(&q.Y, &z13)
	return a.Equal(&b)
}

// BatchToAffineG1 converts many Jacobian points with a single shared
// inversion (Montgomery batch-inversion trick). Points with Z = 1, as
// FixedBaseMulG1 returns them, are copied without joining the inversion.
func BatchToAffineG1(pts []G1Jac) []G1Affine {
	out := make([]G1Affine, len(pts))
	prod := make([]ff.Fp, len(pts))
	var acc ff.Fp
	acc.SetOne()
	for i := range pts {
		prod[i].Set(&acc)
		if !pts[i].IsInfinity() && !pts[i].zIsOne() {
			acc.Mul(&acc, &pts[i].Z)
		}
	}
	var accInv ff.Fp
	accInv.Inverse(&acc)
	for i := len(pts) - 1; i >= 0; i-- {
		if pts[i].IsInfinity() {
			out[i].Infinity = true
			continue
		}
		if pts[i].zIsOne() {
			out[i].X, out[i].Y = pts[i].X, pts[i].Y
			continue
		}
		var zInv, zInv2, zInv3 ff.Fp
		zInv.Mul(&accInv, &prod[i])
		accInv.Mul(&accInv, &pts[i].Z)
		zInv2.Square(&zInv)
		zInv3.Mul(&zInv2, &zInv)
		out[i].X.Mul(&pts[i].X, &zInv2)
		out[i].Y.Mul(&pts[i].Y, &zInv3)
	}
	return out
}
