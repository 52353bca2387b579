package curve

import (
	"sync"

	"zkvc/internal/ff"
)

// G2Affine is a point on G2 in affine coordinates.
type G2Affine struct {
	X, Y     ff.Fp2
	Infinity bool
}

// G2Jac is a point on G2 in Jacobian coordinates.
type G2Jac struct {
	X, Y, Z ff.Fp2
}

// G2Generator returns the standard generator of the order-r subgroup of
// the twist (the EIP-197 G2 generator).
func G2Generator() G2Affine { return g2Generator() }

var g2Generator = sync.OnceValue(func() G2Affine {
	var g G2Affine
	g.X.A0.SetBig(mustBig("10857046999023057135944570762232829481370756359578518086990519993285655852781"))
	g.X.A1.SetBig(mustBig("11559732032986387107991004021392285783925812861821192530917403151452391805634"))
	g.Y.A0.SetBig(mustBig("8495653923123431417604973247489272438418190587263600148770280649306958101930"))
	g.Y.A1.SetBig(mustBig("4082367875863433681332203403145435568316851327593401208105741076214120093531"))
	return g
})

// G2GeneratorJac returns the generator in Jacobian coordinates.
func G2GeneratorJac() G2Jac {
	var g G2Jac
	a := G2Generator()
	g.FromAffine(&a)
	return g
}

// IsOnCurve reports whether p satisfies y² = x³ + b' with b' = 3/(9+u)
// (or is infinity).
func (p *G2Affine) IsOnCurve() bool {
	if p.Infinity {
		return true
	}
	var lhs, rhs ff.Fp2
	lhs.Square(&p.Y)
	rhs.Square(&p.X)
	rhs.Mul(&rhs, &p.X)
	b := TwistB()
	rhs.Add(&rhs, &b)
	return lhs.Equal(&rhs)
}

// TwistB returns b' = 3/ξ, the constant term of the twist equation.
func TwistB() ff.Fp2 {
	var xi, b ff.Fp2
	xi.SetOne()
	xi.MulByNonResidue(&xi) // ξ = 9+u
	b.Inverse(&xi)
	var three ff.Fp
	three.SetUint64(3)
	b.MulByFp(&b, &three)
	return b
}

// Neg sets p = −q and returns p.
func (p *G2Affine) Neg(q *G2Affine) *G2Affine {
	p.X.Set(&q.X)
	p.Y.Neg(&q.Y)
	p.Infinity = q.Infinity
	return p
}

// frobenius sets p = π_{p^k}(q) for k ∈ {1, 2} and returns p: the
// p^k-power Frobenius of the untwisted point, mapped back to the twist.
// On G2 it is multiplication by p^k mod r (pinned by test).
func (p *G2Affine) frobenius(q *G2Affine, k int) *G2Affine {
	cx, cy := ff.TwistFrobenius(k)
	*p = *q
	if k == 1 {
		p.X.Conjugate(&p.X)
		p.Y.Conjugate(&p.Y)
	}
	p.X.Mul(&p.X, &cx)
	p.Y.Mul(&p.Y, &cy)
	return p
}

// Equal reports whether two affine points are the same.
func (p *G2Affine) Equal(q *G2Affine) bool {
	if p.Infinity || q.Infinity {
		return p.Infinity == q.Infinity
	}
	return p.X.Equal(&q.X) && p.Y.Equal(&q.Y)
}

// SetInfinity sets p to the point at infinity and returns p.
func (p *G2Jac) SetInfinity() *G2Jac {
	p.X.SetOne()
	p.Y.SetOne()
	p.Z.SetZero()
	return p
}

// IsInfinity reports whether p is the point at infinity.
func (p *G2Jac) IsInfinity() bool { return p.Z.IsZero() }

// zIsOne reports whether p is in affine form, Z = 1.
func (p *G2Jac) zIsOne() bool { return p.Z.A0.IsOne() && p.Z.A1.IsZero() }

// Set sets p = q and returns p.
func (p *G2Jac) Set(q *G2Jac) *G2Jac { *p = *q; return p }

// FromAffine loads an affine point into Jacobian coordinates.
func (p *G2Jac) FromAffine(a *G2Affine) *G2Jac {
	if a.Infinity {
		return p.SetInfinity()
	}
	p.X.Set(&a.X)
	p.Y.Set(&a.Y)
	p.Z.SetOne()
	return p
}

// ToAffine converts p to affine coordinates (one field inversion).
func (p *G2Jac) ToAffine() G2Affine {
	var out G2Affine
	if p.IsInfinity() {
		out.Infinity = true
		return out
	}
	var zInv, zInv2, zInv3 ff.Fp2
	zInv.Inverse(&p.Z)
	zInv2.Square(&zInv)
	zInv3.Mul(&zInv2, &zInv)
	out.X.Mul(&p.X, &zInv2)
	out.Y.Mul(&p.Y, &zInv3)
	return out
}

// Neg sets p = −q and returns p.
func (p *G2Jac) Neg(q *G2Jac) *G2Jac {
	p.X.Set(&q.X)
	p.Y.Neg(&q.Y)
	p.Z.Set(&q.Z)
	return p
}

// Double sets p = 2q and returns p (dbl-2009-l, a = 0).
func (p *G2Jac) Double(q *G2Jac) *G2Jac {
	if q.IsInfinity() {
		return p.Set(q)
	}
	var a, b, c, d, e, f, t ff.Fp2
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

	var x3, y3, z3 ff.Fp2
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
func (p *G2Jac) AddAssign(q *G2Jac) *G2Jac {
	if q.IsInfinity() {
		return p
	}
	if p.IsInfinity() {
		return p.Set(q)
	}
	var z1z1, z2z2, u1, u2, s1, s2, h, i, j, r, v, t ff.Fp2
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

	var x3, y3, z3 ff.Fp2
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
func (p *G2Jac) AddMixed(a *G2Affine) *G2Jac {
	if a.Infinity {
		return p
	}
	if p.IsInfinity() {
		return p.FromAffine(a)
	}
	var z1z1, u2, s2, h, hh, i, j, r, v, t ff.Fp2
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

	var x3, y3, z3 ff.Fp2
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

// ScalarMul sets p = s·q and returns p (double-and-add over the canonical
// limbs of s).
func (p *G2Jac) ScalarMul(q *G2Jac, s *ff.Fr) *G2Jac {
	limbs := s.Canonical()
	var acc G2Jac
	acc.SetInfinity()
	started := false
	for i := 3; i >= 0; i-- {
		for b := 63; b >= 0; b-- {
			if started {
				acc.Double(&acc)
			}
			if (limbs[i]>>uint(b))&1 == 1 {
				acc.AddAssign(q)
				started = true
			}
		}
	}
	return p.Set(&acc)
}

// Equal reports whether p and q represent the same point.
func (p *G2Jac) Equal(q *G2Jac) bool {
	if p.IsInfinity() || q.IsInfinity() {
		return p.IsInfinity() == q.IsInfinity()
	}
	// Cross-multiply: X1·Z2² == X2·Z1² and Y1·Z2³ == Y2·Z1³.
	var z1z1, z2z2, a, b ff.Fp2
	z1z1.Square(&p.Z)
	z2z2.Square(&q.Z)
	a.Mul(&p.X, &z2z2)
	b.Mul(&q.X, &z1z1)
	if !a.Equal(&b) {
		return false
	}
	var z13, z23 ff.Fp2
	z13.Mul(&z1z1, &p.Z)
	z23.Mul(&z2z2, &q.Z)
	a.Mul(&p.Y, &z23)
	b.Mul(&q.Y, &z13)
	return a.Equal(&b)
}

// BatchToAffineG2 converts many Jacobian points with a single shared
// inversion (Montgomery batch-inversion trick). Points with Z = 1, as
// FixedBaseMulG2 returns them, are copied without joining the inversion.
func BatchToAffineG2(pts []G2Jac) []G2Affine {
	out := make([]G2Affine, len(pts))
	prod := make([]ff.Fp2, len(pts))
	var acc ff.Fp2
	acc.SetOne()
	for i := range pts {
		prod[i].Set(&acc)
		if !pts[i].IsInfinity() && !pts[i].zIsOne() {
			acc.Mul(&acc, &pts[i].Z)
		}
	}
	var accInv ff.Fp2
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
		var zInv, zInv2, zInv3 ff.Fp2
		zInv.Mul(&accInv, &prod[i])
		accInv.Mul(&accInv, &pts[i].Z)
		zInv2.Square(&zInv)
		zInv3.Mul(&zInv2, &zInv)
		out[i].X.Mul(&pts[i].X, &zInv2)
		out[i].Y.Mul(&pts[i].Y, &zInv3)
	}
	return out
}
