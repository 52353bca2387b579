package ff

import (
	"fmt"
	"math/big"
	mrand "math/rand"
)

// Fp2 is an element a0 + a1·u of Fp[u]/(u²+1).
type Fp2 struct {
	A0, A1 Fp
}

var (
	// frobGamma[k−1][i] = γ_k^i with γ_k = ξ^((p^k−1)/6): the factor the
	// p^k-power Frobenius puts on the wⁱ coefficient of an Fp12 element,
	// since w^(p^k) = w·(w⁶)^((p^k−1)/6) and w⁶ = ξ.
	frobGamma [3][6]Fp2
	// pMinus2 is the Fermat exponent of the tower's base-field inversion.
	pMinus2 *big.Int
)

func initTowerConstants() {
	pMinus2 = new(big.Int).Sub(pMod.big, big.NewInt(2))
	var xi Fp2
	xi.SetOne()
	xi.MulByNonResidue(&xi)
	pk := big.NewInt(1)
	for k := range frobGamma {
		pk.Mul(pk, pMod.big)
		e := new(big.Int).Sub(pk, big.NewInt(1))
		e.Div(e, big.NewInt(6))
		var g Fp2
		g.SetOne()
		for i := e.BitLen() - 1; i >= 0; i-- {
			g.Square(&g)
			if e.Bit(i) == 1 {
				g.Mul(&g, &xi)
			}
		}
		frobGamma[k][0].SetOne()
		for i := 1; i < 6; i++ {
			frobGamma[k][i].Mul(&frobGamma[k][i-1], &g)
		}
	}
}

// TwistFrobenius returns (γ_k², γ_k³) for k ∈ {1, 2}: the p^k-power
// Frobenius of a twist point, carried through the untwist (x, y) ↦
// (x·w², y·w³) and back, is (conj^k(x)·γ_k², conj^k(y)·γ_k³).
func TwistFrobenius(k int) (cx, cy Fp2) { return frobGamma[k-1][2], frobGamma[k-1][3] }

// SetZero sets z = 0 and returns z.
func (z *Fp2) SetZero() *Fp2 { z.A0.SetZero(); z.A1.SetZero(); return z }

// SetOne sets z = 1 and returns z.
func (z *Fp2) SetOne() *Fp2 { z.A0.SetOne(); z.A1.SetZero(); return z }

// Set sets z = x and returns z.
func (z *Fp2) Set(x *Fp2) *Fp2 { *z = *x; return z }

// SetFp sets z = x (embedding Fp into Fp2) and returns z.
func (z *Fp2) SetFp(x *Fp) *Fp2 { z.A0.Set(x); z.A1.SetZero(); return z }

// Add sets z = x+y and returns z.
func (z *Fp2) Add(x, y *Fp2) *Fp2 {
	z.A0.Add(&x.A0, &y.A0)
	z.A1.Add(&x.A1, &y.A1)
	return z
}

// Sub sets z = x−y and returns z.
func (z *Fp2) Sub(x, y *Fp2) *Fp2 {
	z.A0.Sub(&x.A0, &y.A0)
	z.A1.Sub(&x.A1, &y.A1)
	return z
}

// Neg sets z = −x and returns z.
func (z *Fp2) Neg(x *Fp2) *Fp2 {
	z.A0.Neg(&x.A0)
	z.A1.Neg(&x.A1)
	return z
}

// Double sets z = 2x and returns z.
func (z *Fp2) Double(x *Fp2) *Fp2 { return z.Add(x, x) }

// Mul sets z = x·y and returns z (Karatsuba, u² = −1).
func (z *Fp2) Mul(x, y *Fp2) *Fp2 {
	var v0, v1, t0, t1 Fp
	v0.Mul(&x.A0, &y.A0)
	v1.Mul(&x.A1, &y.A1)
	t0.Add(&x.A0, &x.A1)
	t1.Add(&y.A0, &y.A1)
	t0.Mul(&t0, &t1)   // (a0+a1)(b0+b1)
	t0.Sub(&t0, &v0)   // a0b1 + a1b0 + ... minus v0
	t0.Sub(&t0, &v1)   // = a0b1 + a1b0
	z.A0.Sub(&v0, &v1) // a0b0 − a1b1
	z.A1.Set(&t0)
	return z
}

// Square sets z = x² and returns z.
func (z *Fp2) Square(x *Fp2) *Fp2 {
	// (a0+a1u)² = (a0+a1)(a0−a1) + 2a0a1·u
	var s, d, m Fp
	s.Add(&x.A0, &x.A1)
	d.Sub(&x.A0, &x.A1)
	m.Mul(&x.A0, &x.A1)
	z.A0.Mul(&s, &d)
	z.A1.Double(&m)
	return z
}

// MulByFp sets z = x·c for c ∈ Fp and returns z.
func (z *Fp2) MulByFp(x *Fp2, c *Fp) *Fp2 {
	z.A0.Mul(&x.A0, c)
	z.A1.Mul(&x.A1, c)
	return z
}

// Conjugate sets z = a0 − a1·u and returns z.
func (z *Fp2) Conjugate(x *Fp2) *Fp2 {
	z.A0.Set(&x.A0)
	z.A1.Neg(&x.A1)
	return z
}

// MulByNonResidue sets z = x·ξ where ξ = 9+u, and returns z.
func (z *Fp2) MulByNonResidue(x *Fp2) *Fp2 {
	// (a0+a1u)(9+u) = (9a0 − a1) + (a0 + 9a1)u
	var t0, t1 Fp
	t0.Mul(&x.A0, &fpNine)
	t0.Sub(&t0, &x.A1)
	t1.Mul(&x.A1, &fpNine)
	t1.Add(&t1, &x.A0)
	z.A0.Set(&t0)
	z.A1.Set(&t1)
	return z
}

// Inverse sets z = x⁻¹ and returns z. The inverse of 0 is 0.
//
// The base-field inversion is Fermat's n^(p−2), not Fp.Inverse's math/big
// route: ≈20 µs against ≈3 µs, but allocation-free, like the Fp6/Fp12
// inverses and the final exponentiation built on it. Tower inversions are
// rare: the final exponentiation has one, and the Miller loop, in
// projective coordinates, has none.
func (z *Fp2) Inverse(x *Fp2) *Fp2 {
	// 1/(a0+a1u) = (a0 − a1u)/(a0² + a1²)
	var n, t Fp
	n.Square(&x.A0)
	t.Square(&x.A1)
	n.Add(&n, &t)
	n.Exp(&n, pMinus2)
	z.A0.Mul(&x.A0, &n)
	n.Neg(&n)
	z.A1.Mul(&x.A1, &n)
	return z
}

// Equal reports whether z == x.
func (z *Fp2) Equal(x *Fp2) bool { return z.A0.Equal(&x.A0) && z.A1.Equal(&x.A1) }

// IsZero reports whether z == 0.
func (z *Fp2) IsZero() bool { return z.A0.IsZero() && z.A1.IsZero() }

// SetRandom sets z to a uniformly random element.
func (z *Fp2) SetRandom() *Fp2 { z.A0.SetRandom(); z.A1.SetRandom(); return z }

// SetPseudoRandom sets z from a deterministic source.
func (z *Fp2) SetPseudoRandom(rng *mrand.Rand) *Fp2 {
	z.A0.SetPseudoRandom(rng)
	z.A1.SetPseudoRandom(rng)
	return z
}

// String renders z as "a0 + a1*u".
func (z *Fp2) String() string { return fmt.Sprintf("%v + %v*u", &z.A0, &z.A1) }
