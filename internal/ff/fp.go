package ff

import (
	"crypto/rand"
	"fmt"
	"math/big"
	mrand "math/rand"
)

// Fp is an element of the BN254 base field, in Montgomery form.
type Fp [4]uint64

var (
	fpNine  Fp // 9, used by the ξ = 9+u non-residue
	fpThree Fp
)

func initFpConstants() {
	fpNine.SetUint64(9)
	fpThree.SetUint64(3)
}

// PModulus returns the base-field prime as a new big.Int.
func PModulus() *big.Int { return new(big.Int).Set(pMod.big) }

// Set sets z = x and returns z.
func (z *Fp) Set(x *Fp) *Fp { *z = *x; return z }

// SetZero sets z = 0 and returns z.
func (z *Fp) SetZero() *Fp { *z = Fp{}; return z }

// SetOne sets z = 1 and returns z.
func (z *Fp) SetOne() *Fp { *z = Fp(pMod.r); return z }

// SetUint64 sets z = v and returns z.
func (z *Fp) SetUint64(v uint64) *Fp {
	raw := [4]uint64{v, 0, 0, 0}
	montMul((*[4]uint64)(z), &raw, &pMod.r2, &pMod)
	return z
}

// SetInt64 sets z = v (which may be negative) and returns z.
func (z *Fp) SetInt64(v int64) *Fp {
	if v >= 0 {
		return z.SetUint64(uint64(v))
	}
	z.SetUint64(uint64(-v))
	return z.Neg(z)
}

// SetBig sets z to v mod p and returns z.
func (z *Fp) SetBig(v *big.Int) *Fp {
	bigToMont(v, (*[4]uint64)(z), &pMod)
	return z
}

// Big returns the canonical (non-Montgomery) value of z.
func (z *Fp) Big() *big.Int { return montToBig((*[4]uint64)(z), &pMod) }

// Mul sets z = x*y and returns z.
func (z *Fp) Mul(x, y *Fp) *Fp {
	montMul((*[4]uint64)(z), (*[4]uint64)(x), (*[4]uint64)(y), &pMod)
	return z
}

// Square sets z = x² and returns z.
func (z *Fp) Square(x *Fp) *Fp { return z.Mul(x, x) }

// Add sets z = x+y and returns z.
func (z *Fp) Add(x, y *Fp) *Fp {
	modAdd((*[4]uint64)(z), (*[4]uint64)(x), (*[4]uint64)(y), &pMod)
	return z
}

// Sub sets z = x−y and returns z.
func (z *Fp) Sub(x, y *Fp) *Fp {
	modSub((*[4]uint64)(z), (*[4]uint64)(x), (*[4]uint64)(y), &pMod)
	return z
}

// Neg sets z = −x and returns z.
func (z *Fp) Neg(x *Fp) *Fp {
	modNeg((*[4]uint64)(z), (*[4]uint64)(x), &pMod)
	return z
}

// Double sets z = 2x and returns z.
func (z *Fp) Double(x *Fp) *Fp { return z.Add(x, x) }

// Inverse sets z = x⁻¹ and returns z. The inverse of 0 is 0.
func (z *Fp) Inverse(x *Fp) *Fp {
	v := x.Big()
	if v.Sign() == 0 {
		return z.SetZero()
	}
	v.ModInverse(v, pMod.big)
	return z.SetBig(v)
}

// Exp sets z = x^e and returns z. Negative exponents invert first.
func (z *Fp) Exp(x *Fp, e *big.Int) *Fp {
	var base Fp
	base.Set(x)
	if e.Sign() < 0 {
		base.Inverse(&base)
		e = new(big.Int).Neg(e)
	}
	z.SetOne()
	for i := e.BitLen() - 1; i >= 0; i-- {
		z.Square(z)
		if e.Bit(i) == 1 {
			z.Mul(z, &base)
		}
	}
	return z
}

// Equal reports whether z == x.
func (z *Fp) Equal(x *Fp) bool { return *z == *x }

// IsZero reports whether z == 0.
func (z *Fp) IsZero() bool { return *z == Fp{} }

// IsOne reports whether z == 1.
func (z *Fp) IsOne() bool { return *z == Fp(pMod.r) }

// SetRandom sets z to a uniformly random element using crypto/rand.
func (z *Fp) SetRandom() *Fp {
	v, err := rand.Int(rand.Reader, pMod.big)
	if err != nil {
		panic(fmt.Sprintf("ff: crypto/rand failure: %v", err))
	}
	return z.SetBig(v)
}

// SetPseudoRandom sets z from a deterministic source, for tests and benches.
func (z *Fp) SetPseudoRandom(rng *mrand.Rand) *Fp {
	v := new(big.Int).Rand(rng, pMod.big)
	return z.SetBig(v)
}

// Bytes returns the canonical 32-byte big-endian encoding of z,
// allocation-free (pure limb arithmetic, no math/big).
func (z *Fp) Bytes() [32]byte {
	var out [32]byte
	z.PutBytes(out[:])
	return out
}

// PutBytes writes the canonical 32-byte big-endian encoding of z to
// b[:32], straight into a caller's buffer; it panics if len(b) < 32.
func (z *Fp) PutBytes(b []byte) { putCanonical((*[4]uint64)(z), b, &pMod) }

// SetBytes interprets b as a big-endian integer mod p. Inputs of at most
// 32 bytes take an allocation-free limb path.
func (z *Fp) SetBytes(b []byte) *Fp {
	if len(b) <= 32 {
		var raw [4]uint64
		limbsFromBytesBE(b, &raw)
		montFromRaw((*[4]uint64)(z), &raw, &pMod)
		return z
	}
	return z.SetBig(new(big.Int).SetBytes(b))
}

// SetBytesCanonical sets z from its canonical 32-byte big-endian encoding
// and reports whether b was one: exactly 32 bytes encoding a value < p.
// On false z is zero.
func (z *Fp) SetBytesCanonical(b []byte) bool {
	return setCanonical((*[4]uint64)(z), b, &pMod)
}

// String renders the canonical value in decimal.
func (z *Fp) String() string { return z.Big().String() }

// Canonical returns the non-Montgomery (canonical) little-endian limbs of z.
func (z *Fp) Canonical() [4]uint64 { return fromMont((*[4]uint64)(z), &pMod) }
