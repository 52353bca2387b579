// Package ff implements the finite fields underlying the BN254 pairing
// curve: the base field Fp, the scalar field Fr, and the extension tower
// Fp2 → Fp6 → Fp12 used as the pairing target.
//
// Elements are stored as four 64-bit little-endian limbs in Montgomery form
// (R = 2^256). All arithmetic is constant-allocation; none of it is
// constant-time — this library targets benchmarking and research, not
// hostile side-channel environments.
package ff

import (
	"encoding/binary"
	"math/big"
	"math/bits"
)

// modulus bundles a 4-limb prime with its Montgomery constants.
type modulus struct {
	limbs [4]uint64 // little-endian limbs of the prime
	ninv  uint64    // -limbs^{-1} mod 2^64
	r     [4]uint64 // 2^256 mod m (Montgomery form of 1)
	negR  [4]uint64 // m − (2^256 mod m) (Montgomery form of −1)
	r2    [4]uint64 // 2^512 mod m (used to enter Montgomery form)
	m1    [4]uint64 // m − 1 (the canonical limbs of −1)
	half  [4]uint64 // (m-1)/2, the largest "non-negative" canonical value
	big   *big.Int  // the prime as a big.Int
}

// Decimal strings for the BN254 primes (EIP-196/197 alt_bn128).
const (
	pDec = "21888242871839275222246405745257275088696311157297823662689037894645226208583"
	rDec = "21888242871839275222246405745257275088548364400416034343698204186575808495617"
)

var (
	pMod modulus // base field
	rMod modulus // scalar field
)

func init() {
	initModulus(&pMod, pDec)
	initModulus(&rMod, rDec)
	initFpConstants()
	initTowerConstants()
}

func initModulus(m *modulus, dec string) {
	v, ok := new(big.Int).SetString(dec, 10)
	if !ok {
		panic("ff: bad modulus literal")
	}
	m.big = v
	bigToLimbs(v, &m.limbs)
	if m.limbs[3] >= 1<<63-1 {
		panic("ff: modulus too wide for the no-carry montMul")
	}

	// ninv = -m^{-1} mod 2^64.
	two64 := new(big.Int).Lsh(big.NewInt(1), 64)
	inv := new(big.Int).ModInverse(new(big.Int).SetUint64(m.limbs[0]), two64)
	inv.Neg(inv).Mod(inv, two64)
	m.ninv = inv.Uint64()

	r := new(big.Int).Lsh(big.NewInt(1), 256)
	r.Mod(r, v)
	bigToLimbs(r, &m.r)
	modNeg(&m.negR, &m.r, m)
	m.m1 = m.limbs
	m.m1[0]-- // m is odd

	r2 := new(big.Int).Lsh(big.NewInt(1), 512)
	r2.Mod(r2, v)
	bigToLimbs(r2, &m.r2)

	bigToLimbs(new(big.Int).Rsh(v, 1), &m.half)
}

func bigToLimbs(v *big.Int, out *[4]uint64) {
	var buf [32]byte
	v.FillBytes(buf[:])
	limbsFromBytesBE(buf[:], out)
}

// limbsToBytesBE writes the little-endian limb vector as 32 big-endian
// bytes to out[:32], one byte-swapped word store per limb — this is the
// prover's hottest serialization (every transcript absorb and Merkle
// leaf).
func limbsToBytesBE(l *[4]uint64, out []byte) {
	_ = out[31]
	binary.BigEndian.PutUint64(out[0:8], l[3])
	binary.BigEndian.PutUint64(out[8:16], l[2])
	binary.BigEndian.PutUint64(out[16:24], l[1])
	binary.BigEndian.PutUint64(out[24:32], l[0])
}

// limbsFromBytesBE loads up to 32 big-endian bytes into little-endian
// limbs (the value is NOT reduced mod anything). A full 32-byte input is
// four word loads; shorter ones go a byte at a time.
func limbsFromBytesBE(b []byte, out *[4]uint64) {
	if len(b) == 32 {
		out[3] = binary.BigEndian.Uint64(b[0:8])
		out[2] = binary.BigEndian.Uint64(b[8:16])
		out[1] = binary.BigEndian.Uint64(b[16:24])
		out[0] = binary.BigEndian.Uint64(b[24:32])
		return
	}
	*out = [4]uint64{}
	for i := 0; i < len(b); i++ {
		v := uint64(b[len(b)-1-i])
		out[i/8] |= v << (8 * (i % 8))
	}
}

// montFromRaw sets z to the Montgomery form of the (unreduced, < 2^256)
// limb value raw, an alloc-free replacement for the big.Int round trip on
// ≤32-byte inputs. montMul wants its inputs below m, so raw is reduced
// first by subtracting m: at most five times, as 2^256 < 6m for both
// BN254 primes.
func montFromRaw(z, raw *[4]uint64, m *modulus) {
	r := *raw
	for geqLimbs(&r, &m.limbs) {
		subModulus(&r, m)
	}
	montMul(z, &r, &m.r2, m)
}

// setCanonical sets z to the element whose canonical encoding is exactly
// the 32 big-endian bytes b and reports true. Anything else — another
// length, or a value ≥ m that would only be valid after reduction — leaves
// z zero and reports false. A limb compare against the modulus, no
// math/big: this is the strict decoder's per-element check. The values 1
// and −1, most R1CS coefficients, are set without a multiply.
func setCanonical(z *[4]uint64, b []byte, m *modulus) bool {
	*z = [4]uint64{}
	if len(b) != 32 {
		return false
	}
	var raw [4]uint64
	limbsFromBytesBE(b, &raw)
	switch {
	case raw == [4]uint64{1}:
		*z = m.r
	case raw == m.m1:
		*z = m.negR
	case geqLimbs(&raw, &m.limbs):
		return false
	default:
		montMul(z, &raw, &m.r2, m)
	}
	return true
}

// putCanonical writes the canonical 32-byte big-endian encoding of the
// Montgomery-form limbs l to out[:32]: 1 and −1 from constants, anything
// else through fromMont.
func putCanonical(l *[4]uint64, out []byte, m *modulus) {
	var c [4]uint64
	switch *l {
	case m.r:
		c = [4]uint64{1}
	case m.negR:
		c = m.m1
	default:
		c = fromMont(l, m)
	}
	limbsToBytesBE(&c, out)
}

// fromMont returns x·R⁻¹ mod m, the canonical limbs of the Montgomery
// form x: Montgomery reduction (REDC) alone, four rounds of t ← (t +
// u·m)/2⁶⁴ with u = t₀·(−m⁻¹) mod 2⁶⁴ — the reduction half of montMul,
// without its products. After the rounds t ≤ (x + (R−1)·m)/R < m + 1
// for any x < 2²⁵⁶, so the conditional subtraction only fires for limbs
// that are a nonzero multiple of m (unreduced zero).
func fromMont(x *[4]uint64, m *modulus) [4]uint64 {
	m0, m1, m2, m3, ninv := m.limbs[0], m.limbs[1], m.limbs[2], m.limbs[3], m.ninv
	t0, t1, t2, t3 := x[0], x[1], x[2], x[3]
	var c, u uint64

	u = t0 * ninv
	c, _ = madd1(u, m0, t0)
	c, t0 = madd2(u, m1, t1, c)
	c, t1 = madd2(u, m2, t2, c)
	c, t2 = madd2(u, m3, t3, c)
	t3 = c

	u = t0 * ninv
	c, _ = madd1(u, m0, t0)
	c, t0 = madd2(u, m1, t1, c)
	c, t1 = madd2(u, m2, t2, c)
	c, t2 = madd2(u, m3, t3, c)
	t3 = c

	u = t0 * ninv
	c, _ = madd1(u, m0, t0)
	c, t0 = madd2(u, m1, t1, c)
	c, t1 = madd2(u, m2, t2, c)
	c, t2 = madd2(u, m3, t3, c)
	t3 = c

	u = t0 * ninv
	c, _ = madd1(u, m0, t0)
	c, t0 = madd2(u, m1, t1, c)
	c, t1 = madd2(u, m2, t2, c)
	c, t2 = madd2(u, m3, t3, c)
	t3 = c

	var z [4]uint64
	var b uint64
	z[0], b = bits.Sub64(t0, m0, 0)
	z[1], b = bits.Sub64(t1, m1, b)
	z[2], b = bits.Sub64(t2, m2, b)
	z[3], b = bits.Sub64(t3, m3, b)
	if b != 0 {
		return [4]uint64{t0, t1, t2, t3}
	}
	return z
}

func limbsToBig(l *[4]uint64) *big.Int {
	var buf [32]byte
	limbsToBytesBE(l, buf[:])
	return new(big.Int).SetBytes(buf[:])
}

// montMul sets z = x·y·R⁻¹ mod m. Inputs must be reduced (x, y < m); the
// output then is too (z < m), which Equal, IsZero and IsOne rely on, as
// they compare limbs. Aliasing of z with x or y is allowed.
//
// It is the CIOS method (Koç, Acar and Kaliski) unrolled over four limbs,
// without a fifth: each round adds xᵢ·y and u·m to t and shifts it down a
// limb, keeping t < 2m < 2²⁵⁶, so the two carry chains' last words sum
// into t3 without overflow as m's top limb is below 2⁶³−1 (initModulus
// checks it). One conditional subtraction then brings t below m.
func montMul(z, x, y *[4]uint64, m *modulus) {
	m0, m1, m2, m3, ninv := m.limbs[0], m.limbs[1], m.limbs[2], m.limbs[3], m.ninv
	y0, y1, y2, y3 := y[0], y[1], y[2], y[3]
	var t0, t1, t2, t3, a, c, u uint64

	a, t0 = bits.Mul64(x[0], y0)
	u = t0 * ninv
	c, _ = madd1(u, m0, t0)
	a, t1 = madd1(x[0], y1, a)
	c, t0 = madd2(u, m1, t1, c)
	a, t2 = madd1(x[0], y2, a)
	c, t1 = madd2(u, m2, t2, c)
	a, t3 = madd1(x[0], y3, a)
	c, t2 = madd2(u, m3, t3, c)
	t3 = a + c

	a, t0 = madd1(x[1], y0, t0)
	u = t0 * ninv
	c, _ = madd1(u, m0, t0)
	a, t1 = madd2(x[1], y1, a, t1)
	c, t0 = madd2(u, m1, t1, c)
	a, t2 = madd2(x[1], y2, a, t2)
	c, t1 = madd2(u, m2, t2, c)
	a, t3 = madd2(x[1], y3, a, t3)
	c, t2 = madd2(u, m3, t3, c)
	t3 = a + c

	a, t0 = madd1(x[2], y0, t0)
	u = t0 * ninv
	c, _ = madd1(u, m0, t0)
	a, t1 = madd2(x[2], y1, a, t1)
	c, t0 = madd2(u, m1, t1, c)
	a, t2 = madd2(x[2], y2, a, t2)
	c, t1 = madd2(u, m2, t2, c)
	a, t3 = madd2(x[2], y3, a, t3)
	c, t2 = madd2(u, m3, t3, c)
	t3 = a + c

	a, t0 = madd1(x[3], y0, t0)
	u = t0 * ninv
	c, _ = madd1(u, m0, t0)
	a, t1 = madd2(x[3], y1, a, t1)
	c, t0 = madd2(u, m1, t1, c)
	a, t2 = madd2(x[3], y2, a, t2)
	c, t1 = madd2(u, m2, t2, c)
	a, t3 = madd2(x[3], y3, a, t3)
	c, t2 = madd2(u, m3, t3, c)
	t3 = a + c

	var b uint64
	z[0], b = bits.Sub64(t0, m0, 0)
	z[1], b = bits.Sub64(t1, m1, b)
	z[2], b = bits.Sub64(t2, m2, b)
	z[3], b = bits.Sub64(t3, m3, b)
	if b != 0 {
		z[0], z[1], z[2], z[3] = t0, t1, t2, t3
	}
}

// madd1 returns a·b + c as two words.
func madd1(a, b, c uint64) (hi, lo uint64) {
	hi, lo = bits.Mul64(a, b)
	lo, carry := bits.Add64(lo, c, 0)
	return hi + carry, lo
}

// madd2 returns a·b + c + d as two words; it cannot overflow 128 bits.
func madd2(a, b, c, d uint64) (hi, lo uint64) {
	hi, lo = bits.Mul64(a, b)
	c, carry := bits.Add64(c, d, 0)
	hi += carry
	lo, carry = bits.Add64(lo, c, 0)
	return hi + carry, lo
}

// modAdd sets z = x + y mod m.
func modAdd(z, x, y *[4]uint64, m *modulus) {
	var c uint64
	z[0], c = bits.Add64(x[0], y[0], 0)
	z[1], c = bits.Add64(x[1], y[1], c)
	z[2], c = bits.Add64(x[2], y[2], c)
	z[3], c = bits.Add64(x[3], y[3], c)
	if c != 0 || geqLimbs(z, &m.limbs) {
		subModulus(z, m)
	}
}

// subModulus sets z = z − m mod 2^256.
func subModulus(z *[4]uint64, m *modulus) {
	var b uint64
	z[0], b = bits.Sub64(z[0], m.limbs[0], 0)
	z[1], b = bits.Sub64(z[1], m.limbs[1], b)
	z[2], b = bits.Sub64(z[2], m.limbs[2], b)
	z[3], _ = bits.Sub64(z[3], m.limbs[3], b)
}

// modSub sets z = x - y mod m.
func modSub(z, x, y *[4]uint64, m *modulus) {
	var b uint64
	z[0], b = bits.Sub64(x[0], y[0], 0)
	z[1], b = bits.Sub64(x[1], y[1], b)
	z[2], b = bits.Sub64(x[2], y[2], b)
	z[3], b = bits.Sub64(x[3], y[3], b)
	if b != 0 {
		var c uint64
		z[0], c = bits.Add64(z[0], m.limbs[0], 0)
		z[1], c = bits.Add64(z[1], m.limbs[1], c)
		z[2], c = bits.Add64(z[2], m.limbs[2], c)
		z[3], _ = bits.Add64(z[3], m.limbs[3], c)
	}
}

// modNeg sets z = -x mod m.
func modNeg(z, x *[4]uint64, m *modulus) {
	if x[0] == 0 && x[1] == 0 && x[2] == 0 && x[3] == 0 {
		z[0], z[1], z[2], z[3] = 0, 0, 0, 0
		return
	}
	var b uint64
	z[0], b = bits.Sub64(m.limbs[0], x[0], 0)
	z[1], b = bits.Sub64(m.limbs[1], x[1], b)
	z[2], b = bits.Sub64(m.limbs[2], x[2], b)
	z[3], _ = bits.Sub64(m.limbs[3], x[3], b)
}

func geqLimbs(a, b *[4]uint64) bool {
	for i := 3; i >= 0; i-- {
		if a[i] != b[i] {
			return a[i] > b[i]
		}
	}
	return true
}

// montToBig converts a Montgomery-form limb vector to a canonical big.Int.
func montToBig(l *[4]uint64, m *modulus) *big.Int {
	c := fromMont(l, m)
	return limbsToBig(&c)
}

// bigToMont loads a big.Int (any sign/magnitude) into Montgomery form.
func bigToMont(v *big.Int, l *[4]uint64, m *modulus) {
	t := new(big.Int).Mod(v, m.big)
	var raw [4]uint64
	bigToLimbs(t, &raw)
	montMul(l, &raw, &m.r2, m)
}
