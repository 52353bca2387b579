package ff

import (
	"bytes"
	"math/big"
	mrand "math/rand"
	"testing"
)

// FuzzFrSetBytesRoundTrip: SetBytes must accept arbitrary byte strings
// without panicking, reduce them mod r, and reach a fixed point — the
// canonical 32-byte encoding re-parses to the same element, and an input
// that is already canonical survives the round trip bit-for-bit. The raw
// limb paths are checked against big.Int: Fr.SetBytes and Fr.SetBytesWide
// mod r, Fp.SetBytes mod p.
func FuzzFrSetBytesRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{1})
	f.Add(bytes.Repeat([]byte{0xff}, 32))
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	rMinusOne := new(big.Int).Sub(RModulus(), big.NewInt(1))
	var canon [32]byte
	rMinusOne.FillBytes(canon[:])
	f.Add(canon[:])
	var modBytes [32]byte
	RModulus().FillBytes(modBytes[:])
	f.Add(modBytes[:])
	// The base-field boundary, for the SetBytesCanonical differential.
	PModulus().FillBytes(modBytes[:])
	f.Add(modBytes[:])
	new(big.Int).Sub(PModulus(), big.NewInt(1)).FillBytes(modBytes[:])
	f.Add(modBytes[:])
	f.Add(bytes.Repeat([]byte{0xff}, 48)) // the transcript's challenge width

	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > 128 {
			b = b[:128]
		}
		var z Fr
		z.SetBytes(b)

		c := z.Bytes()
		var z2 Fr
		z2.SetBytes(c[:])
		if !z.Equal(&z2) {
			t.Fatalf("canonical re-parse changed the element: %v != %v", z.String(), z2.String())
		}
		c2 := z2.Bytes()
		if c != c2 {
			t.Fatalf("Bytes is not a fixed point after one reduction")
		}

		// The canonical encoding must be reduced, and must agree with the
		// reference big.Int reduction of the input.
		want := new(big.Int).SetBytes(b)
		want.Mod(want, RModulus())
		if got := new(big.Int).SetBytes(c[:]); got.Cmp(want) != 0 {
			t.Fatalf("SetBytes(%x) = %v, want %v", b, got, want)
		}

		// SetBytesWide — the Fiat–Shamir challenge path for 33–64 bytes —
		// against the same reduction.
		var zw Fr
		if got := zw.SetBytesWide(b).Big(); got.Cmp(want) != 0 {
			t.Fatalf("Fr.SetBytesWide(%x) = %v, want %v", b, got, want)
		}

		// A 32-byte input that is already canonical round-trips exactly.
		if len(b) == 32 && new(big.Int).SetBytes(b).Cmp(RModulus()) < 0 && !bytes.Equal(c[:], b) {
			t.Fatalf("canonical input %x re-encoded as %x", b, c)
		}

		// SetBytesCanonical — the strict decoder's limb compare — against
		// the big.Int rule it replaced: accept exactly the 32-byte strings
		// below the modulus, as the element SetBytes gives; else zero.
		v := new(big.Int).SetBytes(b)
		var sr Fr
		if ok, want := sr.SetBytesCanonical(b), len(b) == 32 && v.Cmp(RModulus()) < 0; ok != want {
			t.Fatalf("Fr.SetBytesCanonical(%x) = %v, big.Int says %v", b, ok, want)
		} else if ok && !sr.Equal(&z) || !ok && !sr.IsZero() {
			t.Fatalf("Fr.SetBytesCanonical(%x) left %v", b, sr.String())
		}
		var sp, zp Fp
		zp.SetBytes(b)
		if got, want := zp.Big(), new(big.Int).Mod(v, PModulus()); got.Cmp(want) != 0 {
			t.Fatalf("Fp.SetBytes(%x) = %v, want %v", b, got, want)
		}
		if ok, want := sp.SetBytesCanonical(b), len(b) == 32 && v.Cmp(PModulus()) < 0; ok != want {
			t.Fatalf("Fp.SetBytesCanonical(%x) = %v, big.Int says %v", b, ok, want)
		} else if ok && !sp.Equal(&zp) || !ok && !sp.IsZero() {
			t.Fatalf("Fp.SetBytesCanonical(%x) left %v", b, sp.String())
		}
	})
}

// FuzzMontMul is the differential check of the Montgomery multiply:
// Fp.Mul, Fr.Mul, Fp.Square and Fr.Square against big.Int, aliased
// z.Mul(z, z) included. Each input is read as a big-endian integer,
// reduced mod m and taken as the Montgomery limbs of an element, so the
// expected limbs of the product are a·b·R⁻¹ mod m and no conversion that
// itself multiplies stands between the code and the oracle. The output
// must also be fully reduced (< m): Equal, IsZero and IsOne compare limbs.
func FuzzMontMul(f *testing.F) {
	R := new(big.Int).Lsh(big.NewInt(1), 256)
	var edges [][]byte
	for _, m := range []*big.Int{PModulus(), RModulus()} {
		for _, v := range []*big.Int{
			big.NewInt(0),
			big.NewInt(1),
			new(big.Int).Sub(m, big.NewInt(1)),
			new(big.Int).Mod(R, m),
			new(big.Int).Mod(new(big.Int).Mul(R, R), m),
			new(big.Int).Mod(new(big.Int).Sub(R, big.NewInt(1)), m),
		} {
			var b [32]byte
			v.FillBytes(b[:])
			edges = append(edges, b[:])
		}
	}
	for _, a := range edges {
		for _, b := range edges {
			f.Add(a, b)
		}
	}
	rng := mrand.New(mrand.NewSource(32))
	for i := 0; i < 8; i++ {
		a, b := make([]byte, 32), make([]byte, 32)
		rng.Read(a)
		rng.Read(b)
		f.Add(a, b)
	}

	pInv := new(big.Int).ModInverse(R, PModulus())
	frInv := new(big.Int).ModInverse(R, RModulus())
	f.Fuzz(func(t *testing.T, a, b []byte) {
		for _, c := range []struct {
			name   string
			mod    *modulus
			rInv   *big.Int
			mul    func(z, x, y *[4]uint64)
			square func(z, x *[4]uint64)
		}{
			{"Fp", &pMod, pInv,
				func(z, x, y *[4]uint64) { (*Fp)(z).Mul((*Fp)(x), (*Fp)(y)) },
				func(z, x *[4]uint64) { (*Fp)(z).Square((*Fp)(x)) }},
			{"Fr", &rMod, frInv,
				func(z, x, y *[4]uint64) { (*Fr)(z).Mul((*Fr)(x), (*Fr)(y)) },
				func(z, x *[4]uint64) { (*Fr)(z).Square((*Fr)(x)) }},
		} {
			m := c.mod.big
			av := new(big.Int).Mod(new(big.Int).SetBytes(a), m)
			bv := new(big.Int).Mod(new(big.Int).SetBytes(b), m)
			var x, y [4]uint64
			bigToLimbs(av, &x)
			bigToLimbs(bv, &y)
			want := func(u, v *big.Int) *big.Int {
				w := new(big.Int).Mul(u, v)
				w.Mul(w, c.rInv)
				return w.Mod(w, m)
			}
			check := func(op string, got *[4]uint64, w *big.Int) {
				t.Helper()
				if geqLimbs(got, &c.mod.limbs) {
					t.Fatalf("%s.%s(%v, %v) = %x, not reduced below the modulus", c.name, op, av, bv, *got)
				}
				if g := limbsToBig(got); g.Cmp(w) != 0 {
					t.Fatalf("%s.%s(%v, %v) = %v, want %v", c.name, op, av, bv, g, w)
				}
			}

			var z [4]uint64
			c.mul(&z, &x, &y)
			check("Mul", &z, want(av, bv))
			z = x
			c.mul(&z, &z, &y)
			check("Mul(z, z, y)", &z, want(av, bv))
			z = y
			c.mul(&z, &x, &z)
			check("Mul(z, x, z)", &z, want(av, bv))
			c.square(&z, &x)
			check("Square", &z, want(av, av))
			z = x
			c.mul(&z, &z, &z)
			check("Mul(z, z, z)", &z, want(av, av))
			z = y
			c.square(&z, &z)
			check("Square(z, z)", &z, want(bv, bv))
		}
	})
}

// FuzzCanonicalBytes is the differential check of the crossings out of
// and into Montgomery form — Fp and Fr Canonical, Bytes, PutBytes, Big
// and SetBytesCanonical — against math/big alone. Big is the oracle of
// the other fuzzers and itself goes through fromMont, so nothing here
// converts through montMul, fromMont or the limb byte codecs: limbs and
// integers are moved by shifts. The input's first 32 bytes are taken as
// raw, unreduced Montgomery limbs x (a limb vector that is a nonzero
// multiple of m is the one whose reduction needs the final
// subtraction), whose canonical value is x·R⁻¹ mod m; the whole input is
// also fed to SetBytesCanonical as an encoding.
func FuzzCanonicalBytes(f *testing.F) {
	R := new(big.Int).Lsh(big.NewInt(1), 256)
	for _, m := range []*big.Int{PModulus(), RModulus()} {
		rm := new(big.Int).Mod(R, m)
		for _, v := range []*big.Int{
			big.NewInt(0),
			big.NewInt(1),
			rm,                                 // Montgomery limbs of 1
			new(big.Int).Sub(m, rm),            // Montgomery limbs of −1
			new(big.Int).Sub(m, big.NewInt(1)), // canonical −1
			new(big.Int).Set(m),                // REDC lands on m: unreduced zero
			new(big.Int).Mul(m, big.NewInt(5)),
			new(big.Int).Add(m, big.NewInt(1)),
			new(big.Int).Sub(R, big.NewInt(1)),
		} {
			var b [32]byte
			v.FillBytes(b[:])
			f.Add(b[:])
		}
	}
	f.Add([]byte{1})
	f.Add(bytes.Repeat([]byte{0}, 33))

	mask := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 64), big.NewInt(1))
	limbsOf := func(v *big.Int) (l [4]uint64) {
		for i := range l {
			l[i] = new(big.Int).And(new(big.Int).Rsh(v, uint(64*i)), mask).Uint64()
		}
		return l
	}
	bigOf := func(l [4]uint64) *big.Int {
		v := new(big.Int)
		for i := 3; i >= 0; i-- {
			v.Lsh(v, 64).Or(v, new(big.Int).SetUint64(l[i]))
		}
		return v
	}
	type field struct {
		name      string
		m         *big.Int
		canonical func(x *[4]uint64) [4]uint64
		put       func(x *[4]uint64, b []byte)
		bytes     func(x *[4]uint64) [32]byte
		big       func(x *[4]uint64) *big.Int
		setCanon  func(z *[4]uint64, b []byte) bool
	}
	fields := []field{
		{"Fp", PModulus(),
			func(x *[4]uint64) [4]uint64 { return (*Fp)(x).Canonical() },
			func(x *[4]uint64, b []byte) { (*Fp)(x).PutBytes(b) },
			func(x *[4]uint64) [32]byte { return (*Fp)(x).Bytes() },
			func(x *[4]uint64) *big.Int { return (*Fp)(x).Big() },
			func(z *[4]uint64, b []byte) bool { return (*Fp)(z).SetBytesCanonical(b) }},
		{"Fr", RModulus(),
			func(x *[4]uint64) [4]uint64 { return (*Fr)(x).Canonical() },
			func(x *[4]uint64, b []byte) { (*Fr)(x).PutBytes(b) },
			func(x *[4]uint64) [32]byte { return (*Fr)(x).Bytes() },
			func(x *[4]uint64) *big.Int { return (*Fr)(x).Big() },
			func(z *[4]uint64, b []byte) bool { return (*Fr)(z).SetBytesCanonical(b) }},
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		X := new(big.Int).SetBytes(in[:min(len(in), 32)])
		B := new(big.Int).SetBytes(in)
		for _, c := range fields {
			rInv := new(big.Int).ModInverse(R, c.m)
			want := new(big.Int).Mul(X, rInv)
			want.Mod(want, c.m)
			var wantBytes [32]byte
			want.FillBytes(wantBytes[:])
			x := limbsOf(X)

			if got := bigOf(c.canonical(&x)); got.Cmp(want) != 0 {
				t.Fatalf("%s.Canonical(limbs %v) = %v, want %v", c.name, X, got, want)
			}
			if got := c.big(&x); got.Cmp(want) != 0 {
				t.Fatalf("%s.Big(limbs %v) = %v, want %v", c.name, X, got, want)
			}
			if got := c.bytes(&x); got != wantBytes {
				t.Fatalf("%s.Bytes(limbs %v) = %x, want %x", c.name, X, got, wantBytes)
			}
			buf := bytes.Repeat([]byte{0xa5}, 34)
			c.put(&x, buf[1:])
			if buf[0] != 0xa5 || buf[33] != 0xa5 || !bytes.Equal(buf[1:33], wantBytes[:]) {
				t.Fatalf("%s.PutBytes(limbs %v) wrote %x", c.name, X, buf)
			}

			// The canonical encoding decodes to the reduced Montgomery
			// limbs, X mod m.
			var z [4]uint64
			if !c.setCanon(&z, wantBytes[:]) {
				t.Fatalf("%s.SetBytesCanonical rejected its own encoding %x", c.name, wantBytes)
			}
			if got, w := bigOf(z), new(big.Int).Mod(X, c.m); got.Cmp(w) != 0 {
				t.Fatalf("%s.SetBytesCanonical(%x) = limbs %v, want %v", c.name, wantBytes, got, w)
			}

			// The raw input as an encoding: accepted iff it is 32 bytes
			// below m, as the limbs B·R mod m; zero otherwise.
			ok := c.setCanon(&z, in)
			switch wantOK := len(in) == 32 && B.Cmp(c.m) < 0; {
			case ok != wantOK:
				t.Fatalf("%s.SetBytesCanonical(%x) = %v, want %v", c.name, in, ok, wantOK)
			case !ok && z != [4]uint64{}:
				t.Fatalf("%s.SetBytesCanonical(%x) failed but left %v", c.name, in, z)
			case ok:
				w := new(big.Int).Lsh(B, 256)
				if got := bigOf(z); got.Cmp(w.Mod(w, c.m)) != 0 {
					t.Fatalf("%s.SetBytesCanonical(%x) = limbs %v, want %v", c.name, in, got, w)
				}
			}
		}
	})
}

// FuzzFpInverse is the differential check of the binary-GCD inversion:
// Fp.Inverse, aliased z.Inverse(z) included, against big.Int.ModInverse
// on the input read as a big-endian integer mod p, with 0 → 0. The
// output must be reduced (< p), as Equal and IsZero compare limbs. The
// seeds are 0, 1, p−1, powers of two up to 2^253 and random values;
// each runs as the canonical value and as raw Montgomery limbs, the
// latter reaching the GCD with the input bytes unchanged.
func FuzzFpInverse(f *testing.F) {
	p := PModulus()
	seed := func(v *big.Int) {
		var b [32]byte
		new(big.Int).Mod(v, p).FillBytes(b[:])
		f.Add(b[:])
	}
	seed(big.NewInt(0))
	seed(big.NewInt(1))
	seed(new(big.Int).Sub(p, big.NewInt(1)))
	for k := 0; k < 254; k += 23 {
		seed(new(big.Int).Lsh(big.NewInt(1), uint(k)))
	}
	seed(new(big.Int).Lsh(big.NewInt(1), 253))
	rng := mrand.New(mrand.NewSource(33))
	for i := 0; i < 8; i++ {
		seed(new(big.Int).Rand(rng, p))
	}
	R := new(big.Int).Lsh(big.NewInt(1), 256)
	f.Fuzz(func(t *testing.T, in []byte) {
		v := new(big.Int).Mod(new(big.Int).SetBytes(in), p)
		var x Fp
		x.SetBig(v)
		var mont Fp // v taken as Montgomery limbs: the element v·R⁻¹
		bigToLimbs(v, (*[4]uint64)(&mont))
		for _, c := range []struct {
			name string
			x    Fp
			val  *big.Int
		}{
			{"canonical", x, v},
			{"montgomery", mont, new(big.Int).Mod(new(big.Int).Mul(v, new(big.Int).ModInverse(R, p)), p)},
		} {
			want := new(big.Int)
			if c.val.Sign() != 0 {
				want.ModInverse(c.val, p)
			}
			var z Fp
			z.Inverse(&c.x)
			if geqLimbs((*[4]uint64)(&z), &pMod.limbs) {
				t.Fatalf("Inverse(%s %v) = limbs %x, not reduced below p", c.name, c.val, z)
			}
			if got := z.Big(); got.Cmp(want) != 0 {
				t.Fatalf("Inverse(%s %v) = %v, want %v", c.name, c.val, got, want)
			}
			z = c.x
			if z.Inverse(&z); z.Big().Cmp(want) != 0 {
				t.Fatalf("aliased Inverse(%s %v) = %v, want %v", c.name, c.val, z.Big(), want)
			}
		}
	})
}
