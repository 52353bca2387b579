package ff

import (
	"math/big"
	mrand "math/rand"
	"testing"
	"testing/quick"
)

func randFr(rng *mrand.Rand) Fr {
	var z Fr
	z.SetPseudoRandom(rng)
	return z
}

func randFp(rng *mrand.Rand) Fp {
	var z Fp
	z.SetPseudoRandom(rng)
	return z
}

func TestFpRoundTripBig(t *testing.T) {
	rng := mrand.New(mrand.NewSource(1))
	for i := 0; i < 200; i++ {
		v := new(big.Int).Rand(rng, pMod.big)
		var x Fp
		x.SetBig(v)
		if got := x.Big(); got.Cmp(v) != 0 {
			t.Fatalf("roundtrip mismatch: got %v want %v", got, v)
		}
	}
}

func TestFrRoundTripBig(t *testing.T) {
	rng := mrand.New(mrand.NewSource(2))
	for i := 0; i < 200; i++ {
		v := new(big.Int).Rand(rng, rMod.big)
		var x Fr
		x.SetBig(v)
		if got := x.Big(); got.Cmp(v) != 0 {
			t.Fatalf("roundtrip mismatch: got %v want %v", got, v)
		}
	}
}

// TestModuliAllowNoCarry pins montMul's precondition on the modulus:
// both BN254 primes have a top limb below 2⁶³−1, and initModulus refuses
// one that does not rather than multiply wrongly.
func TestModuliAllowNoCarry(t *testing.T) {
	for _, m := range []*modulus{&pMod, &rMod} {
		if m.limbs[3] >= 1<<63-1 {
			t.Fatalf("modulus %v: top limb %#x", m.big, m.limbs[3])
		}
	}
	wide := new(big.Int).Lsh(big.NewInt(1<<63-1), 192)
	wide.Add(wide, big.NewInt(1))
	defer func() {
		if recover() == nil {
			t.Fatal("initModulus accepted a top limb of 2⁶³−1")
		}
	}()
	var m modulus
	initModulus(&m, wide.String())
}

func TestFrFieldAxiomsQuick(t *testing.T) {
	rng := mrand.New(mrand.NewSource(5))
	comm := func(seedA, seedB int64) bool {
		a := randFr(rng)
		b := randFr(rng)
		var ab, ba Fr
		ab.Mul(&a, &b)
		ba.Mul(&b, &a)
		var s1, s2 Fr
		s1.Add(&a, &b)
		s2.Add(&b, &a)
		return ab.Equal(&ba) && s1.Equal(&s2)
	}
	if err := quick.Check(comm, nil); err != nil {
		t.Fatal(err)
	}
	assoc := func(_ int64) bool {
		a, b, c := randFr(rng), randFr(rng), randFr(rng)
		var l, r Fr
		l.Mul(&a, &b)
		l.Mul(&l, &c)
		r.Mul(&b, &c)
		r.Mul(&a, &r)
		return l.Equal(&r)
	}
	if err := quick.Check(assoc, nil); err != nil {
		t.Fatal(err)
	}
	distrib := func(_ int64) bool {
		a, b, c := randFr(rng), randFr(rng), randFr(rng)
		var l, r, t1, t2 Fr
		t1.Add(&b, &c)
		l.Mul(&a, &t1)
		t1.Mul(&a, &b)
		t2.Mul(&a, &c)
		r.Add(&t1, &t2)
		return l.Equal(&r)
	}
	if err := quick.Check(distrib, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFrInverse(t *testing.T) {
	rng := mrand.New(mrand.NewSource(6))
	for i := 0; i < 100; i++ {
		a := randFr(rng)
		if a.IsZero() {
			continue
		}
		var inv, prod Fr
		inv.Inverse(&a)
		prod.Mul(&a, &inv)
		if !prod.IsOne() {
			t.Fatalf("a * a^-1 != 1 for a=%v", &a)
		}
	}
	var z, zi Fr
	zi.Inverse(&z)
	if !zi.IsZero() {
		t.Fatal("Inverse(0) should be 0")
	}
}

// TestFpInverseAndNeg runs 20,000 random elements and the values where
// the binary-GCD inversion's rounds are shortest or longest: powers of
// two, small integers and their negatives.
func TestFpInverseAndNeg(t *testing.T) {
	rng := mrand.New(mrand.NewSource(7))
	var cases []Fp
	for k := 0; k < 254; k++ {
		var a Fp
		cases = append(cases, *a.SetBig(new(big.Int).Lsh(big.NewInt(1), uint(k))))
	}
	for v := int64(1); v < 64; v++ {
		var a, b Fp
		cases = append(cases, *a.SetInt64(v), *b.SetInt64(-v))
	}
	for i := 0; i < 20000; i++ {
		cases = append(cases, randFp(rng))
	}
	for _, a := range cases {
		if a.IsZero() {
			continue
		}
		var inv, prod, n, s Fp
		inv.Inverse(&a)
		prod.Mul(&a, &inv)
		if !prod.IsOne() {
			t.Fatal("a * a^-1 != 1")
		}
		n.Neg(&a)
		s.Add(&a, &n)
		if !s.IsZero() {
			t.Fatal("a + (-a) != 0")
		}
	}
}

func TestFrSubAddInverse(t *testing.T) {
	rng := mrand.New(mrand.NewSource(8))
	for i := 0; i < 200; i++ {
		a, b := randFr(rng), randFr(rng)
		var d, s Fr
		d.Sub(&a, &b)
		s.Add(&d, &b)
		if !s.Equal(&a) {
			t.Fatal("(a-b)+b != a")
		}
	}
}

func TestFrExp(t *testing.T) {
	rng := mrand.New(mrand.NewSource(9))
	a := randFr(rng)
	// Fermat: a^(r-1) = 1.
	exp := new(big.Int).Sub(rMod.big, big.NewInt(1))
	var res Fr
	res.Exp(&a, exp)
	if !res.IsOne() {
		t.Fatal("a^(r-1) != 1")
	}
	// a^5 == a*a*a*a*a
	var p5, m Fr
	p5.Exp(&a, big.NewInt(5))
	m.Mul(&a, &a)
	m.Mul(&m, &a)
	m.Mul(&m, &a)
	m.Mul(&m, &a)
	if !p5.Equal(&m) {
		t.Fatal("a^5 mismatch")
	}
	// negative exponent
	var pm1, inv Fr
	pm1.Exp(&a, big.NewInt(-1))
	inv.Inverse(&a)
	if !pm1.Equal(&inv) {
		t.Fatal("a^-1 mismatch")
	}
}

func TestFrSetInt64(t *testing.T) {
	var a, b, s Fr
	a.SetInt64(-7)
	b.SetUint64(7)
	s.Add(&a, &b)
	if !s.IsZero() {
		t.Fatal("SetInt64(-7) + 7 != 0")
	}
}

// TestFrCanonicalSigned checks the balanced representation against
// math/big at the boundaries of the sign rule, on small signed integers
// and on random elements: z = ±mag with mag ≤ (r−1)/2, and neg exactly
// when z > (r−1)/2.
func TestFrCanonicalSigned(t *testing.T) {
	r := RModulus()
	half := new(big.Int).Rsh(r, 1) // (r−1)/2
	cases := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(256),
		new(big.Int).Sub(r, big.NewInt(1)), new(big.Int).Sub(r, big.NewInt(256)),
		half, new(big.Int).Add(half, big.NewInt(1)), new(big.Int).Sub(half, big.NewInt(1)),
		new(big.Int).Lsh(big.NewInt(1), 64), new(big.Int).Sub(r, new(big.Int).Lsh(big.NewInt(1), 64)),
	}
	rng := mrand.New(mrand.NewSource(12))
	for i := 0; i < 500; i++ {
		cases = append(cases, new(big.Int).Rand(rng, r))
	}
	for _, v := range cases {
		var z Fr
		z.SetBig(v)
		mag, neg := z.CanonicalSigned()
		wantMag, wantNeg := v, v.Cmp(half) > 0
		if wantNeg {
			wantMag = new(big.Int).Sub(r, v)
		}
		if got := limbsToBig(&mag); got.Cmp(wantMag) != 0 || neg != wantNeg {
			t.Fatalf("CanonicalSigned(%v) = (%v, %v), want (%v, %v)", v, got, neg, wantMag, wantNeg)
		}
	}
	var m7 Fr
	m7.SetInt64(-7)
	if mag, neg := m7.CanonicalSigned(); mag != [4]uint64{7} || !neg {
		t.Fatalf("CanonicalSigned(-7) = (%v, %v)", mag, neg)
	}
}

func TestFrBytesRoundTrip(t *testing.T) {
	rng := mrand.New(mrand.NewSource(10))
	for i := 0; i < 50; i++ {
		a := randFr(rng)
		buf := a.Bytes()
		var b Fr
		b.SetBytes(buf[:])
		if !a.Equal(&b) {
			t.Fatal("bytes roundtrip failed")
		}
	}
}

func TestFrAliasedOps(t *testing.T) {
	rng := mrand.New(mrand.NewSource(11))
	a := randFr(rng)
	want := new(big.Int).Mul(a.Big(), a.Big())
	want.Mod(want, rMod.big)
	a.Mul(&a, &a)
	if a.Big().Cmp(want) != 0 {
		t.Fatal("aliased square broken")
	}
	b := randFr(rng)
	wantSum := new(big.Int).Add(b.Big(), b.Big())
	wantSum.Mod(wantSum, rMod.big)
	b.Add(&b, &b)
	if b.Big().Cmp(wantSum) != 0 {
		t.Fatal("aliased add broken")
	}
}

func BenchmarkFrMul(b *testing.B) {
	rng := mrand.New(mrand.NewSource(12))
	x, y := randFr(rng), randFr(rng)
	var z Fr
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Mul(&x, &y)
	}
	_ = z
}

func BenchmarkFrSquare(b *testing.B) {
	rng := mrand.New(mrand.NewSource(12))
	x := randFr(rng)
	var z Fr
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Square(&x)
	}
	_ = z
}

func BenchmarkFpMul(b *testing.B) {
	rng := mrand.New(mrand.NewSource(13))
	x, y := randFp(rng), randFp(rng)
	var z Fp
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Mul(&x, &y)
	}
	_ = z
}

func BenchmarkFpInverse(b *testing.B) {
	rng := mrand.New(mrand.NewSource(13))
	x := randFp(rng)
	var z Fp
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Inverse(&x)
	}
}

// byteBenchInputs returns 1024 elements to cycle through: uniformly
// random ones, or the ±1 that make up most R1CS coefficients.
func byteBenchInputs(pm1 bool) []Fr {
	rng := mrand.New(mrand.NewSource(14))
	xs := make([]Fr, 1024)
	for i := range xs {
		switch {
		case !pm1:
			xs[i] = randFr(rng)
		case i%2 == 0:
			xs[i].SetOne()
		default:
			xs[i].SetInt64(-1)
		}
	}
	return xs
}

func BenchmarkFrBytes(b *testing.B) {
	for _, c := range []struct {
		name string
		pm1  bool
	}{{"random", false}, {"pm1", true}} {
		b.Run(c.name, func(b *testing.B) {
			xs := byteBenchInputs(c.pm1)
			b.ReportAllocs()
			b.ResetTimer()
			var sink byte
			for i := 0; i < b.N; i++ {
				out := xs[i&1023].Bytes()
				sink ^= out[31]
			}
			_ = sink
		})
	}
}

func BenchmarkFrSetBytesCanonical(b *testing.B) {
	for _, c := range []struct {
		name string
		pm1  bool
	}{{"random", false}, {"pm1", true}} {
		b.Run(c.name, func(b *testing.B) {
			xs := byteBenchInputs(c.pm1)
			enc := make([][32]byte, len(xs))
			for i := range xs {
				enc[i] = xs[i].Bytes()
			}
			b.ReportAllocs()
			b.ResetTimer()
			var z Fr
			for i := 0; i < b.N; i++ {
				if !z.SetBytesCanonical(enc[i&1023][:]) {
					b.Fatal("canonical encoding rejected")
				}
			}
		})
	}
}
