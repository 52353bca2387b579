package ff

import (
	"math/big"
	mrand "math/rand"
	"testing"
)

func randFp2(rng *mrand.Rand) Fp2 {
	var z Fp2
	z.SetPseudoRandom(rng)
	return z
}

func randFp6(rng *mrand.Rand) Fp6 {
	return Fp6{C0: randFp2(rng), C1: randFp2(rng), C2: randFp2(rng)}
}

func randFp12(rng *mrand.Rand) Fp12 {
	return Fp12{D0: randFp6(rng), D1: randFp6(rng)}
}

func TestFp2Axioms(t *testing.T) {
	rng := mrand.New(mrand.NewSource(20))
	for i := 0; i < 100; i++ {
		a, b, c := randFp2(rng), randFp2(rng), randFp2(rng)
		var l, r, t1, t2 Fp2
		// associativity
		l.Mul(&a, &b)
		l.Mul(&l, &c)
		r.Mul(&b, &c)
		r.Mul(&a, &r)
		if !l.Equal(&r) {
			t.Fatal("Fp2 mul not associative")
		}
		// distributivity
		t1.Add(&b, &c)
		l.Mul(&a, &t1)
		t1.Mul(&a, &b)
		t2.Mul(&a, &c)
		r.Add(&t1, &t2)
		if !l.Equal(&r) {
			t.Fatal("Fp2 mul not distributive")
		}
		// square == mul self
		l.Square(&a)
		r.Mul(&a, &a)
		if !l.Equal(&r) {
			t.Fatal("Fp2 square != mul")
		}
	}
}

func TestFp2USquaredIsMinusOne(t *testing.T) {
	u := Fp2{}
	u.A1.SetOne()
	var sq, minusOne Fp2
	sq.Square(&u)
	minusOne.SetOne()
	minusOne.Neg(&minusOne)
	if !sq.Equal(&minusOne) {
		t.Fatal("u^2 != -1")
	}
}

func TestFp2Inverse(t *testing.T) {
	rng := mrand.New(mrand.NewSource(21))
	for i := 0; i < 100; i++ {
		a := randFp2(rng)
		if a.IsZero() {
			continue
		}
		var inv, prod, one Fp2
		inv.Inverse(&a)
		prod.Mul(&a, &inv)
		one.SetOne()
		if !prod.Equal(&one) {
			t.Fatal("Fp2 inverse broken")
		}
	}
}

func TestFp6VCubedIsXi(t *testing.T) {
	// v³ must equal ξ = 9+u.
	v := Fp6{}
	v.C1.SetOne()
	var v2, v3 Fp6
	v2.Mul(&v, &v)
	v3.Mul(&v2, &v)
	var xi Fp2
	xi.SetOne()
	xi.MulByNonResidue(&xi)
	want := Fp6{}
	want.C0.Set(&xi)
	if !v3.Equal(&want) {
		t.Fatalf("v^3 != xi: got %v", &v3)
	}
}

func TestFp6MulByV(t *testing.T) {
	rng := mrand.New(mrand.NewSource(22))
	v := Fp6{}
	v.C1.SetOne()
	for i := 0; i < 20; i++ {
		a := randFp6(rng)
		var viaMul, viaShort Fp6
		viaMul.Mul(&a, &v)
		viaShort.MulByV(&a)
		if !viaMul.Equal(&viaShort) {
			t.Fatal("MulByV mismatch with generic Mul")
		}
	}
}

func TestFp6Inverse(t *testing.T) {
	rng := mrand.New(mrand.NewSource(23))
	for i := 0; i < 50; i++ {
		a := randFp6(rng)
		if a.IsZero() {
			continue
		}
		var inv, prod, one Fp6
		inv.Inverse(&a)
		prod.Mul(&a, &inv)
		one.SetOne()
		if !prod.Equal(&one) {
			t.Fatal("Fp6 inverse broken")
		}
	}
}

func TestFp12WSquaredIsV(t *testing.T) {
	w := Fp12{}
	w.D1.SetOne()
	var sq Fp12
	sq.Square(&w)
	want := Fp12{}
	want.D0.C1.SetOne() // v as Fp6 inside D0
	if !sq.Equal(&want) {
		t.Fatal("w^2 != v")
	}
}

func TestFp12Inverse(t *testing.T) {
	rng := mrand.New(mrand.NewSource(24))
	for i := 0; i < 20; i++ {
		a := randFp12(rng)
		if a.IsZero() {
			continue
		}
		var inv, prod Fp12
		inv.Inverse(&a)
		prod.Mul(&a, &inv)
		if !prod.IsOne() {
			t.Fatal("Fp12 inverse broken")
		}
	}
}

func TestFp12Associativity(t *testing.T) {
	rng := mrand.New(mrand.NewSource(25))
	for i := 0; i < 20; i++ {
		a, b, c := randFp12(rng), randFp12(rng), randFp12(rng)
		var l, r Fp12
		l.Mul(&a, &b)
		l.Mul(&l, &c)
		r.Mul(&b, &c)
		r.Mul(&a, &r)
		if !l.Equal(&r) {
			t.Fatal("Fp12 mul not associative")
		}
	}
}

func TestFp12ExpLaws(t *testing.T) {
	rng := mrand.New(mrand.NewSource(26))
	a := randFp12(rng)
	e1 := big.NewInt(12345)
	e2 := big.NewInt(67890)
	var x, y, l, r Fp12
	x.Exp(&a, e1)
	y.Exp(&a, e2)
	l.Mul(&x, &y)
	r.Exp(&a, new(big.Int).Add(e1, e2))
	if !l.Equal(&r) {
		t.Fatal("a^e1 * a^e2 != a^(e1+e2)")
	}
}

func TestFp12MultiplicativeOrder(t *testing.T) {
	// Any nonzero x satisfies x^(p^12 - 1) = 1.
	rng := mrand.New(mrand.NewSource(27))
	a := randFp12(rng)
	p12 := new(big.Int).Exp(pMod.big, big.NewInt(12), nil)
	p12.Sub(p12, big.NewInt(1))
	var res Fp12
	res.Exp(&a, p12)
	if !res.IsOne() {
		t.Fatal("x^(p^12-1) != 1; tower is not a field of order p^12")
	}
}

func TestSquaresMatchMul(t *testing.T) {
	rng := mrand.New(mrand.NewSource(29))
	for i := 0; i < 50; i++ {
		a6 := randFp6(rng)
		var s6, m6 Fp6
		s6.Square(&a6)
		m6.Mul(&a6, &a6)
		if !s6.Equal(&m6) {
			t.Fatal("Fp6 square != mul")
		}
		a12 := randFp12(rng)
		var s12, m12 Fp12
		s12.Square(&a12)
		m12.Mul(&a12, &a12)
		if !s12.Equal(&m12) {
			t.Fatal("Fp12 square != mul")
		}
		s12.Set(&a12)
		s12.Square(&s12) // in place
		if !s12.Equal(&m12) {
			t.Fatal("in-place Fp12 square != mul")
		}
	}
}

func TestMulByLineMatchesMul(t *testing.T) {
	rng := mrand.New(mrand.NewSource(32))
	for i := 0; i < 50; i++ {
		x := randFp12(rng)
		c0, c1, c3 := randFp2(rng), randFp2(rng), randFp2(rng)
		var l, want, got Fp12
		l.D0.C0, l.D1.C0, l.D1.C1 = c0, c1, c3
		want.Mul(&x, &l)
		if got.MulByLine(&x, &c0, &c1, &c3); !got.Equal(&want) {
			t.Fatal("MulByLine != Mul by the lifted line")
		}
		x.MulByLine(&x, &c0, &c1, &c3) // in place
		if !x.Equal(&want) {
			t.Fatal("in-place MulByLine != Mul by the lifted line")
		}
	}
}

func TestFrobeniusMatchesExp(t *testing.T) {
	rng := mrand.New(mrand.NewSource(30))
	pk := big.NewInt(1)
	for k := 1; k <= 3; k++ {
		pk.Mul(pk, pMod.big)
		for i := 0; i < 3; i++ {
			a := randFp12(rng)
			var got, want Fp12
			got.Frobenius(&a, k)
			want.Exp(&a, pk)
			if !got.Equal(&want) {
				t.Fatalf("Frobenius(%d) != x^(p^%d)", k, k)
			}
		}
	}
}

// easyPart returns f^((p⁶−1)(p²+1)), an element of the cyclotomic subgroup.
func easyPart(f *Fp12) Fp12 {
	var m, t Fp12
	t.Inverse(f)
	m.Conjugate(f)
	m.Mul(&m, &t)
	t.Frobenius(&m, 2)
	return *m.Mul(&m, &t)
}

func TestCyclotomicSquare(t *testing.T) {
	rng := mrand.New(mrand.NewSource(31))
	for i := 0; i < 20; i++ {
		a := randFp12(rng)
		m := easyPart(&a)
		var want, got Fp12
		want.Mul(&m, &m)
		got.CyclotomicSquare(&m)
		if !got.Equal(&want) {
			t.Fatal("cyclotomic square != mul on an easy-part image")
		}
		m.CyclotomicSquare(&m) // in place
		if !m.Equal(&want) {
			t.Fatal("in-place cyclotomic square != mul")
		}
	}
	// Off the subgroup the shortcut is not a square: the precondition is
	// real, not a formality.
	a := randFp12(rng)
	var want, got Fp12
	want.Mul(&a, &a)
	if got.CyclotomicSquare(&a); got.Equal(&want) {
		t.Fatal("cyclotomic square agreed with mul on a random element")
	}
}

func BenchmarkFp12Mul(b *testing.B) {
	rng := mrand.New(mrand.NewSource(28))
	x, y := randFp12(rng), randFp12(rng)
	var z Fp12
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Mul(&x, &y)
	}
}
