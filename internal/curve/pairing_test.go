package curve

import (
	"math/big"
	mrand "math/rand"
	"sync"
	"testing"

	"zkvc/internal/ff"
)

// finalExpExponent is (p¹²−1)/r, the exponent the reference raises to.
var finalExpExponent = sync.OnceValue(func() *big.Int {
	e := new(big.Int).Exp(ff.PModulus(), big.NewInt(12), nil)
	e.Sub(e, big.NewInt(1))
	rem := new(big.Int)
	e.DivMod(e, ff.RModulus(), rem)
	if rem.Sign() != 0 {
		panic("curve: r does not divide p^12 - 1")
	}
	return e
})

// finalExpOracle is the reference final exponentiation: f^((p¹²−1)/r) by
// generic square-and-multiply over the whole 2,790-bit exponent.
func finalExpOracle(f *ff.Fp12) ff.Fp12 {
	var out ff.Fp12
	out.Exp(f, finalExpExponent())
	return out
}

// fp12Coeffs lists the twelve Fp coefficients of f.
func fp12Coeffs(f *ff.Fp12) []*ff.Fp {
	var out []*ff.Fp
	for _, d := range []*ff.Fp6{&f.D0, &f.D1} {
		for _, c := range []*ff.Fp2{&d.C0, &d.C1, &d.C2} {
			out = append(out, &c.A0, &c.A1)
		}
	}
	return out
}

func randFp12(rng *mrand.Rand) ff.Fp12 {
	var f ff.Fp12
	for _, c := range fp12Coeffs(&f) {
		c.SetPseudoRandom(rng)
	}
	return f
}

// fp12FromBytes reads data as up to twelve 32-byte big-endian coefficients,
// each reduced mod p; missing coefficients are zero, extra bytes ignored.
func fp12FromBytes(data []byte) ff.Fp12 {
	var f ff.Fp12
	for i, c := range fp12Coeffs(&f) {
		if len(data) > 32*i {
			c.SetBytes(data[32*i : min(len(data), 32*i+32)])
		}
	}
	return f
}

func TestBNParameter(t *testing.T) {
	x := new(big.Int).SetUint64(bnX)
	// poly returns Σ cᵢ·xⁱ, coefficients from the highest degree down.
	poly := func(cs ...int64) *big.Int {
		v := new(big.Int)
		for _, c := range cs {
			v.Mul(v, x)
			v.Add(v, big.NewInt(c))
		}
		return v
	}
	p, r := ff.PModulus(), ff.RModulus()
	if poly(36, 36, 24, 6, 1).Cmp(p) != 0 {
		t.Fatal("p != 36x⁴+36x³+24x²+6x+1")
	}
	if poly(36, 36, 18, 6, 1).Cmp(r) != 0 {
		t.Fatal("r != 36x⁴+36x³+18x²+6x+1")
	}
	// The hard part's exponent: Σ λᵢ·pⁱ must be (p⁴−p²+1)/r exactly, so
	// the result is the full exponentiation, not a power of it.
	lambdas := []*big.Int{
		poly(-36, -30, -18, -2),
		poly(-36, -18, -12, 1),
		poly(6, 0, 1),
		big.NewInt(1),
	}
	sum, pi := new(big.Int), big.NewInt(1)
	for _, l := range lambdas {
		sum.Add(sum, new(big.Int).Mul(l, pi))
		pi.Mul(pi, p)
	}
	p2 := new(big.Int).Mul(p, p)
	want := new(big.Int).Mul(p2, p2)
	want.Sub(want, p2)
	want.Add(want, big.NewInt(1))
	rem := new(big.Int)
	want.DivMod(want, r, rem)
	if rem.Sign() != 0 || sum.Cmp(want) != 0 {
		t.Fatal("Σ λᵢpⁱ != (p⁴−p²+1)/r")
	}
}

func TestFinalExponentiationMatchesOracle(t *testing.T) {
	rng := mrand.New(mrand.NewSource(90))
	var inputs []ff.Fp12
	for i := 0; i < 32; i++ {
		inputs = append(inputs, randFp12(rng))
	}
	g1, g2 := G1GeneratorJac(), G2GeneratorJac()
	for i := 0; i < 3; i++ {
		a, b := randScalar(rng), randScalar(rng)
		var pa G1Jac
		var qb G2Jac
		pa.ScalarMul(&g1, &a)
		qb.ScalarMul(&g2, &b)
		pAff, qAff := pa.ToAffine(), qb.ToAffine()
		inputs = append(inputs, MillerLoop(&pAff, &qAff))
	}
	// conj(f)/f is unitary: its conjugate is its inverse.
	var zero, one, unitary, c ff.Fp12
	one.SetOne()
	f := randFp12(rng)
	unitary.Inverse(&f)
	unitary.Mul(&unitary, c.Conjugate(&f))
	inputs = append(inputs, zero, one, unitary)
	for i := range inputs {
		got, want := FinalExponentiation(&inputs[i]), finalExpOracle(&inputs[i])
		if !got.Equal(&want) {
			t.Fatalf("input %d: FinalExponentiation disagrees with f^((p¹²−1)/r)", i)
		}
	}
}

// FuzzFinalExponentiation checks FinalExponentiation against the oracle on
// the Fp12 element fp12FromBytes reads from data. The seeds in
// testdata/fuzz are zero, one, the generators' Miller-loop output, an
// element with D1 = 0 and a unitary element.
func FuzzFinalExponentiation(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		x := fp12FromBytes(data)
		got, want := FinalExponentiation(&x), finalExpOracle(&x)
		if !got.Equal(&want) {
			t.Fatalf("FinalExponentiation disagrees with the oracle on %x", data)
		}
	})
}

var finalExpSink GT

func TestFinalExponentiationAllocsAndCount(t *testing.T) {
	g1, g2 := G1Generator(), G2Generator()
	f := MillerLoop(&g1, &g2)
	if n := testing.AllocsPerRun(5, func() { finalExpSink = FinalExponentiation(&f) }); n != 0 {
		t.Fatalf("FinalExponentiation allocates %v times per call, want 0", n)
	}
	_, before := PairingCounts()
	finalExpSink = FinalExponentiation(&f)
	if _, after := PairingCounts(); after-before != 1 {
		t.Fatalf("one FinalExponentiation counted %d final exponentiations", after-before)
	}
}
