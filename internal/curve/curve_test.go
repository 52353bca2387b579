package curve

import (
	"math/big"
	mrand "math/rand"
	"testing"

	"zkvc/internal/ff"
)

func randScalar(rng *mrand.Rand) ff.Fr {
	var s ff.Fr
	s.SetPseudoRandom(rng)
	return s
}

func TestG1GeneratorOnCurve(t *testing.T) {
	g := G1Generator()
	if !g.IsOnCurve() {
		t.Fatal("G1 generator not on curve")
	}
}

func TestG2GeneratorOnCurve(t *testing.T) {
	g := G2Generator()
	if !g.IsOnCurve() {
		t.Fatal("G2 generator not on curve")
	}
}

func TestG1Order(t *testing.T) {
	// r·G must be the identity.
	g := G1GeneratorJac()
	var r ff.Fr
	r.SetBig(new(big.Int).Sub(ff.RModulus(), big.NewInt(1)))
	var rm1G, sum G1Jac
	rm1G.ScalarMul(&g, &r) // (r-1)·G = −G
	sum.Set(&rm1G)
	sum.AddAssign(&g)
	if !sum.IsInfinity() {
		t.Fatal("r·G1 != infinity")
	}
}

func TestG2Order(t *testing.T) {
	g := G2GeneratorJac()
	var r ff.Fr
	r.SetBig(new(big.Int).Sub(ff.RModulus(), big.NewInt(1)))
	var rm1G, sum G2Jac
	rm1G.ScalarMul(&g, &r)
	sum.Set(&rm1G)
	sum.AddAssign(&g)
	if !sum.IsInfinity() {
		t.Fatal("r·G2 != infinity")
	}
}

func TestG1GroupLaws(t *testing.T) {
	rng := mrand.New(mrand.NewSource(42))
	g := G1GeneratorJac()
	a, b := randScalar(rng), randScalar(rng)
	var pa, pb, ab1, ab2 G1Jac
	pa.ScalarMul(&g, &a)
	pb.ScalarMul(&g, &b)
	// (a+b)G == aG + bG
	var sum ff.Fr
	sum.Add(&a, &b)
	ab1.ScalarMul(&g, &sum)
	ab2.Set(&pa)
	ab2.AddAssign(&pb)
	if !ab1.Equal(&ab2) {
		t.Fatal("(a+b)G != aG + bG")
	}
	// commutativity
	var ba G1Jac
	ba.Set(&pb)
	ba.AddAssign(&pa)
	if !ab2.Equal(&ba) {
		t.Fatal("addition not commutative")
	}
	// double == add self
	var d1, d2 G1Jac
	d1.Double(&pa)
	d2.Set(&pa)
	d2.AddAssign(&pa)
	if !d1.Equal(&d2) {
		t.Fatal("double != add self")
	}
	// mixed addition agrees with jacobian addition
	aff := pb.ToAffine()
	var m G1Jac
	m.Set(&pa)
	m.AddMixed(&aff)
	if !m.Equal(&ab2) {
		t.Fatal("AddMixed mismatch")
	}
	// P + (−P) = O
	var neg, z G1Jac
	neg.Neg(&pa)
	z.Set(&pa)
	z.AddAssign(&neg)
	if !z.IsInfinity() {
		t.Fatal("P + (−P) != O")
	}
}

func TestG1ToAffineRoundTrip(t *testing.T) {
	rng := mrand.New(mrand.NewSource(43))
	g := G1GeneratorJac()
	s := randScalar(rng)
	var p G1Jac
	p.ScalarMul(&g, &s)
	aff := p.ToAffine()
	if !aff.IsOnCurve() {
		t.Fatal("scalar multiple off curve")
	}
	var back G1Jac
	back.FromAffine(&aff)
	if !back.Equal(&p) {
		t.Fatal("affine roundtrip failed")
	}
}

// TestBatchToAffineG1 converts general-Z points, Z = 1 points (as
// fixed-base multiplication returns them, passed through without joining
// the inversion) and infinity, in one batch.
func TestBatchToAffineG1(t *testing.T) {
	rng := mrand.New(mrand.NewSource(44))
	g := G1GeneratorJac()
	pts := make([]G1Jac, 33)
	for i := range pts {
		s := randScalar(rng)
		pts[i].ScalarMul(&g, &s)
		switch i % 5 {
		case 2:
			pts[i].SetInfinity()
		case 3, 4:
			a := pts[i].ToAffine()
			pts[i].FromAffine(&a)
		}
	}
	affs := BatchToAffineG1(pts)
	for i := range pts {
		want := pts[i].ToAffine()
		if !affs[i].Equal(&want) {
			t.Fatalf("batch affine mismatch at %d", i)
		}
	}
}

func TestBatchToAffineG2(t *testing.T) {
	rng := mrand.New(mrand.NewSource(45))
	g := G2GeneratorJac()
	pts := make([]G2Jac, 33)
	for i := range pts {
		s := randScalar(rng)
		pts[i].ScalarMul(&g, &s)
		switch i % 5 {
		case 2:
			pts[i].SetInfinity()
		case 3, 4:
			a := pts[i].ToAffine()
			pts[i].FromAffine(&a)
		}
	}
	affs := BatchToAffineG2(pts)
	for i := range pts {
		want := pts[i].ToAffine()
		if !affs[i].Equal(&want) {
			t.Fatalf("batch affine mismatch at %d", i)
		}
	}
}

func TestPairingBilinearity(t *testing.T) {
	rng := mrand.New(mrand.NewSource(48))
	g1 := G1Generator()
	g2 := G2Generator()
	a, b := randScalar(rng), randScalar(rng)

	var pa G1Jac
	pa.ScalarMul(func() *G1Jac { j := G1GeneratorJac(); return &j }(), &a)
	paAff := pa.ToAffine()
	var qb G2Jac
	qb.ScalarMul(func() *G2Jac { j := G2GeneratorJac(); return &j }(), &b)
	qbAff := qb.ToAffine()

	// e(aP, bQ) == e(P, Q)^{ab}
	lhs := Pair(&paAff, &qbAff)
	base := Pair(&g1, &g2)
	abBig := new(big.Int).Mul(a.Big(), b.Big())
	abBig.Mod(abBig, ff.RModulus())
	var rhs ff.Fp12
	rhs.Exp(&base, abBig)
	if !lhs.Equal(&rhs) {
		t.Fatal("pairing not bilinear: e(aP,bQ) != e(P,Q)^{ab}")
	}

	// e(P₁+P₂, Q) == e(P₁, Q)·e(P₂, Q) and e(P, Q₁+Q₂) == e(P, Q₁)·e(P, Q₂),
	// with P₁ = aP, P₂ = P, Q₁ = bQ, Q₂ = Q.
	var p12 G1Jac
	p12.Set(&pa)
	p12.AddMixed(&g1)
	p12Aff := p12.ToAffine()
	var q12 G2Jac
	q12.Set(&qb)
	q12.AddMixed(&g2)
	q12Aff := q12.ToAffine()
	for _, c := range []struct {
		name      string
		sum, x, y GT
	}{
		{"e(P1+P2,Q) != e(P1,Q)·e(P2,Q)", Pair(&p12Aff, &g2), Pair(&paAff, &g2), base},
		{"e(P,Q1+Q2) != e(P,Q1)·e(P,Q2)", Pair(&g1, &q12Aff), Pair(&g1, &qbAff), base},
	} {
		if c.x.Mul(&c.x, &c.y); !c.sum.Equal(&c.x) {
			t.Fatal("pairing not bilinear: " + c.name)
		}
	}
}

func TestPairingNonDegenerate(t *testing.T) {
	g1 := G1Generator()
	g2 := G2Generator()
	e := Pair(&g1, &g2)
	if e.IsOne() {
		t.Fatal("pairing degenerate: e(G1, G2) == 1")
	}
	// Also confirm e(G1,G2) has order dividing r: e^r == 1.
	var er ff.Fp12
	er.Exp(&e, ff.RModulus())
	if !er.IsOne() {
		t.Fatal("pairing output not in the order-r subgroup")
	}
}

func TestPairingInfinity(t *testing.T) {
	g1 := G1Generator()
	g2 := G2Generator()
	var infP G1Affine
	infP.Infinity = true
	var infQ G2Affine
	infQ.Infinity = true
	if got := Pair(&infP, &g2); !got.IsOne() {
		t.Fatal("e(O, Q) != 1")
	}
	if got := Pair(&g1, &infQ); !got.IsOne() {
		t.Fatal("e(P, O) != 1")
	}
}

func TestPairingCheck(t *testing.T) {
	rng := mrand.New(mrand.NewSource(49))
	gj := G1GeneratorJac()
	hj := G2GeneratorJac()
	a := randScalar(rng)

	// e(aG, H) · e(−G, aH) == 1
	var ag G1Jac
	ag.ScalarMul(&gj, &a)
	agAff := ag.ToAffine()
	var ah G2Jac
	ah.ScalarMul(&hj, &a)
	ahAff := ah.ToAffine()
	negG := G1Generator()
	negG.Neg(&negG)

	if !PairingCheck([]G1Affine{agAff, negG}, []G2Affine{G2Generator(), ahAff}) {
		t.Fatal("valid pairing product rejected")
	}
	// Perturb one side: must fail.
	var b ff.Fr
	b.Add(&a, func() *ff.Fr { o := ff.NewFr(1); return &o }())
	var bg G1Jac
	bg.ScalarMul(&gj, &b)
	bgAff := bg.ToAffine()
	if PairingCheck([]G1Affine{bgAff, negG}, []G2Affine{G2Generator(), ahAff}) {
		t.Fatal("invalid pairing product accepted")
	}
}

func BenchmarkPairing(b *testing.B) {
	g1 := G1Generator()
	g2 := G2Generator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Pair(&g1, &g2)
	}
}

func BenchmarkMillerLoop(b *testing.B) {
	g1 := G1Generator()
	g2 := G2Generator()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		millerSink = MillerLoop(&g1, &g2)
	}
}

// BenchmarkPairingCheck4 times the Groth16 per-proof shape: four pairs,
// one multi-Miller loop per worker and one final exponentiation.
func BenchmarkPairingCheck4(b *testing.B) {
	rng := mrand.New(mrand.NewSource(50))
	g1, g2 := G1GeneratorJac(), G2GeneratorJac()
	ps, qs := make([]G1Affine, 4), make([]G2Affine, 4)
	for i := range ps {
		s := randScalar(rng)
		var pj G1Jac
		var qj G2Jac
		ps[i] = pj.ScalarMul(&g1, &s).ToAffine()
		qs[i] = qj.ScalarMul(&g2, &s).ToAffine()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PairingCheck(ps, qs)
	}
}

func BenchmarkFinalExponentiation(b *testing.B) {
	g1 := G1Generator()
	g2 := G2Generator()
	f := MillerLoop(&g1, &g2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		finalExpSink = FinalExponentiation(&f)
	}
}
