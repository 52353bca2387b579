package curve

import (
	"encoding/binary"
	"math/big"
	mrand "math/rand"
	"sync"
	"testing"

	"zkvc/internal/ff"
	"zkvc/internal/parallel"
)

// The reduced Tate pairing e(P, Q) = f_{r,P}(ψ(Q))^((p¹²−1)/r), with ψ
// the untwist (x, y) ↦ (x·w², y·w³), is the reference the optimal ate
// loop is checked against: a Miller loop over the 254 bits of r with T ∈ G1
// in affine coordinates (one Fp inversion per step), each line multiplied
// into f as a full Fp12. It agrees with the ate pairing on every verdict,
// not on values.

// millerState tracks the running point T of the Tate Miller loop in
// affine coordinates over Fp.
type millerState struct {
	x, y ff.Fp
	inf  bool
}

// sparseLine builds the Fp12 element
//
//	c + a·x_Q·v + b·y_Q·v·w
//
// which is how every line function evaluates at the untwisted Q.
func sparseLine(c, a *ff.Fp, bIsOne bool, q *G2Affine) ff.Fp12 {
	var l ff.Fp12
	l.D0.C0.A0.Set(c)
	l.D0.C1.MulByFp(&q.X, a)
	if bIsOne {
		l.D1.C1.Set(&q.Y)
	}
	return l
}

// lineDouble evaluates the tangent line at T against ψ(Q) and doubles T.
func (t *millerState) lineDouble(q *G2Affine) ff.Fp12 {
	// λ = 3x²/(2y);  l(ψQ) = y_ψQ − λ·x_ψQ + (λ·x_T − y_T)
	var num, den, lambda, c, a ff.Fp
	num.Square(&t.x)
	var three ff.Fp
	three.SetUint64(3)
	num.Mul(&num, &three)
	den.Double(&t.y)
	den.Inverse(&den)
	lambda.Mul(&num, &den)

	c.Mul(&lambda, &t.x)
	c.Sub(&c, &t.y)
	a.Neg(&lambda)
	l := sparseLine(&c, &a, true, q)

	// T = 2T: x3 = λ² − 2x, y3 = λ(x − x3) − y
	var x3, y3 ff.Fp
	x3.Square(&lambda)
	x3.Sub(&x3, &t.x)
	x3.Sub(&x3, &t.x)
	y3.Sub(&t.x, &x3)
	y3.Mul(&y3, &lambda)
	y3.Sub(&y3, &t.y)
	t.x.Set(&x3)
	t.y.Set(&y3)
	return l
}

// lineAdd evaluates the line through T and P against ψ(Q) and sets
// T = T + P. When T = −P the line is the vertical x − x_T and T becomes
// the point at infinity (this happens exactly at the last bit of r).
func (t *millerState) lineAdd(p *G1Affine, q *G2Affine) ff.Fp12 {
	if t.x.Equal(&p.X) {
		var negY ff.Fp
		negY.Neg(&p.Y)
		if t.y.Equal(&negY) {
			// vertical: l = x_ψQ − x_T
			var c, a ff.Fp
			c.Neg(&t.x)
			a.SetOne()
			t.inf = true
			return sparseLine(&c, &a, false, q)
		}
		// T == P: tangent.
		return t.lineDouble(q)
	}
	var num, den, lambda, c, a ff.Fp
	num.Sub(&p.Y, &t.y)
	den.Sub(&p.X, &t.x)
	den.Inverse(&den)
	lambda.Mul(&num, &den)

	c.Mul(&lambda, &t.x)
	c.Sub(&c, &t.y)
	a.Neg(&lambda)
	l := sparseLine(&c, &a, true, q)

	var x3, y3 ff.Fp
	x3.Square(&lambda)
	x3.Sub(&x3, &t.x)
	x3.Sub(&x3, &p.X)
	y3.Sub(&t.x, &x3)
	y3.Mul(&y3, &lambda)
	y3.Sub(&y3, &t.y)
	t.x.Set(&x3)
	t.y.Set(&y3)
	return l
}

// tateMillerOracle computes f_{r,P}(ψ(Q)).
func tateMillerOracle(p *G1Affine, q *G2Affine) ff.Fp12 {
	var f ff.Fp12
	f.SetOne()
	if p.Infinity || q.Infinity {
		return f
	}
	r := ff.RModulus()
	t := millerState{x: p.X, y: p.Y}
	for i := r.BitLen() - 2; i >= 0; i-- {
		f.Square(&f)
		if t.inf {
			continue
		}
		l := t.lineDouble(q)
		f.Mul(&f, &l)
		if r.Bit(i) == 1 && !t.inf {
			l := t.lineAdd(p, q)
			f.Mul(&f, &l)
		}
	}
	return f
}

// tatePairingCheckOracle reports whether Π e_Tate(P_i, Q_i) == 1.
func tatePairingCheckOracle(ps []G1Affine, qs []G2Affine) bool {
	var f ff.Fp12
	f.SetOne()
	for i := range ps {
		m := tateMillerOracle(&ps[i], &qs[i])
		f.Mul(&f, &m)
	}
	out := finalExpOracle(&f)
	return out.IsOne()
}

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

func TestAteLoop(t *testing.T) {
	loop := new(big.Int).SetUint64(bnX)
	loop.Add(loop.Mul(loop, big.NewInt(6)), big.NewInt(2))
	nonzero := 0
	sum := new(big.Int)
	for i := len(ateLoop) - 1; i >= 0; i-- {
		sum.Lsh(sum, 1)
		sum.Add(sum, big.NewInt(int64(ateLoop[i])))
		if ateLoop[i] != 0 {
			nonzero++
			if i > 0 && ateLoop[i-1] != 0 {
				t.Fatalf("adjacent nonzero digits at %d: not a NAF", i)
			}
		}
	}
	if len(ateLoop) != 66 || nonzero != 22 || ateLoop[len(ateLoop)-1] != 1 || sum.Cmp(loop) != 0 {
		t.Fatalf("NAF of 6x+2: %d digits, %d nonzero, value %v", len(ateLoop), nonzero, sum)
	}

	// The multiples of Q the loop reaches avoid every exceptional case of
	// the projective steps (see multiMillerLoop).
	r, p := ff.RModulus(), ff.PModulus()
	m := big.NewInt(1)
	for i := len(ateLoop) - 2; i >= 0; i-- {
		m.Lsh(m, 1)
		if ateLoop[i] != 0 && m.Cmp(big.NewInt(2)) < 0 {
			t.Fatalf("addition at T = [%v]Q", m)
		}
		m.Add(m, big.NewInt(int64(ateLoop[i])))
		if m.Sign() <= 0 || m.Cmp(r) >= 0 {
			t.Fatalf("T = [%v]Q leaves [1, r)", m)
		}
	}
	mod := func(v *big.Int) *big.Int { return new(big.Int).Mod(v, r) }
	pr := mod(p)
	p2r := mod(new(big.Int).Mul(p, p))
	exceptional := func(m, q *big.Int) bool {
		return mod(m).Cmp(q) == 0 || mod(new(big.Int).Add(m, q)).Sign() == 0
	}
	if exceptional(loop, pr) {
		t.Fatal("first closing addition meets T = ±π(Q)")
	}
	if exceptional(new(big.Int).Add(loop, p), p2r) {
		t.Fatal("second closing addition meets T = ±π²(Q)")
	}
	// 6x+2 + p − p² + p³ ≡ 0 (mod r): the closing lines make a pairing.
	opt := new(big.Int).Add(loop, p)
	opt.Sub(opt, new(big.Int).Mul(p, p))
	opt.Add(opt, new(big.Int).Exp(p, big.NewInt(3), nil))
	if mod(opt).Sign() != 0 {
		t.Fatal("6x+2 + p − p² + p³ is not a multiple of r")
	}
}

func TestTwistFrobenius(t *testing.T) {
	rng := mrand.New(mrand.NewSource(91))
	gen := G2GeneratorJac()
	qs := []G2Jac{gen}
	for i := 0; i < 3; i++ {
		s := randScalar(rng)
		var q G2Jac
		qs = append(qs, *q.ScalarMul(&gen, &s))
	}
	pk := big.NewInt(1)
	for k := 1; k <= 2; k++ {
		pk.Mul(pk, ff.PModulus())
		var e ff.Fr
		e.SetBig(new(big.Int).Mod(pk, ff.RModulus()))
		for i := range qs {
			q := qs[i].ToAffine()
			var got G2Affine
			got.frobenius(&q, k)
			var want G2Jac
			want.ScalarMul(&qs[i], &e)
			if w := want.ToAffine(); !got.Equal(&w) {
				t.Fatalf("π_{p^%d}(Q) != [p^%d mod r]Q for point %d", k, k, i)
			}
		}
	}
}

// fp12Of embeds c·w^k into Fp12.
func fp12Of(c *ff.Fp2, k int) ff.Fp12 {
	var z, w ff.Fp12
	z.D0.C0 = *c
	w.D1.C0.SetOne()
	for ; k > 0; k-- {
		z.Mul(&z, &w)
	}
	return z
}

// refLine evaluates at P the line through ψ(T) and ψ(R) (the tangent when
// T = R) in plain Fp12 arithmetic on the untwisted points.
func refLine(p *G1Affine, tAff, rAff *G2Affine) ff.Fp12 {
	xT, yT := fp12Of(&tAff.X, 2), fp12Of(&tAff.Y, 3)
	xR, yR := fp12Of(&rAff.X, 2), fp12Of(&rAff.Y, 3)
	var xP, yP ff.Fp2
	xP.SetFp(&p.X)
	yP.SetFp(&p.Y)
	px, py := fp12Of(&xP, 0), fp12Of(&yP, 0)
	var num, den, lambda, l, d ff.Fp12
	if tAff.Equal(rAff) {
		num.Square(&xT)
		num.Add(&num, d.Add(&num, &num)) // 3x²
		den.Add(&yT, &yT)
	} else {
		num.Sub(&yR, &yT)
		den.Sub(&xR, &xT)
	}
	lambda.Mul(&num, den.Inverse(&den))
	l.Sub(&py, &yT)
	d.Sub(&px, &xT)
	return *l.Sub(&l, d.Mul(&d, &lambda))
}

// inFp2 reports whether f lies in Fp2 ⊂ Fp12.
func inFp2(f *ff.Fp12) bool {
	g := *f
	g.D0.C0.SetZero()
	return g.IsZero()
}

// projAffine returns (X/Z, Y/Z) of the loop's running point.
func projAffine(a *atePair) G2Affine {
	var zInv ff.Fp2
	zInv.Inverse(&a.tz)
	var out G2Affine
	out.X.Mul(&a.tx, &zInv)
	out.Y.Mul(&a.ty, &zInv)
	return out
}

// TestAteSteps pins the projective doubling and addition steps: the new
// T is the group-law result, and the line multiplied into f is the
// line through the untwisted points, up to an Fp2 factor. T starts with
// Z ≠ 1 so every projective term is exercised.
func TestAteSteps(t *testing.T) {
	rng := mrand.New(mrand.NewSource(92))
	g1, g2 := G1GeneratorJac(), G2GeneratorJac()
	for i := 0; i < 4; i++ {
		s, u, v := randScalar(rng), randScalar(rng), randScalar(rng)
		var pj G1Jac
		var tj, rj G2Jac
		pj.ScalarMul(&g1, &s)
		tj.ScalarMul(&g2, &u)
		rj.ScalarMul(&g2, &v)
		p, tAff, rAff := pj.ToAffine(), tj.ToAffine(), rj.ToAffine()

		a := newAtePair(&p, &tAff)
		var z ff.Fp2
		z.SetPseudoRandom(rng)
		a.tx.Mul(&a.tx, &z)
		a.ty.Mul(&a.ty, &z)
		a.tz.Set(&z)

		check := func(step string, f *ff.Fp12, want ff.Fp12, wantT G2Jac) {
			t.Helper()
			var ratio ff.Fp12
			ratio.Inverse(&want)
			ratio.Mul(&ratio, f)
			if ratio.IsZero() || !inFp2(&ratio) {
				t.Fatalf("%s %d: line is not the untwisted line up to an Fp2 factor", step, i)
			}
			if got, w := projAffine(&a), wantT.ToAffine(); !got.Equal(&w) {
				t.Fatalf("%s %d: T disagrees with the group law", step, i)
			}
		}

		var f ff.Fp12
		f.SetOne()
		a.double(&f)
		var twoT G2Jac
		twoT.Double(&tj)
		check("double", &f, refLine(&p, &tAff, &tAff), twoT)

		cur := twoT.ToAffine()
		f.SetOne()
		a.add(&f, &rAff)
		sum := twoT
		sum.AddAssign(&rj)
		check("add", &f, refLine(&p, &cur, &rAff), sum)
	}
}

// pairingInput decodes fuzz bytes into a PairingCheck input whose pairs
// are (s_i·G1, t_i·G2), so the product is e(G1, G2)^{Σ s_i·t_i}.
//
// data[0] picks k ∈ {0, 1, 2, 4, 17}, data[1] holds flags and data[2]
// picks a target; the rest are 8-byte big-endian scalars a, b (zero when
// missing), two per couple. Couple j is (a·G1, b·G2), (−ab·G1, G2), whose
// product is 1; an odd k ends with a lone (a·G1, b·G2). Flags: 8 copies
// couple 0 over every other couple (repeated pairs), then 1 adds 1 to the
// target couple's ab (tampered), 2 sets the target pair's P to infinity
// and 4 its Q.
func pairingInput(data []byte) (ps []G1Affine, qs []G2Affine, want bool) {
	hdr := make([]byte, 3)
	copy(hdr, data)
	k := []int{0, 1, 2, 4, 17}[int(hdr[0])%5]
	flags, target := hdr[1], int(hdr[2])
	scalar := func(j int) ff.Fr {
		var b [8]byte
		if off := 3 + 8*j; off < len(data) {
			copy(b[:], data[off:])
		}
		return ff.NewFr(binary.BigEndian.Uint64(b[:]))
	}

	s, u := make([]ff.Fr, k), make([]ff.Fr, k)
	for j := 0; 2*j < k; j++ {
		c := j
		if flags&8 != 0 && 2*j+1 < k {
			c = 0
		}
		a, b := scalar(2*c), scalar(2*c+1)
		s[2*j], u[2*j] = a, b
		if 2*j+1 < k {
			s[2*j+1].Mul(&a, &b)
			s[2*j+1].Neg(&s[2*j+1])
			u[2*j+1].SetOne()
		}
	}
	if k > 0 {
		i := target % k
		if c := 2 * (i / 2); flags&1 != 0 && c+1 < k {
			one := ff.NewFr(1)
			s[c+1].Sub(&s[c+1], &one)
		}
		if flags&2 != 0 {
			s[i].SetZero()
		}
		if flags&4 != 0 {
			u[i].SetZero()
		}
	}

	var e ff.Fr
	g1, g2 := G1GeneratorJac(), G2GeneratorJac()
	for i := 0; i < k; i++ {
		var st ff.Fr
		e.Add(&e, st.Mul(&s[i], &u[i]))
		var pj G1Jac
		var qj G2Jac
		pj.ScalarMul(&g1, &s[i])
		qj.ScalarMul(&g2, &u[i])
		ps, qs = append(ps, pj.ToAffine()), append(qs, qj.ToAffine())
	}
	return ps, qs, e.IsZero()
}

// FuzzPairingCheckParity compares PairingCheck's verdict with the reduced
// Tate oracle's and with the discrete-log sum pairingInput knows, on valid,
// tampered, infinity-bearing and repeated-pair products of k ∈ {0, 1, 2,
// 4, 17} pairs. The seeds in testdata/fuzz name their case.
func FuzzPairingCheckParity(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		ps, qs, want := pairingInput(data)
		if got := PairingCheck(ps, qs); got != want {
			t.Fatalf("PairingCheck = %v on %d pairs, want %v (%x)", got, len(ps), want, data)
		}
		if oracle := tatePairingCheckOracle(ps, qs); oracle != want {
			t.Fatalf("Tate oracle = %v on %d pairs, want %v (%x)", oracle, len(ps), want, data)
		}
	})
}

var millerSink ff.Fp12

// TestPairingCheckAllocsAndCounts pins the cost model: MillerLoop does not
// allocate, a k-pair check allocates no more than a 1-pair one, counts k
// Miller loops (infinity pairs included) and one final exponentiation,
// and gives the same verdict at every worker count.
func TestPairingCheckAllocsAndCounts(t *testing.T) {
	defer parallel.SetDefaultSize(0)
	g1, g2 := G1Generator(), G2Generator()
	if n := testing.AllocsPerRun(3, func() { millerSink = MillerLoop(&g1, &g2) }); n != 0 {
		t.Fatalf("MillerLoop allocates %v times per call, want 0", n)
	}

	valid := []byte{4, 0, 0}
	for i := uint64(1); i <= 18; i++ {
		a := i<<40 | i
		if i == 17 {
			a = 0 // the lone 17th pair is (O, b·G2)
		}
		valid = binary.BigEndian.AppendUint64(valid, a)
	}
	ps, qs, ok := pairingInput(valid)
	tampered := append([]byte{4, 1, 5}, valid[3:]...)
	tps, tqs, tok := pairingInput(tampered)
	if !ok || tok || len(ps) != 17 {
		t.Fatal("pairingInput did not build a valid and a tampered 17-pair product")
	}
	ps[3].Infinity, qs[3].Infinity = true, true
	ps[2].Infinity = true

	parallel.SetDefaultSize(1)
	one := testing.AllocsPerRun(3, func() { PairingCheck(ps[:1], qs[:1]) })
	if four := testing.AllocsPerRun(3, func() { PairingCheck(ps[:4], qs[:4]) }); four != one {
		t.Fatalf("PairingCheck allocates %v times for 4 pairs, %v for 1", four, one)
	}

	for _, workers := range []int{1, 2, 3} {
		parallel.SetDefaultSize(workers)
		m0, f0 := PairingCounts()
		if !PairingCheck(ps[:4], qs[:4]) {
			t.Fatalf("workers=%d: valid 4-pair product with infinities rejected", workers)
		}
		if !PairingCheck(ps, qs) || PairingCheck(tps, tqs) || !PairingCheck(nil, nil) {
			t.Fatalf("workers=%d: 17- or 0-pair verdicts wrong", workers)
		}
		if m1, f1 := PairingCounts(); m1-m0 != 4+17+17 || f1-f0 != 3+1 {
			t.Fatalf("workers=%d: counted %d Miller loops and %d final exponentiations, want 38 and 4",
				workers, m1-m0, f1-f0)
		}
	}
}
