package curve

import (
	"math/big"
	"sync"
	"sync/atomic"

	"zkvc/internal/ff"
)

// GT is the pairing target group (the order-r subgroup of Fp12*).
type GT = ff.Fp12

// The pairing implemented here is the reduced Tate pairing
//
//	e(P, Q) = f_{r,P}(ψ(Q))^((p^12−1)/r)
//
// with P ∈ G1 ⊂ E(Fp), Q ∈ G2 ⊂ E'(Fp2) and ψ the untwist isomorphism
// ψ(x, y) = (x·w², y·w³) into E(Fp12). The Miller loop runs over the bits
// of r with affine line functions (line slopes live in Fp, so evaluating a
// line at ψ(Q) is a cheap sparse Fp12 product). The final exponentiation is
// a generic square-and-multiply with the full exponent — slower than the
// cyclotomic shortcut used by production libraries, but unconditionally
// correct and amortized in PairingCheck. Bilinearity and non-degeneracy are
// exercised by tests rather than assumed.

var (
	finalExpOnce sync.Once
	finalExpE    *big.Int
)

func finalExpExponent() *big.Int {
	finalExpOnce.Do(func() {
		p := ff.PModulus()
		r := ff.RModulus()
		e := new(big.Int).Exp(p, big.NewInt(12), nil)
		e.Sub(e, big.NewInt(1))
		rem := new(big.Int)
		e.DivMod(e, r, rem)
		if rem.Sign() != 0 {
			panic("curve: r does not divide p^12 - 1")
		}
		finalExpE = e
	})
	return finalExpE
}

// millerState tracks the running point T of the Miller loop in affine
// coordinates over Fp.
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

// Pairing work counters. The final exponentiation dominates this
// implementation's pairing cost (a generic ~2800-bit square-and-multiply,
// amortized once per PairingCheck), so "how many pairing-product
// evaluations did verification run" is the honest unit for comparing
// per-proof verification against batched verification. Counts are
// process-wide and monotone; callers measure deltas around a workload.
var millerLoopCount, finalExpCount atomic.Uint64

// PairingCounts reports the process-wide totals of Miller-loop
// evaluations and final exponentiations (= pairing-product evaluations)
// performed so far. Tests and benchmark/ snapshot deltas around per-op
// and aggregate verification to pin the k→1 pairing reduction.
func PairingCounts() (millerLoops, finalExps uint64) {
	return millerLoopCount.Load(), finalExpCount.Load()
}

// MillerLoop computes f_{r,P}(ψ(Q)) without the final exponentiation.
func MillerLoop(p *G1Affine, q *G2Affine) ff.Fp12 {
	millerLoopCount.Add(1)
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

// FinalExponentiation maps a Miller-loop output into GT.
func FinalExponentiation(f *ff.Fp12) GT {
	finalExpCount.Add(1)
	var out ff.Fp12
	out.Exp(f, finalExpExponent())
	return out
}

// Pair computes the reduced Tate pairing e(P, Q).
func Pair(p *G1Affine, q *G2Affine) GT {
	f := MillerLoop(p, q)
	return FinalExponentiation(&f)
}

// PairingCheck reports whether Π e(P_i, Q_i) == 1, sharing one final
// exponentiation across all pairs (the Groth16 verification pattern).
func PairingCheck(ps []G1Affine, qs []G2Affine) bool {
	if len(ps) != len(qs) {
		panic("curve: PairingCheck length mismatch")
	}
	var f ff.Fp12
	f.SetOne()
	millers := make([]ff.Fp12, len(ps))
	parallelFor(len(ps), func(start, end int) {
		for i := start; i < end; i++ {
			millers[i] = MillerLoop(&ps[i], &qs[i])
		}
	})
	for i := range millers {
		f.Mul(&f, &millers[i])
	}
	out := FinalExponentiation(&f)
	return out.IsOne()
}
