// Package gadgets provides the R1CS circuit gadgets behind the paper's
// §III-C nonlinear-function verification: bit decomposition, comparisons
// via two-sided range checks, the two-constraint vector max, the clipped
// (1 + x/2^n)^{2^n} exponential on negative inputs, SoftMax, and the
// quadratic GELU. All values are fixed-point integers embedded in the
// scalar field (negatives as field negatives).
package gadgets

import (
	"fmt"
	"math/big"

	"zkvc/internal/ff"
	"zkvc/internal/fixed"
	"zkvc/internal/r1cs"
)

// SignedValue interprets a field element as a signed integer (canonical
// representatives above r/2 map to negatives).
func SignedValue(v ff.Fr) *big.Int {
	b := v.Big()
	half := new(big.Int).Rsh(ff.RModulus(), 1)
	if b.Cmp(half) > 0 {
		b.Sub(b, ff.RModulus())
	}
	return b
}

// SignedInt64 is SignedValue for values known to fit an int64.
func SignedInt64(v ff.Fr) int64 {
	b := SignedValue(v)
	if !b.IsInt64() {
		panic(fmt.Sprintf("gadgets: value %v exceeds int64", b))
	}
	return b.Int64()
}

// MaxBits is the widest decomposition ToBits accepts. Beyond it 2^n
// exceeds the field modulus r, so a value x and x + r both decompose and
// the bits bound nothing.
const MaxBits = 253

// ToBits decomposes lc — whose assigned value must lie in [0, 2^n) — into
// n boolean wires, asserting booleanity and recomposition. This is the
// paper's "bit-decomposition" primitive for comparisons. It costs n + 1
// constraints, and the recomposition is one n-term LC over the fresh bit
// wires. A width above MaxBits panics: it is a malformed circuit, a
// programmer error at synthesis time.
func ToBits(b *r1cs.Builder, lc r1cs.LC, n int) []r1cs.Var {
	if n > MaxBits {
		panic(fmt.Sprintf("gadgets: %d-bit decomposition is no range check (max %d)", n, MaxBits))
	}
	val := b.Eval(lc)
	big := val.Big()
	if big.BitLen() > n {
		// Witness out of range: emit an unconditionally unsatisfiable
		// constraint (1 = 0) rather than panicking, so Satisfied()/Prove
		// reports it like any other violation (failure-injection tests
		// rely on this).
		b.AssertZero(r1cs.ConstLC(ff.NewFr(1)))
	}
	bits := make([]r1cs.Var, n)
	recompose := make(r1cs.LC, n)
	// The single-wire LCs of the n booleanity checks share one backing
	// array; each is capped at its own term.
	single := make(r1cs.LC, n)
	var one, coeff ff.Fr
	one.SetOne()
	coeff.SetOne()
	for i := 0; i < n; i++ {
		var bv ff.Fr
		bv.SetUint64(uint64(big.Bit(i)))
		bits[i] = b.Secret(bv)
		single[i] = r1cs.Term{Coeff: one, V: bits[i]}
		b.AssertBool(single[i : i+1 : i+1])
		recompose[i] = r1cs.Term{Coeff: coeff, V: bits[i]}
		coeff.Add(&coeff, &coeff)
	}
	b.AssertEqual(recompose, lc)
	return bits
}

// AssertGE asserts x ≥ y by range-checking x − y into n bits.
func AssertGE(b *r1cs.Builder, x, y r1cs.LC, n int) {
	ToBits(b, r1cs.SubLC(x, y), n)
}

// IsGE allocates a boolean wire s = [x ≥ y] and constrains it: when s = 1
// the difference x−y is range-checked, when s = 0 the difference y−1−x is.
// Both sides are merged into one decomposition of
// s·(x−y) + (1−s)·(y−1−x), which is nonnegative exactly when s is honest.
func IsGE(b *r1cs.Builder, x, y r1cs.LC, n int) r1cs.Var {
	xv := SignedValue(b.Eval(x))
	yv := SignedValue(b.Eval(y))
	var sv ff.Fr
	if xv.Cmp(yv) >= 0 {
		sv.SetOne()
	}
	s := b.Secret(sv)
	b.AssertBool(r1cs.VarLC(s))
	// diff = x − y, alt = y − 1 − x
	diff := r1cs.SubLC(x, y)
	var one ff.Fr
	one.SetOne()
	alt := r1cs.SubLC(r1cs.SubLC(y, r1cs.ConstLC(one)), x)
	// sel = s·(diff − alt) + alt, materialized through one product wire.
	prod := b.Mul(r1cs.VarLC(s), r1cs.SubLC(diff, alt))
	sel := r1cs.AddLC(r1cs.VarLC(prod), alt)
	ToBits(b, sel, n)
	return s
}

// Select returns a wire holding cond·a + (1−cond)·b (cond must be
// boolean-constrained by the caller).
func Select(bld *r1cs.Builder, cond r1cs.Var, a, b r1cs.LC) r1cs.LC {
	prod := bld.Mul(r1cs.VarLC(cond), r1cs.SubLC(a, b))
	return r1cs.AddLC(r1cs.VarLC(prod), b)
}

// Max allocates the maximum of xs, constrained the paper's way:
// (1) m ≥ x_j for every j (bit-decomposed differences), and
// (2) Π_j (m − x_j) = 0, so m is one of the x_j.
func Max(b *r1cs.Builder, xs []r1cs.LC, n int) r1cs.Var {
	if len(xs) == 0 {
		panic("gadgets: Max of empty vector")
	}
	maxV := SignedValue(b.Eval(xs[0]))
	for _, lc := range xs[1:] {
		if v := SignedValue(b.Eval(lc)); v.Cmp(maxV) > 0 {
			maxV = v
		}
	}
	var mv ff.Fr
	mv.SetBig(maxV)
	m := b.Secret(mv)
	mLC := r1cs.VarLC(m)
	prod := r1cs.OneLC()
	for _, x := range xs {
		AssertGE(b, mLC, x, n)
		p := b.Mul(prod, r1cs.SubLC(mLC, x))
		prod = r1cs.VarLC(p)
	}
	b.AssertZero(prod)
	return m
}

// DivPow2 allocates q = floor(x / 2^k): x = q·2^k + r with r ∈ [0, 2^k)
// and q range-checked into (−2^n, 2^n) via a shifted decomposition.
func DivPow2(b *r1cs.Builder, x r1cs.LC, k, n int) r1cs.Var {
	xv := SignedValue(b.Eval(x))
	two_k := new(big.Int).Lsh(big.NewInt(1), uint(k))
	q := new(big.Int)
	r := new(big.Int)
	q.DivMod(xv, two_k, r) // Euclidean: 0 ≤ r < 2^k
	var qf, rf ff.Fr
	qf.SetBig(q)
	rf.SetBig(r)
	qv := b.Secret(qf)
	rv := b.Secret(rf)
	// x = q·2^k + r
	var twoK ff.Fr
	twoK.SetBig(two_k)
	b.AssertEqual(
		r1cs.AddLC(r1cs.ScaleLC(r1cs.VarLC(qv), &twoK), r1cs.VarLC(rv)),
		x,
	)
	ToBits(b, r1cs.VarLC(rv), k)
	// q + 2^n ∈ [0, 2^{n+1})
	var shift ff.Fr
	shift.SetBig(new(big.Int).Lsh(big.NewInt(1), uint(n)))
	ToBits(b, r1cs.AddLC(r1cs.VarLC(qv), r1cs.ConstLC(shift)), n+1)
	return qv
}

// DivLC allocates q = floor(num / den) for a positive denominator wire:
// num = q·den + r, 0 ≤ r < den (two-sided range checks), q ∈ [0, 2^n).
// The assigned den must be positive; the caller guarantees this
// structurally (e.g. a softmax denominator that always contains e^0 = 1).
func DivLC(b *r1cs.Builder, num, den r1cs.LC, n int) r1cs.Var {
	nv := SignedValue(b.Eval(num))
	dv := SignedValue(b.Eval(den))
	if dv.Sign() <= 0 {
		panic("gadgets: DivLC denominator must be positive")
	}
	q := new(big.Int)
	r := new(big.Int)
	q.DivMod(nv, dv, r)
	var qf, rf ff.Fr
	qf.SetBig(q)
	rf.SetBig(r)
	qv := b.Secret(qf)
	rv := b.Secret(rf)
	// num = q·den + r
	prod := b.Mul(r1cs.VarLC(qv), den)
	b.AssertEqual(r1cs.AddLC(r1cs.VarLC(prod), r1cs.VarLC(rv)), num)
	// 0 ≤ r and r < den  (i.e. den − 1 − r ≥ 0)
	ToBits(b, r1cs.VarLC(rv), n)
	var one ff.Fr
	one.SetOne()
	ToBits(b, r1cs.SubLC(r1cs.SubLC(den, r1cs.ConstLC(one)), r1cs.VarLC(rv)), n)
	ToBits(b, r1cs.VarLC(qv), n)
	return qv
}

// NonlinearConfig bundles the fixed-point and approximation parameters of
// the §III-C gadgets.
type NonlinearConfig struct {
	Fixed     fixed.Config
	ExpIters  uint  // n in (1 + x/2^n)^{2^n}
	ClipT     int64 // fixed-point threshold T (negative)
	RangeBits int   // width of range checks on intermediate values
}

// DefaultNonlinear matches the reference fixed-point evaluation in
// internal/fixed.
func DefaultNonlinear() NonlinearConfig {
	c := fixed.Config{FracBits: 12}
	return NonlinearConfig{
		Fixed:     c,
		ExpIters:  6,
		ClipT:     c.Quantize(-8),
		RangeBits: 40,
	}
}

// ExpNeg builds the clipped exponential for a (fixed-point, ≤ 0) input:
// out = 0 when x < T, else (1 + x/2^n)^{2^n}, computed by n in-circuit
// squarings with rescale. Matches fixed.Config.ExpNeg bit for bit.
func ExpNeg(b *r1cs.Builder, x r1cs.LC, cfg NonlinearConfig) r1cs.LC {
	var tFr ff.Fr
	tFr.SetInt64(cfg.ClipT)
	tLC := r1cs.ConstLC(tFr)
	s := IsGE(b, x, tLC, cfg.RangeBits)
	// Clamp to T when clipped so the divisions below stay in range.
	xc := Select(b, s, x, tLC)

	// u = scale + floor(xc / 2^n)
	qv := DivPow2(b, xc, int(cfg.ExpIters), cfg.RangeBits)
	var scale ff.Fr
	scale.SetInt64(cfg.Fixed.Scale())
	u := r1cs.AddLC(r1cs.VarLC(qv), r1cs.ConstLC(scale))
	for i := uint(0); i < cfg.ExpIters; i++ {
		sq := b.Mul(u, u)
		u = r1cs.VarLC(DivPow2(b, r1cs.VarLC(sq), int(cfg.Fixed.FracBits), cfg.RangeBits))
	}
	// out = s·u  (zero when clipped)
	return Select(b, s, u, r1cs.LC{})
}

// Softmax verifies the paper's SoftMax pipeline over fixed-point wires:
// subtract the constrained max, exponentiate each entry with ExpNeg, and
// divide by the sum via remainder-checked division. Returns the
// probability wires (fixed-point).
func Softmax(b *r1cs.Builder, xs []r1cs.LC, cfg NonlinearConfig) []r1cs.LC {
	m := Max(b, xs, cfg.RangeBits)
	mLC := r1cs.VarLC(m)
	exps := make([]r1cs.LC, len(xs))
	var terms r1cs.LC
	for i, x := range xs {
		exps[i] = ExpNeg(b, r1cs.SubLC(x, mLC), cfg)
		terms = append(terms, exps[i]...)
	}
	// Each exponential is its own fresh product wire, so no partial sum
	// cancels and one merge equals merging entry by entry.
	sum := r1cs.AddLC(terms, nil)
	var scale ff.Fr
	scale.SetInt64(cfg.Fixed.Scale())
	out := make([]r1cs.LC, len(xs))
	for i := range xs {
		num := r1cs.ScaleLC(exps[i], &scale)
		out[i] = r1cs.VarLC(DivLC(b, num, sum, cfg.RangeBits))
	}
	return out
}

// GELU builds the paper's quadratic approximation x²/8 + x/4 + 1/2 on a
// fixed-point wire, matching fixed.Config.GELUQuad.
func GELU(b *r1cs.Builder, x r1cs.LC, cfg NonlinearConfig) r1cs.LC {
	sq := b.Mul(x, x)
	sqRescaled := DivPow2(b, r1cs.VarLC(sq), int(cfg.Fixed.FracBits), cfg.RangeBits)
	term1 := DivPow2(b, r1cs.VarLC(sqRescaled), 3, cfg.RangeBits) // /8
	term2 := DivPow2(b, x, 2, cfg.RangeBits)                      // /4
	var half ff.Fr
	half.SetInt64(cfg.Fixed.Scale() / 2)
	out := r1cs.AddLC(r1cs.VarLC(term1), r1cs.VarLC(term2))
	return r1cs.AddLC(out, r1cs.ConstLC(half))
}
