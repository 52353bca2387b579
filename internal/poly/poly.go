// Package poly provides dense polynomial arithmetic over the BN254 scalar
// field, including radix-2 NTT evaluation domains used for QAP division and
// Reed–Solomon encoding.
package poly

import (
	"fmt"
	"math/big"
	"math/bits"
	"sync"

	"zkvc/internal/ff"
	"zkvc/internal/parallel"
)

// parThreshold is the smallest transform worth fanning out across the
// shared worker budget; smaller NTTs stay inline (the QAP and RS domains
// in the paper's shapes routinely exceed it).
const parThreshold = 1 << 13

// MaxTwoAdicity is the 2-adicity of r−1 for BN254 (r−1 = 2^28·odd).
const MaxTwoAdicity = 28

// Domain is a multiplicative subgroup of Fr* of power-of-two order together
// with the constants needed for (coset) NTTs over it.
type Domain struct {
	N        int
	Log2N    int
	Omega    ff.Fr // primitive N-th root of unity
	OmegaInv ff.Fr
	NInv     ff.Fr
	Coset    ff.Fr // multiplicative generator used as coset shift
	CosetInv ff.Fr

	roots    [][]ff.Fr // roots[s] = powers of the 2^s-th root, length 2^(s-1)
	rootsInv [][]ff.Fr
}

// NewDomain returns the smallest power-of-two domain with at least minSize
// elements.
func NewDomain(minSize int) (*Domain, error) {
	if minSize < 1 {
		return nil, fmt.Errorf("poly: domain size %d < 1", minSize)
	}
	n := 1
	log2n := 0
	for n < minSize {
		n <<= 1
		log2n++
	}
	if log2n > MaxTwoAdicity {
		return nil, fmt.Errorf("poly: domain size 2^%d exceeds field 2-adicity 2^%d", log2n, MaxTwoAdicity)
	}
	d := &Domain{N: n, Log2N: log2n}

	// ω = g^((r−1)/n) where g = 5 generates Fr*.
	rMinus1 := new(big.Int).Sub(ff.RModulus(), big.NewInt(1))
	exp := new(big.Int).Rsh(rMinus1, uint(log2n))
	var g ff.Fr
	g.SetUint64(5)
	d.Omega.Exp(&g, exp)
	d.OmegaInv.Inverse(&d.Omega)
	var nFr ff.Fr
	nFr.SetUint64(uint64(n))
	d.NInv.Inverse(&nFr)
	d.Coset.SetUint64(5)
	d.CosetInv.Inverse(&d.Coset)

	d.roots = precomputeRoots(&d.Omega, log2n)
	d.rootsInv = precomputeRoots(&d.OmegaInv, log2n)
	return d, nil
}

// sharedDomains caches one Domain per power-of-two size. A Domain is
// immutable after construction (transforms only read the twiddle tables),
// so sharing across goroutines is race-free.
var sharedDomains sync.Map // Log2N -> *Domain

// Shared returns a process-wide cached domain of the smallest power-of-two
// size ≥ minSize, building it on first use. Hot paths (PCS row encoding,
// opening verification) use this instead of NewDomain so the O(N) twiddle
// tables are computed once per size rather than once per proof.
func Shared(minSize int) (*Domain, error) {
	if minSize < 1 {
		return nil, fmt.Errorf("poly: domain size %d < 1", minSize)
	}
	log2n := bits.Len(uint(minSize - 1))
	if v, ok := sharedDomains.Load(log2n); ok {
		return v.(*Domain), nil
	}
	d, err := NewDomain(minSize)
	if err != nil {
		return nil, err
	}
	v, _ := sharedDomains.LoadOrStore(log2n, d)
	return v.(*Domain), nil
}

// precomputeRoots builds per-level twiddle tables for an NTT of 2^log2n
// points: level s uses the primitive 2^s-th root ω^(n/2^s).
func precomputeRoots(omega *ff.Fr, log2n int) [][]ff.Fr {
	tables := make([][]ff.Fr, log2n+1)
	// w_s = omega^(2^(log2n - s)) is a primitive 2^s-th root.
	for s := 1; s <= log2n; s++ {
		var ws ff.Fr
		ws.Set(omega)
		for k := 0; k < log2n-s; k++ {
			ws.Mul(&ws, &ws)
		}
		half := 1 << (s - 1)
		row := make([]ff.Fr, half)
		row[0].SetOne()
		for j := 1; j < half; j++ {
			row[j].Mul(&row[j-1], &ws)
		}
		tables[s] = row
	}
	return tables
}

// NTT evaluates the coefficient vector a (in place) on the domain:
// a[k] ← Σ_j a[j]·ω^{jk}. len(a) must equal d.N.
func (d *Domain) NTT(a []ff.Fr) {
	d.transform(a, d.roots)
}

// INTT interpolates evaluations back to coefficients in place.
func (d *Domain) INTT(a []ff.Fr) {
	d.transform(a, d.rootsInv)
	for i := range a {
		a[i].Mul(&a[i], &d.NInv)
	}
}

// Encode writes the Reed–Solomon codeword of msg into out: the NTT of
// msg padded with zeros to the domain size, equal to copy followed by
// NTT. len(out) must equal d.N and len(msg) must be a power of two that
// divides it; blowup = N/len(msg). After the bit-reversal permutation
// each message entry heads a block of blowup slots whose other slots are
// zero, so the first log₂(blowup) stages only copy it across its block.
// Encode writes the blocks directly and runs the remaining stages:
// (N/2)·(log₂N − log₂blowup) butterflies instead of (N/2)·log₂N.
func (d *Domain) Encode(msg, out []ff.Fr) {
	m := len(msg)
	if len(out) != d.N || m == 0 || m&(m-1) != 0 || m > d.N {
		panic(fmt.Sprintf("poly: cannot encode %d entries into %d slots over a domain of %d", m, len(out), d.N))
	}
	logBlowup := d.Log2N - bits.Len(uint(m-1))
	// Block j holds msg[rev(j)], reversed over log₂m bits (a shift by
	// 64 leaves 0, so m = 1 needs no case of its own).
	shift := uint(64 - d.Log2N + logBlowup)
	spread := func(lo, hi int) {
		for j := lo; j < hi; j++ {
			v := &msg[bits.Reverse64(uint64(j))>>shift]
			block := out[j<<logBlowup : (j+1)<<logBlowup]
			for i := range block {
				block[i] = *v
			}
		}
	}
	if d.N >= parThreshold {
		parallel.For(m, max(1, parThreshold/2>>logBlowup), spread)
	} else {
		spread(0, m)
	}
	d.stages(out, d.roots, logBlowup+1)
}

func (d *Domain) transform(a []ff.Fr, roots [][]ff.Fr) {
	if len(a) != d.N {
		panic(fmt.Sprintf("poly: NTT input length %d != domain size %d", len(a), d.N))
	}
	d.bitReverse(a)
	d.stages(a, roots, 1)
}

// bitReverse applies the bit-reversal permutation in place. The reversal
// is an involution, so each unordered pair {i, j} is swapped exactly once
// (by its smaller index) and pairs never share elements — chunks write
// disjoint pairs and the parallel permutation is race-free.
func (d *Domain) bitReverse(a []ff.Fr) {
	n := d.N
	shift := 64 - uint(d.Log2N)
	bitrev := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			j := int(bits.Reverse64(uint64(i)) >> shift)
			if i < j {
				a[i], a[j] = a[j], a[i]
			}
		}
	}
	if n >= parThreshold {
		parallel.For(n, parThreshold/2, bitrev)
	} else {
		bitrev(0, n)
	}
}

// stages runs the radix-2 butterfly stages from..log₂N over a
// bit-reversed vector.
func (d *Domain) stages(a []ff.Fr, roots [][]ff.Fr, from int) {
	n := d.N
	par := n >= parThreshold
	for s := from; s <= d.Log2N; s++ {
		size := 1 << s
		half := size >> 1
		tw := roots[s]
		if par {
			// Flat butterfly index k ∈ [0, n/2): block k/half, lane
			// k%half. Every butterfly touches two slots no other
			// butterfly of this stage touches, so chunks are disjoint.
			parallel.For(n/2, parThreshold/4, func(lo, hi int) {
				for k := lo; k < hi; k++ {
					// half is a power of two: k = block·half + j, and
					// start = block·size = (k−j)·2 — bit ops, no divide.
					j := k & (half - 1)
					start := (k - j) << 1
					var t, u ff.Fr
					t.Mul(&tw[j], &a[start+half+j])
					u.Set(&a[start+j])
					a[start+j].Add(&u, &t)
					a[start+half+j].Sub(&u, &t)
				}
			})
			continue
		}
		// Sequential path: the increment-only nested walk (no div/mod).
		for start := 0; start < n; start += size {
			for j := 0; j < half; j++ {
				var t, u ff.Fr
				t.Mul(&tw[j], &a[start+half+j])
				u.Set(&a[start+j])
				a[start+j].Add(&u, &t)
				a[start+half+j].Sub(&u, &t)
			}
		}
	}
}

// CosetNTT evaluates the coefficients on the coset g·H.
func (d *Domain) CosetNTT(a []ff.Fr) {
	mulByPowers(a, &d.Coset)
	d.NTT(a)
}

// CosetINTT interpolates evaluations on the coset g·H back to coefficients.
func (d *Domain) CosetINTT(a []ff.Fr) {
	d.INTT(a)
	mulByPowers(a, &d.CosetInv)
}

// mulByPowers scales a[i] by s^i. Chunks restart the power ladder at
// s^start (one Exp per chunk), so the schedule parallelizes without a
// sequential prefix product.
func mulByPowers(a []ff.Fr, s *ff.Fr) {
	if len(a) < parThreshold {
		var acc ff.Fr
		acc.SetOne()
		for i := range a {
			a[i].Mul(&a[i], &acc)
			acc.Mul(&acc, s)
		}
		return
	}
	parallel.For(len(a), parThreshold/2, func(start, end int) {
		var acc ff.Fr
		expUint64(&acc, s, uint64(start))
		for i := start; i < end; i++ {
			a[i].Mul(&a[i], &acc)
			acc.Mul(&acc, s)
		}
	})
}

// expUint64 sets z = s^e by square-and-multiply on machine words, keeping
// the per-chunk ladder restart in mulByPowers free of big.Int allocations.
func expUint64(z, s *ff.Fr, e uint64) {
	z.SetOne()
	for i := bits.Len64(e) - 1; i >= 0; i-- {
		z.Mul(z, z)
		if e&(1<<uint(i)) != 0 {
			z.Mul(z, s)
		}
	}
}

// VanishingAtCoset returns Z_H(g·x) for x ∈ H, which is the constant
// g^N − 1 (the whole coset shares one value).
func (d *Domain) VanishingAtCoset() ff.Fr {
	var z ff.Fr
	z.Exp(&d.Coset, big.NewInt(int64(d.N)))
	var one ff.Fr
	one.SetOne()
	z.Sub(&z, &one)
	return z
}

// VanishingAt returns Z_H(x) = x^N − 1 at an arbitrary point.
func (d *Domain) VanishingAt(x *ff.Fr) ff.Fr {
	var z, one ff.Fr
	z.Exp(x, big.NewInt(int64(d.N)))
	one.SetOne()
	z.Sub(&z, &one)
	return z
}

// LagrangeAt returns all N Lagrange basis polynomials evaluated at the
// point tau: L_q(τ) = (Z_H(τ)·ω^q) / (N·(τ − ω^q)). Uses one batch
// inversion. If τ happens to be in H, the indicator vector is returned.
func (d *Domain) LagrangeAt(tau *ff.Fr) []ff.Fr {
	out := make([]ff.Fr, d.N)
	z := d.VanishingAt(tau)
	if z.IsZero() {
		// τ = ω^q for some q: L_q = 1, rest 0.
		var wq ff.Fr
		wq.SetOne()
		for q := 0; q < d.N; q++ {
			if wq.Equal(tau) {
				out[q].SetOne()
			}
			wq.Mul(&wq, &d.Omega)
		}
		return out
	}
	// denominators N·(τ − ω^q)
	den := make([]ff.Fr, d.N)
	var wq, nFr ff.Fr
	wq.SetOne()
	nFr.SetUint64(uint64(d.N))
	for q := 0; q < d.N; q++ {
		den[q].Sub(tau, &wq)
		den[q].Mul(&den[q], &nFr)
		wq.Mul(&wq, &d.Omega)
	}
	BatchInverse(den)
	wq.SetOne()
	for q := 0; q < d.N; q++ {
		out[q].Mul(&z, &wq)
		out[q].Mul(&out[q], &den[q])
		wq.Mul(&wq, &d.Omega)
	}
	return out
}

// BatchInverse inverts every element of a in place with a single field
// inversion (zero entries stay zero).
func BatchInverse(a []ff.Fr) {
	prefix := make([]ff.Fr, len(a))
	var acc ff.Fr
	acc.SetOne()
	for i := range a {
		prefix[i].Set(&acc)
		if !a[i].IsZero() {
			acc.Mul(&acc, &a[i])
		}
	}
	var accInv ff.Fr
	accInv.Inverse(&acc)
	for i := len(a) - 1; i >= 0; i-- {
		if a[i].IsZero() {
			continue
		}
		var inv ff.Fr
		inv.Mul(&accInv, &prefix[i])
		accInv.Mul(&accInv, &a[i])
		a[i].Set(&inv)
	}
}

// EvalPoly evaluates a coefficient vector at x (Horner).
func EvalPoly(coeffs []ff.Fr, x *ff.Fr) ff.Fr {
	var acc ff.Fr
	for i := len(coeffs) - 1; i >= 0; i-- {
		acc.Mul(&acc, x)
		acc.Add(&acc, &coeffs[i])
	}
	return acc
}

// MulNaive multiplies two coefficient vectors in O(n²); used for testing
// the NTT path and for tiny polynomials.
func MulNaive(a, b []ff.Fr) []ff.Fr {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	out := make([]ff.Fr, len(a)+len(b)-1)
	for i := range a {
		if a[i].IsZero() {
			continue
		}
		for j := range b {
			var t ff.Fr
			t.Mul(&a[i], &b[j])
			out[i+j].Add(&out[i+j], &t)
		}
	}
	return out
}

// Mul multiplies two coefficient vectors via NTT.
func Mul(a, b []ff.Fr) ([]ff.Fr, error) {
	if len(a) == 0 || len(b) == 0 {
		return nil, nil
	}
	outLen := len(a) + len(b) - 1
	d, err := NewDomain(outLen)
	if err != nil {
		return nil, err
	}
	fa := make([]ff.Fr, d.N)
	fb := make([]ff.Fr, d.N)
	copy(fa, a)
	copy(fb, b)
	d.NTT(fa)
	d.NTT(fb)
	for i := range fa {
		fa[i].Mul(&fa[i], &fb[i])
	}
	d.INTT(fa)
	return fa[:outLen], nil
}
