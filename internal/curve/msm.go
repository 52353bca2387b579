package curve

import (
	"math/bits"
	"sync"

	"zkvc/internal/arena"
	"zkvc/internal/ff"
	"zkvc/internal/parallel"
)

// Multi-scalar multiplication, both groups. zkVC's witnesses are
// quantized tensor entries and their accumulations — tiny signed
// integers — next to a few full-width wires (CRPC challenges, h, batch
// weights), so the scalars are prepared once before any point is touched
// (prepareMSM): canonicalised, sign-normalised to |s| ≤ (r−1)/2 so that a
// negative entry r−|v| costs what |v| costs, stripped of zero terms, and
// split by bit length into a short and a full-width class. Each class
// runs its own signed-digit Pippenger whose window count follows the
// longest scalar actually present (planMSM), not the field width. The
// preparation, the plan and the algorithms — Pippenger (msm), fixed-base
// (fixedBaseMul) and double-and-add (scalarMul) — are written once for
// both groups; per group are only the point arithmetic they call
// (Double, AddAssign, AddMixed, subMixed) and the batch-affine fixed-base
// window (fixedBaseWindowG1/G2). Running time therefore depends on the
// scalars' magnitudes; like the rest of the package, none of this is
// constant-time.

// Pools for MSM and fixed-base scratch: bucket state, batch-inversion
// prefix products, scalar magnitudes and indices. Buckets are rented
// once per worker chunk and reset in place between windows, so
// Pippenger's bucket churn (one allocation of 2^(c−1) points per window
// per chunk) collapses to one checkout.
var (
	g1JacPool arena.Of[G1Jac]
	g2JacPool arena.Of[G2Jac]
	fpPool    arena.Of[ff.Fp]
	fp2Pool   arena.Of[ff.Fp2]
	limbPool  arena.Of[[4]uint64]
	idxPool   arena.Of[uint32]
)

const (
	// msmShortBits bounds the short class: magnitudes that fit one limb.
	msmShortBits = 64
	// msmNeg marks a class entry whose scalar was negated by sign
	// normalisation; the bucket loop adds −P for it.
	msmNeg = 1 << 31
	// msmMaxWindow caps the window width at 2^14 buckets per worker.
	msmMaxWindow = 15
)

// msmClass is one bit-length class of a prepared MSM.
type msmClass struct {
	idx  []uint32 // positions in the input, msmNeg set where −P stands for P
	bits int      // bit length of the largest magnitude in the class
}

// msmScalars is the prepared scalar side of one MSM.
type msmScalars struct {
	limbs       [][4]uint64 // |s_i|, indexed like the input
	buf         []uint32    // backs both classes' idx
	short, long msmClass
}

// prepareMSM sign-normalises the scalars and partitions the terms that
// contribute (non-zero scalar, finite point) into the two classes. The
// partition is a sequential sweep over per-term tags, so it does not
// depend on how many workers canonicalised.
func prepareMSM(scalars []ff.Fr, infinity func(i int) bool) msmScalars {
	n := len(scalars)
	ps := msmScalars{limbs: limbPool.Get(n), buf: idxPool.Get(2 * n)}
	limbs, idx, tags := ps.limbs, ps.buf[:n], ps.buf[n:] // tag = bit length of |s_i|, 0 = dropped
	parallel.For(n, 4096, func(start, end int) {
		for i := start; i < end; i++ {
			if scalars[i].IsZero() || infinity(i) {
				continue
			}
			var neg bool
			limbs[i], neg = scalars[i].CanonicalSigned()
			tags[i] = uint32(bitLen(&limbs[i]))
			if neg {
				tags[i] |= msmNeg
			}
		}
	})
	short, long := 0, 0
	for i, tag := range tags {
		bl := int(tag &^ msmNeg)
		switch {
		case bl == 0:
		case bl <= msmShortBits:
			idx[short] = uint32(i) | tag&msmNeg
			short++
			ps.short.bits = max(ps.short.bits, bl)
		default:
			long++
			idx[n-long] = uint32(i) | tag&msmNeg
			ps.long.bits = max(ps.long.bits, bl)
		}
	}
	ps.short.idx, ps.long.idx = idx[:short], idx[n-long:]
	return ps
}

// release returns the preparation's scratch to the arena.
func (ps *msmScalars) release() {
	limbPool.Put(ps.limbs)
	idxPool.Put(ps.buf)
}

// bitLen returns the bit length of a little-endian limb vector.
func bitLen(l *[4]uint64) int {
	for i := 3; i >= 0; i-- {
		if l[i] != 0 {
			return 64*i + bits.Len64(l[i])
		}
	}
	return 0
}

// msmPlan maps a chunk of n scalars of at most nbits bits to a window
// width c and a window count covering nbits+1 bits (signed digits need
// one spare top bit).
type msmPlan func(n, nbits int) (c uint, windows int)

// msmCost models a chunk's work in point additions: per window one per
// point, then two for each of the 2^(c−1) buckets. Weighting the bucket
// additions (full Jacobian, but sequential in memory) the same as the
// per-point ones (mixed, but scattered) matches the measured optimum to
// within one step of c (BenchmarkMSMWindow).
func msmCost(n int, c uint, windows int) int { return windows * (n + 1<<c) }

// planMSM is the plan every MSM runs under: the c ≤ msmMaxWindow of
// least msmCost, with ⌈(nbits+1)/c⌉ windows.
func planMSM(n, nbits int) (c uint, windows int) {
	for w := uint(1); w <= msmMaxWindow; w++ {
		nw := (nbits + int(w)) / int(w)
		if c == 0 || msmCost(n, w, nw) < msmCost(n, c, windows) {
			c, windows = w, nw
		}
	}
	return c, windows
}

// msmChunk picks the point-chunk size for a parallel MSM: one chunk per
// budgeted worker, but never so small that the per-chunk bucket sweep
// (windows·2^c point ops) dominates the useful additions.
func msmChunk(n, workers int) int {
	return max(256, (n+workers-1)/workers)
}

// boothDigit returns the signed radix-2^c digit of window w of l, in
// [−2^(c−1), 2^(c−1)]: the window's c bits as an unsigned value, minus
// 2^c when its top bit is set, plus the top bit of the window below.
// The digits of all windows sum back to l provided the top window's top
// bit is clear, which planMSM's spare bit guarantees.
func boothDigit(l *[4]uint64, w int, c uint) int {
	var t uint64 // bits [w·c − 1, w·c + c) of l, bit −1 being 0
	if w == 0 {
		t = l[0] << 1
	} else {
		off := uint(w)*c - 1
		limb, shift := off/64, off%64
		t = l[limb] >> shift
		if shift+c+1 > 64 && limb < 3 {
			t |= l[limb+1] << (64 - shift)
		}
	}
	t &= 1<<(c+1) - 1
	return int((t+1)>>1) - int(t>>c)<<c
}

// jacobian is what the group-generic routines below ask of a Jacobian
// point type J with affine type A: its group law, implemented per group
// so that the field arithmetic inside each method stays inlined. The
// zero J is infinity (Z = 0). The routines keep every J they pass to
// these methods in rented memory: a local whose address goes through a
// type parameter escapes to the heap.
type jacobian[J, A any] interface {
	*J
	Double(*J) *J
	AddAssign(*J) *J
	AddMixed(*A) *J
	subMixed(*A) *J
}

// MSMG1 computes Σ scalars[i]·points[i]: the two scalar classes (see the
// top of this file) each run a Pippenger bucket method chunked across the
// shared worker budget, every chunk a full windowed MSM over its slice
// of the class, the partial sums folded in chunk order. Group arithmetic
// is exact, so the result is the same group element at every parallelism
// level and for every window plan.
func MSMG1(points []G1Affine, scalars []ff.Fr) G1Jac {
	return msm(points, scalars, planMSM, &g1JacPool, func(i int) bool { return points[i].Infinity })
}

// msm is the MSM of either group under an explicit plan (the window
// ablation and the plan-independence tests pass their own), its bucket
// scratch rented from pool; infinity reports the points to skip.
func msm[J, A any, PJ jacobian[J, A]](points []A, scalars []ff.Fr, plan msmPlan, pool *arena.Of[J], infinity func(i int) bool) J {
	if len(points) != len(scalars) {
		panic("curve: MSM length mismatch")
	}
	ps := prepareMSM(scalars, infinity)
	acc := msmRun[J, A, PJ](nil, points, ps.limbs, ps.short, plan, pool)
	acc = msmRun[J, A, PJ](acc, points, ps.limbs, ps.long, plan, pool)
	ps.release()
	var total J // infinity
	if acc != nil {
		total = acc[0]
		pool.Put(acc)
	}
	return total
}

// msmRun runs one class of a prepared MSM chunked over the worker
// budget and folds it into acc[0]. Each chunk's scratch holds its sum in
// slot 0; the chunks fold in chunk order, each scratch returned to the
// pool once folded. It returns the scratch holding the total: acc, or
// the first chunk's when acc is nil (nil when nothing was summed).
func msmRun[J, A any, PJ jacobian[J, A]](acc []J, points []A, limbs [][4]uint64, cls msmClass, plan msmPlan, pool *arena.Of[J]) []J {
	n := len(cls.idx)
	if n == 0 {
		return acc
	}
	workers := parallel.Default()
	chunk := msmChunk(n, workers.Size())
	c, windows := plan(min(n, chunk), cls.bits)
	fold := func(acc, next []J) []J {
		PJ(&acc[0]).AddAssign(&next[0])
		pool.Put(next)
		return acc
	}
	sum := parallel.MapReduce(workers, n, chunk, func(start, end int) []J {
		return msmSerial[J, A, PJ](points, limbs, cls.idx[start:end], c, windows, pool)
	}, fold)
	if acc == nil {
		return sum
	}
	return fold(acc, sum)
}

// msmSerial is a single-threaded windowed MSM over one chunk of a class.
// It returns its rented 2^(c−1) buckets, cleared between windows, with
// the sum in slot 0. Bucket k collects the points whose digit is ±(k+1),
// negated when the digit's and the scalar's signs disagree; slot 0 also
// carries the running total, so no accumulator is rented beside them.
func msmSerial[J, A any, PJ jacobian[J, A]](points []A, limbs [][4]uint64, idx []uint32, c uint, windows int, pool *arena.Of[J]) []J {
	buckets := pool.Get(1 << (c - 1))
	total := PJ(&buckets[0])
	// MSB-first: double the total c times between windows.
	for w := windows - 1; w >= 0; w-- {
		for range c {
			total.Double(total)
		}
		clear(buckets[1:])
		for _, e := range idx {
			k, neg := signedDigit(limbs, e, w, c)
			if k < 0 {
				continue
			}
			if neg {
				PJ(&buckets[k]).subMixed(&points[e&^msmNeg])
			} else {
				PJ(&buckets[k]).AddMixed(&points[e&^msmNeg])
			}
		}
		// Suffix sums in place, then their sum into slot 0: Σ (k+1)·bucket[k]
		// plus the doubled total, which slot 0 held as part of bucket 0.
		for k := len(buckets) - 2; k >= 0; k-- {
			PJ(&buckets[k]).AddAssign(&buckets[k+1])
		}
		for k := 1; k < len(buckets); k++ {
			total.AddAssign(&buckets[k])
		}
	}
	return buckets
}

// scalarMul sets p = s·q in either group and returns p: double-and-add
// over the canonical limbs of s, in scratch rented from pool. The
// ScalarMul methods that call it are kept out of line: inlined into
// another package, this call would be taken to leak p and q, moving the
// caller's points to the heap.
func scalarMul[J, A any, PJ jacobian[J, A]](p, q *J, s *ff.Fr, pool *arena.Of[J]) *J {
	limbs := s.Canonical()
	scratch := pool.Get(2) // infinity
	acc, base := PJ(&scratch[0]), &scratch[1]
	*base = *q
	for i := 255; i >= 0; i-- {
		acc.Double(acc)
		if limbs[i/64]>>(i%64)&1 == 1 {
			acc.AddAssign(base)
		}
	}
	*p = scratch[0]
	pool.Put(scratch)
	return p
}

// Fixed-base multiplication computes s_i·B for one base B and a vector
// of scalars, the shape of CRS generation. The scalars go through the
// MSM's preparation: zeros are dropped before chunking, so workers split
// the non-zero terms evenly however they cluster. B's table holds
// (k+1)·2^{cw}·B for k < 2^{c−1} in every window w, so a signed digit is
// one table point and no doublings are needed. The pass is window-major:
// each output is an affine accumulator (Z = 1, or infinity), and per
// window a worker adds its chunk's non-zero digits with affine formulas
// (≈6 muls against AddMixed's 11) behind one shared Montgomery batch
// inversion of the Δx. An output's first digit is a copy; an x-collision
// (acc = ±addend) takes the exact Jacobian AddMixed. The outputs keep
// Z = 1, which BatchToAffineG1/G2 pass through without inverting.
const (
	// fixedBaseWindow is the signed window width c: 24 windows, tables
	// of ≈1.8 MB (G1) and ≈3.3 MB (G2). In a sweep over 8–12
	// (BenchmarkFixedBaseWindow) 11 and 12 led, within a few per cent
	// per point; 12 doubles the tables and their one-time build.
	fixedBaseWindow = 11
	// fixedBaseGrain floors a worker's share of non-zero scalars so that
	// its one field inversion per window stays amortised.
	fixedBaseGrain = 128
)

// fixedBaseWindows returns the window count of width c covering a
// magnitude ≤ (r−1)/2 < 2^253 plus Booth's spare top bit.
func fixedBaseWindows(c uint) int { return int(253+c) / int(c) }

// signedDigit returns the bucket or table column |d|−1 of window w's
// signed digit d of the prepared term e (−1 for d = 0), and whether the
// point is negated: when the digit's sign and the scalar's disagree.
func signedDigit(limbs [][4]uint64, e uint32, w int, c uint) (k int, neg bool) {
	d := boothDigit(&limbs[e&^msmNeg], w, c)
	neg = e&msmNeg != 0
	if d < 0 {
		d, neg = -d, !neg
	}
	return d - 1, neg
}

// fixedBaseMul multiplies the base of table, of width c, by every
// scalar, in either group: the pass runs over every prepared class, its
// non-zero terms split into chunks of at least fixedBaseGrain, one per
// budgeted worker, and window adds one window's digits of a chunk's
// terms to their outputs (fixedBaseWindowG1/G2), with scratch of the
// chunk's length: inversion prefix products from pool and pending terms.
func fixedBaseMul[J, A, F any](table [][]A, c uint, scalars []ff.Fr, pool *arena.Of[F],
	window func(out []J, limbs [][4]uint64, idx []uint32, row []A, w int, c uint, inv []F, pend []uint32)) []J {
	out := make([]J, len(scalars)) // Z = 0: infinity
	ps := prepareMSM(scalars, func(int) bool { return false })
	limbs, workers := ps.limbs, parallel.DefaultSize()
	for _, cls := range []msmClass{ps.short, ps.long} {
		windows := (cls.bits + int(c)) / int(c)
		parallel.For(len(cls.idx), max(fixedBaseGrain, (len(cls.idx)+workers-1)/workers), func(start, end int) {
			idx := cls.idx[start:end]
			inv, pend := pool.Get(len(idx)), idxPool.Get(len(idx))
			for w := range windows {
				window(out, limbs, idx, table[w], w, c, inv, pend)
			}
			pool.Put(inv)
			idxPool.Put(pend)
		})
	}
	ps.release()
	return out
}

// fixedBaseTable returns base's signed-window table of width c, in
// either group: table[w][k] = (k+1)·2^{cw}·base for k < 2^{c−1} and
// w < fixedBaseWindows(c), each row made affine by toAffine.
func fixedBaseTable[J, A any, PJ jacobian[J, A]](base *J, c uint, toAffine func([]J) []A) [][]A {
	table := make([][]A, fixedBaseWindows(c))
	row := make([]J, 1<<(c-1))
	cur := *base
	for w := range table {
		row[0] = cur
		for k := 1; k < len(row); k++ {
			row[k] = row[k-1]
			PJ(&row[k]).AddAssign(&cur)
		}
		table[w] = toAffine(row)
		PJ(&cur).Double(&row[len(row)-1]) // 2·2^{c−1}·2^{cw}·base
	}
	return table
}

// g1GeneratorTable is the generator's window table, built on first use
// and kept for the life of the process: every Groth16 setup multiplies
// the same generator.
var g1GeneratorTable = sync.OnceValue(buildG1GeneratorTable)

func buildG1GeneratorTable() [][]G1Affine {
	g := G1GeneratorJac()
	return fixedBaseTable(&g, fixedBaseWindow, BatchToAffineG1)
}

// FixedBaseMulG1 computes scalar·base for every scalar (see the
// fixed-base comment above); this is the workhorse of CRS generation.
// The generator's table is cached (g1GeneratorTable); any other base
// builds its own per call. Outputs have Z = 1 or are infinity.
func FixedBaseMulG1(base G1Jac, scalars []ff.Fr) []G1Jac {
	if gen := G1GeneratorJac(); base.Equal(&gen) {
		return fixedBaseG1(g1GeneratorTable(), fixedBaseWindow, scalars)
	}
	return fixedBaseG1(fixedBaseTable(&base, fixedBaseWindow, BatchToAffineG1), fixedBaseWindow, scalars)
}

// fixedBaseG1 multiplies the base of table, of width c, by every scalar.
func fixedBaseG1(table [][]G1Affine, c uint, scalars []ff.Fr) []G1Jac {
	return fixedBaseMul(table, c, scalars, &fpPool, fixedBaseWindowG1)
}

// fixedBaseWindowG1 adds window w's digit of every term in idx to its
// output, out holding affine accumulators (Z = 1) or infinity. inv and
// pend are scratch of len(idx): the prefix products of the Δx, then the
// terms waiting for the shared inversion.
//
// The exceptional branch (acc.x = addend.x, so acc = ±addend) cannot be
// reached by canonical scalars and a base of order r: before window w
// the accumulator is t·B with t = Σ_{v<w} d_v·2^{cv} ∈ [−2^{cw−1},
// 2^{cw−1}), the addend d·2^{cw}·B has |d|·2^{cw} ≥ 2^{cw}, and for
// magnitudes m ≤ (r−1)/2 both t ± d·2^{cw} are non-zero integers of
// magnitude < r. At c = 11 the tight case is the top window, cw = 253:
// its digit is 1 only when bit 252 of m is set, and then |t − 2^253| =
// 2^254 − m ≤ 3·2^252 < r. It stays for exactness;
// TestFixedBaseWindowCollision drives it directly.
func fixedBaseWindowG1(out []G1Jac, limbs [][4]uint64, idx []uint32, row []G1Affine, w int, c uint, inv []ff.Fp, pend []uint32) {
	addend := func(e uint32) (q G1Affine, ok bool) {
		k, neg := signedDigit(limbs, e, w, c)
		if k < 0 || row[k].Infinity {
			return q, false
		}
		q = row[k]
		if neg {
			q.Y.Neg(&q.Y)
		}
		return q, true
	}
	var prod, dx ff.Fp
	prod.SetOne()
	n := 0
	for _, e := range idx {
		q, ok := addend(e)
		acc := &out[e&^msmNeg]
		switch {
		case !ok:
		case acc.IsInfinity():
			acc.FromAffine(&q)
		case acc.X.Equal(&q.X):
			acc.AddMixed(&q)
			a := acc.ToAffine()
			acc.FromAffine(&a)
		default:
			inv[n] = prod
			dx.Sub(&q.X, &acc.X)
			prod.Mul(&prod, &dx)
			pend[n] = e
			n++
		}
	}
	prod.Inverse(&prod)
	var lambda, t ff.Fp
	for j := n - 1; j >= 0; j-- {
		q, _ := addend(pend[j])
		acc := &out[pend[j]&^msmNeg]
		dx.Sub(&q.X, &acc.X)
		lambda.Mul(&prod, &inv[j]) // 1/Δx
		prod.Mul(&prod, &dx)
		t.Sub(&q.Y, &acc.Y)
		lambda.Mul(&lambda, &t)
		t.Square(&lambda)
		t.Sub(&t, &acc.X)
		t.Sub(&t, &q.X) // x₃ = λ² − x₁ − x₂
		dx.Sub(&acc.X, &t)
		dx.Mul(&dx, &lambda)
		acc.Y.Sub(&dx, &acc.Y) // y₃ = λ(x₁ − x₃) − y₁
		acc.X = t
	}
}
