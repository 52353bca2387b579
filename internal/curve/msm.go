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
// (Double, AddAssign, AddMixed, subMixed) and the batch-affine addition
// (batchAddG1/G2), which both Pippenger's affine buckets and fixed-base
// multiplication run on. Running time therefore depends on the scalars'
// magnitudes; like the rest of the package, none of this is
// constant-time.
//
// Pippenger's buckets come in two kinds, planned per class (msmCost).
// Jacobian buckets take a term with one AddMixed (7M+4S); affine buckets
// with an affine addition (≈6 muls) in a batch of terms bound for
// distinct buckets, which shares one inversion of its Δx (Montgomery's
// trick). The inversion must amortise, so small chunks stay Jacobian.

// Pools for MSM and fixed-base scratch: bucket state, batch-inversion
// prefix products, scalar magnitudes and indices. Buckets are rented
// once per worker chunk and reset in place between windows, so
// Pippenger's bucket churn (one allocation of 2^(c−1) points per window
// per chunk) collapses to one checkout.
var (
	g1JacPool arena.Of[G1Jac]
	g2JacPool arena.Of[G2Jac]
	g1AffPool arena.Of[G1Affine]
	g2AffPool arena.Of[G2Affine]
	fpPool    arena.Of[ff.Fp]
	fp2Pool   arena.Of[ff.Fp2]
	limbPool  arena.Of[[4]uint64]
	idxPool   arena.Of[uint32]
	g1Blocks  arena.Of[fixedBaseScratch[G1Affine, ff.Fp]]
	g2Blocks  arena.Of[fixedBaseScratch[G2Affine, ff.Fp2]]
)

// group is what the generic MSM and fixed-base code need of a group
// besides its Jacobian law: scratch pools (Jacobian, affine, inversion
// field, fixed-base block), the affine infinity and the batch addition.
type group[J, A, F any] struct {
	jac      *arena.Of[J]
	aff      *arena.Of[A]
	field    *arena.Of[F]
	blocks   *arena.Of[fixedBaseScratch[A, F]]
	inf      A
	batchAdd func(acc, addends []A, byDigit bool, limbs [][4]uint64, terms []uint32, w int, c uint, inv []F, pend []uint32)
}

var (
	g1Ops = &group[G1Jac, G1Affine, ff.Fp]{&g1JacPool, &g1AffPool, &fpPool, &g1Blocks, G1Affine{Infinity: true}, batchAddG1}
	g2Ops = &group[G2Jac, G2Affine, ff.Fp2]{&g2JacPool, &g2AffPool, &fp2Pool, &g2Blocks, G2Affine{Infinity: true}, batchAddG2}
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
// contribute (non-zero scalar, finite point; nil infinity: all finite)
// into the two classes. The partition is a sequential sweep over
// per-term tags, so it does not depend on how many workers canonicalised.
func prepareMSM(scalars []ff.Fr, infinity func(i int) bool) msmScalars {
	n := len(scalars)
	ps := msmScalars{limbs: limbPool.Get(n), buf: idxPool.Get(2 * n)}
	limbs, idx, tags := ps.limbs, ps.buf[:n], ps.buf[n:] // tag = bit length of |s_i|, 0 = dropped
	parallel.For(n, 4096, func(start, end int) {
		for i := start; i < end; i++ {
			if scalars[i].IsZero() || infinity != nil && infinity(i) {
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
// width c, a window count covering nbits+1 bits (signed digits need one
// spare top bit) and the bucket kind, affine or Jacobian.
type msmPlan func(n, nbits int) (c uint, windows int, affine bool)

// msmCost's weights in tenths of an AddMixed (BenchmarkMSMBuckets): a
// term into a Jacobian or an affine bucket (its batch and queue turn
// included), a bucket's share of the sum, an affine batch's inversion.
const (
	msmJacTerm   = 10
	msmAffTerm   = 6
	msmBucketSum = 20
	msmBatchInv  = 60
	// msmSplitCost: a one-chunk class of this msmCost (1,000 AddMixed,
	// far above a hand-off to a worker) or more splits its windows.
	msmSplitCost = 10_000
)

// msmBatch is the affine batch length at window width c: a quarter of
// the 2^(c−1) buckets (few terms find theirs taken), in [1, 256].
func msmBatch(c uint) int { return max(1, min(256, 1<<(c-1)/4)) }

// msmCost models a chunk's work: per window a term weight per point, the
// bucket sum, and for affine buckets an inversion per batch. Weighting a
// bucket's two sum additions (full, but sequential in memory) like two
// Jacobian terms (mixed, but scattered) matches the measured optimum to
// within one step of c (BenchmarkMSMWindow).
func msmCost(n int, c uint, windows int, affine bool) int {
	if !affine {
		return windows * (n*msmJacTerm + 1<<(c-1)*msmBucketSum)
	}
	batches := 1 + n/msmBatch(c)
	return windows * (n*msmAffTerm + 1<<(c-1)*msmBucketSum + batches*msmBatchInv)
}

// planMSM is the plan every MSM runs under: the c ≤ msmMaxWindow and
// bucket kind of least msmCost, with ⌈(nbits+1)/c⌉ windows.
func planMSM(n, nbits int) (c uint, windows int, affine bool) {
	best := 0
	for w := uint(1); w <= msmMaxWindow; w++ {
		nw := (nbits + int(w)) / int(w)
		for _, aff := range []bool{false, true} {
			if cost := msmCost(n, w, nw, aff); c == 0 || cost < best {
				c, windows, affine, best = w, nw, aff, cost
			}
		}
	}
	return c, windows, affine
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
	FromAffine(*A) *J
	ToAffine() A
}

// MSMG1 computes Σ scalars[i]·points[i]: the two scalar classes (see the
// top of this file) each run a Pippenger bucket method chunked across the
// shared worker budget, every chunk a full windowed MSM over its slice
// of the class (a class of one costly chunk splits its windows instead),
// the partial sums folded in chunk order. Group arithmetic
// is exact, so the result is the same group element at every parallelism
// level and for every window plan.
func MSMG1(points []G1Affine, scalars []ff.Fr) G1Jac {
	return msm(points, scalars, planMSM, g1Ops, func(i int) bool { return points[i].Infinity })
}

// msm is the MSM of either group under an explicit plan (the window
// ablation and the plan-independence tests pass their own), its bucket
// scratch rented from g's pools; infinity reports the points to skip.
func msm[J, A, F any, PJ jacobian[J, A]](points []A, scalars []ff.Fr, plan msmPlan, g *group[J, A, F], infinity func(i int) bool) J {
	if len(points) != len(scalars) {
		panic("curve: MSM length mismatch")
	}
	ps := prepareMSM(scalars, infinity)
	acc := msmRun[J, A, F, PJ](nil, points, ps.limbs, ps.short, plan, g)
	acc = msmRun[J, A, F, PJ](acc, points, ps.limbs, ps.long, plan, g)
	ps.release()
	var total J // infinity
	if acc != nil {
		total = acc[0]
		g.jac.Put(acc)
	}
	return total
}

// msmRun runs one class of a prepared MSM chunked over the worker
// budget and folds it into acc[0]. Each chunk's scratch holds its sum in
// slot 0; the chunks fold in chunk order, each scratch returned to the
// pool once folded. It returns the scratch holding the total: acc, or
// the first chunk's when acc is nil (nil when nothing was summed).
func msmRun[J, A, F any, PJ jacobian[J, A]](acc []J, points []A, limbs [][4]uint64, cls msmClass, plan msmPlan, g *group[J, A, F]) []J {
	n := len(cls.idx)
	if n == 0 {
		return acc
	}
	workers := parallel.Default()
	chunk := msmChunk(n, workers.Size())
	c, windows, affine := plan(min(n, chunk), cls.bits)
	run := func(idx []uint32, lo, hi int) []J {
		if affine {
			return msmAffine[J, A, F, PJ](points, limbs, idx, c, lo, hi, g)
		}
		return msmSerial[J, A, F, PJ](points, limbs, idx, c, lo, hi, g)
	}
	fold := func(acc, next []J) []J {
		PJ(&acc[0]).AddAssign(&next[0])
		g.jac.Put(next)
		return acc
	}
	size, grain, part := n, chunk, func(start, end int) []J { return run(cls.idx[start:end], 0, windows) }
	if parts := workers.Size(); n <= chunk && parts > 1 && msmCost(n, c, windows, affine) >= msmSplitCost {
		// One chunk would leave the other workers idle: split its windows
		// between them instead. A part's sum is doubled down through the
		// windows below its own, so the parts fold like chunks.
		size, grain, part = windows, (windows+parts-1)/parts, func(lo, hi int) []J {
			s := run(cls.idx, lo, hi)
			for range uint(lo) * c {
				PJ(&s[0]).Double(&s[0])
			}
			return s
		}
	}
	sum := parallel.MapReduce(workers, size, grain, part, fold)
	if acc == nil {
		return sum
	}
	return fold(acc, sum)
}

// msmSerial is a single-threaded windowed MSM over one chunk of a class
// and windows [lo, hi) of its plan, shifted down by lo, on Jacobian
// buckets. It returns its rented 2^(c−1) buckets, cleared between
// windows, with the sum in slot 0. Bucket k collects the points whose
// digit is ±(k+1), negated when the digit's and the scalar's signs
// disagree; slot 0 also carries the running total, so no accumulator is
// rented beside them.
func msmSerial[J, A, F any, PJ jacobian[J, A]](points []A, limbs [][4]uint64, idx []uint32, c uint, lo, hi int, g *group[J, A, F]) []J {
	buckets := g.jac.Get(1 << (c - 1))
	total := PJ(&buckets[0])
	// MSB-first: double the total c times between windows.
	for w := hi - 1; w >= lo; w-- {
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

// msmAffine is msmSerial on affine buckets. A window's terms fill, in
// order, a batch of msmBatch(c) terms bound for distinct buckets, which
// g.batchAdd adds behind one inversion; a term whose bucket is taken
// waits in a queue of the same length, which each new batch drains
// first. Digits piled onto few buckets would shrink batches towards one
// inversion per term, so a term finding the queue full, and a window's
// stragglers when its last batches come out short, take an AddMixed
// into a Jacobian spill bucket. It returns rented scratch, sum in slot 0.
func msmAffine[J, A, F any, PJ jacobian[J, A]](points []A, limbs [][4]uint64, idx []uint32, c uint, lo, hi int, g *group[J, A, F]) []J {
	nb, size := 1<<(c-1), msmBatch(c)
	sums := g.jac.Get(2 + nb) // the total, the running suffix sum, the spill buckets
	total, suffix, spill := PJ(&sums[0]), PJ(&sums[1]), sums[2:]
	buckets, inv := g.aff.Get(nb), g.field.Get(size)
	scratch := idxPool.Get(nb + 2*size)
	// taken[k] is the stamp of the last batch that held bucket k.
	taken, pend, queue := scratch[:nb], scratch[nb:nb+size], scratch[nb+size:]
	stamp, n, q, w := uint32(1), 0, 0, 0
	spillTerm := func(e uint32) {
		if k, neg := signedDigit(limbs, e, w, c); neg {
			PJ(&spill[k]).subMixed(&points[e&^msmNeg])
		} else {
			PJ(&spill[k]).AddMixed(&points[e&^msmNeg])
		}
	}
	// flush adds the batch and starts the next from the queue.
	flush := func() {
		g.batchAdd(buckets, points, true, limbs, pend[:n], w, c, inv, pend)
		queued := q
		stamp, n, q = stamp+1, 0, 0
		for _, e := range queue[:queued] {
			if k, _ := signedDigit(limbs, e, w, c); n < size && taken[k] != stamp {
				taken[k], pend[n] = stamp, e
				n++
			} else {
				queue[q] = e
				q++
			}
		}
	}
	for w = hi - 1; w >= lo; w-- {
		for range c {
			total.Double(total)
		}
		for k := range buckets {
			buckets[k] = g.inf
		}
		clear(spill)
		for _, e := range idx {
			k, _ := signedDigit(limbs, e, w, c)
			switch {
			case k < 0:
			case taken[k] != stamp:
				taken[k], pend[n] = stamp, e
				for n++; n == size; {
					flush()
				}
			case q < size:
				queue[q] = e
				q++
			default:
				spillTerm(e)
			}
		}
		for n > 0 {
			if flush(); n < size/8 {
				for _, e := range pend[:n] {
					spillTerm(e)
				}
				for _, e := range queue[:q] {
					spillTerm(e)
				}
				n, q = 0, 0
				stamp++
			}
		}
		clear(sums[1:2])
		for k := nb - 1; k >= 0; k-- {
			suffix.AddMixed(&buckets[k])
			suffix.AddAssign(&spill[k])
			total.AddAssign(suffix)
		}
	}
	g.aff.Put(buckets)
	g.field.Put(inv)
	idxPool.Put(scratch)
	return sums
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
// one table point and no doublings are needed. A worker takes its terms
// in blocks and, window by window, adds their digits to the block's
// affine accumulators with batchAddG1/G2. The outputs keep Z = 1, which
// BatchToAffineG1/G2 pass through without inverting.
const (
	// fixedBaseWindow is the signed window width c: 24 windows, tables
	// of ≈1.8 MB (G1) and ≈3.3 MB (G2). In a sweep over 8–12
	// (BenchmarkFixedBaseWindow) 11 and 12 led, within a few per cent
	// per point; 12 doubles the tables and their one-time build.
	fixedBaseWindow = 11
	// fixedBaseGrain floors a worker's share of non-zero scalars so that
	// its one field inversion per window stays amortised.
	fixedBaseGrain = 128
	// fixedBaseBlock caps a block's terms: its accumulators stay in
	// cache, and its inversion per window costs ~1 % of its additions.
	fixedBaseBlock = 1024
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

// fixedBaseScratch is a worker's scratch for one block of fixed-base
// terms, rented whole: the affine accumulators, the inversion's prefix
// products, the magnitudes and terms renumbered from 0, pending terms.
type fixedBaseScratch[A, F any] struct {
	acc   [fixedBaseBlock]A
	inv   [fixedBaseBlock]F
	limbs [fixedBaseBlock][4]uint64
	terms [2 * fixedBaseBlock]uint32
}

// fixedBaseMul multiplies the base of table, of width c, by every
// scalar, in either group. Each prepared class splits into at most one
// share per budgeted worker, of at least fixedBaseGrain terms; job j
// takes share j of both classes, in blocks of fixedBaseBlock terms under
// one rented fixedBaseScratch, so that no scratch grows with the scalars.
func fixedBaseMul[J, A, F any, PJ jacobian[J, A]](table [][]A, c uint, scalars []ff.Fr, g *group[J, A, F]) []J {
	out := make([]J, len(scalars)) // Z = 0: infinity
	ps := prepareMSM(scalars, nil)
	mags, classes, workers := ps.limbs, [2]msmClass{ps.short, ps.long}, parallel.DefaultSize()
	jobs := min(workers, (max(len(ps.short.idx), len(ps.long.idx))+fixedBaseGrain-1)/fixedBaseGrain)
	parallel.For(jobs, 1, func(first, last int) {
		scratch := g.blocks.Get(1)
		s := &scratch[0]
		for j := first; j < last; j++ {
			for _, cls := range classes {
				n := len(cls.idx)
				size := max(fixedBaseGrain, (n+workers-1)/workers)
				for start, end := min(n, j*size), min(n, (j+1)*size); start < end; start += fixedBaseBlock {
					idx := cls.idx[start:min(end, start+fixedBaseBlock)]
					for k, e := range idx {
						s.acc[k], s.limbs[k], s.terms[k] = g.inf, mags[e&^msmNeg], uint32(k)|e&msmNeg
					}
					for w := range (cls.bits + int(c)) / int(c) {
						g.batchAdd(s.acc[:], table[w], false, s.limbs[:], s.terms[:len(idx)], w, c, s.inv[:], s.terms[fixedBaseBlock:])
					}
					for k, e := range idx {
						PJ(&out[e&^msmNeg]).FromAffine(&s.acc[k])
					}
				}
			}
		}
		g.blocks.Put(scratch)
	})
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
		return fixedBaseMul(g1GeneratorTable(), fixedBaseWindow, scalars, g1Ops)
	}
	return fixedBaseMul(fixedBaseTable(&base, fixedBaseWindow, BatchToAffineG1), fixedBaseWindow, scalars, g1Ops)
}

// batchTerm returns term e's accumulator, addend and addend sign in
// window w for batchAddG1/G2; a is nil when the digit is 0.
func batchTerm[A any](acc, addends []A, byDigit bool, limbs [][4]uint64, e uint32, w int, c uint) (a, q *A, neg bool) {
	k, neg := signedDigit(limbs, e, w, c)
	if k < 0 {
		return nil, nil, false
	}
	i, j := int(e&^msmNeg), k
	if byDigit {
		i, j = j, i
	}
	return &acc[i], &addends[j], neg
}

// exactAdd sets a = a ± q (−q when neg) through the Jacobian formulas,
// which take the x-collisions a batch cannot: doubling or infinity.
func exactAdd[J, A any, PJ jacobian[J, A]](a, q *A, neg bool) {
	var t J
	if PJ(&t).FromAffine(a); neg {
		PJ(&t).subMixed(q)
	} else {
		PJ(&t).AddMixed(q)
	}
	*a = PJ(&t).ToAffine()
}

// batchAddG1 adds to each term's accumulator the signed point its
// window-w digit d ≠ 0 selects: ±addends[|d|−1] to acc[e] in fixed-base
// multiplication, ±addends[e] to acc[|d|−1] in Pippenger's buckets
// (byDigit). The accumulators are distinct, so the affine additions (≈6
// muls against AddMixed's 11) share one batch inversion of their Δx; inv
// and pend (which may be terms) are scratch of len(terms). An empty
// accumulator takes a copy, an x-collision (acc = ±addend) exactAdd.
// Pippenger reaches the latter when a point meets itself or its negative
// in one bucket. Fixed-base multiplication cannot reach
// it with canonical scalars and a base of order r: before window w the
// accumulator is t·B with t = Σ_{v<w} d_v·2^{cv} ∈ [−2^{cw−1},
// 2^{cw−1}), the addend d·2^{cw}·B has |d|·2^{cw} ≥ 2^{cw}, and for
// magnitudes m ≤ (r−1)/2 both t ± d·2^{cw} are non-zero integers of
// magnitude < r. At c = 11 the tight case is the top window, cw = 253:
// its digit is 1 only when bit 252 of m is set, and then |t − 2^253| =
// 2^254 − m ≤ 3·2^252 < r. TestFixedBaseWindowCollision drives it there.
func batchAddG1(acc, addends []G1Affine, byDigit bool, limbs [][4]uint64, terms []uint32, w int, c uint, inv []ff.Fp, pend []uint32) {
	term := func(e uint32) (a, q *G1Affine, neg bool) { return batchTerm(acc, addends, byDigit, limbs, e, w, c) }
	var prod, dx ff.Fp
	prod.SetOne()
	n := 0
	for _, e := range terms {
		a, q, neg := term(e)
		switch {
		case a == nil || q.Infinity:
		case a.Infinity:
			*a = *q
			if neg {
				a.Y.Neg(&a.Y)
			}
		case a.X.Equal(&q.X):
			exactAdd[G1Jac](a, q, neg)
		default:
			inv[n] = prod
			dx.Sub(&q.X, &a.X)
			prod.Mul(&prod, &dx)
			pend[n] = e
			n++
		}
	}
	prod.Inverse(&prod)
	var lambda, t ff.Fp
	for j := n - 1; j >= 0; j-- {
		a, q, neg := term(pend[j])
		dx.Sub(&q.X, &a.X)
		lambda.Mul(&prod, &inv[j]) // 1/Δx
		prod.Mul(&prod, &dx)
		if neg { // the addend is (x₂, −q.y): λ = −(q.y + y₁)/Δx
			t.Add(&q.Y, &a.Y)
			lambda.Neg(&lambda)
		} else {
			t.Sub(&q.Y, &a.Y)
		}
		lambda.Mul(&lambda, &t)
		t.Square(&lambda)
		t.Sub(&t, &a.X)
		t.Sub(&t, &q.X) // x₃ = λ² − x₁ − x₂
		dx.Sub(&a.X, &t)
		dx.Mul(&dx, &lambda)
		a.Y.Sub(&dx, &a.Y) // y₃ = λ(x₁ − x₃) − y₁
		a.X = t
	}
}
