package curve

import (
	"sync"

	"zkvc/internal/ff"
	"zkvc/internal/parallel"
)

// MSMG2 computes Σ scalars[i]·points[i] exactly like MSMG1: the shared
// scalar preparation and window plan of msm.go, with G2 bucket loops.
func MSMG2(points []G2Affine, scalars []ff.Fr) G2Jac {
	return msmG2(points, scalars, planMSM)
}

// msmG2 is MSMG2 under an explicit plan (see msmG1).
func msmG2(points []G2Affine, scalars []ff.Fr, plan msmPlan) G2Jac {
	if len(points) != len(scalars) {
		panic("curve: MSMG2 length mismatch")
	}
	ps := prepareMSM(scalars, func(i int) bool { return points[i].Infinity })
	total := msmClassG2(points, ps.limbs, ps.short, plan)
	long := msmClassG2(points, ps.limbs, ps.long, plan)
	total.AddAssign(&long)
	ps.release()
	return total
}

// msmClassG2 runs one class of a prepared MSM, chunked over the worker
// budget.
func msmClassG2(points []G2Affine, limbs [][4]uint64, cls msmClass, plan msmPlan) G2Jac {
	n := len(cls.idx)
	if n == 0 {
		var inf G2Jac
		return *inf.SetInfinity()
	}
	pool := parallel.Default()
	chunk := msmChunk(n, pool.Size())
	c, windows := plan(min(n, chunk), cls.bits)
	return parallel.MapReduce(pool, n, chunk,
		func(start, end int) G2Jac {
			return msmSerialG2(points, limbs, cls.idx[start:end], c, windows)
		},
		func(acc, next G2Jac) G2Jac {
			acc.AddAssign(&next)
			return acc
		})
}

// msmSerialG2 is a single-threaded windowed MSM over one chunk of a
// class. One rented bucket buffer serves every window, reset in place
// (see msmSerialG1).
func msmSerialG2(points []G2Affine, limbs [][4]uint64, idx []uint32, c uint, windows int) G2Jac {
	var total G2Jac
	total.SetInfinity()
	buckets := g2JacPool.Get(1 << (c - 1))
	for w := windows - 1; w >= 0; w-- {
		for k := uint(0); k < c; k++ {
			total.Double(&total)
		}
		sum := msmWindowSumG2(points, limbs, idx, w, c, buckets)
		total.AddAssign(&sum)
	}
	g2JacPool.Put(buckets)
	return total
}

// msmWindowSumG2 accumulates one Pippenger window into the caller's
// bucket scratch (len 2^(c−1); overwritten here), signs handled as in
// msmWindowSumG1.
func msmWindowSumG2(points []G2Affine, limbs [][4]uint64, idx []uint32, w int, c uint, buckets []G2Jac) G2Jac {
	for i := range buckets {
		buckets[i].SetInfinity()
	}
	for _, e := range idx {
		k, neg := signedDigit(limbs, e, w, c)
		if k < 0 {
			continue
		}
		i := e &^ msmNeg
		if neg {
			var np G2Affine
			np.Neg(&points[i])
			buckets[k].AddMixed(&np)
		} else {
			buckets[k].AddMixed(&points[i])
		}
	}
	// Σ (i+1)·bucket[i] via suffix sums.
	var running, sum G2Jac
	running.SetInfinity()
	sum.SetInfinity()
	for i := len(buckets) - 1; i >= 0; i-- {
		running.AddAssign(&buckets[i])
		sum.AddAssign(&running)
	}
	return sum
}

// g2GeneratorTable is the generator's window table, built on first use
// and kept for the life of the process (see g1GeneratorTable).
var g2GeneratorTable = sync.OnceValue(buildG2GeneratorTable)

func buildG2GeneratorTable() [][]G2Affine {
	g := G2GeneratorJac()
	return fixedBaseTable(&g, fixedBaseWindow, BatchToAffineG2)
}

// FixedBaseMulG2 computes scalar·base for every scalar exactly like
// FixedBaseMulG1, with the generator's table cached and any other base's
// built per call. Outputs have Z = 1 or are infinity.
func FixedBaseMulG2(base G2Jac, scalars []ff.Fr) []G2Jac {
	if gen := G2GeneratorJac(); base.Equal(&gen) {
		return fixedBaseG2(g2GeneratorTable(), fixedBaseWindow, scalars)
	}
	return fixedBaseG2(fixedBaseTable(&base, fixedBaseWindow, BatchToAffineG2), fixedBaseWindow, scalars)
}

// fixedBaseG2 multiplies the base of table, of width c, by every scalar.
func fixedBaseG2(table [][]G2Affine, c uint, scalars []ff.Fr) []G2Jac {
	out := make([]G2Jac, len(scalars)) // Z = 0: infinity
	fixedBase(scalars, c, func(idx []uint32, limbs [][4]uint64, windows int) {
		inv, pend := fp2Pool.Get(len(idx)), idxPool.Get(len(idx))
		for w := range windows {
			fixedBaseWindowG2(out, limbs, idx, table[w], w, c, inv, pend)
		}
		fp2Pool.Put(inv)
		idxPool.Put(pend)
	})
	return out
}

// fixedBaseWindowG2 is fixedBaseWindowG1 over G2.
func fixedBaseWindowG2(out []G2Jac, limbs [][4]uint64, idx []uint32, row []G2Affine, w int, c uint, inv []ff.Fp2, pend []uint32) {
	addend := func(e uint32) (q G2Affine, ok bool) {
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
	var prod, dx ff.Fp2
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
	// 1/(a0+a1u) = (a0 − a1u)/(a0² + a1²): Fp.Inverse on the norm is a
	// quarter of Fp2.Inverse's Fermat chain.
	var nrm, t0 ff.Fp
	nrm.Square(&prod.A0)
	nrm.Add(&nrm, t0.Square(&prod.A1))
	nrm.Inverse(&nrm)
	prod.MulByFp(prod.Conjugate(&prod), &nrm)
	var lambda, t ff.Fp2
	for j := n - 1; j >= 0; j-- {
		q, _ := addend(pend[j])
		acc := &out[pend[j]&^msmNeg]
		dx.Sub(&q.X, &acc.X)
		lambda.Mul(&prod, &inv[j])
		prod.Mul(&prod, &dx)
		t.Sub(&q.Y, &acc.Y)
		lambda.Mul(&lambda, &t)
		t.Square(&lambda)
		t.Sub(&t, &acc.X)
		t.Sub(&t, &q.X)
		dx.Sub(&acc.X, &t)
		dx.Mul(&dx, &lambda)
		acc.Y.Sub(&dx, &acc.Y)
		acc.X = t
	}
}
