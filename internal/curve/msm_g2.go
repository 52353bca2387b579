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
		i := e &^ msmNeg
		d := boothDigit(&limbs[i], w, c)
		if d == 0 {
			continue
		}
		neg := e&msmNeg != 0
		if d < 0 {
			d, neg = -d, !neg
		}
		if neg {
			var np G2Affine
			np.Neg(&points[i])
			buckets[d-1].AddMixed(&np)
		} else {
			buckets[d-1].AddMixed(&points[i])
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

// fixedBaseTableG2 returns table[w][d-1] = d·2^{8w}·base for d ∈ [1, 2^8).
func fixedBaseTableG2(base *G2Jac) [][]G2Affine {
	table := make([][]G2Affine, fixedBaseWindows)
	var cur G2Jac
	cur.Set(base)
	for w := range table {
		row := make([]G2Jac, (1<<fixedBaseWindow)-1)
		row[0].Set(&cur)
		for d := 1; d < len(row); d++ {
			row[d].Set(&row[d-1])
			row[d].AddAssign(&cur)
		}
		table[w] = BatchToAffineG2(row)
		// advance cur to 2^{8(w+1)}·base
		for k := 0; k < fixedBaseWindow; k++ {
			cur.Double(&cur)
		}
	}
	return table
}

// g2GeneratorTable is the generator's window table, built on first use
// and kept for the life of the process (see g1GeneratorTable).
var g2GeneratorTable = sync.OnceValue(buildG2GeneratorTable)

func buildG2GeneratorTable() [][]G2Affine {
	g := G2GeneratorJac()
	return fixedBaseTableG2(&g)
}

// FixedBaseMulG2 computes scalar·base for every scalar using one shared
// precomputed window table, cached for the generator and built per call
// for any other base.
func FixedBaseMulG2(base G2Jac, scalars []ff.Fr) []G2Jac {
	var table [][]G2Affine
	if gen := G2GeneratorJac(); base.Equal(&gen) {
		table = g2GeneratorTable()
	} else {
		table = fixedBaseTableG2(&base)
	}
	out := make([]G2Jac, len(scalars))
	parallelFor(len(scalars), func(start, end int) {
		for i := start; i < end; i++ {
			limbs := scalars[i].Canonical()
			var acc G2Jac
			acc.SetInfinity()
			for w := range table {
				if d := byte(limbs[w/8] >> (8 * (w % 8))); d != 0 {
					acc.AddMixed(&table[w][d-1])
				}
			}
			out[i] = acc
		}
	})
	return out
}
