package curve

import (
	"sync"

	"zkvc/internal/ff"
)

// MSMG2 computes Σ scalars[i]·points[i] exactly like MSMG1.
func MSMG2(points []G2Affine, scalars []ff.Fr) G2Jac {
	return msm(points, scalars, planMSM, g2Ops, func(i int) bool { return points[i].Infinity })
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
		return fixedBaseMul(g2GeneratorTable(), fixedBaseWindow, scalars, g2Ops)
	}
	return fixedBaseMul(fixedBaseTable(&base, fixedBaseWindow, BatchToAffineG2), fixedBaseWindow, scalars, g2Ops)
}

// batchAddG2 is batchAddG1 over G2. Fp2.Inverse inverts the shared
// product through its norm in Fp.
func batchAddG2(acc, addends []G2Affine, byDigit bool, limbs [][4]uint64, terms []uint32, w int, c uint, inv []ff.Fp2, pend []uint32) {
	term := func(e uint32) (a, q *G2Affine, neg bool) { return batchTerm(acc, addends, byDigit, limbs, e, w, c) }
	var prod, dx ff.Fp2
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
			exactAdd[G2Jac](a, q, neg)
		default:
			inv[n] = prod
			dx.Sub(&q.X, &a.X)
			prod.Mul(&prod, &dx)
			pend[n] = e
			n++
		}
	}
	prod.Inverse(&prod)
	var lambda, t ff.Fp2
	for j := n - 1; j >= 0; j-- {
		a, q, neg := term(pend[j])
		dx.Sub(&q.X, &a.X)
		lambda.Mul(&prod, &inv[j])
		prod.Mul(&prod, &dx)
		if neg {
			t.Add(&q.Y, &a.Y)
			lambda.Neg(&lambda)
		} else {
			t.Sub(&q.Y, &a.Y)
		}
		lambda.Mul(&lambda, &t)
		t.Square(&lambda)
		t.Sub(&t, &a.X)
		t.Sub(&t, &q.X)
		dx.Sub(&a.X, &t)
		dx.Mul(&dx, &lambda)
		a.Y.Sub(&dx, &a.Y)
		a.X = t
	}
}
