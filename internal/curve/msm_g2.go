package curve

import (
	"sync"

	"zkvc/internal/ff"
)

// MSMG2 computes Σ scalars[i]·points[i] exactly like MSMG1.
func MSMG2(points []G2Affine, scalars []ff.Fr) G2Jac {
	return msm(points, scalars, planMSM, &g2JacPool, func(i int) bool { return points[i].Infinity })
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
	return fixedBaseMul(table, c, scalars, &fp2Pool, fixedBaseWindowG2)
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
