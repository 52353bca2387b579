package main

import (
	mrand "math/rand"
	"time"

	"zkvc/internal/curve"
	"zkvc/internal/ff"
	"zkvc/internal/mle"
	"zkvc/internal/poly"
)

// Fixed-count loops over the public functions of the arithmetic layers.
// A traced run calls only the groups whose layer its workload uses, so a
// layer that does no work on a workload reports 0 there. Sizes are fixed
// (not scaled by -seconds) so the rows compare across runs.

// microReps is how often each loop is repeated; the median is reported.
const microReps = 5

// medianOf times f microReps times and returns the median duration.
func medianOf(f func()) time.Duration {
	ds := make([]float64, microReps)
	for i := range ds {
		start := time.Now()
		f()
		ds[i] = float64(time.Since(start))
	}
	return time.Duration(median(ds))
}

// sink keeps the compiler from discarding a loop's result.
var sink any

func randFrs(rng *mrand.Rand, n int) []ff.Fr {
	out := make([]ff.Fr, n)
	for i := range out {
		out[i].SetPseudoRandom(rng)
	}
	return out
}

// microFr measures ff.Fr multiplication, the inner loop of every Spartan
// phase.
func microFr(rng *mrand.Rand, out map[string]float64) {
	const n = 1 << 18
	xs := randFrs(rng, 2)
	d := medianOf(func() {
		acc := xs[0]
		for i := 0; i < n; i++ {
			acc.Mul(&acc, &xs[1])
		}
		sink = acc
	})
	out["ff.fr_mul_ns"] = float64(d) / n
}

// microFp measures the base-field and tower arithmetic under the curve
// and pairing code.
func microFp(rng *mrand.Rand, out map[string]float64) {
	const n = 1 << 18
	var a, b ff.Fp
	a.SetPseudoRandom(rng)
	b.SetPseudoRandom(rng)
	d := medianOf(func() {
		acc := a
		for i := 0; i < n; i++ {
			acc.Mul(&acc, &b)
		}
		sink = acc
	})
	out["ff.fp_mul_ns"] = float64(d) / n

	const nInv = 1 << 11
	d = medianOf(func() {
		acc := a
		for i := 0; i < nInv; i++ {
			acc.Inverse(&acc)
			acc.Add(&acc, &b)
		}
		sink = acc
	})
	out["ff.fp_inverse_ns"] = float64(d) / nInv

	g1, g2 := curve.G1Generator(), curve.G2Generator()
	x := curve.MillerLoop(&g1, &g2)
	const n12 = 1 << 10
	d = medianOf(func() {
		acc := x
		for i := 0; i < n12; i++ {
			acc.Mul(&acc, &x)
		}
		sink = acc
	})
	out["ff.fp12_mul_ns"] = float64(d) / n12
}

// microPoly measures the NTT that pcs.Commit encodes rows with and the
// batched inversion.
func microPoly(rng *mrand.Rand, out map[string]float64) error {
	const logN = 16
	d, err := poly.Shared(1 << logN)
	if err != nil {
		return err
	}
	a := randFrs(rng, 1<<logN)
	t := medianOf(func() { d.NTT(a) })
	out["poly.ntt_ns_per_butterfly"] = float64(t) / float64((1<<logN)/2*logN)

	b := randFrs(rng, 1<<14)
	t = medianOf(func() { poly.BatchInverse(b) })
	out["poly.batch_inverse_ns_per_elem"] = float64(t) / float64(len(b))
	return nil
}

// microMLE measures the three MLE kernels Spartan's prover spends its
// non-sumcheck, non-PCS time in.
func microMLE(rng *mrand.Rand, out map[string]float64) {
	const k = 16
	r := randFrs(rng, k)
	table := make([]ff.Fr, 1<<k)
	t := medianOf(func() { mle.EqTableInto(r, table) })
	out["mle.eq_table_ns_per_elem"] = float64(t) / float64(len(table))

	evals := randFrs(rng, 1<<k)
	t = medianOf(func() {
		m := &mle.Dense{NumVars: k, Evals: evals}
		m.Fix(&r[0]) // overwrites the lower half only; values stay random
	})
	out["mle.fix_ns_per_elem"] = float64(t) / float64(len(evals)/2)

	const rowVars, nnz = 10, 1 << 16
	entries := make([]mle.SparseEntry, nnz)
	for i := range entries {
		entries[i] = mle.SparseEntry{Row: rng.Intn(1 << rowVars), Col: rng.Intn(1 << k)}
		entries[i].Val.SetPseudoRandom(rng)
	}
	sp := mle.NewSparse(entries, 1<<rowVars, 1<<k)
	acc := make([]ff.Fr, 1<<k)
	t = medianOf(func() { sp.BindRowsInto(r[:rowVars], acc) })
	out["mle.sparse_bind_ns_per_entry"] = float64(t) / nnz
}

// microCurve measures the curve kernels a Groth16 workload uses outside
// its large witness MSMs: uniformly random-scalar MSMs (the contrast to
// the small-scalar witness), the fixed-base multiplications of CRS
// generation, and the two halves of a pairing. Sizes shrink in smoke
// mode.
func microCurve(rng *mrand.Rand, small bool, out map[string]float64) {
	nMSM, nFixed1, nFixed2 := 1<<14, 1<<12, 1<<10
	if small {
		nMSM, nFixed1, nFixed2 = 1<<6, 1<<5, 1<<4
	}
	g1, g2 := curve.G1GeneratorJac(), curve.G2GeneratorJac()

	scalars := randFrs(rng, nFixed1)
	start := time.Now()
	jac1 := curve.FixedBaseMulG1(g1, scalars)
	out["curve.fixed_base_g1_us_per_point"] = time.Since(start).Seconds() * 1e6 / float64(nFixed1)
	start = time.Now()
	jac2 := curve.FixedBaseMulG2(g2, scalars[:nFixed2])
	out["curve.fixed_base_g2_us_per_point"] = time.Since(start).Seconds() * 1e6 / float64(nFixed2)

	// Random points for the full-width MSM: tile the fixed-base outputs.
	base := curve.BatchToAffineG1(jac1)
	points := make([]curve.G1Affine, nMSM)
	for i := range points {
		points[i] = base[i%len(base)]
	}
	full := randFrs(rng, nMSM)
	start = time.Now()
	sink = curve.MSMG1(points, full)
	out["curve.msm_g1_us_per_point_full"] = time.Since(start).Seconds() * 1e6 / float64(nMSM)

	p, q := base[1], curve.BatchToAffineG2(jac2)[1]
	var f ff.Fp12
	t := medianOf(func() { f = curve.MillerLoop(&p, &q) })
	out["curve.miller_loop_ms"] = t.Seconds() * 1e3
	t = medianOf(func() { sink = curve.FinalExponentiation(&f) })
	out["curve.final_exp_ms"] = t.Seconds() * 1e3
}
