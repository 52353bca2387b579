package main

import (
	"errors"
	"fmt"
	mrand "math/rand"
	"time"

	"zkvc/internal/curve"
	"zkvc/internal/ff"
	"zkvc/internal/groth16"
	"zkvc/internal/mle"
	"zkvc/internal/pcs"
	"zkvc/internal/qap"
	"zkvc/internal/r1cs"
	"zkvc/internal/sumcheck"
	"zkvc/internal/transcript"
)

// A backend's phases are measured by replaying them from outside, right
// after the parent call and on the parent's inputs, because this PR may
// not add spans inside the program. The replayed spans are recorded as
// children of the parent span with Replayed set; parent − Σ children is
// the parent's unattributed share.

// series collects one value per repetition under a metric's name; the
// median of each is what the traced run reports.
type series map[string][]float64

func (s series) add(name string, v float64)          { s[name] = append(s[name], v) }
func (s series) addDur(name string, d time.Duration) { s.add(name, d.Seconds()) }

func (s series) medians(out map[string]float64) {
	for name, vs := range s {
		out[name] = median(vs)
	}
}

// logDim is ceil(log2(max(n,1))), the padding rule spartan uses.
func logDim(n int) int {
	k := 0
	for (1 << k) < n {
		k++
	}
	return k
}

// spartanPhases are the replayed children of one spartan.Prove and the
// matching verifier phases.
type spartanPhases struct {
	commit, open, verifyOpen time.Duration
	sumProve, sumVerify      time.Duration
	sumElems                 int // hypercube points over both sumchecks
	commitElems              int
	openingBytes             int
}

func (p *spartanPhases) add(q spartanPhases, times int) {
	n := time.Duration(times)
	p.commit += n * q.commit
	p.open += n * q.open
	p.verifyOpen += n * q.verifyOpen
	p.sumProve += n * q.sumProve
	p.sumVerify += n * q.sumVerify
	p.sumElems += times * q.sumElems
	p.commitElems += times * q.commitElems
	p.openingBytes += times * q.openingBytes
}

// report files the phases under their metric names.
func (p spartanPhases) report(add func(name string, v float64)) {
	add("pcs.commit_s", p.commit.Seconds())
	add("pcs.commit_ns_per_elem", float64(p.commit)/float64(p.commitElems))
	add("pcs.open_s", p.open.Seconds())
	add("pcs.verify_open_s", p.verifyOpen.Seconds())
	add("pcs.opening_bytes", float64(p.openingBytes))
	add("sumcheck.prove_s", p.sumProve.Seconds())
	add("sumcheck.prove_ns_per_elem", float64(p.sumProve)/float64(p.sumElems))
	add("sumcheck.verify_s", p.sumVerify.Seconds())
}

// randDense is a dense MLE of k variables with seeded random values
// (sumcheck cost does not depend on the values).
func randDense(rng *mrand.Rand, k int) *mle.Dense {
	return &mle.Dense{NumVars: k, Evals: randFrs(rng, 1<<k)}
}

// replaySpartan re-runs the phases of spartan.Prove for a system with
// 2^sx constraints and 2^sy variables: the PCS commitment of the padded
// private witness (priv; seeded random values when nil), the degree-3
// sumcheck over the constraints, the degree-2 sumcheck over the
// variables, the PCS opening, and the verifier's side of each.
func replaySpartan(rec *recorder, parent, iter int, rng *mrand.Rand, sx, sy int, priv []ff.Fr, params pcs.Params) (spartanPhases, error) {
	var ph spartanPhases
	if priv == nil {
		priv = randFrs(rng, 1<<sy)
	}
	ph.commitElems = len(priv)

	var comm *pcs.Commitment
	var st *pcs.ProverState
	var err error
	ph.commit = rec.timed("pcs.commit", parent, iter, true, func() { comm, st, err = pcs.Commit(priv, params) })
	if err != nil {
		return ph, err
	}
	defer st.Release()

	var one, minusOne ff.Fr
	one.SetOne()
	minusOne.Neg(&one)
	eq := randDense(rng, sx)
	ins1, err := sumcheck.NewInstance(sx, []sumcheck.Term{
		{Coeff: one, Factors: []*mle.Dense{eq.Clone(), randDense(rng, sx), randDense(rng, sx)}},
		{Coeff: minusOne, Factors: []*mle.Dense{eq, randDense(rng, sx)}},
	})
	if err != nil {
		return ph, err
	}
	ins2, err := sumcheck.NewInstance(sy, []sumcheck.Term{
		{Coeff: one, Factors: []*mle.Dense{randDense(rng, sy), randDense(rng, sy)}},
	})
	if err != nil {
		return ph, err
	}
	ph.sumElems = 1<<sx + 1<<sy
	claim1, claim2 := ins1.Sum(), ins2.Sum()

	tr := transcript.New("zkvc.benchmark.replay")
	var proof1, proof2 *sumcheck.Proof
	ph.sumProve = rec.timed("sumcheck.prove", parent, iter, true, func() { proof1, _, _ = sumcheck.Prove(ins1, tr) })
	ph.sumProve += rec.timed("sumcheck.prove", parent, iter, true, func() { proof2, _, _ = sumcheck.Prove(ins2, tr) })

	point := randFrs(rng, sy)
	trOpen := transcript.New("zkvc.benchmark.replay.open")
	trOpen.Append("comm", comm.Root[:])
	var opening *pcs.Opening
	ph.open = rec.timed("pcs.open", parent, iter, true, func() { opening = st.Open(point, trOpen) })
	ph.openingBytes = opening.SizeBytes()
	value := st.Eval(point)

	trV := transcript.New("zkvc.benchmark.replay")
	var err1, err2 error
	ph.sumVerify = rec.timed("sumcheck.verify", parent, iter, true, func() {
		_, _, err1 = sumcheck.Verify(claim1, sx, 3, proof1, trV)
		_, _, err2 = sumcheck.Verify(claim2, sy, 2, proof2, trV)
	})
	trOpenV := transcript.New("zkvc.benchmark.replay.open")
	trOpenV.Append("comm", comm.Root[:])
	ph.verifyOpen = rec.timed("pcs.verify_open", parent, iter, true, func() {
		err = pcs.VerifyOpen(comm, point, &value, opening, params, trOpenV)
	})
	if err := errors.Join(err1, err2, err); err != nil {
		return ph, fmt.Errorf("replayed spartan phase rejected an honest proof: %w", err)
	}
	return ph, nil
}

// groth16Phases are the replayed children of one groth16.Prove and one
// groth16.Verify.
type groth16Phases struct {
	hCoefficients       time.Duration
	msmA, msmG1, msmG2  time.Duration // msmG1 covers A, B1, K and H
	msmIC, pairingCheck time.Duration
	pointsA, pointsG2   int
}

// report files the phases under their metric names.
func (p groth16Phases) report(add func(name string, v float64)) {
	add("qap.h_coefficients_s", p.hCoefficients.Seconds())
	add("curve.msm_g1_s", p.msmG1.Seconds())
	add("curve.msm_g2_s", p.msmG2.Seconds())
	add("curve.msm_g1_us_per_point_witness", p.msmA.Seconds()*1e6/float64(p.pointsA))
	add("curve.msm_g2_us_per_point", p.msmG2.Seconds()*1e6/float64(p.pointsG2))
	add("curve.msm_ic_s", p.msmIC.Seconds())
	add("curve.pairing_check_s", p.pairingCheck.Seconds())
}

// replayGroth16 re-runs the phases of groth16.Prove on the real proving
// key and assignment — MSM cost depends on the scalar values, so they
// are never random — and of groth16.Verify on the real proof and public
// witness.
func replayGroth16(rec *recorder, proveSpan, verifySpan, iter int, sys *r1cs.System, pk *groth16.ProvingKey, vk *groth16.VerifyingKey, z, public []ff.Fr, proof *groth16.Proof) (groth16Phases, error) {
	var ph groth16Phases
	d, err := qap.Domain(sys)
	if err != nil {
		return ph, err
	}
	var h []ff.Fr
	ph.hCoefficients = rec.timed("qap.h_coefficients", proveSpan, iter, true, func() { h, err = qap.HCoefficients(sys, z, d) })
	if err != nil {
		return ph, err
	}
	ph.msmA = rec.timed("curve.msm_g1", proveSpan, iter, true, func() { sink = curve.MSMG1(pk.A, z) })
	ph.msmG1 = ph.msmA + rec.timed("curve.msm_g1", proveSpan, iter, true, func() {
		sink = curve.MSMG1(pk.B1, z)
		sink = curve.MSMG1(pk.K, z[sys.NumPublic:])
		sink = curve.MSMG1(pk.H, h[:len(pk.H)])
	})
	ph.msmG2 = rec.timed("curve.msm_g2", proveSpan, iter, true, func() { sink = curve.MSMG2(pk.B2, z) })
	ph.pointsA, ph.pointsG2 = len(pk.A), len(pk.B2)

	var l curve.G1Affine
	ph.msmIC = rec.timed("curve.msm_ic", verifySpan, iter, true, func() {
		acc := curve.MSMG1(vk.IC, public)
		l = acc.ToAffine()
	})
	var negAlpha, negL, negC curve.G1Affine
	negAlpha.Neg(&vk.AlphaG1)
	negL.Neg(&l)
	negC.Neg(&proof.C)
	ok := false
	ph.pairingCheck = rec.timed("curve.pairing_check", verifySpan, iter, true, func() {
		ok = curve.PairingCheck(
			[]curve.G1Affine{proof.A, negAlpha, negL, negC},
			[]curve.G2Affine{proof.B, vk.BetaG2, vk.GammaG2, vk.DeltaG2})
	})
	if !ok {
		return ph, errors.New("replayed groth16 pairing check rejected an honest proof")
	}
	return ph, nil
}

// unattributed is 1 − Σchildren/parent: the share of a parent span its
// replayed children do not account for.
func unattributed(parent time.Duration, children ...time.Duration) float64 {
	if parent <= 0 {
		return 0
	}
	var sum time.Duration
	for _, c := range children {
		sum += c
	}
	return 1 - float64(sum)/float64(parent)
}
