package main

import (
	"context"
	"errors"
	"fmt"
	mrand "math/rand"
	"time"

	"zkvc"
	"zkvc/internal/crpc"
	"zkvc/internal/curve"
	"zkvc/internal/ff"
	"zkvc/internal/groth16"
	"zkvc/internal/pcs"
	"zkvc/internal/spartan"
	"zkvc/internal/wire"
)

// matmulInst is matmul_spartan / matmul_groth16: one caller proving and
// verifying Y = X·W in-process. W is the server's private model, fixed
// for the run; X is the client's query, fresh every iteration.
type matmulInst struct {
	cfg     runConfig
	backend zkvc.Backend
	a, n, b int
	rng     *mrand.Rand
	w       *zkvc.Matrix

	local  *zkvc.Local        // Spartan: per-statement challenge, no set-up
	prover *zkvc.MatMulProver // Groth16: proofs under an epoch CRS made at set-up
	crs    *zkvc.CRS

	lastX     *zkvc.Matrix
	lastProof *zkvc.MatMulProof
}

// matmulBound is the magnitude of the quantized tensor entries.
const matmulBound = 256

func newMatmul(cfg runConfig, backend zkvc.Backend) (instance, error) {
	m := &matmulInst{cfg: cfg, backend: backend, a: 49, n: 64, b: 128, rng: mrand.New(mrand.NewSource(cfg.seed))}
	if cfg.small {
		m.a, m.n, m.b = 6, 8, 4
	}
	m.w = zkvc.RandomMatrix(m.rng, m.n, m.b, matmulBound)
	if backend == zkvc.Spartan {
		m.local = zkvc.NewLocal(zkvc.Spartan, zkvc.DefaultOptions())
		m.local.Seed = proverSeed
		return m, nil
	}
	m.prover = zkvc.NewMatMulProver(zkvc.Groth16, zkvc.DefaultOptions())
	m.prover.Reseed(proverSeed)
	crs, err := m.prover.Setup(m.a, m.n, m.b, []byte("zkvc-benchmark-epoch"))
	if err != nil {
		return nil, err
	}
	m.crs = crs
	return m, nil
}

func (m *matmulInst) close() {}

func (m *matmulInst) prove(ctx context.Context, x *zkvc.Matrix) (*zkvc.MatMulProof, error) {
	if m.backend == zkvc.Spartan {
		return m.local.ProveMatMul(ctx, x, m.w)
	}
	return m.prover.ProveWithCRSContext(ctx, m.crs, x, m.w)
}

func (m *matmulInst) verify(ctx context.Context, x *zkvc.Matrix, p *zkvc.MatMulProof) error {
	if m.backend == zkvc.Spartan {
		return m.local.VerifyMatMul(ctx, x, p)
	}
	return m.crs.Verify(x, p)
}

func (m *matmulInst) iterate(ctx context.Context, i int, s *samples, rec *recorder) {
	x := zkvc.RandomMatrix(m.rng, m.a, m.n, matmulBound)
	root := rec.begin("iteration", 0, i, false)
	defer rec.end(root)
	var p *zkvc.MatMulProof
	var err error
	d := rec.timed("zkvc.prove", root, i, false, func() { p, err = m.prove(ctx, x) })
	if !s.record(opProve, d, err) {
		return
	}
	d = rec.timed("zkvc.verify", root, i, false, func() { err = m.verify(ctx, x, p) })
	s.record(opVerify, d, err)
	s.bytes = append(s.bytes, len(wire.EncodeMatMulProof(p)))
	m.lastX, m.lastProof = x, p
}

func (m *matmulInst) warm(ctx context.Context) error {
	s := closedLoop(0, 2, func(i int, s *samples) { m.iterate(ctx, i, s, nil) })
	return s.firstErr
}

func (m *matmulInst) measure(ctx context.Context, window time.Duration, rec *recorder) *samples {
	minIters := 3
	if m.cfg.small {
		minIters = 1
	}
	return closedLoop(window, minIters, func(i int, s *samples) { m.iterate(ctx, i, s, rec) })
}

// tamperedMatMul returns a copy of p claiming a Y with one entry flipped.
func tamperedMatMul(p *zkvc.MatMulProof) *zkvc.MatMulProof {
	t := *p
	t.Y = zkvc.NewMatrix(p.Y.Rows, p.Y.Cols)
	copy(t.Y.Data, p.Y.Data)
	var one ff.Fr
	one.SetOne()
	k := len(t.Y.Data) / 2
	t.Y.Data[k].Add(&t.Y.Data[k], &one)
	return &t
}

// wantRejected turns a verifier's answer to a tampered statement into
// the tamper gate's verdict.
func wantRejected(err error) error {
	switch {
	case err == nil:
		return errors.New("verifier accepted a tampered statement")
	case !errors.Is(err, zkvc.ErrVerification):
		return fmt.Errorf("tampered statement failed with %v, want zkvc.ErrVerification", err)
	}
	return nil
}

func (m *matmulInst) tamper(ctx context.Context) error {
	return wantRejected(m.verify(ctx, m.lastX, tamperedMatMul(m.lastProof)))
}

// layerReps is how many times the traced run repeats a backend's direct
// decomposition; medians are reported.
const layerReps = 3

func (m *matmulInst) layers(ctx context.Context, rec *recorder, out map[string]float64) error {
	rng := mrand.New(mrand.NewSource(m.cfg.seed + 1))
	opts := zkvc.DefaultOptions()
	se := series{}
	reps := layerReps
	if m.cfg.small {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		x := zkvc.RandomMatrix(m.rng, m.a, m.n, matmulBound)
		stmt := crpc.NewStatement(x, m.w)
		root := rec.begin("layers", 0, i, false)

		// Prover side: the challenge is per statement on Spartan and the
		// epoch's on Groth16, exactly as the timed loop's calls derive it.
		var syn *crpc.Synthesis
		var err error
		se.addDur("crpc.synthesize_s", rec.timed("crpc.synthesize", root, i, false, func() {
			if m.backend == zkvc.Spartan {
				syn, err = crpc.Synthesize(stmt, opts)
			} else {
				syn, err = crpc.SynthesizeAt(stmt, m.crs.Z, opts)
			}
		}))
		if err != nil {
			return err
		}
		st := syn.Stats()
		out["r1cs.constraints"], out["r1cs.variables"] = float64(st.Constraints), float64(st.Variables)

		// Verifier side: rebuild the circuit from public data only.
		se.addDur("crpc.synthesize_shape_s", rec.timed("crpc.synthesize_shape", root, i, false, func() {
			var z ff.Fr
			if m.backend == zkvc.Spartan {
				z = crpc.DeriveZFromCommit(x, stmt.Y, crpc.WCommit(m.w))
			} else {
				z = crpc.DeriveEpochZ(m.crs.Epoch, m.a, m.n, m.b, opts)
			}
			sink = crpc.SynthesizeShape(m.a, m.n, m.b, z, opts)
		}))

		if m.backend == zkvc.Spartan {
			err = spartanLayers(rec, root, i, rng, syn, se)
		} else {
			err = m.groth16Layers(rec, root, i, syn, se)
		}
		if err != nil {
			return err
		}

		var raw []byte
		se.addDur("wire.encode_proof_s", rec.timed("wire.encode_proof", root, i, false, func() { raw = wire.EncodeMatMulProof(m.lastProof) }))
		se.addDur("wire.decode_proof_s", rec.timed("wire.decode_proof", root, i, false, func() { _, err = wire.DecodeMatMulProof(raw) }))
		if err != nil {
			return err
		}
		rec.end(root)
	}
	se.medians(out)

	microFr(rng, out)
	if err := microPoly(rng, out); err != nil {
		return err
	}
	if m.backend == zkvc.Spartan {
		microMLE(rng, out)
		return nil
	}
	microFp(rng, out)
	microCurve(rng, m.cfg.small, out)
	_, before := curve.PairingCounts()
	if err := m.verify(ctx, m.lastX, m.lastProof); err != nil {
		return err
	}
	_, after := curve.PairingCounts()
	out["curve.final_exps_per_op_verify"] = float64(after - before)
	return nil
}

// spartanLayers proves and verifies one synthesized statement through
// internal/spartan directly and replays the phases of both.
func spartanLayers(rec *recorder, root, iter int, rng *mrand.Rand, syn *crpc.Synthesis, se series) error {
	params := pcs.DefaultParams()
	sys, z := syn.Sys, syn.Assignment
	proveSpan := rec.begin("spartan.prove", root, iter, false)
	proof, err := spartan.Prove(sys, z, params)
	prove := rec.end(proveSpan)
	if err != nil {
		return err
	}
	se.addDur("spartan.prove_s", prove)

	// The committed polynomial is the witness with its public slots
	// zeroed, padded to a power of two.
	sx, sy := logDim(sys.NumConstraints()), logDim(sys.NumVars)
	priv := make([]ff.Fr, 1<<sy)
	copy(priv[sys.NumPublic:], z[sys.NumPublic:])
	ph, err := replaySpartan(rec, proveSpan, iter, rng, sx, sy, priv, params)
	if err != nil {
		return err
	}
	ph.report(se.add)
	se.add("spartan.unattributed_share", unattributed(prove, ph.commit, ph.sumProve, ph.open))

	se.addDur("spartan.verify_s", rec.timed("spartan.verify", root, iter, false, func() { err = spartan.Verify(sys, proof, syn.Public, params) }))
	return err
}

// groth16Layers times one fresh set-up (first repetition only), proves
// and verifies one synthesized statement through internal/groth16
// directly and replays the phases of both.
func (m *matmulInst) groth16Layers(rec *recorder, root, iter int, syn *crpc.Synthesis, se series) error {
	sys, z := syn.Sys, syn.Assignment
	rng := mrand.New(mrand.NewSource(proverSeed))
	var err error
	if iter == 0 {
		se.addDur("groth16.setup_s", rec.timed("groth16.setup", root, iter, false, func() { _, _, err = groth16.Setup(sys, rng) }))
		if err != nil {
			return err
		}
	}
	pk, vk := m.crs.G16PK, m.crs.G16VK
	var proof *groth16.Proof
	proveSpan := rec.begin("groth16.prove", root, iter, false)
	proof, err = groth16.Prove(sys, pk, z, rng)
	prove := rec.end(proveSpan)
	if err != nil {
		return err
	}
	se.addDur("groth16.prove_s", prove)

	verifySpan := rec.begin("groth16.verify", root, iter, false)
	err = groth16.Verify(vk, proof, syn.Public)
	se.addDur("groth16.verify_s", rec.end(verifySpan))
	if err != nil {
		return err
	}

	ph, err := replayGroth16(rec, proveSpan, verifySpan, iter, sys, pk, vk, z, syn.Public, proof)
	if err != nil {
		return err
	}
	ph.report(se.add)
	se.add("groth16.unattributed_share", unattributed(prove, ph.hCoefficients, ph.msmG1, ph.msmG2))
	return nil
}
