package zkvc

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"zkvc/internal/crpc"
	"zkvc/internal/ff"
	"zkvc/internal/groth16"
	"zkvc/internal/zkml"
)

// Setup/proving separation: Prove derives the CRPC challenge per statement,
// which is the strongest soundness posture but forces the Groth16 backend
// to regenerate its CRS on every call — the dominant cost for small
// matrices. A deployment instead fixes a public epoch label, derives one
// challenge per (shape, options) family from it, and generates the CRS for
// that family once (zkvc.go's "shape epoch"). This file is that path:
// Setup produces a reusable CRS and ProveWithCRS proves against it. The
// proving service issues no epoch proofs; its only cached keys are the
// model ops' (zkml.KeyCache).

// ShapeKey identifies a matmul circuit family: the product dimensions
// (Rows×Inner)·(Inner×Cols) and the circuit options. It is comparable and
// used as the CRS cache key.
type ShapeKey struct {
	Rows, Inner, Cols int
	Opts              Options
}

// Shape returns the key for proving x·w under opts.
func Shape(x, w *Matrix, opts Options) ShapeKey {
	return ShapeKey{Rows: x.Rows, Inner: x.Cols, Cols: w.Cols, Opts: opts}
}

// CRS is the reusable per-(shape, options, epoch) proving material. For
// Groth16 it carries the proving and verifying keys; for Spartan (no
// trusted setup) only the shared epoch challenge. A CRS is immutable after
// Setup and safe for concurrent use by any number of provers.
type CRS struct {
	Backend Backend
	Shape   ShapeKey
	Epoch   []byte
	Z       ff.Fr

	G16PK *groth16.ProvingKey
	G16VK *groth16.VerifyingKey

	SetupTime time.Duration
}

// Setup generates the epoch CRS for one shape. The epoch label must be
// non-empty: it domain-separates the shared challenge, and an empty label
// is reserved for per-statement proofs.
func (p *MatMulProver) Setup(rows, inner, cols int, epoch []byte) (*CRS, error) {
	if err := checkShape(rows, inner, cols); err != nil {
		return nil, err
	}
	if len(epoch) == 0 {
		return nil, fmt.Errorf("zkvc: epoch label must be non-empty")
	}
	crs := &CRS{
		Backend: p.backend,
		Shape:   ShapeKey{Rows: rows, Inner: inner, Cols: cols, Opts: p.opts},
		Epoch:   append([]byte(nil), epoch...),
	}
	if p.opts.CRPC {
		crs.Z = crpc.DeriveEpochZ(crs.Epoch, rows, inner, cols, p.opts)
	}
	if p.backend == Groth16 {
		sys := crpc.SynthesizeShape(rows, inner, cols, crs.Z, p.opts)
		start := time.Now()
		keys, err := zkml.NewKeys(sys, p.rng)
		if err != nil {
			return nil, err
		}
		crs.SetupTime = time.Since(start)
		crs.G16PK, crs.G16VK = keys.PK, keys.VK
	}
	return crs, nil
}

// ProveWithCRS proves Y = X·W against a previously generated epoch CRS,
// skipping per-call setup entirely. The prover's backend and options must
// match the CRS, and the matrices must have the CRS shape.
func (p *MatMulProver) ProveWithCRS(crs *CRS, x, w *Matrix) (*MatMulProof, error) {
	return p.ProveWithCRSContext(context.Background(), crs, x, w)
}

// ProveWithCRSContext is ProveWithCRS with ctx checked at the proving
// phase boundaries, like ProveContext.
func (p *MatMulProver) ProveWithCRSContext(ctx context.Context, crs *CRS, x, w *Matrix) (*MatMulProof, error) {
	if crs == nil {
		return nil, fmt.Errorf("zkvc: nil CRS")
	}
	if crs.Backend != p.backend || crs.Shape.Opts != p.opts {
		return nil, fmt.Errorf("zkvc: CRS is for %v/%v, prover is %v/%v",
			crs.Backend, crs.Shape.Opts, p.backend, p.opts)
	}
	if got := Shape(x, w, p.opts); got != crs.Shape {
		return nil, fmt.Errorf("zkvc: statement shape %dx%dx%d does not match CRS shape %dx%dx%d",
			got.Rows, got.Inner, got.Cols, crs.Shape.Rows, crs.Shape.Inner, crs.Shape.Cols)
	}

	stmt := crpc.NewStatement(x, w)
	proof := &MatMulProof{
		Backend: p.backend,
		Opts:    p.opts,
		Y:       stmt.Y,
		WCommit: crpc.WCommit(w),
		Epoch:   crs.Epoch,
	}
	var err error
	proof.G16Proof, proof.G16VK, proof.SpartanProof, err = p.prove(ctx, crs, &proof.Timings,
		func() (*crpc.Synthesis, error) { return crpc.SynthesizeAt(stmt, crs.Z, p.opts) })
	if err != nil {
		return nil, err
	}
	return proof, nil
}

// Verify checks an epoch proof against this CRS. Unlike VerifyMatMul,
// which trusts the verifying key the proof carries, a verifier holding the
// epoch CRS substitutes its own Groth16 key — so a proof generated under a
// different epoch (hence a different circuit) is rejected even if it ships
// a self-consistent foreign key.
func (c *CRS) Verify(x *Matrix, proof *MatMulProof) error {
	if x == nil || proof == nil || proof.Y == nil {
		return fmt.Errorf("%w: missing statement data", ErrVerification)
	}
	if proof.Backend != c.Backend || proof.Opts != c.Shape.Opts {
		return fmt.Errorf("%w: proof is %v/%v, CRS is %v/%v",
			ErrVerification, proof.Backend, proof.Opts, c.Backend, c.Shape.Opts)
	}
	if !bytes.Equal(proof.Epoch, c.Epoch) {
		return fmt.Errorf("%w: proof epoch does not match CRS epoch", ErrVerification)
	}
	if x.Rows != c.Shape.Rows || x.Cols != c.Shape.Inner ||
		proof.Y.Rows != c.Shape.Rows || proof.Y.Cols != c.Shape.Cols {
		return fmt.Errorf("%w: statement does not have the CRS shape %dx%dx%d",
			ErrVerification, c.Shape.Rows, c.Shape.Inner, c.Shape.Cols)
	}
	if c.Backend == Groth16 {
		trusted := *proof
		trusted.G16VK = c.G16VK
		return verifyMatMulAt(x, &trusted, c.Epoch)
	}
	return verifyMatMulAt(x, proof, c.Epoch)
}

// SameEpoch reports whether two proofs were produced under the same shape
// epoch (both per-statement counts as the same, empty, epoch).
func SameEpoch(a, b *MatMulProof) bool { return bytes.Equal(a.Epoch, b.Epoch) }
