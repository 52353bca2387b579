package zkvc

import (
	"context"
	"fmt"
	"time"

	"zkvc/internal/crpc"
	"zkvc/internal/ff"
	"zkvc/internal/groth16"
	"zkvc/internal/pcs"
	"zkvc/internal/spartan"
)

// Batched proving: real workloads (the paper's motivating Transformer
// inference) are hundreds of matrix products, and per-proof overhead —
// CRS handling and MSM walks on Groth16, commitments and sumchecks on
// Spartan — adds up. ProveBatchContext folds any number of products into ONE
// proof: the per-product CRPC identities at a shared challenge Z are
// combined with a second Fiat–Shamir challenge γ, so the batch circuit
// has exactly the sum of the individual constraint counts but a single
// setup, witness commitment, and proof. See internal/crpc/batch.go for
// the identity and its Schwartz–Zippel soundness bound.

// BatchProof is a verifiable statement "Y_m = X_m·W_m for every m, for
// the W_m under Commit".
type BatchProof struct {
	Opts    Options
	Backend Backend
	Shapes  [][3]int // per-product (a, n, b)
	Ys      []*Matrix
	Commit  []byte

	G16Proof *groth16.Proof
	G16VK    *groth16.VerifyingKey

	SpartanProof *spartan.Proof

	Timings Timings
}

// SizeBytes reports the wire size of the single backend proof.
func (p *BatchProof) SizeBytes() int {
	switch p.Backend {
	case Groth16:
		return p.G16Proof.SizeBytes()
	case Spartan:
		return p.SpartanProof.SizeBytes()
	}
	return 0
}

// ProveBatchContext proves every product Y_m = X_m·W_m in one proof,
// checking ctx between the proving phases (synthesis, setup, proof
// generation) — a canceled context stops the work at the next phase
// boundary and returns ctx's error. The pairs are (X, W); batching
// requires the CRPC identity (DefaultOptions).
func (p *MatMulProver) ProveBatchContext(ctx context.Context, pairs ...[2]*Matrix) (*BatchProof, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	bs := crpc.NewBatchStatement(pairs...)
	proof := &BatchProof{
		Opts:    p.opts,
		Backend: p.backend,
		Commit:  crpc.BatchCommit(bs.Stmts),
	}
	for _, s := range bs.Stmts {
		proof.Shapes = append(proof.Shapes, [3]int{s.X.Rows, s.X.Cols, s.W.Cols})
		proof.Ys = append(proof.Ys, s.Y)
	}

	start := time.Now()
	syn, err := crpc.SynthesizeBatch(bs, p.opts)
	if err != nil {
		return nil, err
	}
	proof.Timings.Synthesis = time.Since(start)

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	switch p.backend {
	case Groth16:
		start = time.Now()
		pk, vk, err := groth16.Setup(syn.Sys, p.rng)
		if err != nil {
			return nil, err
		}
		proof.Timings.Setup = time.Since(start)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		start = time.Now()
		g16, err := groth16.Prove(syn.Sys, pk, syn.Assignment, p.rng)
		if err != nil {
			return nil, err
		}
		proof.Timings.Prove = time.Since(start)
		proof.G16Proof, proof.G16VK = g16, vk
	case Spartan:
		start = time.Now()
		sp, err := spartan.Prove(syn.Sys, syn.Assignment, p.pcs)
		if err != nil {
			return nil, err
		}
		proof.Timings.Prove = time.Since(start)
		proof.SpartanProof = sp
	default:
		return nil, fmt.Errorf("zkvc: unknown backend %d", p.backend)
	}
	return proof, nil
}

// VerifyMatMulBatch checks a batch proof against the public inputs. The
// verifier recomputes both challenges from the Xs, the claimed Ys and the
// batch commitment, rebuilds the circuit from shapes alone, and checks
// the single backend proof.
func VerifyMatMulBatch(xs []*Matrix, proof *BatchProof) error {
	if proof == nil {
		return fmt.Errorf("%w: missing batch proof", ErrVerification)
	}
	if len(proof.Commit) != wCommitLen {
		return fmt.Errorf("%w: malformed batch commitment (%d bytes, want %d)",
			ErrVerification, len(proof.Commit), wCommitLen)
	}
	if len(xs) != len(proof.Shapes) || len(proof.Ys) != len(proof.Shapes) {
		return fmt.Errorf("%w: batch has %d inputs, %d outputs, %d shapes",
			ErrVerification, len(xs), len(proof.Ys), len(proof.Shapes))
	}
	stmts := make([]*crpc.Statement, len(xs))
	for i := range xs {
		if xs[i] == nil || proof.Ys[i] == nil {
			return fmt.Errorf("%w: missing statement data", ErrVerification)
		}
		sh := proof.Shapes[i]
		if xs[i].Rows != sh[0] || xs[i].Cols != sh[1] {
			return fmt.Errorf("%w: input %d is %dx%d, want %dx%d", ErrVerification, i, xs[i].Rows, xs[i].Cols, sh[0], sh[1])
		}
		if proof.Ys[i].Rows != sh[0] || proof.Ys[i].Cols != sh[2] {
			return fmt.Errorf("%w: output %d is %dx%d, want %dx%d", ErrVerification, i, proof.Ys[i].Rows, proof.Ys[i].Cols, sh[0], sh[2])
		}
		stmts[i] = &crpc.Statement{X: xs[i], Y: proof.Ys[i]}
	}
	// Public witness: [1, all X entries, all Y entries] in batch order.
	total := 1
	for i := range xs {
		total += len(xs[i].Data) + len(proof.Ys[i].Data)
	}
	public := make([]ff.Fr, 1, total)
	public[0].SetOne()
	for i := range xs {
		public = append(public, xs[i].Data...)
	}
	for i := range proof.Ys {
		public = append(public, proof.Ys[i].Data...)
	}

	switch proof.Backend {
	case Groth16:
		if proof.G16Proof == nil || proof.G16VK == nil {
			return fmt.Errorf("%w: missing Groth16 payload", ErrVerification)
		}
		if err := groth16.Verify(proof.G16VK, proof.G16Proof, public); err != nil {
			return fmt.Errorf("%w: %v", ErrVerification, err)
		}
	case Spartan:
		if proof.SpartanProof == nil {
			return fmt.Errorf("%w: missing Spartan payload", ErrVerification)
		}
		// Only Spartan consumes the rebuilt system; Groth16's circuit
		// binding lives entirely in the verifying key (see verifyMatMulAt).
		z, gamma := crpc.DeriveBatchChallenges(stmts, proof.Commit)
		sys := crpc.SynthesizeBatchShape(proof.Shapes, z, gamma, proof.Opts)
		if err := spartan.Verify(sys, proof.SpartanProof, public, pcs.DefaultParams()); err != nil {
			return fmt.Errorf("%w: %v", ErrVerification, err)
		}
	default:
		return fmt.Errorf("%w: unknown backend %d", ErrVerification, proof.Backend)
	}
	return nil
}
