package zkvc

import (
	"context"
	"fmt"

	"zkvc/internal/crpc"
	"zkvc/internal/groth16"
	"zkvc/internal/spartan"
	"zkvc/internal/zkml"
)

// Batched proving: real workloads (the paper's motivating Transformer
// inference) are hundreds of matrix products, and per-proof overhead —
// CRS handling and MSM walks on Groth16, commitments and sumchecks on
// Spartan — adds up. ProveBatchContext folds any number of products into ONE
// proof: the per-product CRPC identities at a shared challenge Z are
// combined with a second Fiat–Shamir challenge γ, so the batch circuit
// has exactly the sum of the individual constraint counts but a single
// setup, witness commitment, and proof. The circuit comes from the same
// builder as a single statement's, which is a batch of one (see
// internal/crpc/batch.go for the identity and its Schwartz–Zippel
// soundness bound), and the proof goes through the same prove and verify
// seams as single and epoch proofs.

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
func (p *BatchProof) SizeBytes() int { return p.payload().SizeBytes() }

func (p *BatchProof) payload() *zkml.Payload {
	return &zkml.Payload{G16: p.G16Proof, G16VK: p.G16VK, Spartan: p.SpartanProof}
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
	for _, pair := range pairs {
		if err := checkShape(pair[0].Rows, pair[0].Cols, pair[1].Cols); err != nil {
			return nil, err
		}
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
	var err error
	proof.G16Proof, proof.G16VK, proof.SpartanProof, err = p.prove(ctx, nil, &proof.Timings,
		func() (*crpc.Synthesis, error) { return crpc.SynthesizeBatch(bs, p.opts) })
	if err != nil {
		return nil, err
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
	if !proof.Opts.CRPC {
		return fmt.Errorf("%w: batch proofs require the CRPC identity", ErrVerification)
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
		if err := checkShape(sh[0], sh[1], sh[2]); err != nil {
			return fmt.Errorf("%w: statement %d: %v", ErrVerification, i, err)
		}
		if xs[i].Rows != sh[0] || xs[i].Cols != sh[1] {
			return fmt.Errorf("%w: input %d is %dx%d, want %dx%d", ErrVerification, i, xs[i].Rows, xs[i].Cols, sh[0], sh[1])
		}
		if proof.Ys[i].Rows != sh[0] || proof.Ys[i].Cols != sh[2] {
			return fmt.Errorf("%w: output %d is %dx%d, want %dx%d", ErrVerification, i, proof.Ys[i].Rows, proof.Ys[i].Cols, sh[0], sh[2])
		}
		stmts[i] = &crpc.Statement{X: xs[i], Y: proof.Ys[i]}
	}
	return verify(proof.Backend, proof.payload(), xs, proof.Ys,
		func() spartan.Circuit {
			z, gamma := crpc.DeriveBatchChallenges(stmts, proof.Commit)
			return &crpc.Circuit{Shapes: proof.Shapes, Z: z, Gamma: gamma, Opts: proof.Opts}
		})
}
