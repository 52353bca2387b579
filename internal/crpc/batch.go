package crpc

import (
	"fmt"

	"zkvc/internal/ff"
	"zkvc/internal/matrix"
	"zkvc/internal/parallel"
	"zkvc/internal/transcript"
)

// Batched CRPC: the paper motivates zkVC with workloads made of *massive
// numbers* of matrix multiplications (Transformer inference is hundreds
// of them). Proving each product separately pays per-proof overhead —
// for Groth16 a CRS and three MSM walks per product, for Spartan a
// commitment and two sumchecks. A batch is what synthesize builds anyway
// (a single statement is a batch of one): the m per-product identities
// at the shared challenge Z are folded into one with a second
// Fiat–Shamir challenge γ,
//
//	Σ_m γ^m · [ Σ_{i,j} Z^{ib+j}·y^{(m)}_ij − Σ_k L^{(m)}_k·R^{(m)}_k ] = 0,
//
// where L/R are the per-product CRPC column/row polynomials. CRPC picks
// these products and PSQ sums them, as for one statement. Every term
// γ^m·L·R still needs its own multiplication constraint (Σ_m n_m total —
// exactly the sum of the individual circuits), but the batch shares one
// circuit, one witness commitment, and one proof, so the per-proof
// overhead amortizes. Soundness: a cheating prover must fool both the Z
// identity of some product and the γ fold — by Schwartz–Zippel the union
// bound stays ≈ (Σ a_m·b_m + m)/|F|. This file derives the batch
// challenges and checks the batch; synthesize builds it.

// BatchStatement is a list of matmul relations proved together. Every
// product has public X^{(m)}, Y^{(m)} and private W^{(m)}.
type BatchStatement struct {
	Stmts []*Statement
}

// NewBatchStatement computes Y_m = X_m·W_m honestly for every pair.
// Statements are independent, so they are built in parallel on the
// shared worker budget (each product may itself borrow more workers);
// the batch keeps pair order.
func NewBatchStatement(pairs ...[2]*matrix.Matrix) *BatchStatement {
	bs := &BatchStatement{Stmts: make([]*Statement, len(pairs))}
	parallel.For(len(pairs), 1, func(start, end int) {
		for i := start; i < end; i++ {
			bs.Stmts[i] = NewStatement(pairs[i][0], pairs[i][1])
		}
	})
	return bs
}

// BatchCommit hashes all W commitments together (the verifier's view of
// the private side of the batch).
func BatchCommit(stmts []*Statement) []byte {
	tr := transcript.New("zkvc.crpc.batch.commit")
	for _, s := range stmts {
		tr.Append("w", WCommit(s.W))
	}
	return tr.ChallengeBytes("commit", 32)
}

// DeriveBatchChallenges computes the shared Z and the folding challenge γ
// from all public matrices and the joint W commitment.
func DeriveBatchChallenges(stmts []*Statement, commit []byte) (z, gamma ff.Fr) {
	tr := transcript.New("zkvc.crpc.batch")
	for _, s := range stmts {
		tr.AppendFrom("x", s.X)
		tr.AppendFrom("y", s.Y)
	}
	tr.Append("w.commit", commit)
	z = tr.ChallengeFr("z")
	gamma = tr.ChallengeFr("gamma")
	return z, gamma
}

// SynthesizeBatch builds one circuit proving every product in the batch
// under CRPC (+ optional PSQ on the γ-fold accumulation). The publics are
// all X entries then all Y entries, in batch order.
func SynthesizeBatch(bs *BatchStatement, opts Options) (*Synthesis, error) {
	if !opts.CRPC {
		return nil, fmt.Errorf("crpc: batching requires the CRPC identity (got %v)", opts)
	}
	if len(bs.Stmts) == 0 {
		return nil, fmt.Errorf("crpc: empty batch")
	}
	for m, s := range bs.Stmts {
		if err := s.check(); err != nil {
			return nil, fmt.Errorf("crpc: batch element %d: %w", m, err)
		}
	}
	z, gamma := DeriveBatchChallenges(bs.Stmts, BatchCommit(bs.Stmts))
	return synthesize(bs.Stmts, z, gamma, opts), nil
}
