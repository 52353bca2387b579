package zkvc_test

import (
	"context"
	"errors"
	mrand "math/rand"
	"testing"

	"zkvc"
)

func batchPairs(t *testing.T, seed int64) ([][2]*zkvc.Matrix, []*zkvc.Matrix) {
	t.Helper()
	rng := mrand.New(mrand.NewSource(seed))
	shapes := [][3]int{{4, 6, 5}, {3, 8, 3}, {5, 4, 7}}
	var pairs [][2]*zkvc.Matrix
	var xs []*zkvc.Matrix
	for _, sh := range shapes {
		x := zkvc.RandomMatrix(rng, sh[0], sh[1], 64)
		w := zkvc.RandomMatrix(rng, sh[1], sh[2], 64)
		pairs = append(pairs, [2]*zkvc.Matrix{x, w})
		xs = append(xs, x)
	}
	return pairs, xs
}

func TestBatchProveVerifySpartan(t *testing.T) {
	pairs, xs := batchPairs(t, 31)
	prover := zkvc.NewMatMulProver(zkvc.Spartan, zkvc.DefaultOptions())
	prover.Reseed(1)
	proof, err := prover.ProveBatchContext(context.Background(), pairs...)
	if err != nil {
		t.Fatal(err)
	}
	if err := zkvc.VerifyMatMulBatch(xs, proof); err != nil {
		t.Fatal(err)
	}
	if proof.SizeBytes() <= 0 {
		t.Error("empty proof")
	}
}

func TestBatchProveVerifyGroth16(t *testing.T) {
	pairs, xs := batchPairs(t, 32)
	prover := zkvc.NewMatMulProver(zkvc.Groth16, zkvc.DefaultOptions())
	prover.Reseed(1)
	proof, err := prover.ProveBatchContext(context.Background(), pairs...)
	if err != nil {
		t.Fatal(err)
	}
	if err := zkvc.VerifyMatMulBatch(xs, proof); err != nil {
		t.Fatal(err)
	}
	if proof.SizeBytes() != 256 {
		t.Errorf("Groth16 batch proof is %d bytes, want constant 256", proof.SizeBytes())
	}
}

func TestBatchRejectsTamperedOutput(t *testing.T) {
	pairs, xs := batchPairs(t, 33)
	prover := zkvc.NewMatMulProver(zkvc.Spartan, zkvc.DefaultOptions())
	prover.Reseed(1)
	proof, err := prover.ProveBatchContext(context.Background(), pairs...)
	if err != nil {
		t.Fatal(err)
	}
	proof.Ys[1].At(0, 0).SetInt64(777)
	if err := zkvc.VerifyMatMulBatch(xs, proof); err == nil {
		t.Fatal("tampered batch output verified")
	}
}

func TestBatchRejectsWrongInput(t *testing.T) {
	pairs, xs := batchPairs(t, 34)
	prover := zkvc.NewMatMulProver(zkvc.Spartan, zkvc.DefaultOptions())
	prover.Reseed(1)
	proof, err := prover.ProveBatchContext(context.Background(), pairs...)
	if err != nil {
		t.Fatal(err)
	}
	rng := mrand.New(mrand.NewSource(99))
	xs[0] = zkvc.RandomMatrix(rng, xs[0].Rows, xs[0].Cols, 64)
	if err := zkvc.VerifyMatMulBatch(xs, proof); err == nil {
		t.Fatal("wrong batch input verified")
	}
}

func TestBatchRejectsShapeMismatch(t *testing.T) {
	pairs, xs := batchPairs(t, 35)
	prover := zkvc.NewMatMulProver(zkvc.Spartan, zkvc.DefaultOptions())
	prover.Reseed(1)
	proof, err := prover.ProveBatchContext(context.Background(), pairs...)
	if err != nil {
		t.Fatal(err)
	}
	if err := zkvc.VerifyMatMulBatch(xs[:2], proof); err == nil {
		t.Fatal("truncated input list verified")
	}
}

// TestBatchRejectsMissingData: nil proofs, nil inputs and nil outputs,
// a truncated commitment and options without CRPC must return
// ErrVerification like the single-proof verifier, not panic.
func TestBatchRejectsMissingData(t *testing.T) {
	pairs, xs := batchPairs(t, 37)
	prover := zkvc.NewMatMulProver(zkvc.Spartan, zkvc.DefaultOptions())
	prover.Reseed(1)
	proof, err := prover.ProveBatchContext(context.Background(), pairs...)
	if err != nil {
		t.Fatal(err)
	}

	if err := zkvc.VerifyMatMulBatch(xs, nil); !errors.Is(err, zkvc.ErrVerification) {
		t.Errorf("nil proof: got %v, want ErrVerification", err)
	}
	badXs := append([]*zkvc.Matrix(nil), xs...)
	badXs[1] = nil
	if err := zkvc.VerifyMatMulBatch(badXs, proof); !errors.Is(err, zkvc.ErrVerification) {
		t.Errorf("nil input: got %v, want ErrVerification", err)
	}
	savedY := proof.Ys[2]
	proof.Ys[2] = nil
	if err := zkvc.VerifyMatMulBatch(xs, proof); !errors.Is(err, zkvc.ErrVerification) {
		t.Errorf("nil output: got %v, want ErrVerification", err)
	}
	proof.Ys[2] = savedY
	savedCommit := proof.Commit
	proof.Commit = proof.Commit[:16]
	if err := zkvc.VerifyMatMulBatch(xs, proof); !errors.Is(err, zkvc.ErrVerification) {
		t.Errorf("truncated commitment: got %v, want ErrVerification", err)
	}
	proof.Commit = savedCommit
	proof.Opts.CRPC = false // batches exist only under the CRPC identity
	if err := zkvc.VerifyMatMulBatch(xs, proof); !errors.Is(err, zkvc.ErrVerification) {
		t.Errorf("options without CRPC: got %v, want ErrVerification", err)
	}
	proof.Opts.CRPC = true
	if err := zkvc.VerifyMatMulBatch(xs, proof); err != nil {
		t.Errorf("restored proof no longer verifies: %v", err)
	}
}

// TestBatchAmortizesProofSize is the point of batching: one batch proof
// must be much smaller than the sum of individual proofs for the same
// statements (Spartan proofs are O(√N), so batching also helps size, not
// just setup amortization).
func TestBatchAmortizesProofSize(t *testing.T) {
	pairs, xs := batchPairs(t, 36)
	prover := zkvc.NewMatMulProver(zkvc.Spartan, zkvc.DefaultOptions())
	prover.Reseed(1)

	batch, err := prover.ProveBatchContext(context.Background(), pairs...)
	if err != nil {
		t.Fatal(err)
	}
	if err := zkvc.VerifyMatMulBatch(xs, batch); err != nil {
		t.Fatal(err)
	}
	var individual int
	for _, pr := range pairs {
		p, err := prover.ProveContext(context.Background(), pr[0], pr[1])
		if err != nil {
			t.Fatal(err)
		}
		individual += p.SizeBytes()
	}
	if batch.SizeBytes() >= individual {
		t.Errorf("batch proof %dB not smaller than %dB of separate proofs",
			batch.SizeBytes(), individual)
	}
}
