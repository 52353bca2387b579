package zkvc_test

import (
	"context"
	"errors"
	mrand "math/rand"
	"testing"

	"zkvc"
	"zkvc/internal/crpc"
	"zkvc/internal/groth16"
	"zkvc/internal/spartan"
)

// Tamper-rejection tests for the single-proof path, mirroring
// batch_api_test.go: every forgery attempt must surface as ErrVerification
// (checked with errors.Is), never as a panic or a silent accept.

func provenStatement(t *testing.T, backend zkvc.Backend, seed int64) (*zkvc.Matrix, *zkvc.MatMulProof) {
	t.Helper()
	rng := mrand.New(mrand.NewSource(seed))
	x := zkvc.RandomMatrix(rng, 4, 6, 64)
	w := zkvc.RandomMatrix(rng, 6, 5, 64)
	prover := zkvc.NewMatMulProver(backend, zkvc.DefaultOptions())
	prover.Reseed(seed)
	proof, err := prover.ProveContext(context.Background(), x, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := zkvc.VerifyMatMul(x, proof); err != nil {
		t.Fatalf("honest proof rejected: %v", err)
	}
	return x, proof
}

func wantVerificationErr(t *testing.T, name string, err error) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: tampered proof verified", name)
	}
	if !errors.Is(err, zkvc.ErrVerification) {
		t.Fatalf("%s: error %v does not wrap ErrVerification", name, err)
	}
}

func TestSingleRejectsFlippedOutput(t *testing.T) {
	for _, backend := range []zkvc.Backend{zkvc.Spartan, zkvc.Groth16} {
		x, proof := provenStatement(t, backend, 51)
		proof.Y.At(0, 0).SetInt64(777)
		wantVerificationErr(t, backend.String()+"/corner", zkvc.VerifyMatMul(x, proof))

		x, proof = provenStatement(t, backend, 52)
		proof.Y.At(proof.Y.Rows-1, proof.Y.Cols-1).Add(
			proof.Y.At(proof.Y.Rows-1, proof.Y.Cols-1), proof.Y.At(0, 0))
		wantVerificationErr(t, backend.String()+"/last", zkvc.VerifyMatMul(x, proof))
	}
}

func TestSingleRejectsTruncatedWCommit(t *testing.T) {
	for _, backend := range []zkvc.Backend{zkvc.Spartan, zkvc.Groth16} {
		x, proof := provenStatement(t, backend, 53)
		proof.WCommit = proof.WCommit[:16]
		wantVerificationErr(t, backend.String()+"/truncated", zkvc.VerifyMatMul(x, proof))

		x, proof = provenStatement(t, backend, 54)
		proof.WCommit = nil
		wantVerificationErr(t, backend.String()+"/nil", zkvc.VerifyMatMul(x, proof))
	}
}

func TestSingleRejectsNilPayload(t *testing.T) {
	x, proof := provenStatement(t, zkvc.Spartan, 55)
	proof.SpartanProof = nil
	wantVerificationErr(t, "spartan/nil-payload", zkvc.VerifyMatMul(x, proof))

	x, proof = provenStatement(t, zkvc.Groth16, 56)
	proof.G16Proof = nil
	wantVerificationErr(t, "groth16/nil-proof", zkvc.VerifyMatMul(x, proof))

	x, proof = provenStatement(t, zkvc.Groth16, 57)
	proof.G16VK = nil
	wantVerificationErr(t, "groth16/nil-vk", zkvc.VerifyMatMul(x, proof))
}

// A Spartan proof with one of its parts missing is rejected with
// ErrVerification, never a nil dereference in the sumcheck or PCS
// verifiers.
func TestSingleRejectsNilSpartanParts(t *testing.T) {
	for _, part := range []struct {
		name  string
		strip func(p *spartan.Proof)
	}{
		{"Sum1", func(p *spartan.Proof) { p.Sum1 = nil }},
		{"Sum2", func(p *spartan.Proof) { p.Sum2 = nil }},
		{"Opening", func(p *spartan.Proof) { p.Opening = nil }},
	} {
		x, proof := provenStatement(t, zkvc.Spartan, 61)
		part.strip(proof.SpartanProof)
		wantVerificationErr(t, "spartan/nil-"+part.name, zkvc.VerifyMatMul(x, proof))
	}
}

// TestSingleRejectsSwappedBackendPayloads: a Groth16 proof presented as
// Spartan (and vice versa) must fail verification, whether the foreign
// payload is attached or missing.
func TestSingleRejectsSwappedBackendPayloads(t *testing.T) {
	x, g16 := provenStatement(t, zkvc.Groth16, 58)
	_, sp := provenStatement(t, zkvc.Spartan, 58)

	// Groth16 proof relabeled as Spartan, no Spartan payload.
	g16.Backend = zkvc.Spartan
	wantVerificationErr(t, "groth16-as-spartan", zkvc.VerifyMatMul(x, g16))
	g16.Backend = zkvc.Groth16

	// Spartan proof relabeled as Groth16, no Groth16 payload.
	sp.Backend = zkvc.Groth16
	wantVerificationErr(t, "spartan-as-groth16", zkvc.VerifyMatMul(x, sp))
	sp.Backend = zkvc.Spartan

	// Payloads swapped wholesale between two proofs of different
	// statements on the same backend.
	x2, spOther := provenStatement(t, zkvc.Spartan, 59)
	sp.SpartanProof, spOther.SpartanProof = spOther.SpartanProof, sp.SpartanProof
	wantVerificationErr(t, "spartan/swapped-payload", zkvc.VerifyMatMul(x, sp))
	wantVerificationErr(t, "spartan/swapped-payload-2", zkvc.VerifyMatMul(x2, spOther))
}

func TestVerifyRejectsNilArguments(t *testing.T) {
	x, proof := provenStatement(t, zkvc.Spartan, 60)
	wantVerificationErr(t, "nil-proof", zkvc.VerifyMatMul(x, nil))
	wantVerificationErr(t, "nil-x", zkvc.VerifyMatMul(nil, proof))
	proof.Y = nil
	wantVerificationErr(t, "nil-y", zkvc.VerifyMatMul(x, proof))
}

// TestRejectsZeroDimensionForgery: with a zero inner dimension the
// matmul circuit never reads Y, so a Groth16 proof for X 2×0 · W 0×3
// verifies against any claimed 2×3 output. The provers refuse such a
// statement and both verifiers reject its forgery. The forged proofs
// are built from the circuit packages directly, as a forger who does
// not use this package's prover would.
func TestRejectsZeroDimensionForgery(t *testing.T) {
	ctx := context.Background()
	x, w := zkvc.NewMatrix(2, 0), zkvc.NewMatrix(0, 3)
	forgedY := zkvc.MatrixFromInt64(2, 3, []int64{1, 2, 3, 4, 5, 6})
	opts := zkvc.DefaultOptions()
	rng := mrand.New(mrand.NewSource(61))
	groth16Proof := func(syn *crpc.Synthesis, err error) (*groth16.Proof, *groth16.VerifyingKey) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		pk, vk, err := groth16.Setup(syn.Sys, rng)
		if err != nil {
			t.Fatal(err)
		}
		proof, err := groth16.Prove(syn.Sys, pk, syn.Assignment, rng)
		if err != nil {
			t.Fatal(err)
		}
		return proof, vk
	}

	for _, backend := range []zkvc.Backend{zkvc.Spartan, zkvc.Groth16} {
		prover := zkvc.NewMatMulProver(backend, opts)
		if _, err := prover.ProveContext(ctx, x, w); err == nil {
			t.Errorf("%v: ProveContext accepted a zero inner dimension", backend)
		}
		if _, err := prover.ProveBatchContext(ctx, [2]*zkvc.Matrix{x, w}); err == nil {
			t.Errorf("%v: ProveBatchContext accepted a zero inner dimension", backend)
		}
	}

	stmt := crpc.NewStatement(x, w)
	single := &zkvc.MatMulProof{Backend: zkvc.Groth16, Opts: opts, Y: forgedY, WCommit: crpc.WCommit(w)}
	single.G16Proof, single.G16VK = groth16Proof(crpc.Synthesize(stmt, opts))

	bs := crpc.NewBatchStatement([2]*zkvc.Matrix{x, w})
	batch := &zkvc.BatchProof{Backend: zkvc.Groth16, Opts: opts, Commit: crpc.BatchCommit(bs.Stmts),
		Shapes: [][3]int{{2, 0, 3}}, Ys: []*zkvc.Matrix{forgedY}}
	batch.G16Proof, batch.G16VK = groth16Proof(crpc.SynthesizeBatch(bs, opts))
	for name, err := range map[string]error{
		"VerifyMatMul":      zkvc.VerifyMatMul(x, single),
		"VerifyMatMulBatch": zkvc.VerifyMatMulBatch([]*zkvc.Matrix{x}, batch),
	} {
		if !errors.Is(err, zkvc.ErrVerification) {
			t.Errorf("%s accepted a forged output for a zero inner dimension (err %v)", name, err)
		}
	}
}
