package zkvc_test

import (
	"context"
	"errors"
	mrand "math/rand"
	"testing"

	"zkvc"
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
