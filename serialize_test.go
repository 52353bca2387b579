package zkvc_test

import (
	"bytes"
	"context"
	"encoding/gob"
	mrand "math/rand"
	"testing"
	"testing/quick"

	"zkvc"
)

// TestProofGobRoundTrip keeps the proof structs gob-compatible for users
// who serialize them ad hoc. The canonical on-disk/over-the-wire format —
// the one cmd/zkvc and the proving service use — is internal/wire, pinned
// by that package's round-trip and fuzz tests.
func TestProofGobRoundTrip(t *testing.T) {
	rng := mrand.New(mrand.NewSource(3))
	x := zkvc.RandomMatrix(rng, 6, 8, 64)
	w := zkvc.RandomMatrix(rng, 8, 4, 64)
	for _, backend := range []zkvc.Backend{zkvc.Spartan, zkvc.Groth16} {
		prover := zkvc.NewMatMulProver(backend, zkvc.DefaultOptions())
		prover.Reseed(9)
		proof, err := prover.ProveContext(context.Background(), x, w)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(proof); err != nil {
			t.Fatalf("%v: encode: %v", backend, err)
		}
		var back zkvc.MatMulProof
		if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
			t.Fatalf("%v: decode: %v", backend, err)
		}
		if err := zkvc.VerifyMatMul(x, &back); err != nil {
			t.Fatalf("%v: decoded proof does not verify: %v", backend, err)
		}
		if back.SizeBytes() != proof.SizeBytes() {
			t.Errorf("%v: size changed across round trip", backend)
		}
	}
}

// TestQuickProveVerifyShapes property: the Spartan path proves and
// verifies random small shapes; a tampered output is always rejected.
func TestQuickProveVerifyShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("proving loop")
	}
	prover := zkvc.NewMatMulProver(zkvc.Spartan, zkvc.DefaultOptions())
	prover.Reseed(11)
	f := func(seed int64, a8, n8, b8 uint8) bool {
		a := int(a8%6) + 1
		n := int(n8%6) + 1
		b := int(b8%6) + 1
		rng := mrand.New(mrand.NewSource(seed))
		x := zkvc.RandomMatrix(rng, a, n, 32)
		w := zkvc.RandomMatrix(rng, n, b, 32)
		proof, err := prover.ProveContext(context.Background(), x, w)
		if err != nil {
			t.Logf("prove %dx%dx%d: %v", a, n, b, err)
			return false
		}
		if err := zkvc.VerifyMatMul(x, proof); err != nil {
			t.Logf("verify %dx%dx%d: %v", a, n, b, err)
			return false
		}
		// Tamper: flip one output entry.
		proof.Y.At(0, 0).SetInt64(1 << 40)
		return zkvc.VerifyMatMul(x, proof) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
