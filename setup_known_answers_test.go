package zkvc_test

import (
	"crypto/sha256"
	"encoding/hex"
	mrand "math/rand"
	"testing"

	"zkvc"
	"zkvc/internal/wire"
)

// TestEpochProofKnownAnswers pins SHA-256 over the wire encoding of one
// seeded epoch proof per backend (Setup + ProveWithCRS), timings zeroed.
// The digests were computed before the matmul prover and the model-op
// prover were merged onto one backend call: a mismatch means a CRS or
// proof byte moved. Never regenerate them to make a change pass.
func TestEpochProofKnownAnswers(t *testing.T) {
	rng := mrand.New(mrand.NewSource(113))
	x := zkvc.RandomMatrix(rng, 3, 5, 64)
	w := zkvc.RandomMatrix(rng, 5, 4, 64)
	for _, tc := range []struct {
		backend zkvc.Backend
		want    string
	}{
		{zkvc.Groth16, "e7b485079eddec8353c911cc3194922b74fbbfce713274f84aeab8ae6f70f6f2"},
		{zkvc.Spartan, "65a98ea68facdb822f370a26263b4de0990cc9d0510bea61730e6c6172dd757a"},
	} {
		prover := zkvc.NewMatMulProver(tc.backend, zkvc.DefaultOptions())
		prover.Reseed(127)
		crs, err := prover.Setup(3, 5, 4, []byte("known-answer-epoch"))
		if err != nil {
			t.Fatal(err)
		}
		proof, err := prover.ProveWithCRS(crs, x, w)
		if err != nil {
			t.Fatal(err)
		}
		if err := crs.Verify(x, proof); err != nil {
			t.Fatalf("%v: %v", tc.backend, err)
		}
		proof.Timings = zkvc.Timings{}
		sum := sha256.Sum256(wire.EncodeMatMulProof(proof))
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%v epoch proof: %s, want %s", tc.backend, got, tc.want)
		}
	}
}
