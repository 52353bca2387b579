package groth16

import (
	"errors"
	mrand "math/rand"
	"testing"

	"zkvc/internal/curve"
	"zkvc/internal/ff"
)

// batchFixture proves n paper-circuit instances under one shared key
// plus one instance under a second key, so the batch both groups entries
// by key and keeps keys apart. (A model report gives every op its own
// key: its CRPC challenges are drawn per statement.)
func batchFixture(t *testing.T, n int) []BatchEntry {
	t.Helper()
	rng := mrand.New(mrand.NewSource(400))
	entries := make([]BatchEntry, 0, n+1)

	sys, _, _ := paperCircuit(3, 4, 5)
	pk, vk, err := Setup(sys, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		_, z, pub := paperCircuit(3+int64(i), 4, 5)
		proof, err := Prove(sys, pk, z, rng)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, BatchEntry{VK: vk, Proof: proof, Public: pub})
	}

	sys2, z2, pub2 := paperCircuit(7, 8, 9)
	pk2, vk2, err := Setup(sys2, rng)
	if err != nil {
		t.Fatal(err)
	}
	proof2, err := Prove(sys2, pk2, z2, rng)
	if err != nil {
		t.Fatal(err)
	}
	return append(entries, BatchEntry{VK: vk2, Proof: proof2, Public: pub2})
}

func batchWeights(n int) []ff.Fr {
	w := make([]ff.Fr, n)
	for i := range w {
		w[i] = fr(int64(1000 + 37*i))
	}
	return w
}

func TestVerifyBatchAccepts(t *testing.T) {
	entries := batchFixture(t, 3)
	if err := VerifyBatch(entries, batchWeights(len(entries))); err != nil {
		t.Fatalf("valid batch rejected: %v", err)
	}
}

// One batched check must cost one final exponentiation — the k→1
// pairing reduction zkml.VerifyReport is built on for Groth16 reports.
func TestVerifyBatchRunsOneFinalExponentiation(t *testing.T) {
	entries := batchFixture(t, 3)
	weights := batchWeights(len(entries))
	_, fe0 := curve.PairingCounts()
	if err := VerifyBatch(entries, weights); err != nil {
		t.Fatal(err)
	}
	if _, fe1 := curve.PairingCounts(); fe1-fe0 != 1 {
		t.Fatalf("batch of %d ran %d final exponentiations, want 1", len(entries), fe1-fe0)
	}
}

func TestVerifyBatchRejectsSingleCorruptedProof(t *testing.T) {
	entries := batchFixture(t, 3)
	// Corrupt exactly one proof, a valid group element so only the RLC
	// identity — not a decode-stage subgroup check — can catch it.
	forged := *entries[1].Proof
	forged.A.Neg(&entries[1].Proof.A)
	entries[1].Proof = &forged
	err := VerifyBatch(entries, batchWeights(len(entries)))
	if !errors.Is(err, ErrInvalidProof) {
		t.Fatalf("batch with one corrupted proof: got %v, want ErrInvalidProof", err)
	}
}

func TestVerifyBatchRejectsWrongPublic(t *testing.T) {
	entries := batchFixture(t, 2)
	bad := make([]ff.Fr, len(entries[0].Public))
	copy(bad, entries[0].Public)
	bad[len(bad)-1] = fr(73)
	entries[0].Public = bad
	if err := VerifyBatch(entries, batchWeights(len(entries))); err == nil {
		t.Fatal("batch accepted a wrong public input")
	}
}

func TestVerifyBatchRejectsZeroWeight(t *testing.T) {
	entries := batchFixture(t, 1)
	weights := batchWeights(len(entries))
	weights[0] = ff.Fr{} // would silently drop entry 0 from the check
	if err := VerifyBatch(entries, weights); err == nil {
		t.Fatal("batch accepted a zero weight")
	}
	if err := VerifyBatch(nil, nil); err == nil {
		t.Fatal("empty batch accepted")
	}
}
