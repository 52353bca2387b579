package wire_test

import (
	"bytes"
	"context"
	"errors"
	mrand "math/rand"
	"testing"

	"zkvc"
	"zkvc/internal/wire"
)

func singleProof(t *testing.T, backend zkvc.Backend, seed int64) (*zkvc.Matrix, *zkvc.MatMulProof) {
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
	return x, proof
}

func batchProof(t *testing.T, backend zkvc.Backend, seed int64) ([]*zkvc.Matrix, *zkvc.BatchProof) {
	t.Helper()
	rng := mrand.New(mrand.NewSource(seed))
	shapes := [][3]int{{3, 5, 4}, {2, 6, 3}}
	var pairs [][2]*zkvc.Matrix
	var xs []*zkvc.Matrix
	for _, sh := range shapes {
		x := zkvc.RandomMatrix(rng, sh[0], sh[1], 64)
		w := zkvc.RandomMatrix(rng, sh[1], sh[2], 64)
		pairs = append(pairs, [2]*zkvc.Matrix{x, w})
		xs = append(xs, x)
	}
	prover := zkvc.NewMatMulProver(backend, zkvc.DefaultOptions())
	prover.Reseed(seed)
	proof, err := prover.ProveBatchContext(context.Background(), pairs...)
	if err != nil {
		t.Fatal(err)
	}
	return xs, proof
}

// TestMatMulProofRoundTrip pins the canonical on-disk/over-the-wire proof
// format: decode(encode(p)) verifies, and re-encoding reproduces the exact
// bytes (the encoding is canonical, not just invertible).
func TestMatMulProofRoundTrip(t *testing.T) {
	for _, backend := range []zkvc.Backend{zkvc.Spartan, zkvc.Groth16} {
		x, proof := singleProof(t, backend, 7)
		raw := wire.EncodeMatMulProof(proof)
		back, err := wire.DecodeMatMulProof(raw)
		if err != nil {
			t.Fatalf("%v: decode: %v", backend, err)
		}
		if err := zkvc.VerifyMatMul(x, back); err != nil {
			t.Fatalf("%v: decoded proof does not verify: %v", backend, err)
		}
		if back.SizeBytes() != proof.SizeBytes() {
			t.Errorf("%v: size changed across round trip", backend)
		}
		if again := wire.EncodeMatMulProof(back); !bytes.Equal(raw, again) {
			t.Errorf("%v: re-encoding is not canonical", backend)
		}
	}
}

func TestBatchProofRoundTrip(t *testing.T) {
	for _, backend := range []zkvc.Backend{zkvc.Spartan, zkvc.Groth16} {
		xs, proof := batchProof(t, backend, 8)
		raw := wire.EncodeBatchProof(proof)
		back, err := wire.DecodeBatchProof(raw)
		if err != nil {
			t.Fatalf("%v: decode: %v", backend, err)
		}
		if err := zkvc.VerifyMatMulBatch(xs, back); err != nil {
			t.Fatalf("%v: decoded batch does not verify: %v", backend, err)
		}
		if again := wire.EncodeBatchProof(back); !bytes.Equal(raw, again) {
			t.Errorf("%v: re-encoding is not canonical", backend)
		}
	}
}

func TestMatrixRoundTrip(t *testing.T) {
	rng := mrand.New(mrand.NewSource(9))
	m := zkvc.RandomMatrix(rng, 7, 3, 1<<30)
	raw := wire.EncodeMatrix(m)
	back, err := wire.DecodeMatrix(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Equal(back) {
		t.Fatal("matrix changed across round trip")
	}
}

func TestServiceMessageRoundTrips(t *testing.T) {
	rng := mrand.New(mrand.NewSource(10))
	x := zkvc.RandomMatrix(rng, 3, 4, 64)
	w := zkvc.RandomMatrix(rng, 4, 2, 64)

	req := &wire.ProveRequest{X: x, W: w}
	back, err := wire.DecodeProveRequest(wire.EncodeProveRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	if !back.X.Equal(x) || !back.W.Equal(w) {
		t.Fatal("prove request changed across round trip")
	}

	xs, batch := batchProof(t, zkvc.Spartan, 11)
	resp := &wire.ProveResponse{Index: 1, Xs: xs, Batch: batch}
	rback, err := wire.DecodeProveResponse(wire.EncodeProveResponse(resp))
	if err != nil {
		t.Fatal(err)
	}
	if rback.Index != 1 || len(rback.Xs) != len(xs) {
		t.Fatal("prove response changed across round trip")
	}
	if err := zkvc.VerifyMatMulBatch(rback.Xs, rback.Batch); err != nil {
		t.Fatal(err)
	}

	px, proof := singleProof(t, zkvc.Spartan, 12)
	vreq := &wire.VerifyRequest{X: px, Proof: proof}
	vback, err := wire.DecodeVerifyRequest(wire.EncodeVerifyRequest(vreq))
	if err != nil {
		t.Fatal(err)
	}
	if err := zkvc.VerifyMatMul(vback.X, vback.Proof); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeRejectsHeaderTampering pins newDec's three header checks by
// name; truncations, trailing bytes and cross-tag decodes of every message
// type are TestStrictDecode's.
func TestDecodeRejectsHeaderTampering(t *testing.T) {
	_, proof := singleProof(t, zkvc.Spartan, 14)
	raw := wire.EncodeMatMulProof(proof)

	bad := append([]byte(nil), raw...)
	bad[0] ^= 0xff // magic
	if _, err := wire.DecodeMatMulProof(bad); !errors.Is(err, wire.ErrDecode) {
		t.Fatalf("bad magic accepted: %v", err)
	}

	bad = append([]byte(nil), raw...)
	bad[4] = 99 // version
	if _, err := wire.DecodeMatMulProof(bad); !errors.Is(err, wire.ErrDecode) {
		t.Fatalf("bad version accepted: %v", err)
	}
}

// TestDecodeRejectsNonCanonicalField: a field element ≥ r must be refused
// even though it would reduce to a valid element.
func TestDecodeRejectsNonCanonicalField(t *testing.T) {
	m := zkvc.NewMatrix(1, 1)
	raw := wire.EncodeMatrix(m)
	// The single entry is the last 32 bytes; overwrite with 2^256−1.
	for i := len(raw) - 32; i < len(raw); i++ {
		raw[i] = 0xff
	}
	if _, err := wire.DecodeMatrix(raw); !errors.Is(err, wire.ErrDecode) {
		t.Fatalf("non-canonical field element accepted: %v", err)
	}
}

// TestDecodeRejectsOffCurvePoint: corrupting a Groth16 point coordinate
// must be caught by the on-curve check, not surface later in pairing code.
func TestDecodeRejectsOffCurvePoint(t *testing.T) {
	_, proof := singleProof(t, zkvc.Groth16, 15)
	raw := wire.EncodeMatMulProof(proof)
	// The last 32 bytes of a Groth16 message are the final IC point's Y
	// coordinate; zeroing them leaves an off-curve point (Y=0 needs X³=−3).
	bad := append([]byte(nil), raw...)
	for i := len(bad) - 32; i < len(bad); i++ {
		bad[i] = 0
	}
	if _, err := wire.DecodeMatMulProof(bad); !errors.Is(err, wire.ErrDecode) {
		t.Fatalf("off-curve point accepted: %v", err)
	}
}

func TestProveBatchRequestRoundTrip(t *testing.T) {
	rng := mrand.New(mrand.NewSource(31))
	x1 := zkvc.RandomMatrix(rng, 4, 6, 64)
	w1 := zkvc.RandomMatrix(rng, 6, 5, 64)
	x2 := zkvc.RandomMatrix(rng, 3, 2, 64)
	w2 := zkvc.RandomMatrix(rng, 2, 7, 64)
	req := &wire.ProveBatchRequest{Pairs: [][2]*zkvc.Matrix{{x1, w1}, {x2, w2}}}
	raw := wire.EncodeProveBatchRequest(req)
	got, err := wire.DecodeProveBatchRequest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Pairs) != 2 || !got.Pairs[0][0].Equal(x1) || !got.Pairs[1][1].Equal(w2) {
		t.Fatal("round trip lost pairs")
	}
	if !bytes.Equal(wire.EncodeProveBatchRequest(got), raw) {
		t.Fatal("re-encode is not canonical")
	}

	// Empty batches and mismatched inner dimensions are rejected.
	if _, err := wire.DecodeProveBatchRequest(wire.EncodeProveBatchRequest(&wire.ProveBatchRequest{})); err == nil {
		t.Fatal("empty batch accepted")
	}
	bad := &wire.ProveBatchRequest{Pairs: [][2]*zkvc.Matrix{{x1, w2}}} // 6 vs 2 inner
	if _, err := wire.DecodeProveBatchRequest(wire.EncodeProveBatchRequest(bad)); err == nil {
		t.Fatal("mismatched inner dimensions accepted")
	}
}
