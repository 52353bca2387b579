package server_test

import (
	"context"
	"errors"
	mrand "math/rand"
	"testing"

	"zkvc"
	"zkvc/internal/nn"
	"zkvc/internal/server"
)

// TestClientRoundTrips drives every Client method against a live
// service: the typed client must reproduce exactly what the hand-rolled
// HTTP of the CLI used to do, including tenant headers and verdict
// folding.
func TestClientRoundTrips(t *testing.T) {
	ctx := context.Background()
	cfg := server.DefaultConfig()
	cfg.Seed = 19
	_, ts := newTestServer(t, cfg)

	c := server.NewClient(ts.URL)
	c.Tenant = "client-test"
	if err := c.Healthz(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}

	rng := mrand.New(mrand.NewSource(7))
	x := zkvc.RandomMatrix(rng, 6, 8, 32)
	w := zkvc.RandomMatrix(rng, 8, 5, 32)

	resp, err := c.ProveCoalesced(ctx, x, w)
	if err != nil {
		t.Fatalf("prove: %v", err)
	}
	if err := zkvc.VerifyMatMulBatch(resp.Xs, resp.Batch); err != nil {
		t.Fatalf("batch does not verify locally: %v", err)
	}
	if err := c.VerifyResponse(ctx, resp); err != nil {
		t.Fatalf("service rejected its own batch: %v", err)
	}

	// The Engine-shape direct endpoints round-trip too.
	direct, err := c.ProveMatMul(ctx, x, w)
	if err != nil {
		t.Fatalf("prove matmul: %v", err)
	}
	if err := c.VerifyMatMul(ctx, x, direct); err != nil {
		t.Fatalf("service rejected its own direct proof: %v", err)
	}
	// A proof that fails its check must come back as a verification
	// error carrying the service's reason, not a transport error.
	tampered := *direct
	tampered.Y = zkvc.MatMul(x, zkvc.RandomMatrix(rng, 8, 5, 32))
	if err := c.VerifyMatMul(ctx, x, &tampered); !errors.Is(err, zkvc.ErrVerification) {
		t.Fatalf("tampered proof: got %v, want ErrVerification", err)
	}
	batch, err := c.ProveBatch(ctx, [][2]*zkvc.Matrix{{x, w}, {x, w}})
	if err != nil {
		t.Fatalf("prove batch: %v", err)
	}
	if err := c.VerifyBatch(ctx, []*zkvc.Matrix{x, x}, batch); err != nil {
		t.Fatalf("service rejected its own direct batch: %v", err)
	}

	mcfg := tinyModelConfig(nn.MixerPooling)
	trace := capturedTrace(t, mcfg, 23)
	seen := 0
	stream := c.ProveModel(ctx, &zkvc.ModelRequest{
		Backend: zkvc.Spartan, ProveNonlinear: true, Cfg: mcfg, Trace: trace,
	})
	for _, err := range stream.All() {
		if err != nil {
			t.Fatalf("prove model: %v", err)
		}
		seen++
	}
	rep, err := stream.Report()
	if err != nil {
		t.Fatalf("prove model report: %v", err)
	}
	if seen != len(rep.Ops) {
		t.Fatalf("stream yielded %d frames, report has %d ops", seen, len(rep.Ops))
	}
	if err := c.VerifyModel(ctx, rep); err != nil {
		t.Fatalf("service rejected its own report: %v", err)
	}
	// The tenant header must travel with every request: the same report
	// under a different tenant misses the issued-log attestation.
	other := server.NewClient(ts.URL)
	other.Tenant = "someone-else"
	if err := other.VerifyModel(ctx, rep); !errors.Is(err, zkvc.ErrVerification) {
		t.Fatalf("cross-tenant verify: got %v, want ErrVerification", err)
	}

	snap, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if snap.ModelJobsProved != 1 || snap.MatMulsProved != 1 || snap.DirectBatchesProved != 1 {
		t.Fatalf("metrics don't reflect the session: %+v", snap)
	}

	// Malformed body → *StatusError with the service's status code.
	var se *server.StatusError
	if _, err := c.ProveCoalesced(ctx, x, zkvc.NewMatrix(3, 3)); !errors.As(err, &se) || se.Code != 400 {
		t.Fatalf("mismatched dims: got %v, want StatusError 400", err)
	}
}
