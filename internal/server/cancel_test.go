package server_test

// Cancellation semantics of the service's model pipeline, driven
// through the Engine client: canceling the request context mid-job must
// abort the HTTP stream, stop the server from issuing new ops, and land
// in model_jobs_canceled — never prove_errors, which operators alert on
// as a proving-fault signal. This is the regression test for the ctx
// path specifically; the legacy Stop-channel path (a failed stream
// write) is covered by TestStalledStreamReaderDoesNotWedgeWorker.
//
// The scenario is inherently a race: the cancel fires after the first
// streamed op, and on a fast machine a small job can finish before the
// cancellation propagates. Losing that race proves nothing (the job
// legitimately completed), so the test retries with a fresh server and
// only fails if cancellation never wins — whenever it does win, the
// metric assertions are hard.

import (
	"context"
	"errors"
	"testing"
	"time"

	"zkvc"
	"zkvc/internal/server"
)

// cancelAttempts bounds the retries before declaring the scenario
// unbuildable on this machine.
const cancelAttempts = 3

// runModelCancelScenario proves a ~50-op model through a fresh server, cancels the context after the first streamed
// op, and reports whether cancellation won the race. When it wins, the
// taxonomy assertions run: the stream error matches context.Canceled,
// the job lands in model_jobs_canceled with prove_errors untouched, and
// the pipeline stopped short of the full plan.
func runModelCancelScenario(t *testing.T, seed int64) bool {
	t.Helper()
	cfg := server.DefaultConfig()
	cfg.Seed = seed
	s, ts := newTestServer(t, cfg)

	mcfg := zkvc.ViTCIFAR10().Scaled(16)
	if err := mcfg.Validate(); err != nil {
		t.Fatal(err)
	}
	trace := capturedTrace(t, mcfg, seed+1)

	eng := server.NewClient(ts.URL)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stream := eng.ProveModel(ctx, &zkvc.ModelRequest{
		Backend: zkvc.Spartan, ProveNonlinear: true, Cfg: mcfg, Trace: trace,
	})
	var streamErr error
	streamed := 0
	for _, err := range stream.All() {
		if err != nil {
			streamErr = err
			break
		}
		streamed++
		// One proof in hand: the job is mid-pipeline. Kill the context.
		cancel()
	}
	if streamed == 0 {
		t.Fatalf("stream ended before any op arrived: %v", streamErr)
	}
	if streamErr == nil {
		// The whole stream arrived before the cancel took effect —
		// inconclusive, retry.
		return false
	}
	// The client-side stream must surface the cancellation as ctx's
	// error (the HTTP exchange was aborted), not dress it up as a
	// server fault.
	if !errors.Is(streamErr, context.Canceled) {
		t.Fatalf("canceled stream returned %v, want context.Canceled", streamErr)
	}
	if _, err := stream.Report(); err == nil {
		t.Fatal("Report succeeded on a canceled stream")
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		snap := s.Metrics()
		if snap.ModelJobsProved > 0 {
			// The server finished proving even though the client's read
			// aborted — inconclusive for the ctx path, retry.
			return false
		}
		if snap.ModelJobsCanceled == 1 {
			if snap.ProveErrors != 0 {
				t.Fatalf("ctx cancel polluted prove_errors: %+v", snap)
			}
			// Cancellation stopped new ops from starting.
			if snap.ModelOpsProved >= int64(len(trace.Ops)) {
				t.Fatalf("all %d ops proved despite cancellation", snap.ModelOpsProved)
			}
			return true
		}
		if time.Now().After(deadline) {
			t.Fatalf("cancellation never landed in model_jobs_canceled: %+v", snap)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestRequestContextCancelCountsAsCanceledNotProveError(t *testing.T) {
	for attempt := 0; attempt < cancelAttempts; attempt++ {
		if runModelCancelScenario(t, 43+int64(attempt)) {
			return
		}
	}
	t.Fatalf("job completed before cancellation in all %d attempts — model too small for this machine", cancelAttempts)
}
