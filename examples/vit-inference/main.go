// Verifiable ViT inference as a service workload: run a (scaled-down)
// CIFAR-10 vision transformer, capture its forward pass, and have the
// concurrent proving service prove every operation — matmuls through
// CRPC+PSQ, SoftMax and GELU through the §III-C gadget circuits —
// streaming each proof back the moment it finishes. The stream is a
// plain Go iterator on the Engine interface (the same loop works
// against zkvc.NewLocal or cluster.NewEngine); the reassembled report
// is then checked two ways: by the service (/v1/verify/model, which
// vouches only for reports it issued) and locally, exactly as the
// paper's Table III measures end to end.
//
// The full paper shapes are estimated at the end via the same
// measure-and-extrapolate path the benchmark harness uses.
//
//	go run ./examples/vit-inference
package main

import (
	"context"
	"fmt"
	"log"
	mrand "math/rand"
	"net/http/httptest"

	"zkvc"
	"zkvc/internal/server"
)

func main() {
	ctx := context.Background()

	// The paper's CIFAR-10 architecture (7 layers / 4 heads / dim 256 /
	// 64 tokens), scaled 16× down so exact end-to-end proving finishes in
	// seconds on a laptop.
	cfg := zkvc.ViTCIFAR10().Scaled(16)

	// The paper's hybrid: the planner keeps SoftMax attention only where
	// it pays (later, shorter-sequence layers).
	cfg.Mixers = zkvc.PlanHybrid(cfg)
	fmt.Printf("model %s, planner mixers: %v\n", cfg.Name, cfg.Mixers)

	model, err := zkvc.NewModel(cfg, 42)
	if err != nil {
		log.Fatal(err)
	}
	x := zkvc.RandomInput(model, mrand.New(mrand.NewSource(9)))
	trace := zkvc.Trace{Capture: true}
	logits := model.Forward(x, &trace)
	fmt.Printf("forward pass traced %d operations, logits: %v\n", len(trace.Ops), logits.Data)

	// An in-process proving service — the same one `zkvc serve` runs —
	// reached through the Engine interface.
	svc, err := server.New(server.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	eng := server.NewClient(ts.URL)

	// Stream per-op proofs as they finish (independent ops prove
	// concurrently server-side, so frames arrive in completion order).
	stream := eng.ProveModel(ctx, &zkvc.ModelRequest{
		Backend:        zkvc.Spartan,
		ProveNonlinear: true,
		Cfg:            cfg,
		Trace:          &trace,
	})
	streamed := 0
	for op, err := range stream.All() {
		if err != nil {
			log.Fatal(err)
		}
		streamed++
		if streamed <= 3 {
			fmt.Printf("  streamed op %d (%s, %v): %d constraints\n",
				op.Seq, op.Tag, op.Kind, op.Stats.Constraints)
		}
	}
	report, err := stream.Report()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("service streamed %d op proofs (%d constraints total, %d proof bytes, prove %.2fs)\n",
		streamed, report.TotalConstraints(), report.TotalProofBytes(), report.TotalProve().Seconds())

	// Ask the service for its verdict, then re-verify locally: the same
	// check, run where the report was issued and where it is consumed.
	if err := eng.VerifyModel(ctx, report); err != nil {
		log.Fatalf("/v1/verify/model rejected the report: %v", err)
	}
	if err := zkvc.NewLocal(zkvc.Spartan, report.Circuit).VerifyModel(ctx, report); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("report verified by the service and locally (verify %.3fs)\n",
		report.TotalVerify().Seconds())

	// Estimate the full (unscaled) paper shape on this machine.
	full := zkvc.ViTCIFAR10()
	full.Mixers = zkvc.PlanHybrid(full)
	est, err := zkvc.EstimateInference(full, zkvc.DefaultInferenceOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("full CIFAR-10 shape estimate (zkVC hybrid, Spartan): prove %.0fs, %.1f MB proofs, %.2g wires\n",
		est.ProveSeconds, est.ProofBytes/1e6, est.Wires)
}
