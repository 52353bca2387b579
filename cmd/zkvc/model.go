package main

// prove-model / verify-model: the end-to-end model workflow on the
// Engine API. prove-model runs a quantized transformer locally (the
// weights are seed-synthesized, so "shipping the model" is shipping its
// captured trace) and proves every traced operation through a
// zkvc.Engine — the remote service client by default, the in-process
// Local engine with -local; the workflow is identical because the two
// share the interface. Per-op proofs stream back as a Go iterator, the
// reassembled report is spot-verified locally and stored in the
// canonical wire format. verify-model submits a stored report to
// /v1/verify/model — which only vouches for reports it issued — or,
// with -local, re-runs cryptographic verification in-process (trusting
// the report's own verifying material, exactly what the service's
// issued-proof policy exists to avoid for third parties).

import (
	"context"
	"flag"
	"fmt"
	mrand "math/rand"
	"os"

	"zkvc"
	"zkvc/internal/nn"
	"zkvc/internal/server"
	"zkvc/internal/wire"
)

// modelByName maps CLI model names to the paper's architectures plus a
// deliberately tiny synthetic config for demos and smoke tests.
func modelByName(name string, scale int) (zkvc.ModelConfig, error) {
	var cfg zkvc.ModelConfig
	switch name {
	case "vit-cifar10":
		cfg = zkvc.ViTCIFAR10()
	case "vit-tiny-imagenet":
		cfg = zkvc.ViTTinyImageNet()
	case "vit-imagenet-hier":
		cfg = zkvc.ViTImageNetHier()
	case "bert-glue":
		cfg = zkvc.BERTGLUE()
	case "cnn-mnist":
		cfg = zkvc.CNNMNIST()
	case "tiny":
		cfg = nn.TinyConfig("tiny", zkvc.MixerSoftmax)
	case "tiny-cnn":
		cfg = nn.TinyCNNConfig("tiny-cnn")
	default:
		return cfg, fmt.Errorf("unknown model %q (want vit-cifar10, vit-tiny-imagenet, vit-imagenet-hier, bert-glue, cnn-mnist, tiny or tiny-cnn)", name)
	}
	if scale > 1 {
		cfg = cfg.Scaled(scale)
	}
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// cmdProveModel drives Engine.ProveModel: capture a forward pass, stream
// per-op proofs back, reassemble and store the report. -local swaps the
// service client for the in-process engine — the only line that changes.
func cmdProveModel(args []string) {
	fs := flag.NewFlagSet("prove-model", flag.ExitOnError)
	serverURL := fs.String("server", "http://localhost:8799", "proving service base URL")
	local := fs.Bool("local", false, "prove in-process (zkvc.NewLocal) instead of against -server")
	async := fs.Bool("async", false,
		"prove through the durable job API (POST /v1/jobs): the stream resumes across reconnects instead of dying with the connection")
	jobTTL := fs.Duration("job-ttl", 0,
		"with -async, ask the server to retain the job's journal at most this long (0 = server default)")
	modelName := fs.String("model", "tiny", "architecture: vit-cifar10, vit-tiny-imagenet, vit-imagenet-hier, bert-glue, cnn-mnist, tiny or tiny-cnn")
	scale := fs.Int("scale", 1, "divide model dims/tokens by this factor (1 = full paper shape)")
	backendName := fs.String("backend", "spartan", "proof system: groth16 or spartan")
	weightSeed := fs.Int64("seed", 42, "model weight synthesis seed")
	inputSeed := fs.Int64("input-seed", 9, "input synthesis seed")
	nonlinear := fs.Bool("nonlinear", true, "prove the SoftMax/GELU gadget circuits too")
	hybrid := fs.Bool("hybrid", false, "use the planner's hybrid token-mixer assignment")
	sgd := fs.Bool("sgd", false,
		"prove one verifiable fine-tuning step (W' = W − lr·∇W on the classification head) instead of plain inference")
	label := fs.Int("label", 0, "with -sgd, the training label of the step")
	lr := fs.Int64("lr", 0,
		"with -sgd, fixed-point learning rate (denominator Scale, e.g. 32 = 0.125 at FracBits 8; 0 = Scale/8)")
	tenant := fs.String("tenant", "", "tenant header; verify-model must present the same value")
	out := fs.String("out", "report.bin", "write the wire-encoded report here")
	fs.Parse(args)

	backend, err := parseBackend(*backendName)
	if err != nil {
		fatalf("prove-model: %v", err)
	}
	cfg, err := modelByName(*modelName, *scale)
	if err != nil {
		fatalf("prove-model: %v", err)
	}
	if *hybrid {
		cfg.Mixers = zkvc.PlanHybrid(cfg)
	}
	model, err := zkvc.NewModel(cfg, *weightSeed)
	if err != nil {
		fatalf("prove-model: %v", err)
	}
	x := model.RandomInput(mrand.New(mrand.NewSource(*inputSeed)))
	var trace zkvc.Trace
	if *sgd {
		rate := *lr
		if rate == 0 {
			rate = cfg.Fixed.Scale() / 8
		}
		step, err := zkvc.TraceSGDStep(model, x, *label, rate)
		if err != nil {
			fatalf("prove-model: %v", err)
		}
		trace = *step.Trace
		fmt.Printf("model %s: one SGD step (label %d, lr %d/%d), %d traced ops, logits %v\n",
			cfg.Name, *label, rate, cfg.Fixed.Scale(), len(trace.Ops), step.Logits.Data)
	} else {
		trace = zkvc.Trace{Capture: true}
		logits := model.Forward(x, &trace)
		fmt.Printf("model %s: %d traced ops, logits %v\n", cfg.Name, len(trace.Ops), logits.Data)
	}

	var eng zkvc.Engine
	switch {
	case *local:
		eng = zkvc.NewLocal(backend, zkvc.DefaultOptions())
	case *async:
		c := server.NewAsyncClient(*serverURL)
		c.Tenant = *tenant
		c.TTL = *jobTTL
		eng = c
	default:
		c := server.NewClient(*serverURL)
		c.Tenant = *tenant
		eng = c
	}
	stream := eng.ProveModel(context.Background(), &zkvc.ModelRequest{
		Backend:        backend,
		ProveNonlinear: *nonlinear,
		Cfg:            cfg,
		Trace:          &trace,
	})
	for op, err := range stream.All() {
		if err != nil {
			fatalf("prove-model: %v", err)
		}
		fmt.Printf("  op %3d %-18s %-7s %6d constraints, prove %v\n",
			op.Seq, op.Tag, op.Kind, op.Stats.Constraints, op.Prove.Round(1e6))
	}
	rep, err := stream.Report()
	if err != nil {
		fatalf("prove-model: %v", err)
	}
	// The prover already self-verified each op; re-check locally so the
	// stored report is known-good under our own verifier too.
	if err := zkvc.NewLocal(backend, rep.Circuit).VerifyModel(context.Background(), rep); err != nil {
		fatalf("prove-model: streamed report does not verify locally: %v", err)
	}
	raw := wire.EncodeReport(rep)
	if err := os.WriteFile(*out, raw, 0o644); err != nil {
		fatalf("prove-model: %v", err)
	}
	fmt.Printf("report OK: %d ops on %s, %d constraints, proofs %d bytes, prove %v → %s (%d bytes)\n",
		len(rep.Ops), rep.Backend, rep.TotalConstraints(), rep.TotalProofBytes(),
		rep.TotalProve().Round(1e6), *out, len(raw))
}

// cmdVerifyModel checks a stored report, by default against the service
// that issued it.
func cmdVerifyModel(args []string) {
	fs := flag.NewFlagSet("verify-model", flag.ExitOnError)
	serverURL := fs.String("server", "http://localhost:8799", "proving service base URL")
	reportPath := fs.String("report", "report.bin", "wire-encoded report path")
	tenant := fs.String("tenant", "", "tenant header the report was issued under")
	local := fs.Bool("local", false,
		"verify in-process instead of asking the service (trusts the report's own verifying material)")
	fs.Parse(args)

	raw, err := os.ReadFile(*reportPath)
	if err != nil {
		fatalf("verify-model: %v", err)
	}
	rep, err := wire.DecodeReport(raw)
	if err != nil {
		fatalf("verify-model: decoding report: %v", err)
	}

	if *local {
		if err := zkvc.NewLocal(rep.Backend, rep.Circuit).VerifyModel(context.Background(), rep); err != nil {
			fatalf("verification FAILED: %v", err)
		}
		fmt.Printf("local verification OK: %s, %d ops on %s (note: Groth16 ops are checked against their embedded keys — trust them only if you trust where this report came from)\n",
			rep.Model, len(rep.Ops), rep.Backend)
		return
	}

	c := server.NewClient(*serverURL)
	c.Tenant = *tenant
	if err := c.VerifyModel(context.Background(), rep); err != nil {
		fatalf("verification FAILED: %v", err)
	}
	fmt.Printf("verification OK: service vouches for %s (%d ops on %s)\n",
		rep.Model, len(rep.Ops), rep.Backend)
}
