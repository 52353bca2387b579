// BERT token-mixer study (the paper's Table IV): prove a scaled-down
// BERT encoder end to end through the proving service's model endpoint,
// then compare the estimated proving cost of the four token-mixer
// variants — full SoftMax attention, scaling attention, linear mixing,
// and the planner's zkVC hybrid — on both backends at the paper's full
// architectural shapes (4 layers / 4 heads / dim 256 / 128 tokens),
// using the harness's measure-and-extrapolate path.
//
//	go run ./examples/bert-glue
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
	bert := zkvc.BERTGLUE()
	n := bert.TotalBlocks()

	// Part 1 — exact service-proven inference at a tractable scale: the
	// hybrid BERT, scaled 8× down, proven operation by operation through
	// Engine.ProveModel and attested back via Engine.VerifyModel.
	small := bert.Scaled(8)
	small.Mixers = zkvc.PlanHybrid(small)
	model, err := zkvc.NewModel(small, 7)
	if err != nil {
		log.Fatal(err)
	}
	trace := zkvc.Trace{Capture: true}
	model.Forward(zkvc.RandomInput(model, mrand.New(mrand.NewSource(2))), &trace)

	svc, err := server.New(server.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	eng := server.NewClient(ts.URL)

	report, err := eng.ProveModel(ctx, &zkvc.ModelRequest{
		Backend: zkvc.Spartan, ProveNonlinear: true, Cfg: small, Trace: &trace,
	}).Report()
	if err != nil {
		log.Fatal(err)
	}
	if err := eng.VerifyModel(ctx, report); err != nil {
		log.Fatalf("/v1/verify/model rejected the report: %v", err)
	}
	fmt.Printf("service proved %s end to end: %d ops, %d constraints, prove %.2fs, report attested\n\n",
		small.Name, len(report.Ops), report.TotalConstraints(), report.TotalProve().Seconds())

	// Part 2 — the Table IV comparison at full shapes (estimated).
	variants := []struct {
		label  string
		mixers []zkvc.Mixer
	}{
		{"SoftApprox.", zkvc.UniformMixers(n, zkvc.MixerSoftmax)},
		{"SoftFree-S", zkvc.UniformMixers(n, zkvc.MixerScaling)},
		{"SoftFree-L", zkvc.UniformMixers(n, zkvc.MixerLinear)},
		{"zkVC (hybrid)", zkvc.PlanHybrid(bert)},
	}

	fmt.Println("BERT 4L/4H/256, seq 128 — estimated end-to-end proving on this machine")
	fmt.Printf("%-14s %12s %12s %14s\n", "model", "P_G (s)", "P_S (s)", "wires")
	var base float64
	for i, v := range variants {
		cfg := bert.WithMixers(v.mixers)

		optsG := zkvc.DefaultInferenceOptions()
		optsG.Backend = zkvc.Groth16
		estG, err := zkvc.EstimateInference(cfg, optsG)
		if err != nil {
			log.Fatal(err)
		}
		optsS := zkvc.DefaultInferenceOptions()
		estS, err := zkvc.EstimateInference(cfg, optsS)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s %12.1f %12.1f %14.3g", v.label, estG.ProveSeconds, estS.ProveSeconds, estG.Wires)
		if i == 0 {
			base = estG.ProveSeconds
			fmt.Println()
		} else {
			fmt.Printf("   (%.0f%% of SoftApprox.)\n", 100*estG.ProveSeconds/base)
		}
	}
	fmt.Println("\nmixers chosen by the planner:", zkvc.PlanHybrid(bert))
	fmt.Println("(accuracy columns cannot be re-measured here; the paper's are printed by `go run ./cmd/zkvc-bench -table 4`)")
}
