// Verifiable CNN inference and fine-tuning: run the MNIST-scale CNN
// (two 3×3 conv layers, each pooled and GELU-activated, on a 1×28×28
// input), capture its forward pass, and prove every operation. Each
// convolution is lowered to an im2col matmul inside the trace — the
// expansion is deterministic and part of the attested statement, so the
// circuit compiler proves it with the same CRPC+PSQ circuits as a
// transformer matmul and identical conv layers share one Groth16 CRS.
//
// The second half proves one SGD fine-tuning step: the forward pass,
// the loss softmax, the gradient matmul and the weight update
// W' = W − lr·∇W are all recorded in one trace, proved and verified
// through the unchanged model pipeline — nothing downstream knows it
// was a training step.
//
//	go run ./examples/mnist-cnn
package main

import (
	"context"
	"fmt"
	"log"
	mrand "math/rand"

	"zkvc"
)

func main() {
	ctx := context.Background()

	cfg := zkvc.CNNMNIST()
	model, err := zkvc.NewModel(cfg, 42)
	if err != nil {
		log.Fatal(err)
	}
	x := zkvc.RandomInput(model, mrand.New(mrand.NewSource(9)))
	trace := zkvc.Trace{Capture: true}
	logits := model.Forward(x, &trace)
	fmt.Printf("model %s traced %d operations, logits: %v\n", cfg.Name, len(trace.Ops), logits.Data)
	for _, op := range trace.Ops {
		if op.MatMulFLOPs() > 0 {
			fmt.Printf("  %-8s %-6s lowered to [%d×%d]·[%d×%d], %d FLOPs\n",
				op.Tag, op.Kind, op.A, op.N, op.N, op.B, op.MatMulFLOPs())
		}
	}

	// Prove the inference through the Engine interface (swap in
	// server.NewClient or cluster.NewEngine for the remote spellings —
	// the CNN trace flows through /v1/prove/model unchanged).
	eng := zkvc.NewLocal(zkvc.Spartan, zkvc.DefaultOptions())
	rep, err := eng.ProveModel(ctx, &zkvc.ModelRequest{
		Backend: zkvc.Spartan, Cfg: cfg, Trace: &trace,
	}).Report()
	if err != nil {
		log.Fatal(err)
	}
	if err := eng.VerifyModel(ctx, rep); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("inference verified: %d ops, %d constraints, proofs %d bytes, prove %v\n",
		len(rep.Ops), rep.TotalConstraints(), rep.TotalProofBytes(), rep.TotalProve().Round(1e6))

	// One verifiable fine-tuning step on the classification head:
	// lr = Scale/8 ≈ 0.125 in fixed point.
	step, err := zkvc.TraceSGDStep(model, x, 3, cfg.Fixed.Scale()/8)
	if err != nil {
		log.Fatal(err)
	}
	moved := 0
	for i := range step.NewHead.Data {
		if step.NewHead.Data[i] != model.Head.Data[i] {
			moved++
		}
	}
	fmt.Printf("SGD step traced %d operations, %d/%d head weights moved\n",
		len(step.Trace.Ops), moved, len(step.NewHead.Data))

	srep, err := eng.ProveModel(ctx, &zkvc.ModelRequest{
		Backend: zkvc.Spartan, ProveNonlinear: true, Cfg: cfg, Trace: step.Trace,
	}).Report()
	if err != nil {
		log.Fatal(err)
	}
	if err := eng.VerifyModel(ctx, srep); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fine-tuning step verified: %d ops, proofs %d bytes, prove %v\n",
		len(srep.Ops), srep.TotalProofBytes(), srep.TotalProve().Round(1e6))

	// Adopt the step. The next trace proves against the updated head.
	model.Head = step.NewHead
	fmt.Println("updated head adopted — the proved update is now the serving model")
}
