package zkvc_test

import (
	"context"
	"fmt"
	mrand "math/rand"

	"zkvc"
)

// ExampleNewMatMulProver proves one private-weight matrix product and
// verifies it — the library's core loop.
func ExampleNewMatMulProver() {
	rng := mrand.New(mrand.NewSource(1))
	x := zkvc.RandomMatrix(rng, 4, 8, 64) // public input
	w := zkvc.RandomMatrix(rng, 8, 6, 64) // private weights

	prover := zkvc.NewMatMulProver(zkvc.Spartan, zkvc.DefaultOptions())
	proof, err := prover.ProveContext(context.Background(), x, w)
	if err != nil {
		panic(err)
	}
	fmt.Println("backend:", proof.Backend)
	fmt.Println("circuit:", proof.Opts)
	fmt.Println("verified:", zkvc.VerifyMatMul(x, proof) == nil)
	// Output:
	// backend: zkVC-S
	// circuit: CRPC+PSQ
	// verified: true
}

// ExampleMatMulProver_ProveBatchContext folds several products into one
// proof.
func ExampleMatMulProver_ProveBatchContext() {
	rng := mrand.New(mrand.NewSource(2))
	var pairs [][2]*zkvc.Matrix
	var xs []*zkvc.Matrix
	for i := 0; i < 3; i++ {
		x := zkvc.RandomMatrix(rng, 4, 4, 32)
		w := zkvc.RandomMatrix(rng, 4, 4, 32)
		pairs = append(pairs, [2]*zkvc.Matrix{x, w})
		xs = append(xs, x)
	}
	prover := zkvc.NewMatMulProver(zkvc.Spartan, zkvc.DefaultOptions())
	proof, err := prover.ProveBatchContext(context.Background(), pairs...)
	if err != nil {
		panic(err)
	}
	fmt.Println("products:", len(proof.Ys))
	fmt.Println("verified:", zkvc.VerifyMatMulBatch(xs, proof) == nil)
	// Output:
	// products: 3
	// verified: true
}

// ExamplePlanHybrid shows the planner assigning mixers to a hierarchical
// vision transformer: cheap mixers where token sequences are long,
// attention where they are short.
func ExamplePlanHybrid() {
	cfg := zkvc.ViTImageNetHier()
	mixers := zkvc.PlanHybrid(cfg)
	fmt.Println("blocks:", len(mixers))
	fmt.Println("first (3136 tokens):", mixers[0])
	fmt.Println("last  (49 tokens):  ", mixers[len(mixers)-1])
	// Output:
	// blocks: 12
	// first (3136 tokens): SoftFree-S
	// last  (49 tokens):   SoftApprox
}
