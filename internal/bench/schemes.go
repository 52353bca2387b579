// Package bench is the experiment harness behind every table and figure
// of the paper's evaluation (§V): the matmul microbenchmarks of Figures 3
// and 6, the CRPC/PSQ ablation of Table II, the capability matrix of
// Table I, and the end-to-end ViT/BERT Tables III and IV. The same
// generators back cmd/zkvc-bench and the testing.B benchmarks in
// bench_test.go. Four files: schemes.go runs one scheme on one matmul,
// figs.go and tables.go assemble the paper's rows from such runs, and
// print.go formats them.
//
// Absolute times come from this module's from-scratch pure-Go backends,
// so they differ from the paper's libsnark/Spartan testbed; the
// reproduced quantity is the *shape* — which scheme wins, by roughly what
// factor, and where the trade-offs (proof size vs verification vs online
// time) fall. The paper's own accuracy columns are carried verbatim in
// tables.go. This package measures the paper's comparison only: speed
// claims about the repository itself go through benchmark/run.sh.
package bench

import (
	"fmt"
	mrand "math/rand"
	"time"

	"zkvc/internal/baselines"
	"zkvc/internal/crpc"
	"zkvc/internal/matrix"
	"zkvc/internal/pcs"
	"zkvc/internal/spartan"
	"zkvc/internal/zkml"
)

// Scheme enumerates the systems compared in Figures 3 and 6.
type Scheme int

const (
	// SchemeGroth16 proves the vanilla (unoptimized) circuit on Groth16.
	SchemeGroth16 Scheme = iota
	// SchemeSpartan proves the vanilla circuit on Spartan.
	SchemeSpartan
	// SchemeVCNN is the vCNN-style polynomial circuit (its conv trick
	// applied to matmul, dummy terms included) on Groth16.
	SchemeVCNN
	// SchemeZEN is the ZEN-style circuit (vanilla constraints plus
	// quantization range checks) on Groth16.
	SchemeZEN
	// SchemeZKML stands in for Kang's halo2-based zkML: the vanilla
	// circuit on our transparent backend (no Plonkish backend exists in
	// this module; the paper's Fig 3/6 place zkML within ~2× of the
	// other vanilla-constraint systems, which this stand-in matches).
	SchemeZKML
	// SchemeZKCNN is the interactive zkCNN baseline: Thaler's one-round
	// matmul sumcheck over a PCS-committed W.
	SchemeZKCNN
	// SchemeZkVCG is this paper: CRPC+PSQ on Groth16.
	SchemeZkVCG
	// SchemeZkVCS is this paper: CRPC+PSQ on Spartan.
	SchemeZkVCS
)

// String names the scheme as in Figure 6's legend.
func (s Scheme) String() string {
	switch s {
	case SchemeGroth16:
		return "groth16"
	case SchemeSpartan:
		return "spartan"
	case SchemeVCNN:
		return "vCNN"
	case SchemeZEN:
		return "ZEN"
	case SchemeZKML:
		return "zkML"
	case SchemeZKCNN:
		return "zkCNN"
	case SchemeZkVCG:
		return "zkVC-G"
	case SchemeZkVCS:
		return "zkVC-S"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// AllSchemes returns the Figure 6 legend order.
func AllSchemes() []Scheme {
	return []Scheme{SchemeGroth16, SchemeSpartan, SchemeVCNN, SchemeZEN,
		SchemeZKML, SchemeZKCNN, SchemeZkVCG, SchemeZkVCS}
}

// Interactive reports whether the scheme needs the verifier online while
// proving (Table I column 2).
func (s Scheme) Interactive() bool { return s == SchemeZKCNN }

// MatMulResult is one scheme × shape measurement.
type MatMulResult struct {
	Scheme Scheme
	Dim    int // Fig 6 x-axis: the embedding dimension b of [49,b/2]×[b/2,b]

	Prove      time.Duration // synthesis + proof generation
	Setup      time.Duration // Groth16 CRS generation (excluded from Prove)
	Verify     time.Duration
	Online     time.Duration // verifier's required online time
	ProofBytes int

	Constraints int
	Variables   int

	// Estimated marks rows extrapolated from a smaller exact run
	// (default mode keeps the heaviest baseline × dimension pairs out of
	// the critical path; -full reruns them exactly).
	Estimated bool
}

// pairingBased reports whether the scheme proves on Groth16.
func pairingBased(s Scheme) bool {
	switch s {
	case SchemeGroth16, SchemeVCNN, SchemeZEN, SchemeZkVCG:
		return true
	}
	return false
}

// RunMatMul measures one scheme on Y = X·W with X ∈ [a×n], W ∈ [n×b].
func RunMatMul(scheme Scheme, a, n, b int, seed int64) (MatMulResult, error) {
	switch scheme {
	case SchemeZKCNN:
		rng := mrand.New(mrand.NewSource(seed))
		x := matrix.Random(rng, a, n, 256)
		w := matrix.Random(rng, n, b, 256)
		return runZKCNN(MatMulResult{Scheme: scheme, Dim: b}, x, w)
	case SchemeZkVCG, SchemeZkVCS:
		return runCircuitScheme(scheme, crpc.Options{CRPC: true, PSQ: true}, a, n, b, seed)
	case SchemeGroth16, SchemeSpartan, SchemeZKML, SchemeVCNN, SchemeZEN:
		return runCircuitScheme(scheme, crpc.Options{}, a, n, b, seed)
	default:
		return MatMulResult{Scheme: scheme, Dim: b}, fmt.Errorf("bench: unknown scheme %v", scheme)
	}
}

// runCircuitScheme synthesizes the scheme's circuit under opts (the
// baselines ignore opts) and proves it on the scheme's backend through
// zkml.ProveSystem, the one backend call. Groth16's setup is timed apart
// from proving.
func runCircuitScheme(scheme Scheme, opts crpc.Options, a, n, b int, seed int64) (MatMulResult, error) {
	rng := mrand.New(mrand.NewSource(seed))
	x := matrix.Random(rng, a, n, 256)
	w := matrix.Random(rng, n, b, 256)
	res := MatMulResult{Scheme: scheme, Dim: b}

	stmt := crpc.NewStatement(x, w)
	var (
		syn *crpc.Synthesis
		err error
	)
	start := time.Now()
	switch scheme {
	case SchemeVCNN:
		syn, err = baselines.SynthesizeVCNN(stmt)
	case SchemeZEN:
		syn, err = baselines.SynthesizeZEN(stmt)
	default:
		syn, err = crpc.Synthesize(stmt, opts)
	}
	if err != nil {
		return res, err
	}
	synthesis := time.Since(start)
	stats := syn.Stats()
	res.Constraints = stats.Constraints
	res.Variables = stats.Variables

	backend := zkml.Spartan
	if pairingBased(scheme) {
		backend = zkml.Groth16
	}
	params := pcs.DefaultParams()
	pay, err := zkml.ProveSystem(backend, syn.Sys, syn.Assignment, params, rng, nil)
	if err != nil {
		return res, err
	}
	res.Setup = pay.Setup
	res.Prove = synthesis + pay.Prove
	res.ProofBytes = pay.SizeBytes()
	start = time.Now()
	if err := pay.Verify(backend, func() spartan.Circuit { return spartan.R1CS(syn.Sys) }, syn.Public, params); err != nil {
		return res, fmt.Errorf("bench: %v self-verify: %w", scheme, err)
	}
	res.Verify = time.Since(start)
	res.Online = res.Verify
	return res, nil
}

// runZKCNN measures the interactive baseline. The W commitment is
// reusable across queries, so it counts as setup; the sumcheck rounds are
// the proof. The verifier must stay online for the whole protocol, so
// online time is prove + verify.
func runZKCNN(res MatMulResult, x, w *matrix.Matrix) (MatMulResult, error) {
	params := pcs.DefaultParams()
	y := matrix.Mul(x, w)

	start := time.Now()
	comm, st, err := baselines.ZKCNNCommit(w, params)
	if err != nil {
		return res, err
	}
	res.Setup = time.Since(start)

	start = time.Now()
	proof, err := baselines.ZKCNNProve(x, w, y, comm, st, params)
	if err != nil {
		return res, err
	}
	res.Prove = time.Since(start)
	res.ProofBytes = proof.SizeBytes()

	start = time.Now()
	if err := baselines.ZKCNNVerify(x, y, proof, params); err != nil {
		return res, fmt.Errorf("bench: zkCNN self-verify: %w", err)
	}
	res.Verify = time.Since(start)
	res.Online = res.Prove + res.Verify
	return res, nil
}

// RunVariant measures an explicit CRPC/PSQ circuit combination on the
// given backend scheme — the Table II ablation entry point for external
// benchmarks.
func RunVariant(opts crpc.Options, backend Scheme, a, n, b int, seed int64) (MatMulResult, error) {
	return runCircuitScheme(backend, opts, a, n, b, seed)
}
