package bench

import (
	"math"
	"time"
)

// RunConfig controls how much of an experiment runs exactly.
type RunConfig struct {
	// Full reruns every (scheme, dimension) pair exactly at the paper's
	// shapes; the default extrapolates the heaviest vanilla-circuit
	// baselines at d ∈ {320, 512} from their exact d = 128 runs (their
	// cost is linear in the constraint count with the row count fixed —
	// see BenchmarkScalingLaw).
	Full bool
	Seed int64
}

// Tokens is the fixed row count of the micro-benchmarks (the paper sets
// #tokens = 49).
const Tokens = 49

// Fig6Dims are the embedding dimensions of Figure 6's sweep.
var Fig6Dims = []int{64, 128, 320, 512}

// fig6Shape returns the matmul shape for an embedding dimension:
// [49, d/2] × [d/2, d].
func fig6Shape(dim int) (a, n, b int) { return Tokens, dim / 2, dim }

// heavyScheme marks the vanilla-constraint systems whose exact runs at
// d ≥ 320 take tens of minutes in pure Go.
func heavyScheme(s Scheme) bool {
	switch s {
	case SchemeGroth16, SchemeSpartan, SchemeVCNN, SchemeZEN, SchemeZKML:
		return true
	}
	return false
}

// Fig3 reproduces Figure 3: proving time for every scheme on the
// [49,64]×[64,128] matmul (embedding dimension 128).
func Fig3(cfg RunConfig) ([]MatMulResult, error) {
	a, n, b := fig6Shape(128)
	out := make([]MatMulResult, 0, len(AllSchemes()))
	for _, s := range AllSchemes() {
		res, err := RunMatMul(s, a, n, b, cfg.Seed)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// Fig6 reproduces Figure 6: prover time, verifier time, proof size and
// online time for every scheme over embedding dimensions 64–512.
func Fig6(cfg RunConfig) ([]MatMulResult, error) {
	var out []MatMulResult
	// Exact d=128 runs anchor the extrapolation of heavy schemes.
	anchor := map[Scheme]MatMulResult{}
	for _, dim := range Fig6Dims {
		a, n, b := fig6Shape(dim)
		for _, s := range AllSchemes() {
			if !cfg.Full && heavyScheme(s) && dim > 128 {
				base, ok := anchor[s]
				if !ok {
					// Dims are ascending, so 128 has already run.
					continue
				}
				out = append(out, extrapolate(base, dim))
				continue
			}
			res, err := RunMatMul(s, a, n, b, cfg.Seed)
			if err != nil {
				return nil, err
			}
			out = append(out, res)
			if dim == 128 {
				anchor[s] = res
			}
		}
	}
	return out, nil
}

// extrapolate scales a heavy scheme's exact d=128 measurement to a larger
// dimension. With the row count fixed at 49, every vanilla-family
// circuit's constraint and wire counts scale by (n·b)_target/(n·b)_128,
// prover cost linearly with them; Groth16 artifacts stay constant while
// the transparent backend's proof/verify scale with √N.
func extrapolate(base MatMulResult, dim int) MatMulResult {
	_, n0, b0 := fig6Shape(base.Dim)
	_, n1, b1 := fig6Shape(dim)
	f := float64(n1*b1) / float64(n0*b0)

	out := base
	out.Dim = dim
	out.Estimated = true
	out.Prove = time.Duration(float64(base.Prove) * f)
	out.Setup = time.Duration(float64(base.Setup) * f)
	out.Constraints = int(float64(base.Constraints) * f)
	out.Variables = int(float64(base.Variables) * f)
	switch base.Scheme {
	case SchemeGroth16, SchemeVCNN, SchemeZEN:
		// constant-size proofs, constant-time verification
	default:
		sq := math.Sqrt(f)
		out.Verify = time.Duration(float64(base.Verify) * sq)
		out.ProofBytes = int(float64(base.ProofBytes) * sq)
	}
	if base.Scheme.Interactive() {
		out.Online = out.Prove + out.Verify
	} else {
		out.Online = out.Verify
	}
	return out
}
