package zkvc_test

import (
	"bytes"
	"context"
	mrand "math/rand"
	"testing"

	"zkvc"
	"zkvc/internal/arena"
	"zkvc/internal/wire"
)

// proveSingleAt proves one matmul at the given parallelism with a fixed
// seed and returns the canonical wire encoding (timings zeroed — they
// are wall-clock measurements, not part of the proof).
func proveSingleAt(t *testing.T, backend zkvc.Backend, par int, x, w *zkvc.Matrix) []byte {
	t.Helper()
	zkvc.SetParallelism(par)
	prover := zkvc.NewMatMulProver(backend, zkvc.DefaultOptions())
	prover.Reseed(42)
	proof, err := prover.ProveContext(context.Background(), x, w)
	if err != nil {
		t.Fatalf("parallelism %d: %v", par, err)
	}
	if err := zkvc.VerifyMatMul(x, proof); err != nil {
		t.Fatalf("parallelism %d: proof does not verify: %v", par, err)
	}
	proof.Timings = zkvc.Timings{}
	return wire.EncodeMatMulProof(proof)
}

// TestProveBitIdenticalAcrossParallelism pins the tentpole determinism
// guarantee: the parallel schedules only ever split exact field and
// group arithmetic across disjoint index ranges, so parallelism 1 (the
// sequential reference) and parallelism N must produce byte-identical
// proofs on both backends.
func TestProveBitIdenticalAcrossParallelism(t *testing.T) {
	defer zkvc.SetParallelism(0)
	rng := mrand.New(mrand.NewSource(9))
	x := zkvc.RandomMatrix(rng, 16, 24, 128)
	w := zkvc.RandomMatrix(rng, 24, 32, 128)
	for _, backend := range []zkvc.Backend{zkvc.Spartan, zkvc.Groth16} {
		seq := proveSingleAt(t, backend, 1, x, w)
		for _, par := range []int{2, 4} {
			got := proveSingleAt(t, backend, par, x, w)
			if !bytes.Equal(seq, got) {
				t.Fatalf("%v: proof at parallelism %d differs from sequential (%d vs %d bytes)",
					backend, par, len(got), len(seq))
			}
		}
	}
}

// TestBatchProveBitIdenticalAcrossParallelism is the same cross-check
// for the folded batch path (ProveBatch / VerifyMatMulBatch).
func TestBatchProveBitIdenticalAcrossParallelism(t *testing.T) {
	defer zkvc.SetParallelism(0)
	rng := mrand.New(mrand.NewSource(11))
	var pairs [][2]*zkvc.Matrix
	var xs []*zkvc.Matrix
	for i := 0; i < 4; i++ {
		x := zkvc.RandomMatrix(rng, 8, 12, 64)
		w := zkvc.RandomMatrix(rng, 12, 8, 64)
		pairs = append(pairs, [2]*zkvc.Matrix{x, w})
		xs = append(xs, x)
	}
	proveAt := func(par int) []byte {
		zkvc.SetParallelism(par)
		prover := zkvc.NewMatMulProver(zkvc.Spartan, zkvc.DefaultOptions())
		prover.Reseed(42)
		proof, err := prover.ProveBatchContext(context.Background(), pairs...)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if err := zkvc.VerifyMatMulBatch(xs, proof); err != nil {
			t.Fatalf("parallelism %d: batch does not verify: %v", par, err)
		}
		proof.Timings = zkvc.Timings{}
		return wire.EncodeBatchProof(proof)
	}
	seq := proveAt(1)
	for _, par := range []int{2, 4} {
		if got := proveAt(par); !bytes.Equal(seq, got) {
			t.Fatalf("batch proof at parallelism %d differs from sequential", par)
		}
	}
}

// TestProveBitIdenticalPooledVsUnpooled pins the memory-discipline
// contract of internal/arena end to end: proofs produced with pooled
// scratch buffers must be byte-identical to proofs produced with pooling
// disabled, at parallelism 1, 2 and 4 on both backends. The pooled runs
// additionally poison every buffer returned to the arena with a nonzero
// canary, so any code path that reads pooled memory without the zero-on-
// checkout guarantee corrupts proof bytes loudly instead of silently.
func TestProveBitIdenticalPooledVsUnpooled(t *testing.T) {
	defer zkvc.SetParallelism(0)
	defer arena.SetEnabled(true)
	defer arena.SetPoison(false)
	rng := mrand.New(mrand.NewSource(13))
	x := zkvc.RandomMatrix(rng, 16, 24, 128)
	w := zkvc.RandomMatrix(rng, 24, 32, 128)
	for _, backend := range []zkvc.Backend{zkvc.Spartan, zkvc.Groth16} {
		arena.SetEnabled(false)
		arena.SetPoison(false)
		ref := proveSingleAt(t, backend, 1, x, w)
		arena.SetEnabled(true)
		arena.SetPoison(true)
		for _, par := range []int{1, 2, 4} {
			if got := proveSingleAt(t, backend, par, x, w); !bytes.Equal(ref, got) {
				t.Fatalf("%v: pooled proof at parallelism %d differs from unpooled reference", backend, par)
			}
		}
	}
}

// TestParallelismKnob pins the public knob semantics: explicit values
// stick, and 0 restores the environment-derived default.
func TestParallelismKnob(t *testing.T) {
	defer zkvc.SetParallelism(0)
	zkvc.SetParallelism(3)
	if got := zkvc.Parallelism(); got != 3 {
		t.Fatalf("Parallelism() = %d after SetParallelism(3)", got)
	}
	zkvc.SetParallelism(0)
	if got := zkvc.Parallelism(); got < 1 {
		t.Fatalf("default parallelism %d < 1", got)
	}
}
