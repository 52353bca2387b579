package zkvc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	mrand "math/rand"
	"time"

	"zkvc/internal/crpc"
	"zkvc/internal/ff"
	"zkvc/internal/gadgets"
	"zkvc/internal/groth16"
	"zkvc/internal/matrix"
	"zkvc/internal/parallel"
	"zkvc/internal/pcs"
	"zkvc/internal/randutil"
	"zkvc/internal/spartan"
	"zkvc/internal/zkml"
)

// SetParallelism bounds the process-wide worker budget every hot loop in
// the prover stack draws from (MLE folding, sumcheck rounds, Merkle
// hashing, MSMs, NTTs, matmul). n <= 0 restores the default: the
// ZKVC_PARALLELISM environment variable when set, else GOMAXPROCS. The
// budget is shared with the proving service's job pool, so per-proof
// parallelism and cross-request concurrency never oversubscribe the
// machine. Proofs are byte-identical at every parallelism level; 1 is
// the fully sequential reference schedule.
func SetParallelism(n int) { parallel.SetDefaultSize(n) }

// Parallelism reports the current process-wide worker budget.
func Parallelism() int { return parallel.DefaultSize() }

// Backend selects the proof system. It is an alias of the internal
// compiler's backend type, so the matmul API and the model-proving API
// (internal/zkml) share one enum instead of mirroring each other.
type Backend = zkml.Backend

const (
	// Groth16 is the pairing-based backend: constant 192-byte proofs,
	// millisecond verification, circuit-specific trusted setup ("zkVC-G").
	Groth16 = zkml.Groth16
	// Spartan is the transparent backend: no trusted setup, larger proofs,
	// sumcheck + hash-based polynomial commitment ("zkVC-S").
	Spartan = zkml.Spartan
)

// Matrix re-exports the dense field matrix used throughout the API.
type Matrix = matrix.Matrix

// Options selects the paper's circuit optimizations. DefaultOptions turns
// both on; the zero value is the unoptimized baseline circuit.
type Options = crpc.Options

// DefaultOptions enables CRPC and PSQ (the full zkVC configuration).
func DefaultOptions() Options { return Options{CRPC: true, PSQ: true} }

// NewMatrix returns a zero matrix.
func NewMatrix(rows, cols int) *Matrix { return matrix.New(rows, cols) }

// RandomMatrix fills a matrix with signed integers in [−bound, bound],
// the shape of quantized neural-network tensors.
func RandomMatrix(rng *mrand.Rand, rows, cols int, bound int64) *Matrix {
	return matrix.Random(rng, rows, cols, bound)
}

// MatMul returns x·w over the scalar field.
func MatMul(x, w *Matrix) *Matrix { return matrix.Mul(x, w) }

// Timings breaks an end-to-end proof into its phases. Setup is the
// Groth16 CRS generation (zero for Spartan); the paper's proving-time
// numbers correspond to Synthesis + Prove.
type Timings struct {
	Synthesis time.Duration
	Setup     time.Duration
	Prove     time.Duration
}

// MatMulProof is a verifiable statement "Y = X·W for the W committed in
// WCommit", carrying everything the verifier needs beyond the public X.
//
// Epoch is empty for proofs whose CRPC challenge was derived per-statement
// (ProveContext). Proofs produced against a cached per-shape CRS (ProveWithCRS)
// record the epoch label instead, and the verifier re-derives the shared
// challenge from it.
type MatMulProof struct {
	Backend Backend
	Opts    Options
	Y       *Matrix
	WCommit []byte
	Epoch   []byte

	G16Proof *groth16.Proof
	G16VK    *groth16.VerifyingKey

	SpartanProof *spartan.Proof

	Timings Timings
}

// SizeBytes reports the wire size of the backend proof object (excluding
// the public Y, which the server sends anyway as the inference result).
func (p *MatMulProof) SizeBytes() int { return p.payload().SizeBytes() }

func (p *MatMulProof) payload() *zkml.Payload {
	return &zkml.Payload{G16: p.G16Proof, G16VK: p.G16VK, Spartan: p.SpartanProof}
}

// MatMulProver proves matrix products against a chosen backend.
//
// For the Groth16 backend each distinct (shape, Z) pair needs a CRS; this
// implementation regenerates it inside ProveContext and reports the cost
// separately in Timings.Setup (in a deployment the CRS is produced once
// per shape epoch by a trusted party; the Spartan backend has no setup at
// all).
type MatMulProver struct {
	backend Backend
	opts    Options
	pcs     pcs.Params
	rng     *mrand.Rand
}

// NewMatMulProver returns a prover drawing from crypto/rand. Groth16 CRS
// generation and proof blinding both need unpredictable randomness —
// whoever can reconstruct the Setup stream holds the toxic waste and can
// forge proofs for that CRS — so a guessable (e.g. clock-derived) seed is
// never the default. Call Reseed for reproducible tests and benchmarks.
func NewMatMulProver(backend Backend, opts Options) *MatMulProver {
	return &MatMulProver{
		backend: backend,
		opts:    opts,
		pcs:     pcs.DefaultParams(),
		rng:     randutil.Crypto(),
	}
}

// Reseed switches the prover to a deterministic math/rand stream. This is
// the explicit test-and-benchmark path: a deterministic stream makes every
// Groth16 CRS it generates forgeable by anyone who knows the seed, so
// production provers should stay on the crypto/rand default.
func (p *MatMulProver) Reseed(seed int64) { p.rng = mrand.New(mrand.NewSource(seed)) }

// PCSParams returns the polynomial-commitment parameters of the Spartan
// backend.
func (p *MatMulProver) PCSParams() pcs.Params { return p.pcs }

// ProveContext computes Y = X·W and produces a proof of correctness that
// hides W, checking ctx between the proving phases (synthesis, setup,
// proof generation) — a canceled context stops the work at the next
// phase boundary and returns ctx's error. The CRPC challenge is derived
// per-statement, so the Groth16 backend pays a fresh CRS here; use Setup
// + ProveWithCRS to amortize it across a shape epoch.
func (p *MatMulProver) ProveContext(ctx context.Context, x, w *Matrix) (*MatMulProof, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := checkShape(x.Rows, x.Cols, w.Cols); err != nil {
		return nil, err
	}
	stmt := crpc.NewStatement(x, w)
	proof := &MatMulProof{
		Backend: p.backend,
		Opts:    p.opts,
		Y:       stmt.Y,
		WCommit: crpc.WCommit(w),
	}
	var err error
	proof.G16Proof, proof.G16VK, proof.SpartanProof, err = p.prove(ctx, nil, &proof.Timings,
		func() (*crpc.Synthesis, error) { return crpc.Synthesize(stmt, p.opts) })
	if err != nil {
		return nil, err
	}
	return proof, nil
}

// prove is the one prover under single, epoch and batch proofs: it
// times synth, then proves the circuit through zkml.ProveSystem,
// checking ctx at each phase boundary. With a non-nil crs the Groth16
// keys are reused (epoch path, t.Setup stays zero); otherwise a fresh CRS
// is generated and timed.
func (p *MatMulProver) prove(ctx context.Context, crs *CRS, t *Timings, synth func() (*crpc.Synthesis, error)) (*groth16.Proof, *groth16.VerifyingKey, *spartan.Proof, error) {
	start := time.Now()
	syn, err := synth()
	if err != nil {
		return nil, nil, nil, err
	}
	t.Synthesis = time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, nil, nil, err
	}
	var keys zkml.KeySource
	switch {
	case crs != nil:
		keys = &zkml.Keys{PK: crs.G16PK, VK: crs.G16VK}
	case p.backend == Groth16:
		start = time.Now()
		k, err := zkml.NewKeys(syn.Sys, p.rng)
		t.Setup = time.Since(start)
		if err == nil {
			err = ctx.Err()
		}
		if err != nil {
			return nil, nil, nil, err
		}
		keys = k
	}
	pay, err := zkml.ProveSystem(p.backend, syn.Sys, syn.Assignment, p.pcs, p.rng, keys)
	if err != nil {
		return nil, nil, nil, err
	}
	t.Prove = pay.Prove
	return pay.G16, pay.G16VK, pay.Spartan, nil
}

// ErrVerification is returned when a proof does not verify.
var ErrVerification = errors.New("zkvc: verification failed")

// wCommitLen is the SHA-256 commitment size every proof must carry.
const wCommitLen = 32

// checkShape refuses a matmul with a zero dimension: with no inner
// products the circuit never constrains Y, so any claimed output would
// verify. Provers return the error; verifiers wrap it in ErrVerification.
func checkShape(rows, inner, cols int) error {
	if rows <= 0 || inner <= 0 || cols <= 0 {
		return fmt.Errorf("zkvc: invalid shape %dx%dx%d", rows, inner, cols)
	}
	return nil
}

// VerifyMatMul checks a proof against the public input X and the claimed
// output proof.Y. The verifier reconstructs the circuit from public data
// only: dimensions, the claimed Y, and the prover's commitment to W.
//
// For the Spartan backend the check is unconditional — the backend is
// transparent. For Groth16 it is relative to proof.G16VK: soundness
// additionally requires that key to come from a setup the verifier
// trusts, since whoever ran the setup can simulate proofs of false
// statements. Verifiers holding an epoch CRS should use CRS.Verify,
// which substitutes their own key.
//
// Proofs carrying an epoch label are rejected here: deriving the CRPC
// challenge from a prover-supplied label would let a forger fix the
// challenge in advance, exactly what Fiat–Shamir exists to prevent. Epoch
// proofs must go through VerifyMatMulInEpoch (the verifier names the
// epoch it trusts) or CRS.Verify (the verifier holds the epoch CRS).
func VerifyMatMul(x *Matrix, proof *MatMulProof) error {
	if proof != nil && len(proof.Epoch) > 0 {
		return fmt.Errorf("%w: epoch proof requires VerifyMatMulInEpoch with the expected epoch", ErrVerification)
	}
	return verifyMatMulAt(x, proof, nil)
}

// VerifyMatMulInEpoch checks a proof produced under a shape epoch
// (ProveWithCRS). The expected epoch comes from the verifier — the CRS
// publication, deployment config — never from the proof itself; soundness
// rests on that label having been unpredictable when the prover committed
// to its model (see crpc.DeriveEpochZ).
func VerifyMatMulInEpoch(x *Matrix, proof *MatMulProof, epoch []byte) error {
	if len(epoch) == 0 {
		return fmt.Errorf("%w: expected epoch must be non-empty", ErrVerification)
	}
	if proof == nil || !bytes.Equal(proof.Epoch, epoch) {
		return fmt.Errorf("%w: proof epoch does not match the expected epoch", ErrVerification)
	}
	return verifyMatMulAt(x, proof, epoch)
}

// verifyMatMulAt is the shared verification core; epoch is the
// verifier-trusted label (nil for per-statement challenges).
func verifyMatMulAt(x *Matrix, proof *MatMulProof, epoch []byte) error {
	if x == nil || proof == nil || proof.Y == nil {
		return fmt.Errorf("%w: missing statement data", ErrVerification)
	}
	if proof.Y.Rows != x.Rows {
		return fmt.Errorf("%w: output has %d rows, input has %d", ErrVerification, proof.Y.Rows, x.Rows)
	}
	if err := checkShape(x.Rows, x.Cols, proof.Y.Cols); err != nil {
		return fmt.Errorf("%w: %v", ErrVerification, err)
	}
	if len(proof.WCommit) != wCommitLen {
		return fmt.Errorf("%w: malformed W commitment (%d bytes, want %d)",
			ErrVerification, len(proof.WCommit), wCommitLen)
	}
	return verify(proof.Backend, proof.payload(), []*Matrix{x}, []*Matrix{proof.Y},
		func() spartan.Circuit {
			if !proof.Opts.CRPC {
				return spartan.R1CS(crpc.SynthesizeShape(x.Rows, x.Cols, proof.Y.Cols, ff.Fr{}, proof.Opts))
			}
			c := &crpc.Circuit{Shapes: [][3]int{{x.Rows, x.Cols, proof.Y.Cols}}, Opts: proof.Opts}
			if len(epoch) > 0 {
				c.Z = crpc.DeriveEpochZ(epoch, x.Rows, x.Cols, proof.Y.Cols, proof.Opts)
			} else {
				c.Z = crpc.DeriveZFromCommit(x, proof.Y, proof.WCommit)
			}
			return c
		})
}

// verify is the one verifier under single, epoch and batch proofs: it
// checks a backend proof against the public witness [1, every X entry,
// every Y entry] through zkml.Payload.Verify, which calls circuit for
// the verifier's view of the circuit only for Spartan.
func verify(backend Backend, pay *zkml.Payload, xs, ys []*Matrix, circuit func() spartan.Circuit) error {
	total := 1
	for m := range xs {
		total += len(xs[m].Data) + len(ys[m].Data)
	}
	public := make([]ff.Fr, 1, total)
	public[0].SetOne()
	for _, x := range xs {
		public = append(public, x.Data...)
	}
	for _, y := range ys {
		public = append(public, y.Data...)
	}
	if err := pay.Verify(backend, circuit, public, pcs.DefaultParams()); err != nil {
		return fmt.Errorf("%w: %v", ErrVerification, err)
	}
	return nil
}

// SameCommitment reports whether two proofs bind the same private model.
func SameCommitment(a, b *MatMulProof) bool { return bytes.Equal(a.WCommit, b.WCommit) }

// MatrixFromInt64 builds a field matrix from row-major signed integers
// (quantized tensor values).
func MatrixFromInt64(rows, cols int, vals []int64) *Matrix {
	return matrix.FromInt64(rows, cols, vals)
}

// MatrixToInt64 reads a field matrix back as row-major signed integers.
// It panics if an entry does not fit in an int64 (proof matrices always
// do: they hold quantized tensors and their products).
func MatrixToInt64(m *Matrix) []int64 {
	out := make([]int64, len(m.Data))
	for i := range m.Data {
		out[i] = gadgets.SignedInt64(m.Data[i])
	}
	return out
}
