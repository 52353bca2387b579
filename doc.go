// Package zkvc is the public API of the zkVC reproduction: fast
// zero-knowledge proofs for matrix multiplication and end-to-end
// transformer inference (DAC 2025). It wraps the CRPC + PSQ optimized
// circuits (internal/crpc) and two zk-SNARK backends built from scratch
// in this module — Groth16 over a from-scratch BN254 pairing ("zkVC-G")
// and a transparent Spartan-style SNARK ("zkVC-S").
//
// # Engines
//
// The statement API is separated from the execution backend by the
// Engine interface: ProveMatMul, ProveBatch and ProveModel (plus the
// matching Verify methods), all context-first. Four implementations
// cover the deployment shapes, and a program moves between them by
// swapping one constructor:
//
//	eng := zkvc.NewLocal(zkvc.Spartan, zkvc.DefaultOptions()) // in-process
//	eng := server.NewClient("http://prover:8799")             // one remote service
//	eng := cluster.NewEngine("http://coordinator:8799")       // sharded pool
//	eng := server.NewAsyncClient("http://prover:8799")        // durable jobs, resumable streams
//
// AsyncClient's ProveModel goes through the service's durable job API
// (POST /v1/jobs): each completed op is journaled server-side and the
// stream it hands out transparently reconnects after connection loss,
// resuming from the last frame received intact — no acked frame is
// ever replayed, no op re-proved, and with a journal directory the
// resume survives a server restart. The assembled Report is still
// byte-identical to every other engine's at equal seeds; durability is
// invisible at this seam.
//
// Typical use (see examples/quickstart):
//
//	x := zkvc.RandomMatrix(rng, 49, 64, 128)   // public input
//	w := zkvc.RandomMatrix(rng, 64, 128, 128)  // private model
//	eng := zkvc.NewLocal(zkvc.Spartan, zkvc.DefaultOptions())
//	proof, err := eng.ProveMatMul(ctx, x, w)
//	err = eng.VerifyMatMul(ctx, x, proof)
//
// Model inference streams one proof per traced operation through a Go
// iterator, uniformly on every engine:
//
//	stream := eng.ProveModel(ctx, &zkvc.ModelRequest{Backend: zkvc.Spartan,
//	    ProveNonlinear: true, Cfg: cfg, Trace: trace})
//	for op, err := range stream.All() { ... }
//	report, err := stream.Report()
//
// # Convolution lowering
//
// Convolutional models (CNNMNIST, any Config with Convs) flow through
// the same pipeline as transformers because every conv layer is lowered
// to a matrix product inside the trace: the input feature map is
// expanded with im2col — one row per output pixel, one column per
// (channel, ky, kx) kernel position, zero padding — and multiplied by
// the kernel bank reshaped to (KH·KW·CIn)×COut. The contract that makes
// this sound: the expansion is deterministic, integer-exact data
// movement (same input and geometry give byte-identical matrices at
// every parallelism level), and the expanded matrix is captured in the
// attested trace as the conv op's public operand — the lowering is part
// of the statement, not a prover choice. The wire decoder cross-checks
// every conv op's geometry against its lowered dimensions
// (A = outH·outW, N = KH·KW·CIn, B = COut), so a relabeled or resized
// conv op cannot decode into a valid request. Identical conv layers
// synthesize identical circuits and therefore share one Groth16 CRS
// through the structure-digest cache.
//
// # Verifiable fine-tuning
//
// TraceSGDStep records one SGD step on the classification head as an
// ordinary trace: the forward pass, the loss softmax, the gradient
// matmul ∇W = featᵀ·dlog, and the update W' = W − lr·∇W expressed as a
// single matmul with public structured operand [Scale·I | −lr·I]
// against the stacked witness [W; ∇W] — the fixed-point rescale every
// matmul performs yields the exact quantized update. The step proves
// and verifies through any Engine unchanged; tampering with the update
// op fails verification in both modes.
//
// # The Engine contract
//
// Every implementation satisfies the same contract, pinned by the
// conformance suite (engine_conformance_test.go) so future engines get
// it for free:
//
//   - Round trip: a proof an engine produces verifies through the same
//     engine's Verify method.
//   - Determinism: with equal non-zero seeds, all engines produce
//     byte-identical proofs for equal statements (wall-clock Timings
//     aside). Seed 0 draws crypto/rand — the production posture.
//   - Cancellation: a done context stops a call at the next phase or
//     model-op boundary with an error matching errors.Is(err,
//     ctx.Err()); remote engines abort the HTTP exchange, canceling the
//     service-side job.
//   - Error taxonomy: failed verification matches errors.Is(err,
//     ErrVerification) everywhere; remote verdicts fold back into the
//     same sentinel.
//   - Streaming: ProveModel yields each op proof exactly once, in
//     completion order, with valid sequence numbers; ModelStream.Report
//     reassembles the sequence-ordered report.
//
// # Verifying a model report
//
// VerifyModel runs one check on every engine:
//
//	err := eng.VerifyModel(ctx, report)
//
// A Groth16 report is folded into one succinct check: all ops join a
// single random-linear-combination multi-pairing (one final
// exponentiation total). The combination weights are Fiat–Shamir
// challenges bound to the entire report — op identities, public inputs
// and complete proof material — so no op can be swapped, dropped or
// forged without changing its weight. If that check rejects, the ops are
// checked one by one so the error names the first failing op. A Spartan
// report verifies per op: each proof's sumchecks and opening are bound to
// its own transcript, leaving nothing worth batching.
//
// The batched check accepts exactly the reports the op-by-op check
// accepts, up to the ~1/r batching error, and the verifier needs the
// report's proof payloads, which every proved op keeps: a stripped or
// empty report fails verification rather than passing vacuously. On remote
// engines the service first applies its issued-only report policy to
// the whole-report digest. The VerifyOptions tail is deprecated and
// ignored.
//
// # Operating the service
//
// The remote engines' issued-only verify policy is durable: a service
// started with a journal directory appends every attestation to a
// hash-chained issued log before responding and replays it on startup,
// so a restart does not amnesty the service out of what it vouched for
// (withdrawals are explicit tombstone records, not forgetting). In a
// cluster, attestation digests additionally replicate through the
// coordinator to f+1 nodes, so verify fails over when the issuing node
// is dead instead of relaying its silence as "not issued". Operators
// scrape GET /metrics/prometheus (text exposition format; issued-log,
// disk and memory gauges, per-node series on the coordinator) and can
// enable net/http/pprof with zkvc serve -pprof. README.md, "Operating
// the service", has the full contract.
//
// # Memory discipline
//
// The proving hot path recycles its scratch memory — MLE tables,
// sumcheck accumulators, Reed–Solomon codewords, Merkle layers, MSM
// buckets, QAP evaluations — through pooled arenas (internal/arena)
// instead of allocating per call, dropping a Spartan proof from
// hundreds of thousands of allocations to a few thousand. The contract
// callers can rely on: pooled buffers are zeroed on checkout and used
// only for internal scratch, so pooling can never change proof bytes
// (proofs are byte-identical with pooling on or off, at any
// parallelism) and never leaks data between concurrent jobs; anything
// that escapes into a Proof or Report is plainly allocated. Setting
// ZKVC_NO_POOL=1 disables pooling process-wide for bisection.
// TestAllocBudget bounds allocs/op and B/op on the hot path so the
// discipline cannot silently erode.
package zkvc
