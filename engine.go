package zkvc

// Engine is the deployment-shape abstraction of this package: one
// context-first interface covering the full proving workload — single
// matmuls, folded batches, end-to-end model inference — with an
// implementation per deployment shape. Local (this file) proves
// in-process; internal/server's Client speaks the same interface to a
// remote proving service; internal/cluster's Engine routes through a
// sharded coordinator. A program switches between the three by swapping
// one constructor, and every call can be canceled through its context.

import (
	"context"
	"errors"
	"fmt"
	"iter"

	"zkvc/internal/nn"
	"zkvc/internal/pcs"
	"zkvc/internal/zkml"
)

// OpProof is one proved operation of a model inference, re-exported from
// the compiler so Engine consumers never import internal packages.
type OpProof = zkml.OpProof

// Report is an assembled end-to-end model proving result: one OpProof
// per traced operation, in sequence order.
type Report = zkml.Report

// Trace is a captured model forward pass (set Capture and pass it to
// Model.Forward), the statement of Engine.ProveModel.
type Trace = nn.Trace

// ModelRequest describes one end-to-end model proving job: prove every
// operation of the captured forward pass of Cfg on the chosen backend.
// It mirrors the proving service's wire request, so the same value means
// the same job on every Engine.
type ModelRequest struct {
	Backend        Backend
	ProveNonlinear bool
	Cfg            ModelConfig
	Trace          *Trace
}

// VerifyMode once selected per-op or aggregate model verification.
//
// Deprecated: ignored; every report gets the same check.
type VerifyMode int

const (
	// Deprecated: ignored; every report gets the same check.
	VerifyPerOp VerifyMode = iota
	// Deprecated: ignored; every report gets the same check.
	VerifyAggregate
)

// VerifyOptions is the optional tail of Engine.VerifyModel.
//
// Deprecated: ignored; every report gets the same check.
type VerifyOptions struct {
	// Deprecated: ignored; every report gets the same check.
	Mode VerifyMode
}

// Engine proves and verifies zkVC statements. Implementations differ
// only in where the work runs:
//
//   - zkvc.NewLocal — in this process, on the shared parallel budget;
//   - server.NewClient — on one remote proving service over HTTP;
//   - cluster.NewEngine — on a sharded pool behind a coordinator.
//
// The contract every implementation satisfies (pinned by the conformance
// suite in engine_conformance_test.go):
//
//   - Determinism: with equal non-zero seeds (Local.Seed,
//     server.Config.Seed) all implementations produce byte-identical
//     proofs for equal statements — wall-clock Timings aside. A zero
//     seed draws crypto/rand, the production posture.
//   - Cancellation: a done ctx stops the call. Proving stops issuing
//     new work at the next phase (or model-op) boundary and the error
//     matches errors.Is(err, ctx.Err()); remote implementations abort
//     the HTTP exchange, which cancels the service-side job.
//   - Error taxonomy: a proof that fails to check returns an error
//     matching errors.Is(err, ErrVerification) on every implementation
//     — remote verdicts fold back into the same sentinel.
//   - Streaming: ProveModel yields per-op proofs as they finish, in
//     completion order, each exactly once with a valid sequence number;
//     ModelStream.Report reassembles them in sequence order.
//
// Remote implementations additionally expose service-shape extras
// (coalescing windows, tenancy) beyond this interface.
type Engine interface {
	// ProveMatMul proves Y = X·W with a per-statement challenge.
	ProveMatMul(ctx context.Context, x, w *Matrix) (*MatMulProof, error)
	// ProveBatch folds every product Y_m = X_m·W_m into one proof.
	ProveBatch(ctx context.Context, pairs [][2]*Matrix) (*BatchProof, error)
	// ProveModel proves every operation of a captured forward pass,
	// streaming each proof as it finishes.
	ProveModel(ctx context.Context, req *ModelRequest) *ModelStream

	// VerifyMatMul checks a single-statement proof against the public X.
	VerifyMatMul(ctx context.Context, x *Matrix, proof *MatMulProof) error
	// VerifyBatch checks a folded batch proof against its public inputs.
	VerifyBatch(ctx context.Context, xs []*Matrix, proof *BatchProof) error
	// VerifyModel checks an assembled model report. The opts tail is
	// deprecated and ignored: every report gets the same check.
	VerifyModel(ctx context.Context, rep *Report, opts ...VerifyOptions) error
}

// ModelStreamInfo is the stream's announced metadata — what a consumer
// needs to reassemble the exact report the prover attests: the model
// name, the backend, the circuit options the prover applied (an engine
// decision, not a request field) and the total operation count.
type ModelStreamInfo struct {
	Model    string
	Backend  Backend
	Circuit  Options
	TotalOps int
}

// ModelStream is the uniform streaming result of Engine.ProveModel: an
// iterator over per-op proofs in completion order, plus enough retained
// state to reassemble the sequence-ordered Report afterwards.
//
// A stream is single-use and not safe for concurrent use. Consume it
// either by ranging All — breaking out cancels the underlying work —
// or by calling Report, which drains it. Report after a complete All
// pass reuses the retained ops; Report after an abandoned (broken)
// pass fails, because ops the producer never yielded cannot be
// conjured.
type ModelStream struct {
	run func(info func(ModelStreamInfo), yield func(op *OpProof, err error) bool)

	started  bool
	finished bool
	haveInfo bool
	info     ModelStreamInfo
	ops      []*OpProof
	err      error
}

// NewModelStream wraps an implementation's raw stream. run is invoked
// once, on first consumption. It must call info once — before yielding
// the first op — with the stream metadata, then yield each proved op;
// a terminal failure is yielded as (nil, err) and ends the stream. When
// yield returns false the consumer is gone: run must cancel its
// in-flight work and return without yielding again.
func NewModelStream(run func(info func(ModelStreamInfo), yield func(op *OpProof, err error) bool)) *ModelStream {
	return &ModelStream{run: run}
}

// errStreamReused reports a second consumption of a single-use stream.
var errStreamReused = errors.New("zkvc: model stream already consumed (streams are single-use; call Engine.ProveModel again)")

// All returns the stream's iterator: one (op, nil) per proved operation
// in completion order, or a final (nil, err) if proving fails. Breaking
// out of the range cancels the remaining work.
func (s *ModelStream) All() iter.Seq2[*OpProof, error] {
	return func(yield func(*OpProof, error) bool) {
		if s.started {
			yield(nil, errStreamReused)
			return
		}
		s.started = true
		broke := false
		s.run(
			func(mi ModelStreamInfo) { s.info, s.haveInfo = mi, true },
			func(op *OpProof, err error) bool {
				if err != nil {
					s.err = err
				} else {
					s.ops = append(s.ops, op)
				}
				if broke {
					return false
				}
				if !yield(op, err) {
					broke = true
					return false
				}
				return true
			},
		)
		s.finished = !broke
	}
}

// Report drains the stream (if not already fully consumed) and
// reassembles the per-op proofs into a sequence-ordered Report — the
// exact object a proving service attests on its verify endpoint. It
// enforces the streaming contract: every announced op present, each
// sequence number in range and seen exactly once.
func (s *ModelStream) Report() (*Report, error) {
	if !s.started {
		for range s.All() {
		}
	}
	if s.err != nil {
		return nil, s.err
	}
	if !s.finished {
		return nil, errors.New("zkvc: model stream was abandoned before completion")
	}
	if !s.haveInfo {
		return nil, errors.New("zkvc: model stream ended without announcing its metadata")
	}
	if len(s.ops) != s.info.TotalOps {
		return nil, fmt.Errorf("zkvc: model stream yielded %d of %d announced ops", len(s.ops), s.info.TotalOps)
	}
	rep := &Report{
		Model:   s.info.Model,
		Backend: s.info.Backend,
		Circuit: s.info.Circuit,
		Ops:     make([]zkml.OpProof, s.info.TotalOps),
	}
	seen := make([]bool, s.info.TotalOps)
	for _, op := range s.ops {
		if op.Seq < 0 || op.Seq >= s.info.TotalOps {
			return nil, fmt.Errorf("zkvc: op sequence %d out of range %d", op.Seq, s.info.TotalOps)
		}
		if seen[op.Seq] {
			return nil, fmt.Errorf("zkvc: duplicate op sequence %d", op.Seq)
		}
		seen[op.Seq] = true
		rep.Ops[op.Seq] = *op
	}
	return rep, nil
}

// Local is the in-process Engine: it wraps the library provers directly,
// proving on the caller's machine over the shared parallel budget
// (SetParallelism). The zero value proves the unoptimized baseline
// circuit on Groth16 with crypto/rand; NewLocal is the usual
// constructor.
type Local struct {
	// Backend picks the proof system for matmul and batch statements
	// (model jobs carry their backend in the request, mirroring the
	// proving service).
	Backend Backend
	// Circuit selects the CRPC/PSQ optimizations applied to every
	// statement this engine proves.
	Circuit Options
	// Seed keys deterministic proving randomness, exactly like
	// server.Config.Seed: equal seeds give byte-identical proofs, here
	// and on a service. 0 (the default) draws crypto/rand — the
	// production posture, since a reconstructible Groth16 setup stream
	// is the toxic waste.
	Seed int64
}

// NewLocal returns the in-process Engine with the full zkVC circuit
// configuration. Set Seed for reproducible proofs (tests, benchmarks,
// cross-engine comparison).
func NewLocal(backend Backend, circuit Options) *Local {
	return &Local{Backend: backend, Circuit: circuit}
}

var _ Engine = (*Local)(nil)

// prover returns a fresh prover per call, so every call's randomness is
// a function of Seed alone — the determinism rule remote engines follow
// per request.
func (l *Local) prover() *MatMulProver {
	p := NewMatMulProver(l.Backend, l.Circuit)
	if l.Seed != 0 {
		p.Reseed(l.Seed)
	}
	return p
}

// ProveMatMul proves Y = X·W in-process.
func (l *Local) ProveMatMul(ctx context.Context, x, w *Matrix) (*MatMulProof, error) {
	return l.prover().ProveContext(ctx, x, w)
}

// ProveBatch folds the pairs into one proof in-process.
func (l *Local) ProveBatch(ctx context.Context, pairs [][2]*Matrix) (*BatchProof, error) {
	return l.prover().ProveBatchContext(ctx, pairs...)
}

// ProveModel proves a captured forward pass in-process, yielding each
// op's proof as it finishes. Independent ops prove concurrently over the
// shared parallel budget; canceling ctx (or breaking out of the range)
// stops unstarted ops at the next pipeline boundary.
func (l *Local) ProveModel(ctx context.Context, req *ModelRequest) *ModelStream {
	return NewModelStream(func(info func(ModelStreamInfo), yield func(*OpProof, error) bool) {
		if req == nil || req.Trace == nil {
			yield(nil, errors.New("zkvc: nil model request or trace"))
			return
		}
		opts := zkml.JobOptions(req.Backend, l.Circuit, req.ProveNonlinear, l.Seed)
		plan, err := zkml.PlanTrace(req.Trace, opts)
		if err != nil {
			yield(nil, err)
			return
		}
		info(ModelStreamInfo{Model: req.Cfg.Name, Backend: req.Backend, Circuit: l.Circuit, TotalOps: len(plan)})

		ctx, cancel := context.WithCancel(ctx)
		defer cancel()
		// The pipeline finishes ops on several goroutines; the stream
		// yields them from this one. A small buffer lets the pipeline
		// run slightly ahead, and the ctx select keeps a finished op
		// from wedging a worker once the consumer is gone.
		ops := make(chan *OpProof, 1)
		opts.OnOp = func(op *OpProof) {
			select {
			case ops <- op:
			case <-ctx.Done():
			}
		}
		done := make(chan error, 1)
		go func() {
			_, err := zkml.ProveTraceContext(ctx, req.Cfg, req.Trace, opts)
			done <- err
			close(done)
		}()
		// On every exit — consumer break included — cancel the pipeline
		// and keep draining finished ops until it winds down, so no
		// goroutine outlives the stream.
		defer func() {
			cancel()
			for {
				select {
				case <-ops:
				case <-done:
					return
				}
			}
		}()
		for {
			select {
			case op := <-ops:
				if !yield(op, nil) {
					return
				}
			case err := <-done:
				// Pipeline finished; flush ops still parked in the
				// buffer, then surface the terminal error, if any.
				for {
					select {
					case op := <-ops:
						if !yield(op, nil) {
							return
						}
					default:
						if err != nil {
							yield(nil, err)
						}
						return
					}
				}
			}
		}
	})
}

// VerifyMatMul checks a per-statement proof in-process. Epoch proofs are
// rejected here, exactly like the package-level VerifyMatMul — a
// verifier trusting an epoch names it via VerifyMatMulInEpoch or holds
// the CRS.
func (l *Local) VerifyMatMul(ctx context.Context, x *Matrix, proof *MatMulProof) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return VerifyMatMul(x, proof)
}

// VerifyBatch checks a folded batch proof in-process.
func (l *Local) VerifyBatch(ctx context.Context, xs []*Matrix, proof *BatchProof) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return VerifyMatMulBatch(xs, proof)
}

// VerifyModel re-verifies every retained proof in a report in-process
// with zkml.VerifyReport: one batched pairing check for a Groth16 report,
// per op for a Spartan one. opts is ignored. Note the trust posture:
// Groth16 ops are checked against the verifying keys the report itself
// carries, which proves nothing unless the report comes from a setup
// this process trusts (its own Local proving, or a service whose
// attestation was checked remotely first).
func (l *Local) VerifyModel(ctx context.Context, rep *Report, _ ...VerifyOptions) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := zkml.VerifyReport(rep, zkml.Options{PCS: pcs.DefaultParams()}); err != nil {
		// Fold the compiler's failure into the package sentinel: the
		// Engine error taxonomy promises errors.Is(err, ErrVerification)
		// on every implementation, and remote engines already map their
		// verdicts onto it.
		return fmt.Errorf("%w: %v", ErrVerification, err)
	}
	return nil
}
