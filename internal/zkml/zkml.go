// Package zkml compiles quantized transformer inference (internal/nn)
// into ZKP circuits and proves it with the zkVC backends — the
// "zk-ML codesign" column of the paper's Table I and the machinery behind
// the end-to-end Tables III and IV.
//
// A forward pass is captured as an nn.Trace; every traced operation
// becomes its own circuit:
//
//   - matmuls go through the CRPC+PSQ builders (internal/crpc), with the
//     activation side public and the weight side the committed witness —
//     the same per-layer proof composition vCNN uses; a cross-layer
//     CP-SNARK linkage of activation commitments is out of scope and
//     orthogonal to the cost being measured;
//   - softmaxes and GELUs go through the §III-C gadget circuits
//     (internal/gadgets) with inputs secret and outputs public.
//
// ProveSystem (prove.go) is the one backend call of the module: model
// ops, the root package's matmul statements and the paper-table harness
// all prove and verify through it, with Groth16 keys from a KeyCache
// (keys.go) or a fixed pair.
//
// ProveTrace runs the trace's operations as a pipeline over the shared
// internal/parallel budget: independent ops prove concurrently, each op
// drawing its blinding randomness from a stream derived from (Seed, op
// sequence number) and its Groth16 setup randomness from (Seed, circuit
// digest), so the proofs are byte-identical at every parallelism level
// and identical whether a trace is proven locally or by the proving
// service. ProveModel is the capture-and-prove convenience; MeasureModel
// (measure.go) proves a capped sub-shape per operation and extrapolates,
// making the paper's full ImageNet shapes reportable in pure Go.
package zkml

import (
	"context"
	"errors"
	"fmt"
	mrand "math/rand"
	"sync/atomic"
	"time"

	"zkvc/internal/crpc"
	"zkvc/internal/ff"
	"zkvc/internal/gadgets"
	"zkvc/internal/matrix"
	"zkvc/internal/nn"
	"zkvc/internal/parallel"
	"zkvc/internal/pcs"
	"zkvc/internal/r1cs"
	"zkvc/internal/randutil"
	"zkvc/internal/spartan"
	"zkvc/internal/tensor"
)

// Backend selects the proof system. The public zkvc.Backend is an alias
// of this type, so the two never need mirroring.
type Backend int

const (
	// Groth16 is the pairing backend ("zkVC-G").
	Groth16 Backend = iota
	// Spartan is the transparent backend ("zkVC-S").
	Spartan
)

// String names the backend as in the paper.
func (b Backend) String() string {
	switch b {
	case Groth16:
		return "zkVC-G"
	case Spartan:
		return "zkVC-S"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// Options configures compilation and proving.
type Options struct {
	Backend Backend
	Circuit crpc.Options
	PCS     pcs.Params
	// ProveNonlinear includes the softmax/GELU gadget circuits; when
	// false only matmuls are proven (the paper's microbenchmarks).
	ProveNonlinear bool
	// Seed keys the proving randomness. Per-op blinding streams derive
	// from (Seed, op sequence) and Groth16 setup streams from (Seed,
	// circuit digest), so proofs do not depend on the order in which a
	// parallel run finishes ops. Seed 0 draws crypto/rand instead — the
	// production posture, at the cost of reproducibility.
	Seed int64

	// OnOp, when set, is called once per proved operation as it
	// finishes, and Report.Ops stays empty: each proof exists only for
	// its OnOp call, so a large model streams without the whole report
	// ever being buffered. Ops prove concurrently, so calls arrive on
	// multiple goroutines and out of sequence order; op.Seq positions
	// the proof in the report.
	OnOp func(op *OpProof)
	// Keys supplies Groth16 keys per circuit digest. The proving service
	// shares one bounded cache across jobs; when nil, ProveTrace makes an
	// unbounded one for the call, seeded with Seed.
	Keys *KeyCache
}

// DefaultOptions proves everything with CRPC+PSQ on the Spartan backend
// (no per-circuit setup, so end-to-end runs stay cheap).
func DefaultOptions() Options {
	return Options{
		Backend:        Spartan,
		Circuit:        crpc.Options{CRPC: true, PSQ: true},
		PCS:            pcs.DefaultParams(),
		ProveNonlinear: true,
		Seed:           1,
	}
}

// JobOptions is the option set of one model proving job, shared by the
// in-process engine and the proving service — which is what makes their
// proofs byte-identical at equal seeds: the deployment's circuit options
// and seed, the request's backend and nonlinear choice. The caller sets
// OnOp, which every proof reaches instead of the report.
func JobOptions(backend Backend, circuit crpc.Options, proveNonlinear bool, seed int64) Options {
	opts := DefaultOptions()
	opts.Backend = backend
	opts.Circuit = circuit
	opts.ProveNonlinear = proveNonlinear
	opts.Seed = seed
	return opts
}

// OpProof is the per-operation result. Seq is the operation's position
// in the report (assigned before proving starts, so a streamed proof can
// be placed without waiting for its predecessors).
type OpProof struct {
	Seq   int
	Tag   string
	Layer int
	Kind  nn.OpKind
	Dims  [3]int // matmul a,n,b or rows,width,0

	Stats      r1cs.Stats
	Synthesis  time.Duration
	Verify     time.Duration
	ProofBytes int

	// Payload is the backend proof with its setup and prove times, kept
	// so that VerifyReport can re-check the op. Sys is retained for the
	// Spartan backend, whose verifier re-checks against the synthesized
	// system; Groth16's circuit binding lives in G16VK.
	Payload
	Sys    *r1cs.System
	Public []ff.Fr
}

// Report aggregates an end-to-end proved inference.
type Report struct {
	Model   string
	Backend Backend
	Circuit crpc.Options
	Ops     []OpProof
}

// TotalProve sums proving time over all ops (the paper's P_G/P_S).
func (r *Report) TotalProve() time.Duration {
	return sumOps(r.Ops, func(op *OpProof) time.Duration { return op.Prove + op.Synthesis })
}

// TotalSetup sums Groth16 CRS generation (zero on Spartan).
func (r *Report) TotalSetup() time.Duration {
	return sumOps(r.Ops, func(op *OpProof) time.Duration { return op.Setup })
}

// TotalVerify sums verification time.
func (r *Report) TotalVerify() time.Duration {
	return sumOps(r.Ops, func(op *OpProof) time.Duration { return op.Verify })
}

// TotalProofBytes sums proof sizes.
func (r *Report) TotalProofBytes() int {
	return sumOps(r.Ops, func(op *OpProof) int { return op.ProofBytes })
}

// TotalConstraints sums constraint counts.
func (r *Report) TotalConstraints() int {
	return sumOps(r.Ops, func(op *OpProof) int { return op.Stats.Constraints })
}

// sumOps adds f over ops, the loop under every Report and Estimate total.
func sumOps[O any, T int | float64 | time.Duration](ops []O, f func(*O) T) T {
	var sum T
	for i := range ops {
		sum += f(&ops[i])
	}
	return sum
}

// pcsOrDefault normalizes a zero-value PCS parameter set to the
// defaults. Options is a plain struct now shared with the public API
// (zkvc.InferenceOptions), so a caller-constructed literal that never
// set PCS must still prove and verify instead of failing deep inside
// the commitment scheme.
func pcsOrDefault(p pcs.Params) pcs.Params {
	if p == (pcs.Params{}) {
		return pcs.DefaultParams()
	}
	return p
}

// toMatrix lifts an int64 tensor into the scalar field.
func toMatrix(m *tensor.Mat) *matrix.Matrix {
	return matrix.FromInt64(m.Rows, m.Cols, m.Data)
}

// nonlinearConfig builds the gadget parameters matching a model config.
func nonlinearConfig(cfg nn.Config) gadgets.NonlinearConfig {
	return gadgets.NonlinearConfig{
		Fixed:     cfg.Fixed,
		ExpIters:  cfg.SquareIters,
		ClipT:     cfg.ClipT,
		RangeBits: 40,
	}
}

// ProveModel runs the model on x with a capturing trace and proves every
// traced operation, verifying each proof as it goes.
func ProveModel(m *nn.Model, x *tensor.Mat, opts Options) (*Report, error) {
	trace := nn.Trace{Capture: true}
	m.Forward(x, &trace)
	return ProveTrace(m.Cfg, &trace, opts)
}

// PlanTrace returns the trace operations ProveTrace would prove under
// opts, in report order. The count is what a streaming consumer needs
// before the first proof arrives.
func PlanTrace(trace *nn.Trace, opts Options) ([]nn.Op, error) {
	var plan []nn.Op
	for _, op := range trace.Ops {
		switch op.Kind {
		case nn.OpMatMul, nn.OpConv2D:
		case nn.OpSoftmax, nn.OpGELU:
			if !opts.ProveNonlinear {
				continue
			}
		case nn.OpPool:
			continue // additions only; free in R1CS
		default:
			return nil, fmt.Errorf("zkml: unknown op kind %v", op.Kind)
		}
		plan = append(plan, op)
	}
	return plan, nil
}

// ProveTrace proves a captured trace, running independent operations
// concurrently over the shared parallel budget. The caller's goroutine
// always participates; extra workers join only for budget tokens that
// are free right now, exactly like batch statements. Proof bytes are
// independent of the parallelism level (each op's randomness is derived
// from its sequence number, not from completion order).
func ProveTrace(cfg nn.Config, trace *nn.Trace, opts Options) (*Report, error) {
	return ProveTraceContext(context.Background(), cfg, trace, opts)
}

// ProveTraceContext is ProveTrace with cancellation threaded through the
// pipeline: once ctx is done, no further operation starts (the parallel
// schedule skips unstarted chunks), ops already in flight finish — and
// still reach OnOp — and the returned error wraps both ErrCanceled and
// ctx's error, so errors.Is works against either taxonomy.
func ProveTraceContext(ctx context.Context, cfg nn.Config, trace *nn.Trace, opts Options) (*Report, error) {
	plan, err := PlanTrace(trace, opts)
	if err != nil {
		return nil, err
	}
	rep := &Report{Model: cfg.Name, Backend: opts.Backend, Circuit: opts.Circuit}
	if opts.OnOp == nil {
		rep.Ops = make([]OpProof, len(plan))
	}
	ncfg := nonlinearConfig(cfg)
	keys := opts.Keys
	if keys == nil {
		keys = NewKeyCache(0, opts.Seed)
	}

	errs := make([]error, len(plan))
	var failed atomic.Bool
	parallel.ForCtx(ctx, len(plan), 1, func(start, end int) {
		for i := start; i < end; i++ {
			if failed.Load() || ctx.Err() != nil {
				continue
			}
			op := plan[i]
			rng := randutil.Derived(opts.Seed, []byte("zkml/op"), randutil.U32(i))
			var proof OpProof
			var err error
			switch op.Kind {
			case nn.OpMatMul, nn.OpConv2D:
				// A conv op is its im2col product: X is the (attested)
				// im2col expansion, W the reshaped kernel, so the same
				// CRPC+PSQ path proves it and identical conv layers
				// share a CRS through the structure-digest cache.
				proof, err = proveMatMul(op, opts, rng, keys)
			default:
				proof, err = proveNonlinear(op, opts, ncfg, cfg, rng, keys)
			}
			if err != nil {
				errs[i] = fmt.Errorf("zkml: op %q: %w", op.Tag, err)
				failed.Store(true)
				continue
			}
			proof.Seq = i
			if opts.OnOp != nil {
				opts.OnOp(&proof)
			} else {
				rep.Ops[i] = proof
			}
		}
	})
	// Among the ops that did error, the first in sequence order wins, so
	// the reported failure does not depend on which worker tripped first.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	return rep, nil
}

// ErrCanceled reports that a done context handed to ProveTraceContext
// ended a run before every operation was proved. The returned error
// additionally wraps ctx.Err(), so callers can match either
// errors.Is(err, ErrCanceled) or errors.Is(err, context.Canceled).
var ErrCanceled = errors.New("zkml: proving canceled")

// proveMatMul compiles one matmul through CRPC+PSQ and proves it.
func proveMatMul(op nn.Op, opts Options, rng *mrand.Rand, keys KeySource) (OpProof, error) {
	if op.X == nil || op.W == nil {
		return OpProof{}, fmt.Errorf("trace was not captured (missing operands)")
	}
	out := OpProof{Tag: op.Tag, Layer: op.Layer, Kind: op.Kind, Dims: [3]int{op.A, op.N, op.B}}

	start := time.Now()
	stmt := crpc.NewStatement(toMatrix(op.X), toMatrix(op.W))
	syn, err := crpc.Synthesize(stmt, opts.Circuit)
	if err != nil {
		return out, err
	}
	out.Synthesis = time.Since(start)
	out.Stats = syn.Stats()

	return finishProof(out, syn.Sys, syn.Assignment, syn.Public, opts, rng, keys)
}

// proveNonlinear compiles a softmax or GELU grid through the gadget
// circuits: secret inputs, public outputs asserted equal to the
// fixed-point reference evaluation.
func proveNonlinear(op nn.Op, opts Options, ncfg gadgets.NonlinearConfig, cfg nn.Config, rng *mrand.Rand, keys KeySource) (OpProof, error) {
	if op.In == nil {
		return OpProof{}, fmt.Errorf("trace was not captured (missing input)")
	}
	out := OpProof{Tag: op.Tag, Layer: op.Layer, Kind: op.Kind, Dims: [3]int{op.Rows, op.Width, 0}}

	start := time.Now()
	sys, assignment, public, err := synthesizeNonlinear(op, ncfg, cfg)
	if err != nil {
		return out, err
	}
	out.Synthesis = time.Since(start)
	out.Stats = sys.Stats()

	return finishProof(out, sys, assignment, public, opts, rng, keys)
}

// synthesizeNonlinear builds the gadget circuit for one traced nonlinear
// op and returns the satisfied system.
func synthesizeNonlinear(op nn.Op, ncfg gadgets.NonlinearConfig, cfg nn.Config) (*r1cs.System, []ff.Fr, []ff.Fr, error) {
	b := r1cs.NewBuilder()
	fx := cfg.Fixed

	// Public outputs first (the builder orders publics before secrets).
	expected := make([][]int64, op.In.Rows)
	switch op.Kind {
	case nn.OpSoftmax:
		for i := 0; i < op.In.Rows; i++ {
			expected[i] = fx.Softmax(op.In.Row(i), cfg.ClipT, cfg.SquareIters)
		}
	case nn.OpGELU:
		for i := 0; i < op.In.Rows; i++ {
			row := op.In.Row(i)
			exp := make([]int64, len(row))
			for j, v := range row {
				exp[j] = fx.GELUQuad(v)
			}
			expected[i] = exp
		}
	default:
		return nil, nil, nil, fmt.Errorf("not a nonlinear op: %v", op.Kind)
	}
	pubVars := make([][]r1cs.Var, op.In.Rows)
	var v ff.Fr
	for i := range expected {
		pubVars[i] = make([]r1cs.Var, len(expected[i]))
		for j, e := range expected[i] {
			v.SetInt64(e)
			pubVars[i][j] = b.PublicInput(v)
		}
	}

	// Secret inputs, then the gadget circuit, then bind outputs.
	for i := 0; i < op.In.Rows; i++ {
		row := op.In.Row(i)
		ins := make([]r1cs.LC, len(row))
		for j, val := range row {
			v.SetInt64(val)
			ins[j] = r1cs.VarLC(b.Secret(v))
		}
		var outs []r1cs.LC
		if op.Kind == nn.OpSoftmax {
			outs = gadgets.Softmax(b, ins, ncfg)
		} else {
			outs = make([]r1cs.LC, len(ins))
			for j := range ins {
				outs[j] = gadgets.GELU(b, ins[j], ncfg)
			}
		}
		for j := range outs {
			b.AssertEqual(outs[j], r1cs.VarLC(pubVars[i][j]))
		}
	}

	sys, assignment := b.Finish()
	return sys, assignment, b.PublicWitness(), nil
}

// finishProof proves a synthesized system through ProveSystem and
// self-verifies the op through VerifyOp. The rng feeds proof blinding;
// Groth16 keys come from keys (ProveTrace's cache) or, when keys is nil,
// from a fresh setup drawn from rng (the measurement path, which only
// wants timings).
func finishProof(out OpProof, sys *r1cs.System, assignment, public []ff.Fr, opts Options, rng *mrand.Rand, keys KeySource) (OpProof, error) {
	pay, err := ProveSystem(opts.Backend, sys, assignment, opts.PCS, rng, keys)
	if err != nil {
		return out, err
	}
	out.Payload, out.ProofBytes, out.Public = *pay, pay.SizeBytes(), public
	if opts.Backend == Spartan {
		out.Sys = sys
	}
	start := time.Now()
	if err := VerifyOp(opts.Backend, &out, opts.PCS); err != nil {
		return out, fmt.Errorf("self-verify: %w", err)
	}
	out.Verify = time.Since(start)
	return out, nil
}

// VerifyOp re-verifies one retained operation proof against the report's
// backend.
func VerifyOp(backend Backend, op *OpProof, params pcs.Params) error {
	if err := op.Payload.Verify(backend, func() spartan.Circuit { return spartan.R1CS(op.Sys) }, op.Public, params); err != nil {
		return fmt.Errorf("zkml: op %q: %w", op.Tag, err)
	}
	return nil
}

// VerifyReport re-verifies every retained proof in the report. A report
// with no ops proves nothing and fails rather than passing vacuously. A
// Groth16 report is checked with one batched multi-pairing (verifyBatch);
// only when that rejects are its ops checked on their own, and if none
// fails alone the batch error is returned. Every other report is checked
// op by op. The op checks run over the worker budget; the error returned
// is that of the lowest-index failing op, the one a serial loop names.
func VerifyReport(rep *Report, opts Options) error {
	if len(rep.Ops) == 0 {
		return errors.New("zkml: empty report")
	}
	var batchErr error
	if rep.Backend == Groth16 {
		if batchErr = verifyBatch(rep); batchErr == nil {
			return nil
		}
	}
	errs := make([]error, len(rep.Ops))
	var lowest atomic.Int64 // lowest failing index so far
	lowest.Store(int64(len(rep.Ops)))
	parallel.For(len(rep.Ops), 1, func(start, end int) {
		for i := start; i < end; i++ {
			// An op above a known failure cannot change the answer; every
			// op below the final lowest failure runs, so lowest ends as
			// the lowest failing index.
			if int64(i) > lowest.Load() {
				return
			}
			if errs[i] = VerifyOp(rep.Backend, &rep.Ops[i], opts.PCS); errs[i] == nil {
				continue
			}
			for cur := lowest.Load(); int64(i) < cur; cur = lowest.Load() {
				if lowest.CompareAndSwap(cur, int64(i)) {
					break
				}
			}
		}
	})
	if i := lowest.Load(); i < int64(len(rep.Ops)) {
		return errs[i]
	}
	return batchErr
}

// TamperPublic flips one public input of the i-th retained op — test
// hook for soundness checks.
func TamperPublic(rep *Report, i int) {
	if len(rep.Ops[i].Public) > 1 {
		var one ff.Fr
		one.SetOne()
		rep.Ops[i].Public[1].Add(&rep.Ops[i].Public[1], &one)
	}
}
