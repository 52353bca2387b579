package zkml

import (
	"fmt"
	mrand "math/rand"
	"time"

	"zkvc/internal/nn"
	"zkvc/internal/planner"
	"zkvc/internal/tensor"
)

// MeasureModel estimates end-to-end proving cost at the paper's *full*
// architectural shapes, which are out of reach for exact proving in pure
// Go (a single full ImageNet SoftMax layer is billions of wires — it was
// out of reach for the paper's libsnark testbed too, which is why the
// paper reports thousands of seconds). For every distinct operation
// shape in the trace it proves a capped sub-shape with real data, then
// extrapolates by the analytic wire-cost ratio (proving in both backends
// is linear in wires up to logarithmic factors; see bench_test.go's
// scaling benches for the empirical check). Identical shapes are
// measured once and multiplied.
//
// The returned Estimate is labeled as such everywhere it is printed.

// MeasureCaps bounds the sub-shapes that are actually proven.
type MeasureCaps struct {
	// MatMul dims a, n, b are individually capped at MaxDim.
	MaxDim int
	// Nonlinear grids are capped at MaxRows × MaxWidth elements.
	MaxRows, MaxWidth int
}

// DefaultCaps keeps every measured circuit comfortably sub-second.
func DefaultCaps() MeasureCaps {
	return MeasureCaps{MaxDim: 48, MaxRows: 2, MaxWidth: 32}
}

// OpEstimate is the measured-then-extrapolated cost of one op shape.
type OpEstimate struct {
	Tag   string
	Kind  nn.OpKind
	Dims  [3]int
	Count int // how many identical ops share this estimate

	// Measured sub-shape numbers (one instance).
	Measured OpProof
	// Factor is the analytic cost ratio full/measured.
	Factor float64

	// Extrapolated per-instance numbers.
	EstProve  time.Duration
	EstVerify time.Duration
	EstBytes  float64
	EstWires  float64 // analytic full wire cost
}

// Estimate aggregates a measured model.
type Estimate struct {
	Model   string
	Backend Backend
	Ops     []OpEstimate
}

// TotalProve returns the extrapolated end-to-end proving time.
func (e *Estimate) TotalProve() time.Duration {
	return sumOps(e.Ops, func(op *OpEstimate) time.Duration { return op.EstProve * time.Duration(op.Count) })
}

// TotalVerify returns the extrapolated verification time. Groth16
// verification is per-proof constant, so it scales with proof count, not
// wires.
func (e *Estimate) TotalVerify() time.Duration {
	return sumOps(e.Ops, func(op *OpEstimate) time.Duration { return op.EstVerify * time.Duration(op.Count) })
}

// TotalProofBytes returns the extrapolated proof size.
func (e *Estimate) TotalProofBytes() float64 {
	return sumOps(e.Ops, func(op *OpEstimate) float64 { return op.EstBytes * float64(op.Count) })
}

// TotalWires returns the analytic wire cost of the full model.
func (e *Estimate) TotalWires() float64 {
	return sumOps(e.Ops, func(op *OpEstimate) float64 { return op.EstWires * float64(op.Count) })
}

// opShapeKey identifies ops that share a circuit shape.
type opShapeKey struct {
	kind nn.OpKind
	dims [3]int
}

// MeasureModel derives the model's op shapes from the configuration
// alone (nn.ShapeTrace — no weights, no arithmetic, so even the full
// ImageNet shapes are instant) and estimates every operation.
func MeasureModel(cfg nn.Config, opts Options, caps MeasureCaps) (*Estimate, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return MeasureTrace(cfg, nn.ShapeTrace(cfg), opts, caps)
}

// MeasureTrace estimates every operation of a dims-only trace.
func MeasureTrace(cfg nn.Config, trace *nn.Trace, opts Options, caps MeasureCaps) (*Estimate, error) {
	est := &Estimate{Model: cfg.Name, Backend: opts.Backend}
	cm := planner.DefaultCostModel()
	rng := mrand.New(mrand.NewSource(opts.Seed + 2))

	// Group identical shapes.
	groups := make(map[opShapeKey]*OpEstimate)
	order := make([]opShapeKey, 0, 16)
	for _, op := range trace.Ops {
		var key opShapeKey
		switch op.Kind {
		case nn.OpMatMul, nn.OpConv2D:
			key = opShapeKey{op.Kind, [3]int{op.A, op.N, op.B}}
		case nn.OpSoftmax, nn.OpGELU:
			key = opShapeKey{op.Kind, [3]int{op.Rows, op.Width, 0}}
		default:
			continue
		}
		if g, ok := groups[key]; ok {
			g.Count++
			continue
		}
		groups[key] = &OpEstimate{Tag: op.Tag, Kind: op.Kind, Dims: key.dims, Count: 1}
		order = append(order, key)
	}

	for _, key := range order {
		g := groups[key]
		if !opts.ProveNonlinear && g.Kind != nn.OpMatMul && g.Kind != nn.OpConv2D {
			continue
		}
		if err := measureOne(g, cfg, opts, caps, cm, rng); err != nil {
			return nil, fmt.Errorf("zkml: measuring %q: %w", g.Tag, err)
		}
		est.Ops = append(est.Ops, *g)
	}
	return est, nil
}

// measureOne proves a capped instance of the group's shape and fills the
// extrapolated numbers.
func measureOne(g *OpEstimate, cfg nn.Config, opts Options, caps MeasureCaps, cm planner.CostModel, rng *mrand.Rand) error {
	bound := cfg.Fixed.Scale()
	switch g.Kind {
	case nn.OpMatMul, nn.OpConv2D:
		// A conv measures as its im2col product — dims already carry
		// the lowered A/N/B, and the capped sub-shape is just a smaller
		// matmul of the same circuit family.
		a, n, b := g.Dims[0], g.Dims[1], g.Dims[2]
		ca, cn, cb := min(a, caps.MaxDim), min(n, caps.MaxDim), min(b, caps.MaxDim)
		op := nn.Op{
			Kind: nn.OpMatMul, Tag: g.Tag, A: ca, N: cn, B: cb,
			X: tensor.Random(rng, ca, cn, bound),
			W: tensor.Random(rng, cn, cb, bound),
		}
		measured, err := proveMatMul(op, opts, rng, nil)
		if err != nil {
			return err
		}
		g.Measured = measured
		g.EstWires = cm.MatMul(a, n, b)
		g.Factor = g.EstWires / cm.MatMul(ca, cn, cb)
	case nn.OpSoftmax, nn.OpGELU:
		rows, width := g.Dims[0], g.Dims[1]
		cr, cw := min(rows, caps.MaxRows), min(width, caps.MaxWidth)
		in := tensor.Random(rng, cr, cw, bound)
		op := nn.Op{Kind: g.Kind, Tag: g.Tag, Rows: cr, Width: cw, In: in}
		measured, err := proveNonlinear(op, opts, nonlinearConfig(cfg), cfg, rng, nil)
		if err != nil {
			return err
		}
		g.Measured = measured
		if g.Kind == nn.OpSoftmax {
			g.EstWires = cm.Softmax(rows, width)
			g.Factor = g.EstWires / cm.Softmax(cr, cw)
		} else {
			g.EstWires = cm.GELU(rows * width)
			g.Factor = g.EstWires / cm.GELU(cr*cw)
		}
	default:
		return fmt.Errorf("unmeasurable op kind %v", g.Kind)
	}

	g.EstProve = time.Duration(float64(g.Measured.Prove+g.Measured.Synthesis) * g.Factor)
	switch opts.Backend {
	case Groth16:
		// Constant-time pairing check and constant 3-element proofs.
		g.EstVerify = g.Measured.Verify
		g.EstBytes = float64(g.Measured.ProofBytes)
	case Spartan:
		// O(√N) commitment openings dominate proof size and verify time.
		g.EstVerify = time.Duration(float64(g.Measured.Verify) * sqrtRatio(g.Factor))
		g.EstBytes = float64(g.Measured.ProofBytes) * sqrtRatio(g.Factor)
	}
	return nil
}

// sqrtRatio returns √f (cost ratio for √N-sized artifacts).
func sqrtRatio(f float64) float64 {
	if f <= 1 {
		return 1
	}
	// Newton's method avoids importing math for one call.
	x := f
	for i := 0; i < 32; i++ {
		x = 0.5 * (x + f/x)
	}
	return x
}
