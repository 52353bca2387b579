// Package nn implements the quantized Transformer inference stack of the
// paper's §IV: vision transformers (plain and hierarchical/MetaFormer
// style) and a small BERT encoder, with the four token mixers compared in
// Tables III and IV — approximated-SoftMax self-attention ("SoftApprox."),
// scaling attention ("SoftFree-S"), average pooling ("SoftFree-P"), and
// linear token mixing ("SoftFree-L") — plus arbitrary per-layer hybrids
// (the "zkVC" rows chosen by internal/planner).
//
// Everything runs on int64 fixed-point tensors (internal/tensor,
// internal/fixed), matching the NITI-style integer quantization the paper
// adopts, so every intermediate is exactly representable in the scalar
// field and the ZKP circuits of internal/zkml verify the same arithmetic
// the inference performed.
//
// A forward pass can record a Trace: the ordered list of matrix
// multiplications and nonlinear applications it executed, with dimensions
// and (optionally) the concrete operand matrices. The zkml compiler turns
// a trace into circuits; the planner prices ShapeTrace, the same op list
// derived from the configuration alone.
package nn

import (
	"fmt"

	"zkvc/internal/fixed"
	"zkvc/internal/tensor"
)

// MixerKind enumerates the paper's token mixers.
type MixerKind int

const (
	// MixerSoftmax is full multi-head self-attention with the §III-C
	// SoftMax approximation ("SoftApprox."). Quadratic in tokens.
	MixerSoftmax MixerKind = iota
	// MixerScaling is scaling (efficient/linear) attention
	// ("SoftFree-S"): softmax over the feature axis of Q and the token
	// axis of K, so the t×t score matrix never materializes.
	MixerScaling
	// MixerPooling is average pooling over a token neighborhood
	// ("SoftFree-P", the PoolFormer mixer). No weights, no matmuls.
	MixerPooling
	// MixerLinear is a fixed linear transform over the token axis
	// ("SoftFree-L", FNet-style mixing).
	MixerLinear
)

// String names the mixer as in the paper's tables.
func (k MixerKind) String() string {
	switch k {
	case MixerSoftmax:
		return "SoftApprox"
	case MixerScaling:
		return "SoftFree-S"
	case MixerPooling:
		return "SoftFree-P"
	case MixerLinear:
		return "SoftFree-L"
	default:
		return fmt.Sprintf("MixerKind(%d)", int(k))
	}
}

// OpKind classifies a traced operation.
type OpKind int

const (
	// OpMatMul is a matrix product [A×N]·[N×B] — what CRPC+PSQ prove.
	OpMatMul OpKind = iota
	// OpSoftmax is Rows softmaxes of width Width (§III-C gadget).
	OpSoftmax
	// OpGELU is Rows·Width elementwise quadratic GELUs.
	OpGELU
	// OpPool is an unweighted token pooling (additions only in-circuit).
	OpPool
	// OpConv2D is a 2-D convolution lowered to a matmul via im2col: the
	// captured X is the im2col expansion of the input feature map
	// (outH·outW rows of KH·KW·CIn patch values) and W the kernel
	// reshaped to KH·KW·CIn × COut, so A/N/B describe an ordinary
	// [A×N]·[N×B] product the CRPC+PSQ circuits prove unchanged. The
	// expansion is deterministic (fixed patch order, zero padding) and
	// part of the attested trace — never prover-chosen.
	OpConv2D
)

// String names the op kind.
func (k OpKind) String() string {
	switch k {
	case OpMatMul:
		return "matmul"
	case OpSoftmax:
		return "softmax"
	case OpGELU:
		return "gelu"
	case OpPool:
		return "pool"
	case OpConv2D:
		return "conv2d"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Op is one traced operation of a forward pass.
type Op struct {
	Kind  OpKind
	Layer int    // transformer block index, −1 for embedding/head
	Tag   string // human-readable site, e.g. "attn.qk" or "mlp.fc1"

	// MatMul dimensions: [A×N]·[N×B]. For OpSoftmax/OpGELU, Rows×Width
	// describes the element grid instead. OpConv2D uses A/N/B for its
	// im2col product (A = outH·outW, N = KH·KW·CIn, B = COut).
	A, N, B     int
	Rows, Width int

	// Conv2D geometry (OpConv2D only). The decoder cross-checks these
	// against A/N/B, so a conv op cannot declare a product shape its
	// geometry does not produce.
	KH, KW    int // kernel height/width
	Stride    int
	Pad       int // symmetric zero padding
	CIn, COut int // channel counts
	InH, InW  int // input spatial dims (pre-padding)

	// Captured operands (nil unless Trace.Capture). For OpMatMul these
	// are the activation X and weight W (for OpConv2D, the im2col matrix
	// and the reshaped kernel); for nonlinears In holds the
	// pre-activation values.
	X, W *tensor.Mat
	In   *tensor.Mat
}

// MatMulFLOPs returns 2·A·N·B for ops that prove a matrix product — a
// plain matmul, or a conv2d's im2col lowering — and 0 otherwise, so a
// conv reports its true product cost rather than 0.
func (o Op) MatMulFLOPs() int64 {
	if o.Kind != OpMatMul && o.Kind != OpConv2D {
		return 0
	}
	return 2 * int64(o.A) * int64(o.N) * int64(o.B)
}

// Trace accumulates the operations of a forward pass. Each recording
// method also computes the value it records and returns it, so a forward
// pass takes every product and nonlinear output from the call that
// records it; a nil *Trace computes without recording.
type Trace struct {
	// Capture stores concrete operand matrices in each Op, which the
	// zkml compiler needs to actually prove the pass. Costing-only
	// consumers leave it false.
	Capture bool
	Ops     []Op

	// exec, when non-nil, gives the value of each matmul, conv, softmax
	// and GELU op in place of op.value(cfg). It is handed the op with
	// its live operands in X/W or In; a replay executor returns values
	// taken from elsewhere.
	exec func(op Op, cfg *Config) *tensor.Mat
}

// value computes op from its operands: the fixed-point product for a
// matmul or conv, the row softmax or elementwise GELU of In otherwise.
func (op Op) value(cfg *Config) *tensor.Mat {
	switch op.Kind {
	case OpSoftmax:
		return tensor.SoftmaxRows(op.In, cfg.Fixed, cfg.ClipT, cfg.SquareIters)
	case OpGELU:
		return tensor.GELU(op.In, cfg.Fixed)
	default:
		return tensor.MatMul(op.X, op.W, cfg.Fixed)
	}
}

// do records op, whose operand fields hold the live operands, and
// returns its value.
func (t *Trace) do(op Op, cfg *Config) *tensor.Mat {
	if t == nil {
		return op.value(cfg)
	}
	rec := op
	rec.X, rec.W, rec.In = nil, nil, nil
	if t.Capture {
		if op.In != nil {
			rec.In = op.In.Clone()
		} else {
			rec.X, rec.W = op.X.Clone(), op.W.Clone()
		}
	}
	t.Ops = append(t.Ops, rec)
	if t.exec != nil {
		return t.exec(op, cfg)
	}
	return op.value(cfg)
}

func (t *Trace) matmul(layer int, tag string, x, w *tensor.Mat, cfg *Config) *tensor.Mat {
	return t.do(Op{Kind: OpMatMul, Layer: layer, Tag: tag, A: x.Rows, N: x.Cols, B: w.Cols, X: x, W: w}, cfg)
}

// conv2d records and computes one lowered convolution: cols is the
// im2col expansion of a cin×(inH·inW) feature map under spec's
// geometry, kernel the KH·KW·CIn × COut reshaped filter bank.
func (t *Trace) conv2d(layer int, tag string, cols, kernel *tensor.Mat, spec ConvSpec, cin, inH, inW int, cfg *Config) *tensor.Mat {
	return t.do(Op{
		Kind: OpConv2D, Layer: layer, Tag: tag,
		A: cols.Rows, N: cols.Cols, B: kernel.Cols,
		KH: spec.Kernel, KW: spec.Kernel, Stride: spec.Stride, Pad: spec.Pad,
		CIn: cin, COut: kernel.Cols, InH: inH, InW: inW,
		X: cols, W: kernel,
	}, cfg)
}

func (t *Trace) softmax(layer int, tag string, in *tensor.Mat, cfg *Config) *tensor.Mat {
	return t.do(Op{Kind: OpSoftmax, Layer: layer, Tag: tag, Rows: in.Rows, Width: in.Cols, In: in}, cfg)
}

func (t *Trace) gelu(layer int, tag string, in *tensor.Mat, cfg *Config) *tensor.Mat {
	return t.do(Op{Kind: OpGELU, Layer: layer, Tag: tag, Rows: in.Rows, Width: in.Cols, In: in}, cfg)
}

func (t *Trace) pool(layer int, tag string, rows, width int) {
	if t == nil {
		return
	}
	t.Ops = append(t.Ops, Op{Kind: OpPool, Layer: layer, Tag: tag, Rows: rows, Width: width})
}

// MatMuls returns only the matmul ops (the proving-cost drivers).
func (t *Trace) MatMuls() []Op {
	var out []Op
	for _, op := range t.Ops {
		if op.Kind == OpMatMul {
			out = append(out, op)
		}
	}
	return out
}

// Stage describes one stage of a hierarchical model: how many blocks it
// has, its embedding dimension, and the token count entering it.
type Stage struct {
	Blocks int
	Dim    int
	Tokens int
}

// Config fixes a transformer architecture. Construct one with the
// paper-shape helpers (ViTCIFAR10, ViTTinyImageNet, ViTImageNetHier,
// BERTGLUE) or by hand, then Validate it.
type Config struct {
	Name string

	// Stages: plain (non-hierarchical) models have exactly one stage.
	// Between stages the token count halves twice (the patch-merging
	// downsample) and the dimension switches via a projection matmul.
	Stages []Stage

	Heads      int
	MLPRatio   int // MLP hidden dim = MLPRatio·Dim
	PatchDim   int // input feature width before the embedding matmul
	NumClasses int

	// Mixers assigns a token mixer to every block, concatenated across
	// stages. len(Mixers) must equal TotalBlocks().
	Mixers []MixerKind

	// Convs, when non-empty, makes this a convolutional architecture
	// (IsCNN): the forward pass is conv→pool→gelu per layer followed by
	// a flatten and the classification head, with no transformer stages
	// (Stages and Mixers must be empty). InputC/InputH/InputW fix the
	// input feature-map geometry.
	Convs                  []ConvSpec
	InputC, InputH, InputW int

	Fixed fixed.Config
	// ClipT and SquareIters parameterize the §III-C exp approximation.
	ClipT       int64
	SquareIters uint
	// PoolWindow is the neighborhood radius of the pooling mixer.
	PoolWindow int
}

// TotalBlocks sums blocks across stages.
func (c *Config) TotalBlocks() int {
	n := 0
	for _, s := range c.Stages {
		n += s.Blocks
	}
	return n
}

// IsCNN reports whether this is a convolutional architecture (any conv
// layers present).
func (c *Config) IsCNN() bool { return len(c.Convs) > 0 }

// Validate checks internal consistency.
func (c *Config) Validate() error {
	if c.IsCNN() {
		return c.validateCNN()
	}
	if len(c.Stages) == 0 {
		return fmt.Errorf("nn: %s: no stages", c.Name)
	}
	// Before the loop: it divides by Heads, and a config decoded off the
	// wire may carry zero there.
	if c.Heads <= 0 || c.MLPRatio <= 0 || c.PatchDim <= 0 || c.NumClasses <= 0 {
		return fmt.Errorf("nn: %s: nonpositive hyperparameter", c.Name)
	}
	for i, s := range c.Stages {
		if s.Blocks <= 0 || s.Dim <= 0 || s.Tokens <= 0 {
			return fmt.Errorf("nn: %s: stage %d has nonpositive shape %+v", c.Name, i, s)
		}
		if s.Dim%c.Heads != 0 {
			return fmt.Errorf("nn: %s: stage %d dim %d not divisible by %d heads", c.Name, i, s.Dim, c.Heads)
		}
	}
	if got, want := len(c.Mixers), c.TotalBlocks(); got != want {
		return fmt.Errorf("nn: %s: %d mixers for %d blocks", c.Name, got, want)
	}
	return nil
}

// UniformMixers returns a mixer assignment using kind for every block.
func UniformMixers(n int, kind MixerKind) []MixerKind {
	ms := make([]MixerKind, n)
	for i := range ms {
		ms[i] = kind
	}
	return ms
}

// WithMixers returns a copy of the config using the given assignment.
func (c Config) WithMixers(ms []MixerKind) Config {
	c.Mixers = append([]MixerKind(nil), ms...)
	return c
}

// defaults fills the nonlinearity knobs every paper config shares.
func (c Config) defaults() Config {
	c.MLPRatio = 4
	c.Fixed = fixed.Default()
	c.ClipT = -8 * c.Fixed.Scale() // clip e^x below x = −8
	c.SquareIters = 5
	c.PoolWindow = 1
	return c
}

// ViTCIFAR10 is the paper's CIFAR-10 model: 7 layers, 4 heads, hidden 256,
// patch size 4 on 32×32 images → 64 tokens of 4·4·3 = 48 input features.
func ViTCIFAR10() Config {
	c := Config{
		Name:       "vit-cifar10",
		Stages:     []Stage{{Blocks: 7, Dim: 256, Tokens: 64}},
		Heads:      4,
		PatchDim:   48,
		NumClasses: 10,
	}.defaults()
	c.Mixers = UniformMixers(7, MixerSoftmax)
	return c
}

// ViTTinyImageNet is the paper's Tiny-ImageNet model: 9 layers, 12 heads,
// hidden 192, patch size 4 on 64×64 images → 256 tokens of 48 features.
func ViTTinyImageNet() Config {
	c := Config{
		Name:       "vit-tiny-imagenet",
		Stages:     []Stage{{Blocks: 9, Dim: 192, Tokens: 256}},
		Heads:      12,
		PatchDim:   48,
		NumClasses: 200,
	}.defaults()
	c.Mixers = UniformMixers(9, MixerSoftmax)
	return c
}

// ViTImageNetHier is the paper's hierarchical ImageNet model: 12 layers in
// 4 stages with embedding dims 64/128/320/512, patch size 4 on 224×224
// images → 3136 tokens entering stage 1, quartered between stages.
func ViTImageNetHier() Config {
	c := Config{
		Name: "vit-imagenet-hier",
		Stages: []Stage{
			{Blocks: 2, Dim: 64, Tokens: 3136},
			{Blocks: 2, Dim: 128, Tokens: 784},
			{Blocks: 6, Dim: 320, Tokens: 196},
			{Blocks: 2, Dim: 512, Tokens: 49},
		},
		Heads:      4,
		PatchDim:   48,
		NumClasses: 1000,
	}.defaults()
	c.Mixers = UniformMixers(12, MixerSoftmax)
	return c
}

// BERTGLUE is the paper's NLP model: 4 layers, 4 heads, embedding 256,
// sequence length 128 (GLUE fine-tuning shapes).
func BERTGLUE() Config {
	c := Config{
		Name:       "bert-glue",
		Stages:     []Stage{{Blocks: 4, Dim: 256, Tokens: 128}},
		Heads:      4,
		PatchDim:   64, // token-embedding input width (vocab projection)
		NumClasses: 3,  // MNLI has 3 classes; binary tasks ignore one
	}.defaults()
	c.Mixers = UniformMixers(4, MixerSoftmax)
	return c
}

// TinyConfig is a deliberately small synthetic architecture — one
// block, four tokens, dim 4 — for demos, fuzz corpora and end-to-end
// tests where full proving (including Groth16 per-circuit setup) must
// stay in budget. It is the single source of truth for "the smallest
// valid transformer"; keep CLI demos and test fixtures on it instead of
// hand-building near-copies.
func TinyConfig(name string, mixer MixerKind) Config {
	c := Config{
		Name:       name,
		Stages:     []Stage{{Blocks: 1, Dim: 4, Tokens: 4}},
		Heads:      2,
		PatchDim:   4,
		NumClasses: 2,
	}.defaults()
	c.MLPRatio = 1
	c.Mixers = UniformMixers(1, mixer)
	return c
}

// Scaled returns a copy with every stage's tokens and dim divided by f
// (floored to legal values) — the harness's tractable "scaled mode".
// Head count is reduced to keep dim divisible. For a CNN, channel
// counts shrink instead; spatial geometry is untouched so the pooling
// divisibility invariants survive any factor.
func (c Config) Scaled(f int) Config {
	if f <= 1 {
		return c
	}
	if c.IsCNN() {
		return c.scaledCNN(f)
	}
	out := c
	out.Name = fmt.Sprintf("%s/scaled%d", c.Name, f)
	out.Stages = append([]Stage(nil), c.Stages...)
	for i := range out.Stages {
		s := &out.Stages[i]
		s.Dim = max(4, s.Dim/f)
		s.Tokens = max(4, s.Tokens/f)
	}
	out.Heads = 1
	for h := c.Heads; h >= 1; h-- {
		ok := true
		for _, s := range out.Stages {
			if s.Dim%h != 0 {
				ok = false
				break
			}
		}
		if ok {
			out.Heads = h
			break
		}
	}
	out.PatchDim = max(4, c.PatchDim/f)
	out.Mixers = append([]MixerKind(nil), c.Mixers...)
	return out
}

// ShapeTrace emits the op sequence of one forward pass purely from the
// configuration — no arithmetic, no weights — for consumers that only
// need circuit shapes (the planner's costing, zkml's full-shape
// measurement): a computing Forward takes seconds on the unscaled paper
// configs, this takes microseconds. It must stay in lockstep with
// Model.Forward; the equivalence is asserted by
// TestShapeTraceMatchesForward.
func ShapeTrace(cfg Config) *Trace {
	if cfg.IsCNN() {
		return shapeTraceCNN(cfg)
	}
	t := &Trace{}
	dim0 := cfg.Stages[0].Dim
	t.Ops = append(t.Ops, Op{Kind: OpMatMul, Layer: -1, Tag: "embed",
		A: cfg.Stages[0].Tokens, N: cfg.PatchDim, B: dim0})

	layer := 0
	for si, st := range cfg.Stages {
		if si > 0 {
			t.Ops = append(t.Ops, Op{Kind: OpMatMul, Layer: -1,
				Tag: fmt.Sprintf("proj.stage%d", si),
				A:   st.Tokens, N: cfg.Stages[si-1].Dim, B: st.Dim})
		}
		for b := 0; b < st.Blocks; b++ {
			shapeBlock(t, cfg, layer, st.Tokens, st.Dim)
			layer++
		}
	}
	last := cfg.Stages[len(cfg.Stages)-1].Dim
	t.Ops = append(t.Ops, Op{Kind: OpMatMul, Layer: -1, Tag: "head",
		A: 1, N: last, B: cfg.NumClasses})
	return t
}

// shapeBlock mirrors Model.block / Model.mix without data.
func shapeBlock(t *Trace, cfg Config, layer, tok, d int) {
	dh := d / cfg.Heads
	add := func(op Op) { t.Ops = append(t.Ops, op) }
	switch cfg.Mixers[layer] {
	case MixerSoftmax:
		add(Op{Kind: OpMatMul, Layer: layer, Tag: "attn.q", A: tok, N: d, B: d})
		add(Op{Kind: OpMatMul, Layer: layer, Tag: "attn.k", A: tok, N: d, B: d})
		add(Op{Kind: OpMatMul, Layer: layer, Tag: "attn.v", A: tok, N: d, B: d})
		for h := 0; h < cfg.Heads; h++ {
			add(Op{Kind: OpMatMul, Layer: layer, Tag: fmt.Sprintf("attn.h%d.qk", h), A: tok, N: dh, B: tok})
			add(Op{Kind: OpSoftmax, Layer: layer, Tag: fmt.Sprintf("attn.h%d.softmax", h), Rows: tok, Width: tok})
			add(Op{Kind: OpMatMul, Layer: layer, Tag: fmt.Sprintf("attn.h%d.pv", h), A: tok, N: tok, B: dh})
		}
		add(Op{Kind: OpMatMul, Layer: layer, Tag: "attn.proj", A: tok, N: d, B: d})
	case MixerScaling:
		add(Op{Kind: OpMatMul, Layer: layer, Tag: "attn.q", A: tok, N: d, B: d})
		add(Op{Kind: OpMatMul, Layer: layer, Tag: "attn.k", A: tok, N: d, B: d})
		add(Op{Kind: OpMatMul, Layer: layer, Tag: "attn.v", A: tok, N: d, B: d})
		for h := 0; h < cfg.Heads; h++ {
			add(Op{Kind: OpSoftmax, Layer: layer, Tag: fmt.Sprintf("attn.h%d.softmaxq", h), Rows: tok, Width: dh})
			add(Op{Kind: OpSoftmax, Layer: layer, Tag: fmt.Sprintf("attn.h%d.softmaxk", h), Rows: dh, Width: tok})
			add(Op{Kind: OpMatMul, Layer: layer, Tag: fmt.Sprintf("attn.h%d.kv", h), A: dh, N: tok, B: dh})
			add(Op{Kind: OpMatMul, Layer: layer, Tag: fmt.Sprintf("attn.h%d.qctx", h), A: tok, N: dh, B: dh})
		}
		add(Op{Kind: OpMatMul, Layer: layer, Tag: "attn.proj", A: tok, N: d, B: d})
	case MixerPooling:
		add(Op{Kind: OpPool, Layer: layer, Tag: "pool", Rows: tok, Width: d})
	case MixerLinear:
		add(Op{Kind: OpMatMul, Layer: layer, Tag: "mix.linear", A: tok, N: tok, B: d})
	}
	hid := cfg.MLPRatio * d
	add(Op{Kind: OpMatMul, Layer: layer, Tag: "mlp.fc1", A: tok, N: d, B: hid})
	add(Op{Kind: OpGELU, Layer: layer, Tag: "mlp.gelu", Rows: tok, Width: hid})
	add(Op{Kind: OpMatMul, Layer: layer, Tag: "mlp.fc2", A: tok, N: hid, B: d})
}
