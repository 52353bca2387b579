package nn

import (
	"fmt"
	"math"
	mrand "math/rand"

	"zkvc/internal/tensor"
)

// BlockWeights holds one transformer block's parameters. Attention blocks
// use Wq/Wk/Wv/Wo; the linear mixer uses Mix (tokens×tokens); pooling has
// no mixer weights. Every block has the two MLP matrices.
type BlockWeights struct {
	Mixer MixerKind

	Wq, Wk, Wv, Wo *tensor.Mat
	Mix            *tensor.Mat

	W1, W2 *tensor.Mat
}

// Model is a quantized transformer with synthesized (seeded) weights at
// the paper's architectural shapes. Training is out of scope (see
// DESIGN.md substitution 5); proving cost depends only on shapes.
type Model struct {
	Cfg Config

	Embed  *tensor.Mat   // PatchDim × Dim₀
	Proj   []*tensor.Mat // stage transitions: Dimᵢ × Dimᵢ₊₁
	Blocks []BlockWeights
	Head   *tensor.Mat // Dim_last × NumClasses (CNN: FeatureDim × NumClasses)

	// Conv holds one reshaped kernel bank per conv layer of a CNN
	// config: KH·KW·CIn × COut, the weight side of the im2col matmul.
	Conv []*tensor.Mat
}

// weightBound keeps synthesized weights within ±¼ in fixed point so
// residual streams stay bounded after NormRows.
func weightBound(c Config) int64 { return c.Fixed.Scale() / 4 }

// NewModel synthesizes a model for cfg from the seed. The same seed
// always yields the same weights, keeping experiments reproducible.
func NewModel(cfg Config, seed int64) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := mrand.New(mrand.NewSource(seed))
	bound := weightBound(cfg)

	m := &Model{Cfg: cfg}
	if cfg.IsCNN() {
		ch := cfg.InputC
		for _, s := range cfg.Convs {
			m.Conv = append(m.Conv, tensor.Random(rng, s.Kernel*s.Kernel*ch, s.Out, bound))
			ch = s.Out
		}
		m.Head = tensor.Random(rng, cfg.FeatureDim(), cfg.NumClasses, bound)
		return m, nil
	}
	dim0 := cfg.Stages[0].Dim
	m.Embed = tensor.Random(rng, cfg.PatchDim, dim0, bound)

	block := 0
	for si, st := range cfg.Stages {
		if si > 0 {
			prev := cfg.Stages[si-1].Dim
			m.Proj = append(m.Proj, tensor.Random(rng, prev, st.Dim, bound))
		}
		for b := 0; b < st.Blocks; b++ {
			bw := BlockWeights{Mixer: cfg.Mixers[block]}
			d := st.Dim
			switch bw.Mixer {
			case MixerSoftmax, MixerScaling:
				bw.Wq = tensor.Random(rng, d, d, bound)
				bw.Wk = tensor.Random(rng, d, d, bound)
				bw.Wv = tensor.Random(rng, d, d, bound)
				bw.Wo = tensor.Random(rng, d, d, bound)
			case MixerLinear:
				bw.Mix = dctMatrix(st.Tokens, cfg)
			case MixerPooling:
				// no weights
			default:
				return nil, fmt.Errorf("nn: unknown mixer %v", bw.Mixer)
			}
			h := cfg.MLPRatio * d
			bw.W1 = tensor.Random(rng, d, h, bound)
			bw.W2 = tensor.Random(rng, h, d, bound)
			m.Blocks = append(m.Blocks, bw)
			block++
		}
	}
	last := cfg.Stages[len(cfg.Stages)-1].Dim
	m.Head = tensor.Random(rng, last, cfg.NumClasses, bound)
	return m, nil
}

// dctMatrix quantizes the orthonormal DCT-II transform over the token
// axis — the FNet-style fixed mixing matrix of SoftFree-L.
func dctMatrix(n int, cfg Config) *tensor.Mat {
	m := tensor.New(n, n)
	for k := 0; k < n; k++ {
		amp := math.Sqrt(2.0 / float64(n))
		if k == 0 {
			amp = math.Sqrt(1.0 / float64(n))
		}
		for t := 0; t < n; t++ {
			v := amp * math.Cos(math.Pi*(float64(t)+0.5)*float64(k)/float64(n))
			m.Set(k, t, cfg.Fixed.Quantize(v))
		}
	}
	return m
}

// RandomInput synthesizes a quantized input at the model's input grid:
// Tokens₀ × PatchDim for a transformer, InputC × (InputH·InputW) for a
// CNN, entries within ±1 in fixed point.
func (m *Model) RandomInput(rng *mrand.Rand) *tensor.Mat {
	if m.Cfg.IsCNN() {
		return tensor.Random(rng, m.Cfg.InputC, m.Cfg.InputH*m.Cfg.InputW, m.Cfg.Fixed.Scale())
	}
	return tensor.Random(rng, m.Cfg.Stages[0].Tokens, m.Cfg.PatchDim, m.Cfg.Fixed.Scale())
}

// Forward runs inference and returns the 1×NumClasses logits. Every
// matmul, conv and nonlinear output comes from the trace call that
// records it; a nil trace computes without recording.
func (m *Model) Forward(x *tensor.Mat, trace *Trace) *tensor.Mat {
	return trace.matmul(-1, "head", m.features(x, trace), m.Head, &m.Cfg)
}

// features runs everything before the classification head and returns
// the 1×D pre-head feature row (D = Dim_last for a transformer,
// FeatureDim for a CNN). Forward and TraceSGDStep share it, so a
// fine-tuning trace records exactly the forward ops inference records.
func (m *Model) features(x *tensor.Mat, trace *Trace) *tensor.Mat {
	cfg := &m.Cfg
	fx := cfg.Fixed
	if cfg.IsCNN() {
		return m.featuresCNN(x, trace)
	}

	h := tensor.NormRows(trace.matmul(-1, "embed", x, m.Embed, cfg), fx)

	block := 0
	for si, st := range cfg.Stages {
		if si > 0 {
			// Patch merging: quarter the tokens, then project to the
			// new width.
			h = tensor.DownsampleTokens(h)
			h = tensor.DownsampleTokens(h)
			h = trace.matmul(-1, fmt.Sprintf("proj.stage%d", si), h, m.Proj[si-1], cfg)
			h = tensor.NormRows(h, fx)
		}
		for b := 0; b < st.Blocks; b++ {
			h = m.block(h, block, trace)
			block++
		}
	}

	return tensor.MeanRows(h)
}

// featuresCNN is the convolutional forward pass: per layer, im2col →
// traced conv matmul → average pool → GELU, then a row-major flatten.
// It must stay in lockstep with shapeTraceCNN.
func (m *Model) featuresCNN(x *tensor.Mat, trace *Trace) *tensor.Mat {
	cfg := &m.Cfg
	h, w, ch := cfg.InputH, cfg.InputW, cfg.InputC
	cur := x
	for i, s := range cfg.Convs {
		cols := Im2col(cur, h, w, s.Kernel, s.Stride, s.Pad)
		// (outH·outW)×Out product, transposed back to channel-major.
		cur = tensor.Transpose(trace.conv2d(i, fmt.Sprintf("conv%d", i), cols, m.Conv[i], s, ch, h, w, cfg))
		h, w, ch = s.OutSize(h), s.OutSize(w), s.Out
		if s.Pool > 1 {
			trace.pool(i, fmt.Sprintf("conv%d.pool", i), cur.Rows, cur.Cols)
			cur = AvgPoolSpatial(cur, h, w, s.Pool)
			h, w = h/s.Pool, w/s.Pool
		}
		cur = trace.gelu(i, fmt.Sprintf("conv%d.gelu", i), cur, cfg)
	}
	// Row-major flatten: channel-major data is already contiguous.
	return &tensor.Mat{Rows: 1, Cols: ch * h * w, Data: cur.Data}
}

// block applies one pre-norm transformer block: x + Mixer(Norm(x)), then
// x + MLP(Norm(x)).
func (m *Model) block(x *tensor.Mat, layer int, trace *Trace) *tensor.Mat {
	cfg := &m.Cfg
	fx := cfg.Fixed
	bw := m.Blocks[layer]

	mixed := m.mix(tensor.NormRows(x, fx), layer, trace)
	x = tensor.Add(x, mixed)

	u := trace.matmul(layer, "mlp.fc1", tensor.NormRows(x, fx), bw.W1, cfg)
	u = trace.gelu(layer, "mlp.gelu", u, cfg)
	u = trace.matmul(layer, "mlp.fc2", u, bw.W2, cfg)
	return tensor.Add(x, u)
}

// mix applies the block's token mixer.
func (m *Model) mix(x *tensor.Mat, layer int, trace *Trace) *tensor.Mat {
	cfg := &m.Cfg
	bw := m.Blocks[layer]

	switch bw.Mixer {
	case MixerSoftmax:
		return m.softmaxAttention(x, layer, trace)
	case MixerScaling:
		return m.scalingAttention(x, layer, trace)
	case MixerPooling:
		trace.pool(layer, "pool", x.Rows, x.Cols)
		return tensor.MeanPoolTokens(x, cfg.PoolWindow)
	case MixerLinear:
		return trace.matmul(layer, "mix.linear", bw.Mix, x, cfg)
	default:
		panic(fmt.Sprintf("nn: unknown mixer %v", bw.Mixer))
	}
}

// softmaxAttention is standard multi-head attention with the paper's
// softmax approximation: scores = QKᵀ/√dₕ softmaxed per row, out =
// scores·V, heads concatenated through Wo. Quadratic in tokens.
func (m *Model) softmaxAttention(x *tensor.Mat, layer int, trace *Trace) *tensor.Mat {
	cfg := &m.Cfg
	bw := m.Blocks[layer]

	q := trace.matmul(layer, "attn.q", x, bw.Wq, cfg)
	k := trace.matmul(layer, "attn.k", x, bw.Wk, cfg)
	v := trace.matmul(layer, "attn.v", x, bw.Wv, cfg)

	d := x.Cols
	dh := d / cfg.Heads
	sqrtDh := int64(math.Round(math.Sqrt(float64(dh))))
	heads := make([]*tensor.Mat, cfg.Heads)
	for hIdx := 0; hIdx < cfg.Heads; hIdx++ {
		lo, hi := hIdx*dh, (hIdx+1)*dh
		qh := tensor.SliceCols(q, lo, hi)
		kh := tensor.SliceCols(k, lo, hi)
		vh := tensor.SliceCols(v, lo, hi)

		scores := trace.matmul(layer, fmt.Sprintf("attn.h%d.qk", hIdx), qh, tensor.Transpose(kh), cfg)
		scores = tensor.Scale(scores, 1, sqrtDh)
		probs := trace.softmax(layer, fmt.Sprintf("attn.h%d.softmax", hIdx), scores, cfg)
		heads[hIdx] = trace.matmul(layer, fmt.Sprintf("attn.h%d.pv", hIdx), probs, vh, cfg)
	}
	out := tensor.ConcatCols(heads...)
	return trace.matmul(layer, "attn.proj", out, bw.Wo, cfg)
}

// scalingAttention is the linear-complexity efficient attention of
// Shen et al.: softmax over the feature axis of Q and the token axis of
// K, then Q·(KᵀV), so cost is linear in the token count.
func (m *Model) scalingAttention(x *tensor.Mat, layer int, trace *Trace) *tensor.Mat {
	cfg := &m.Cfg
	bw := m.Blocks[layer]

	q := trace.matmul(layer, "attn.q", x, bw.Wq, cfg)
	k := trace.matmul(layer, "attn.k", x, bw.Wk, cfg)
	v := trace.matmul(layer, "attn.v", x, bw.Wv, cfg)

	d := x.Cols
	dh := d / cfg.Heads
	heads := make([]*tensor.Mat, cfg.Heads)
	for hIdx := 0; hIdx < cfg.Heads; hIdx++ {
		lo, hi := hIdx*dh, (hIdx+1)*dh
		qh := tensor.SliceCols(q, lo, hi)
		kh := tensor.SliceCols(k, lo, hi)
		vh := tensor.SliceCols(v, lo, hi)

		qs := trace.softmax(layer, fmt.Sprintf("attn.h%d.softmaxq", hIdx), qh, cfg)
		// The key softmax runs down K's token axis: a row softmax of Kᵀ.
		kt := trace.softmax(layer, fmt.Sprintf("attn.h%d.softmaxk", hIdx), tensor.Transpose(kh), cfg)
		ctx := trace.matmul(layer, fmt.Sprintf("attn.h%d.kv", hIdx), kt, vh, cfg)
		heads[hIdx] = trace.matmul(layer, fmt.Sprintf("attn.h%d.qctx", hIdx), qs, ctx, cfg)
	}
	out := tensor.ConcatCols(heads...)
	return trace.matmul(layer, "attn.proj", out, bw.Wo, cfg)
}
