package nn

// Convolution as a first-class traced op, lowered to a matmul.
//
// A feature map is a tensor.Mat with Rows = channels and Cols = H·W
// (row-major spatial layout). A conv layer expands its input with
// Im2col — one row per output pixel, one column per (channel, ky, kx)
// kernel position, zero padding — and multiplies by the kernel reshaped
// to KH·KW·CIn × COut, so the zkml compiler sees an ordinary [A×N]·[N×B]
// product and identical conv layers share one Groth16 CRS through the
// structure-digest cache. The expansion is deterministic and integer-
// exact: same input, same geometry → byte-identical im2col matrix at
// every parallelism level. It is recorded in the attested trace as the
// op's captured X, so a prover cannot substitute a different lowering.

import (
	"fmt"

	"zkvc/internal/fixed"
	"zkvc/internal/tensor"
)

// ConvSpec fixes one conv layer's geometry: a square Kernel applied at
// Stride with symmetric zero Pad producing Out channels, followed by an
// average pool over Pool×Pool windows (1 = no pooling) and a GELU.
type ConvSpec struct {
	Out    int // output channels
	Kernel int // square kernel side
	Stride int
	Pad    int // symmetric zero padding
	Pool   int // post-conv average-pool window; 1 = none
}

// OutSize returns the spatial output size for one input dimension:
// (in + 2·Pad − Kernel)/Stride + 1.
func (s ConvSpec) OutSize(in int) int {
	return (in+2*s.Pad-s.Kernel)/s.Stride + 1
}

// validateCNN checks a convolutional configuration: positive input
// geometry, legal per-layer shapes, exact pooling divisibility (the
// quantized average pool must tile its input), and no leftover
// transformer structure.
func (c *Config) validateCNN() error {
	if len(c.Stages) != 0 || len(c.Mixers) != 0 {
		return fmt.Errorf("nn: %s: conv config must not carry transformer stages or mixers", c.Name)
	}
	if c.InputC <= 0 || c.InputH <= 0 || c.InputW <= 0 {
		return fmt.Errorf("nn: %s: nonpositive input geometry %dx%dx%d", c.Name, c.InputC, c.InputH, c.InputW)
	}
	if c.NumClasses <= 0 {
		return fmt.Errorf("nn: %s: nonpositive class count", c.Name)
	}
	h, w := c.InputH, c.InputW
	for i, s := range c.Convs {
		if s.Out <= 0 || s.Kernel <= 0 || s.Stride <= 0 || s.Pad < 0 || s.Pool <= 0 {
			return fmt.Errorf("nn: %s: conv %d has illegal spec %+v", c.Name, i, s)
		}
		if s.Kernel > h+2*s.Pad || s.Kernel > w+2*s.Pad {
			return fmt.Errorf("nn: %s: conv %d kernel %d exceeds padded input %dx%d", c.Name, i, s.Kernel, h+2*s.Pad, w+2*s.Pad)
		}
		h, w = s.OutSize(h), s.OutSize(w)
		if h <= 0 || w <= 0 {
			return fmt.Errorf("nn: %s: conv %d produces empty output", c.Name, i)
		}
		if s.Pool > 1 {
			if h%s.Pool != 0 || w%s.Pool != 0 {
				return fmt.Errorf("nn: %s: conv %d pool %d does not tile %dx%d", c.Name, i, s.Pool, h, w)
			}
			h, w = h/s.Pool, w/s.Pool
		}
	}
	return nil
}

// FeatureDim returns the flattened feature count entering the head of a
// CNN config: channels·H·W after the last conv/pool layer.
func (c Config) FeatureDim() int {
	ch, h, w := c.InputC, c.InputH, c.InputW
	for _, s := range c.Convs {
		h, w = s.OutSize(h), s.OutSize(w)
		if s.Pool > 1 {
			h, w = h/s.Pool, w/s.Pool
		}
		ch = s.Out
	}
	return ch * h * w
}

// scaledCNN shrinks channel counts by f; spatial geometry is untouched
// so pooling divisibility survives any factor.
func (c Config) scaledCNN(f int) Config {
	out := c
	out.Name = fmt.Sprintf("%s/scaled%d", c.Name, f)
	out.Convs = append([]ConvSpec(nil), c.Convs...)
	for i := range out.Convs {
		out.Convs[i].Out = max(1, out.Convs[i].Out/f)
	}
	return out
}

// Im2col expands a channels×(inH·inW) feature map into the matmul
// operand of a convolution: one row per output pixel (row-major over
// outH×outW), one column per kernel position ordered (channel, ky, kx).
// Out-of-bounds reads are zero (padding). The expansion is pure integer
// data movement — deterministic and quantization-free — which is what
// lets the attested trace carry it as a public operand.
func Im2col(x *tensor.Mat, inH, inW, kernel, stride, pad int) *tensor.Mat {
	if x.Cols != inH*inW {
		panic(fmt.Sprintf("nn: im2col input has %d cols, geometry says %dx%d", x.Cols, inH, inW))
	}
	ch := x.Rows
	outH := (inH+2*pad-kernel)/stride + 1
	outW := (inW+2*pad-kernel)/stride + 1
	out := tensor.New(outH*outW, kernel*kernel*ch)
	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			r := oy*outW + ox
			for c := 0; c < ch; c++ {
				for ky := 0; ky < kernel; ky++ {
					iy := oy*stride + ky - pad
					if iy < 0 || iy >= inH {
						continue
					}
					for kx := 0; kx < kernel; kx++ {
						ix := ox*stride + kx - pad
						if ix < 0 || ix >= inW {
							continue
						}
						out.Set(r, (c*kernel+ky)*kernel+kx, x.At(c, iy*inW+ix))
					}
				}
			}
		}
	}
	return out
}

// AvgPoolSpatial average-pools each channel of a channels×(h·w) feature
// map over non-overlapping win×win windows (h and w must be multiples
// of win), floor-dividing like every other fixed-point rescale.
func AvgPoolSpatial(x *tensor.Mat, h, w, win int) *tensor.Mat {
	if x.Cols != h*w || h%win != 0 || w%win != 0 {
		panic(fmt.Sprintf("nn: avg pool %d does not tile %dx%d (%d cols)", win, h, w, x.Cols))
	}
	ph, pw := h/win, w/win
	out := tensor.New(x.Rows, ph*pw)
	div := int64(win * win)
	for c := 0; c < x.Rows; c++ {
		for py := 0; py < ph; py++ {
			for px := 0; px < pw; px++ {
				var sum int64
				for dy := 0; dy < win; dy++ {
					for dx := 0; dx < win; dx++ {
						sum += x.At(c, (py*win+dy)*w+(px*win+dx))
					}
				}
				out.Set(c, py*pw+px, fixed.FloorDiv(sum, div))
			}
		}
	}
	return out
}

// CNNMNIST is the MNIST-scale CNN of the quickstart progression:
// 1×28×28 input, two 3×3 same-padded conv layers (4 then 8 channels,
// each followed by a 2×2 average pool and GELU), flatten to 392
// features, 10-class head. Every conv lowers to an im2col matmul, so
// the whole model proves through the standard model pipeline.
func CNNMNIST() Config {
	return Config{
		Name:       "cnn-mnist",
		NumClasses: 10,
		InputC:     1, InputH: 28, InputW: 28,
		Convs: []ConvSpec{
			{Out: 4, Kernel: 3, Stride: 1, Pad: 1, Pool: 2},
			{Out: 8, Kernel: 3, Stride: 1, Pad: 1, Pool: 2},
		},
	}.defaults()
}

// TinyCNNConfig is the smallest valid CNN — one conv layer on an 8×8
// single-channel input, two classes — the convolutional counterpart of
// TinyConfig for fuzz corpora, conformance fixtures and end-to-end
// tests where per-circuit Groth16 setup must stay in budget.
func TinyCNNConfig(name string) Config {
	return Config{
		Name:       name,
		NumClasses: 2,
		InputC:     1, InputH: 8, InputW: 8,
		Convs: []ConvSpec{
			{Out: 2, Kernel: 3, Stride: 1, Pad: 1, Pool: 2},
		},
	}.defaults()
}

// shapeTraceCNN mirrors Model.featuresCNN without data; it must stay in
// lockstep with it (TestShapeTraceMatchesForward covers CNN configs).
func shapeTraceCNN(cfg Config) *Trace {
	t := &Trace{}
	ch, h, w := cfg.InputC, cfg.InputH, cfg.InputW
	for i, s := range cfg.Convs {
		outH, outW := s.OutSize(h), s.OutSize(w)
		t.Ops = append(t.Ops, Op{
			Kind: OpConv2D, Layer: i, Tag: fmt.Sprintf("conv%d", i),
			A: outH * outW, N: s.Kernel * s.Kernel * ch, B: s.Out,
			KH: s.Kernel, KW: s.Kernel, Stride: s.Stride, Pad: s.Pad,
			CIn: ch, COut: s.Out, InH: h, InW: w,
		})
		h, w, ch = outH, outW, s.Out
		if s.Pool > 1 {
			t.Ops = append(t.Ops, Op{Kind: OpPool, Layer: i,
				Tag: fmt.Sprintf("conv%d.pool", i), Rows: ch, Width: h * w})
			h, w = h/s.Pool, w/s.Pool
		}
		t.Ops = append(t.Ops, Op{Kind: OpGELU, Layer: i,
			Tag: fmt.Sprintf("conv%d.gelu", i), Rows: ch, Width: h * w})
	}
	t.Ops = append(t.Ops, Op{Kind: OpMatMul, Layer: -1, Tag: "head",
		A: 1, N: ch * h * w, B: cfg.NumClasses})
	return t
}
