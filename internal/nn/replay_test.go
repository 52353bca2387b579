package nn

import (
	mrand "math/rand"
	"slices"
	"testing"

	"zkvc/internal/tensor"
)

func sameMat(a, b *tensor.Mat) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Rows == b.Rows && a.Cols == b.Cols && slices.Equal(a.Data, b.Data)
}

// replayer is an executor that computes nothing: it hands back the value
// captured for each op, in trace order, and keeps the operands it was
// handed so a test can compare them with the captured ones.
type replayer struct {
	t      *testing.T
	ops    []Op          // captured ops that have a value (no pools)
	outs   []*tensor.Mat // their captured values
	handed []Op
}

func (r *replayer) exec(op Op, _ *Config) *tensor.Mat {
	i := len(r.handed)
	if i >= len(r.outs) {
		r.t.Fatalf("replay asked for op %d (%s), capture has %d", i, op.Tag, len(r.outs))
	}
	if want := r.ops[i]; op.Kind != want.Kind || op.Layer != want.Layer || op.Tag != want.Tag {
		r.t.Fatalf("replay op %d is %v %d %q, capture has %v %d %q",
			i, op.Kind, op.Layer, op.Tag, want.Kind, want.Layer, want.Tag)
	}
	for _, m := range []**tensor.Mat{&op.X, &op.W, &op.In} {
		if *m != nil {
			*m = (*m).Clone()
		}
	}
	r.handed = append(r.handed, op)
	return r.outs[i].Clone()
}

// operandsMatch reports whether op i was handed the captured operands.
func (r *replayer) operandsMatch(i int) bool {
	got, want := r.handed[i], r.ops[i]
	return sameMat(got.X, want.X) && sameMat(got.W, want.W) && sameMat(got.In, want.In)
}

// captureAndReplay runs run once on a capturing trace whose executor
// keeps every value it computes, then again on a trace whose executor
// replays those values. perturb, if set, edits the captured values
// before the replay. It returns both runs' results and the replayer.
func captureAndReplay(t *testing.T, run func(*Trace) []*tensor.Mat, perturb func(ops []Op, outs []*tensor.Mat)) (captured, replayed []*tensor.Mat, r *replayer) {
	var outs []*tensor.Mat
	tr := &Trace{Capture: true, exec: func(op Op, cfg *Config) *tensor.Mat {
		out := op.value(cfg)
		outs = append(outs, out.Clone())
		return out
	}}
	captured = run(tr)
	r = &replayer{t: t, outs: outs}
	for _, op := range tr.Ops {
		if op.Kind != OpPool {
			r.ops = append(r.ops, op)
		}
	}
	if len(r.ops) != len(outs) {
		t.Fatalf("executor ran %d times for %d recorded ops", len(outs), len(r.ops))
	}
	if perturb != nil {
		perturb(r.ops, outs)
	}
	replayed = run(&Trace{exec: r.exec})
	if len(r.handed) != len(outs) {
		t.Fatalf("replay ran %d of %d ops", len(r.handed), len(outs))
	}
	return captured, replayed, r
}

func forwardRun(t *testing.T, cfg Config) func(*Trace) []*tensor.Mat {
	m, err := NewModel(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	x := m.RandomInput(mrand.New(mrand.NewSource(1)))
	return func(tr *Trace) []*tensor.Mat { return []*tensor.Mat{m.Forward(x, tr)} }
}

// TestReplayReproducesForward runs Forward and an SGD step with every
// product and nonlinear output taken from a captured trace instead of
// computed. The replay must be handed exactly the captured operands,
// once per op in trace order, and end in the same results bit for bit.
func TestReplayReproducesForward(t *testing.T) {
	hier := Config{
		Name: "hier",
		Stages: []Stage{
			{Blocks: 1, Dim: 8, Tokens: 16},
			{Blocks: 2, Dim: 16, Tokens: 4},
		},
		Heads:      2,
		PatchDim:   8,
		NumClasses: 2,
	}.defaults()
	hier.Mixers = []MixerKind{MixerScaling, MixerSoftmax, MixerLinear}
	cases := map[string]func(*Trace) []*tensor.Mat{}
	for _, kind := range []MixerKind{MixerSoftmax, MixerScaling, MixerPooling, MixerLinear} {
		cases[kind.String()] = forwardRun(t, testConfig(kind))
	}
	for _, cfg := range []Config{hier, BERTGLUE().Scaled(16), CNNMNIST(), TinyCNNConfig("tiny-cnn")} {
		cases[cfg.Name] = forwardRun(t, cfg)
	}
	sgd, err := NewModel(TinyConfig("sgd", MixerSoftmax), 11)
	if err != nil {
		t.Fatal(err)
	}
	sgdX := sgd.RandomInput(mrand.New(mrand.NewSource(12)))
	cases["sgd-step"] = func(tr *Trace) []*tensor.Mat {
		step, err := sgd.sgdStep(sgdX, 1, sgd.Cfg.Fixed.Scale()/8, tr)
		if err != nil {
			t.Fatal(err)
		}
		return []*tensor.Mat{step.Logits, step.NewHead}
	}

	for name, run := range cases {
		t.Run(name, func(t *testing.T) {
			captured, replayed, r := captureAndReplay(t, run, nil)
			for i := range r.handed {
				if !r.operandsMatch(i) {
					t.Fatalf("op %d (%s): replay was handed other operands than the capture", i, r.ops[i].Tag)
				}
			}
			plain := run(&Trace{})
			for i := range captured {
				if !sameMat(replayed[i], captured[i]) || !sameMat(plain[i], captured[i]) {
					t.Fatalf("result %d: capture, replay and plain run disagree", i)
				}
			}
		})
	}
}

// TestReplayPerturbedProductReachesNextOp edits one captured product and
// checks that the replay hands the next op a different X: the forward
// pass really continues from the value the executor returns.
func TestReplayPerturbedProductReachesNextOp(t *testing.T) {
	const tag = "attn.h1.pv" // the last head's product, concatenated into attn.proj's X
	k := -1
	_, _, r := captureAndReplay(t, forwardRun(t, testConfig(MixerSoftmax)), func(ops []Op, outs []*tensor.Mat) {
		if k = slices.IndexFunc(ops, func(op Op) bool { return op.Tag == tag }); k >= 0 {
			outs[k].Data[0] += 1000
		}
	})
	if k < 0 {
		t.Fatalf("no %s op", tag)
	}
	for i := 0; i <= k; i++ {
		if !r.operandsMatch(i) {
			t.Fatalf("op %d (%s) changed before the perturbed product", i, r.ops[i].Tag)
		}
	}
	next, want := r.handed[k+1], r.ops[k+1]
	if next.Tag != "attn.proj" || sameMat(next.X, want.X) || !sameMat(next.W, want.W) {
		t.Fatalf("op after %s is %s: X changed %v, W changed %v; want attn.proj with only X changed",
			tag, next.Tag, !sameMat(next.X, want.X), !sameMat(next.W, want.W))
	}
}
