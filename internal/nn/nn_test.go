package nn

import (
	mrand "math/rand"
	"testing"

	"zkvc/internal/tensor"
)

func testConfig(kind MixerKind) Config {
	c := Config{
		Name:       "test",
		Stages:     []Stage{{Blocks: 2, Dim: 16, Tokens: 8}},
		Heads:      2,
		PatchDim:   12,
		NumClasses: 3,
	}.defaults()
	c.Mixers = UniformMixers(2, kind)
	return c
}

func TestPaperConfigsValidate(t *testing.T) {
	for _, cfg := range []Config{ViTCIFAR10(), ViTTinyImageNet(), ViTImageNetHier(), BERTGLUE()} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
}

func TestPaperConfigShapes(t *testing.T) {
	c := ViTCIFAR10()
	if c.TotalBlocks() != 7 || c.Heads != 4 || c.Stages[0].Dim != 256 || c.Stages[0].Tokens != 64 {
		t.Errorf("CIFAR-10 config off: %+v", c)
	}
	ti := ViTTinyImageNet()
	if ti.TotalBlocks() != 9 || ti.Heads != 12 || ti.Stages[0].Dim != 192 {
		t.Errorf("Tiny-ImageNet config off: %+v", ti)
	}
	im := ViTImageNetHier()
	if im.TotalBlocks() != 12 || len(im.Stages) != 4 {
		t.Errorf("ImageNet config off: %+v", im)
	}
	dims := []int{64, 128, 320, 512}
	for i, s := range im.Stages {
		if s.Dim != dims[i] {
			t.Errorf("ImageNet stage %d dim = %d, want %d", i, s.Dim, dims[i])
		}
	}
	if im.Stages[0].Tokens != 3136 || im.Stages[3].Tokens != 49 {
		t.Errorf("ImageNet tokens off: %+v", im.Stages)
	}
	b := BERTGLUE()
	if b.TotalBlocks() != 4 || b.Heads != 4 || b.Stages[0].Dim != 256 || b.Stages[0].Tokens != 128 {
		t.Errorf("BERT config off: %+v", b)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	c := testConfig(MixerSoftmax)
	c.Mixers = c.Mixers[:1]
	if err := c.Validate(); err == nil {
		t.Error("mixer/block mismatch accepted")
	}
	c = testConfig(MixerSoftmax)
	c.Stages[0].Dim = 15 // not divisible by 2 heads
	if err := c.Validate(); err == nil {
		t.Error("indivisible head dim accepted")
	}
	c = testConfig(MixerSoftmax)
	c.Stages = nil
	if err := c.Validate(); err == nil {
		t.Error("empty stages accepted")
	}
}

func TestForwardShapesAllMixers(t *testing.T) {
	rng := mrand.New(mrand.NewSource(1))
	for _, kind := range []MixerKind{MixerSoftmax, MixerScaling, MixerPooling, MixerLinear} {
		cfg := testConfig(kind)
		m, err := NewModel(cfg, 42)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		x := m.RandomInput(rng)
		logits := m.Forward(x, nil)
		if logits.Rows != 1 || logits.Cols != cfg.NumClasses {
			t.Errorf("%v: logits %dx%d, want 1x%d", kind, logits.Rows, logits.Cols, cfg.NumClasses)
		}
	}
}

func TestForwardDeterministic(t *testing.T) {
	cfg := testConfig(MixerSoftmax)
	m, err := NewModel(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	x := m.RandomInput(mrand.New(mrand.NewSource(5)))
	a := m.Forward(x, nil)
	b := m.Forward(x, nil)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("nondeterministic forward at %d: %d vs %d", i, a.Data[i], b.Data[i])
		}
	}
	m2, err := NewModel(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	c := m2.Forward(x, nil)
	for i := range a.Data {
		if a.Data[i] != c.Data[i] {
			t.Fatalf("same seed, different model output at %d", i)
		}
	}
}

func TestTraceRecordsMatMuls(t *testing.T) {
	cfg := testConfig(MixerSoftmax)
	m, err := NewModel(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	x := m.RandomInput(mrand.New(mrand.NewSource(5)))
	var trace Trace
	m.Forward(x, &trace)

	// embed + head + per block: q,k,v + per head (qk, pv) + proj + fc1 + fc2.
	perBlock := 3 + 2*cfg.Heads + 1 + 2
	want := 2 + cfg.TotalBlocks()*perBlock
	if got := len(trace.MatMuls()); got != want {
		t.Errorf("matmul count = %d, want %d", got, want)
	}
	// Dimensions must chain: every matmul has positive dims.
	for _, op := range trace.MatMuls() {
		if op.A <= 0 || op.N <= 0 || op.B <= 0 {
			t.Errorf("op %q has bad dims %dx%dx%d", op.Tag, op.A, op.N, op.B)
		}
		if op.X != nil {
			t.Errorf("op %q captured data without Capture", op.Tag)
		}
	}
}

func TestTraceCaptureMatchesExecution(t *testing.T) {
	cfg := testConfig(MixerScaling)
	m, err := NewModel(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	x := m.RandomInput(mrand.New(mrand.NewSource(5)))
	trace := Trace{Capture: true}
	m.Forward(x, &trace)
	for _, op := range trace.Ops {
		switch op.Kind {
		case OpMatMul:
			if op.X == nil || op.W == nil {
				t.Fatalf("op %q missing captured operands", op.Tag)
			}
			if op.X.Rows != op.A || op.X.Cols != op.N || op.W.Rows != op.N || op.W.Cols != op.B {
				t.Errorf("op %q capture shape mismatch", op.Tag)
			}
			// Verify the recorded product is consistent with raw matmul
			// (the circuits verify the raw integer product).
			raw := tensor.MatMulRaw(op.X, op.W)
			if raw.Rows != op.A || raw.Cols != op.B {
				t.Errorf("op %q raw product shape off", op.Tag)
			}
		case OpSoftmax, OpGELU:
			if op.In == nil {
				t.Fatalf("op %q missing captured input", op.Tag)
			}
		}
	}
}

func TestHierarchicalStagesChangeShape(t *testing.T) {
	cfg := Config{
		Name: "hier-test",
		Stages: []Stage{
			{Blocks: 1, Dim: 8, Tokens: 16},
			{Blocks: 1, Dim: 16, Tokens: 4},
		},
		Heads:      2,
		PatchDim:   8,
		NumClasses: 2,
	}.defaults()
	cfg.Mixers = UniformMixers(2, MixerPooling)
	m, err := NewModel(cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Proj) != 1 || m.Proj[0].Rows != 8 || m.Proj[0].Cols != 16 {
		t.Fatalf("stage projection shape wrong: %+v", m.Proj)
	}
	x := m.RandomInput(mrand.New(mrand.NewSource(3)))
	var trace Trace
	logits := m.Forward(x, &trace)
	if logits.Cols != 2 {
		t.Errorf("logits cols = %d", logits.Cols)
	}
	// The stage-2 matmuls must see 4 tokens.
	found := false
	for _, op := range trace.MatMuls() {
		if op.Tag == "mlp.fc1" && op.Layer == 1 {
			found = true
			if op.A != 4 {
				t.Errorf("stage-2 fc1 tokens = %d, want 4", op.A)
			}
			if op.N != 16 {
				t.Errorf("stage-2 fc1 dim = %d, want 16", op.N)
			}
		}
	}
	if !found {
		t.Error("no stage-2 fc1 op traced")
	}
}

func TestScaledConfig(t *testing.T) {
	c := ViTImageNetHier().Scaled(8)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Stages[0].Tokens != 392 || c.Stages[0].Dim != 8 {
		t.Errorf("scaled stage 0 = %+v", c.Stages[0])
	}
	if c.Scaled(1).Name != c.Name {
		t.Error("Scaled(1) should be identity")
	}
}

func TestDCTMatrixOrthogonalish(t *testing.T) {
	cfg := testConfig(MixerLinear)
	m := dctMatrix(8, cfg)
	// M·Mᵀ should be close to scale²·I (DCT-II with orthonormal scaling).
	mt := tensor.Transpose(m)
	prod := tensor.MatMulRaw(m, mt)
	scale2 := cfg.Fixed.Scale() * cfg.Fixed.Scale()
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			v := prod.At(i, j)
			want := int64(0)
			if i == j {
				want = scale2
			}
			diff := v - want
			if diff < 0 {
				diff = -diff
			}
			if diff > scale2/8 {
				t.Errorf("DCT gram (%d,%d) = %d, want ~%d", i, j, v, want)
			}
		}
	}
}

func TestMixerStringNames(t *testing.T) {
	names := map[MixerKind]string{
		MixerSoftmax: "SoftApprox",
		MixerScaling: "SoftFree-S",
		MixerPooling: "SoftFree-P",
		MixerLinear:  "SoftFree-L",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestOpKindStrings(t *testing.T) {
	if OpMatMul.String() != "matmul" || OpSoftmax.String() != "softmax" {
		t.Error("OpKind names wrong")
	}
}

func TestMatMulFLOPs(t *testing.T) {
	op := Op{Kind: OpMatMul, A: 2, N: 3, B: 4}
	if op.MatMulFLOPs() != 48 {
		t.Errorf("FLOPs = %d", op.MatMulFLOPs())
	}
	if (Op{Kind: OpGELU}).MatMulFLOPs() != 0 {
		t.Error("non-matmul op has FLOPs")
	}
}

// TestShapeTraceMatchesForward pins ShapeTrace to the real execution: op
// kinds, tags and dimensions must agree exactly for every mixer and for
// hierarchical stages. The planner prices blocks from ShapeTrace, so this
// also pins its prices to the ops Forward runs.
func TestShapeTraceMatchesForward(t *testing.T) {
	configs := []Config{}
	for _, kind := range []MixerKind{MixerSoftmax, MixerScaling, MixerPooling, MixerLinear} {
		configs = append(configs, testConfig(kind))
	}
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
	configs = append(configs, hier, CNNMNIST(), TinyCNNConfig("tiny-cnn"))

	for _, cfg := range configs {
		m, err := NewModel(cfg, 3)
		if err != nil {
			t.Fatal(err)
		}
		var real Trace
		m.Forward(m.RandomInput(mrand.New(mrand.NewSource(1))), &real)
		shape := ShapeTrace(cfg)
		if len(shape.Ops) != len(real.Ops) {
			t.Fatalf("%s: %d shape ops vs %d real ops", cfg.Name, len(shape.Ops), len(real.Ops))
		}
		for i := range real.Ops {
			a, b := real.Ops[i], shape.Ops[i]
			if a.Kind != b.Kind || a.Tag != b.Tag || a.Layer != b.Layer ||
				a.A != b.A || a.N != b.N || a.B != b.B || a.Rows != b.Rows || a.Width != b.Width ||
				a.KH != b.KH || a.KW != b.KW || a.Stride != b.Stride || a.Pad != b.Pad ||
				a.CIn != b.CIn || a.COut != b.COut || a.InH != b.InH || a.InW != b.InW {
				t.Errorf("%s op %d: real %+v vs shape %+v", cfg.Name, i, a, b)
			}
		}
	}
}
