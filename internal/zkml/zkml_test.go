package zkml

import (
	mrand "math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zkvc/internal/crpc"
	"zkvc/internal/nn"
)

// tinyConfig is small enough that exact end-to-end proving with both
// backends stays in test budget.
func tinyConfig(kind nn.MixerKind) nn.Config {
	c := nn.Config{
		Name:       "tiny",
		Stages:     []nn.Stage{{Blocks: 1, Dim: 8, Tokens: 4}},
		Heads:      2,
		PatchDim:   6,
		NumClasses: 2,
	}
	base := nn.ViTCIFAR10()
	c.MLPRatio = 2
	c.Fixed = base.Fixed
	c.ClipT = base.ClipT
	c.SquareIters = base.SquareIters
	c.PoolWindow = base.PoolWindow
	c.Mixers = nn.UniformMixers(1, kind)
	return c
}

func tinyModel(t *testing.T, kind nn.MixerKind) (*nn.Model, *nn.Config) {
	t.Helper()
	cfg := tinyConfig(kind)
	m, err := nn.NewModel(cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	return m, &cfg
}

func TestProveModelSpartanEndToEnd(t *testing.T) {
	m, _ := tinyModel(t, nn.MixerSoftmax)
	x := m.RandomInput(mrand.New(mrand.NewSource(2)))
	opts := DefaultOptions()
	rep, err := ProveModel(m, x, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Ops) == 0 {
		t.Fatal("no ops proven")
	}
	if err := VerifyReport(rep, opts); err != nil {
		t.Fatal(err)
	}
	if rep.TotalProve() <= 0 || rep.TotalConstraints() <= 0 {
		t.Error("empty totals")
	}
	// Softmax attention must have produced softmax gadget proofs.
	kinds := map[nn.OpKind]int{}
	for _, op := range rep.Ops {
		kinds[op.Kind]++
	}
	if kinds[nn.OpSoftmax] == 0 || kinds[nn.OpMatMul] == 0 || kinds[nn.OpGELU] == 0 {
		t.Errorf("missing op kinds in report: %v", kinds)
	}
}

func TestProveModelGroth16EndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("per-op trusted setup")
	}
	m, _ := tinyModel(t, nn.MixerPooling) // fewest ops
	x := m.RandomInput(mrand.New(mrand.NewSource(2)))
	opts := DefaultOptions()
	opts.Backend = Groth16
	rep, err := ProveModel(m, x, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyReport(rep, opts); err != nil {
		t.Fatal(err)
	}
	if rep.TotalSetup() <= 0 {
		t.Error("Groth16 without setup time")
	}
	// Groth16 proofs are constant-size (192 bytes compressed in our
	// encoding): every op proof must be equal-sized.
	size := rep.Ops[0].ProofBytes
	for _, op := range rep.Ops {
		if op.ProofBytes != size {
			t.Errorf("op %q proof %dB, want constant %dB", op.Tag, op.ProofBytes, size)
		}
	}
}

func TestTamperedReportFailsVerification(t *testing.T) {
	m, _ := tinyModel(t, nn.MixerLinear)
	x := m.RandomInput(mrand.New(mrand.NewSource(3)))
	opts := DefaultOptions()
	rep, err := ProveModel(m, x, opts)
	if err != nil {
		t.Fatal(err)
	}
	TamperPublic(rep, 0)
	if err := VerifyReport(rep, opts); err == nil {
		t.Fatal("tampered public input verified")
	}
}

func TestProveTraceAllMixers(t *testing.T) {
	for _, kind := range []nn.MixerKind{nn.MixerScaling, nn.MixerPooling, nn.MixerLinear} {
		m, _ := tinyModel(t, kind)
		x := m.RandomInput(mrand.New(mrand.NewSource(4)))
		opts := DefaultOptions()
		rep, err := ProveModel(m, x, opts)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if err := VerifyReport(rep, opts); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
	}
}

func TestMatmulOnlyMode(t *testing.T) {
	m, _ := tinyModel(t, nn.MixerSoftmax)
	x := m.RandomInput(mrand.New(mrand.NewSource(5)))
	opts := DefaultOptions()
	opts.ProveNonlinear = false
	rep, err := ProveModel(m, x, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range rep.Ops {
		if op.Kind != nn.OpMatMul {
			t.Errorf("nonlinear op %q proven in matmul-only mode", op.Tag)
		}
	}
}

func TestVanillaCircuitCostsMore(t *testing.T) {
	// The whole point of the paper: CRPC+PSQ circuits must be much
	// smaller than vanilla for the same model.
	m, _ := tinyModel(t, nn.MixerPooling)
	x := m.RandomInput(mrand.New(mrand.NewSource(6)))

	optsFast := DefaultOptions()
	optsFast.ProveNonlinear = false
	fast, err := ProveModel(m, x, optsFast)
	if err != nil {
		t.Fatal(err)
	}
	optsSlow := optsFast
	optsSlow.Circuit = crpc.Options{}
	slow, err := ProveModel(m, x, optsSlow)
	if err != nil {
		t.Fatal(err)
	}
	if fast.TotalConstraints() >= slow.TotalConstraints() {
		t.Errorf("CRPC+PSQ constraints %d not below vanilla %d",
			fast.TotalConstraints(), slow.TotalConstraints())
	}
}

func TestMeasureModelEstimates(t *testing.T) {
	cfg := tinyConfig(nn.MixerSoftmax)
	opts := DefaultOptions()
	est, err := MeasureModel(cfg, opts, DefaultCaps())
	if err != nil {
		t.Fatal(err)
	}
	if len(est.Ops) == 0 {
		t.Fatal("no estimates")
	}
	for _, op := range est.Ops {
		if op.Factor < 1 {
			t.Errorf("op %q factor %.2f < 1", op.Tag, op.Factor)
		}
		if op.Count < 1 {
			t.Errorf("op %q count %d", op.Tag, op.Count)
		}
		if op.EstProve <= 0 || op.EstWires <= 0 {
			t.Errorf("op %q empty estimates", op.Tag)
		}
	}
	if est.TotalProve() <= 0 || est.TotalWires() <= 0 || est.TotalProofBytes() <= 0 {
		t.Error("empty totals")
	}
}

func TestMeasureDedupesIdenticalShapes(t *testing.T) {
	// A 2-block model with identical blocks must reuse measurements:
	// per-head attention ops appear heads×blocks times but are measured
	// once.
	cfg := tinyConfig(nn.MixerSoftmax)
	cfg.Stages[0].Blocks = 2
	cfg.Mixers = nn.UniformMixers(2, nn.MixerSoftmax)
	opts := DefaultOptions()
	est, err := MeasureModel(cfg, opts, DefaultCaps())
	if err != nil {
		t.Fatal(err)
	}
	foundShared := false
	for _, op := range est.Ops {
		if op.Count >= 2 {
			foundShared = true
		}
	}
	if !foundShared {
		t.Error("no shape sharing across identical blocks")
	}
}

func TestMeasureCapsShrinkProvenShape(t *testing.T) {
	cfg := tinyConfig(nn.MixerPooling)
	// Make the model bigger than the caps.
	cfg.Stages[0].Tokens = 64
	cfg.Stages[0].Dim = 64
	cfg.PatchDim = 64
	cfg.Heads = 2
	opts := DefaultOptions()
	opts.ProveNonlinear = false
	caps := MeasureCaps{MaxDim: 8, MaxRows: 2, MaxWidth: 8}
	est, err := MeasureModel(cfg, opts, caps)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range est.Ops {
		if op.Kind != nn.OpMatMul {
			continue
		}
		if op.Measured.Dims[0] > 8 || op.Measured.Dims[1] > 8 || op.Measured.Dims[2] > 8 {
			t.Errorf("op %q measured at %v, caps 8", op.Tag, op.Measured.Dims)
		}
		if op.Factor <= 1 {
			t.Errorf("op %q should extrapolate, factor %.2f", op.Tag, op.Factor)
		}
	}
}

func TestSqrtRatio(t *testing.T) {
	for _, c := range []struct{ in, want float64 }{{1, 1}, {4, 2}, {100, 10}, {0.5, 1}} {
		got := sqrtRatio(c.in)
		if diff := got - c.want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("sqrtRatio(%g) = %g, want %g", c.in, got, c.want)
		}
	}
}

// TestSetupCacheChargesOnlyTheCreator pins the setup-time accounting:
// of N ops racing for the same circuit's proving material, exactly one
// runs (and is charged for) the setup; waiters and later hits report
// zero, so TotalSetup reflects work done, not time spent blocked.
func TestSetupCacheChargesOnlyTheCreator(t *testing.T) {
	var calls atomic.Int32
	c := NewKeyCache(0, 0)
	setup := func() (*Keys, error) {
		calls.Add(1)
		time.Sleep(5 * time.Millisecond)
		return &Keys{}, nil
	}
	const racers = 4
	durs := make([]time.Duration, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, d, err := c.lookup([32]byte{1}, setup)
			if err != nil {
				t.Error(err)
			}
			durs[i] = d
		}(i)
	}
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("setup ran %d times, want 1", calls.Load())
	}
	charged := 0
	for _, d := range durs {
		if d > 0 {
			charged++
		}
	}
	if charged != 1 {
		t.Fatalf("%d racers charged setup time, want exactly the creator", charged)
	}
}
