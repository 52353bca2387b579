package zkvc_test

import (
	"context"
	mrand "math/rand"
	"slices"
	"testing"

	"zkvc"
)

// scaledViT returns a model config small enough for exact end-to-end
// proving inside the test budget.
func scaledViT(t *testing.T) zkvc.ModelConfig {
	t.Helper()
	cfg := zkvc.ViTCIFAR10().Scaled(16)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestProveInferenceRoundTrip: a captured forward pass proves and
// verifies through Local, and the trace's logits are the model's.
func TestProveInferenceRoundTrip(t *testing.T) {
	cfg := scaledViT(t)
	cfg.Mixers = zkvc.UniformMixers(cfg.TotalBlocks(), zkvc.MixerPooling)
	model, err := zkvc.NewModel(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	x := zkvc.RandomInput(model, mrand.New(mrand.NewSource(1)))
	trace := zkvc.Trace{Capture: true}
	logits := model.Forward(x, &trace)
	if logits == nil || logits.Cols != cfg.NumClasses || !slices.Equal(logits.Data, model.Forward(x, nil).Data) {
		t.Fatal("captured forward pass does not reproduce the model's logits")
	}
	local := zkvc.NewLocal(zkvc.Spartan, zkvc.DefaultOptions())
	req := &zkvc.ModelRequest{Backend: zkvc.Spartan, ProveNonlinear: true, Cfg: cfg, Trace: &trace}
	rep, err := local.ProveModel(context.Background(), req).Report()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Ops) == 0 || rep.TotalConstraints() == 0 {
		t.Fatal("empty proof")
	}
	if err := local.VerifyModel(context.Background(), rep); err != nil {
		t.Fatal(err)
	}
}

func TestPlanHybridRespectsShape(t *testing.T) {
	cfg := zkvc.ViTImageNetHier()
	ms := zkvc.PlanHybrid(cfg)
	if len(ms) != cfg.TotalBlocks() {
		t.Fatalf("%d mixers for %d blocks", len(ms), cfg.TotalBlocks())
	}
	cfg.Mixers = ms
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPlanWithBudgetMonotone(t *testing.T) {
	cfg := zkvc.BERTGLUE()
	softmaxCount := func(ms []zkvc.Mixer) int {
		n := 0
		for _, m := range ms {
			if m == zkvc.MixerSoftmax {
				n++
			}
		}
		return n
	}
	low := softmaxCount(zkvc.PlanWithBudget(cfg, 0.6))
	high := softmaxCount(zkvc.PlanWithBudget(cfg, 1.0))
	if low > high {
		t.Fatalf("smaller budget kept more softmax layers (%d > %d)", low, high)
	}
	if high != cfg.TotalBlocks() {
		t.Fatalf("full budget should keep all softmax, got %d/%d", high, cfg.TotalBlocks())
	}
}

func TestEstimateInferenceOrdering(t *testing.T) {
	// At the full CIFAR-10 shape, the all-pooling model must be
	// estimated cheaper than the all-softmax one, with the hybrid in
	// between — Table III's shape.
	cfg := zkvc.ViTCIFAR10()
	opts := zkvc.DefaultInferenceOptions()

	est := func(ms []zkvc.Mixer) float64 {
		e, err := zkvc.EstimateInference(cfg.WithMixers(ms), opts)
		if err != nil {
			t.Fatal(err)
		}
		return e.Wires
	}
	n := cfg.TotalBlocks()
	soft := est(zkvc.UniformMixers(n, zkvc.MixerSoftmax))
	pool := est(zkvc.UniformMixers(n, zkvc.MixerPooling))
	hybrid := est(zkvc.PlanHybrid(cfg))
	if !(pool < hybrid && hybrid < soft) {
		t.Fatalf("wire ordering violated: pool %.3g, hybrid %.3g, soft %.3g", pool, hybrid, soft)
	}
}

func TestMatrixInt64RoundTrip(t *testing.T) {
	vals := []int64{0, 1, -1, 123456, -98765}
	m := zkvc.MatrixFromInt64(1, 5, vals)
	back := zkvc.MatrixToInt64(m)
	for i := range vals {
		if back[i] != vals[i] {
			t.Fatalf("entry %d: %d != %d", i, back[i], vals[i])
		}
	}
}
