package planner

import (
	mrand "math/rand"
	"testing"

	"zkvc/internal/nn"
)

// paperConfigs are the five configs the planner's known answers pin.
var paperConfigs = []nn.Config{nn.ViTCIFAR10(), nn.ViTTinyImageNet(), nn.ViTImageNetHier(), nn.BERTGLUE(), nn.CNNMNIST()}

func TestFullBudgetKeepsSoftmax(t *testing.T) {
	for _, cfg := range paperConfigs {
		plan := Search(cfg, DefaultCostModel(), 1.0)
		for l, k := range plan.Mixers {
			if k != nn.MixerSoftmax {
				t.Errorf("%s layer %d: got %v with full budget", cfg.Name, l, k)
			}
		}
		if plan.Cost > plan.Budget {
			t.Errorf("%s: cost %.0f exceeds budget %.0f", cfg.Name, plan.Cost, plan.Budget)
		}
	}
}

// TestBudgetRespected: at every feasible budget the plan's exact cost is
// within budget (the bins round costs, the exact cost decides).
func TestBudgetRespected(t *testing.T) {
	cm := DefaultCostModel()
	for _, cfg := range paperConfigs {
		minFrac := MinFeasibleFrac(cfg, cm)
		if minFrac < 0 || minFrac >= 1 || cfg.TotalBlocks() > 0 && minFrac == 0 {
			t.Fatalf("%s: implausible feasibility floor %.2f", cfg.Name, minFrac)
		}
		for _, extra := range []float64{0, 0.02, 0.2, 0.5, 1} {
			frac := minFrac + extra*(1-minFrac)
			plan := Search(cfg, cm, frac)
			if plan.Cost > plan.Budget {
				t.Errorf("%s frac %.2f: cost %.0f exceeds budget %.0f", cfg.Name, frac, plan.Cost, plan.Budget)
			}
			if len(plan.Mixers) != cfg.TotalBlocks() {
				t.Errorf("%s frac %.2f: %d mixers for %d blocks", cfg.Name, frac, len(plan.Mixers), cfg.TotalBlocks())
			}
		}
	}
}

func TestInfeasibleBudgetFallsBackToCheapest(t *testing.T) {
	cfg := nn.ViTCIFAR10()
	cm := DefaultCostModel()
	plan := Search(cfg, cm, 0.01)
	for l, k := range plan.Mixers {
		if k != nn.MixerPooling {
			t.Errorf("layer %d: fallback picked %v, want cheapest (pooling)", l, k)
		}
	}
	if plan.Cost <= plan.Budget {
		t.Error("fallback should report the overshoot")
	}
}

func TestUtilityMonotoneInBudget(t *testing.T) {
	cfg := nn.ViTTinyImageNet()
	prev := -1.0
	for _, frac := range []float64{0.2, 0.4, 0.6, 0.8, 1.0} {
		plan := Search(cfg, DefaultCostModel(), frac)
		if plan.Utility < prev-1e-9 {
			t.Errorf("utility decreased at frac %.1f: %.3f < %.3f", frac, plan.Utility, prev)
		}
		prev = plan.Utility
	}
}

func TestHybridPrefersAttentionInLateLayers(t *testing.T) {
	// On the hierarchical ImageNet model, early stages have thousands of
	// tokens (softmax attention quadratic → huge) and late stages have
	// 49; the paper's hybrid keeps softmax late. The planner must do the
	// same under a mid budget.
	cfg := nn.ViTImageNetHier()
	plan := Search(cfg, DefaultCostModel(), 0.55)
	total := cfg.TotalBlocks()
	first, last := plan.Mixers[0], plan.Mixers[total-1]
	if first == nn.MixerSoftmax {
		t.Errorf("earliest (3136-token) layer kept SoftMax attention under 0.55 budget")
	}
	if last != nn.MixerSoftmax && last != nn.MixerScaling {
		t.Errorf("final (49-token) layer lost attention entirely: %v", last)
	}
	if plan.Speedup() < 1.5 {
		t.Errorf("hybrid speedup only %.2fx", plan.Speedup())
	}
}

func TestCostModelShapes(t *testing.T) {
	cm := DefaultCostModel()
	// mixer prices one block's token mixer: the block's Candidates cost
	// less its mixer-independent MLP.
	mixer := func(kind nn.MixerKind, tok, d, h int) float64 {
		cfg := nn.TinyConfig("shape", kind)
		cfg.Stages = []nn.Stage{{Blocks: 1, Dim: d, Tokens: tok}}
		cfg.Heads = h
		hid := cfg.MLPRatio * d
		mlp := cm.MatMul(tok, d, hid) + cm.GELU(tok*hid) + cm.MatMul(tok, hid, d)
		for _, o := range Candidates(cfg, cm)[0] {
			if o.Kind == kind {
				return o.Cost - mlp
			}
		}
		t.Fatalf("no %v candidate", kind)
		return 0
	}
	// Softmax attention must be quadratic in tokens, scaling linear-ish:
	// quadrupling tokens should blow up softmax cost by ~16x on the
	// token-token terms but scaling cost by ~4x.
	s1 := mixer(nn.MixerSoftmax, 64, 64, 4)
	s4 := mixer(nn.MixerSoftmax, 256, 64, 4)
	l1 := mixer(nn.MixerScaling, 64, 64, 4)
	l4 := mixer(nn.MixerScaling, 256, 64, 4)
	if s4/s1 < 6 {
		t.Errorf("softmax cost ratio %.1f, want clearly superlinear", s4/s1)
	}
	if l4/l1 > 5 {
		t.Errorf("scaling cost ratio %.1f, want near-linear", l4/l1)
	}
	if mixer(nn.MixerPooling, 64, 64, 4) != 0 {
		t.Error("pooling should be free")
	}
	if mixer(nn.MixerLinear, 64, 64, 4) != cm.MatMul(64, 64, 64) {
		t.Error("linear mixer cost should be one t×t×d matmul")
	}
}

func TestTraceCostMatchesAnalyticModel(t *testing.T) {
	// Every Candidates row must price exactly the ops a computed Forward
	// pass records in that block; ShapeTrace, which the planner reads,
	// is only a shortcut to them.
	costCheck := func(stages ...nn.Stage) nn.Config {
		cfg := nn.ViTCIFAR10() // borrow defaults
		cfg.Name, cfg.Stages = "cost-check", stages
		cfg.Heads, cfg.PatchDim, cfg.NumClasses = 2, 12, 3
		cfg.Mixers = nn.UniformMixers(cfg.TotalBlocks(), nn.MixerSoftmax)
		return cfg
	}
	cm := DefaultCostModel()
	for _, base := range []nn.Config{
		costCheck(nn.Stage{Blocks: 2, Dim: 16, Tokens: 8}),
		costCheck(nn.Stage{Blocks: 1, Dim: 8, Tokens: 16}, nn.Stage{Blocks: 2, Dim: 16, Tokens: 4}),
	} {
		cands := Candidates(base, cm)
		for oi, opt := range cands[0] {
			cfg := base.WithMixers(nn.UniformMixers(base.TotalBlocks(), opt.Kind))
			m, err := nn.NewModel(cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			var trace nn.Trace
			m.Forward(m.RandomInput(randSource()), &trace)
			got := make([]float64, len(cands))
			for _, op := range trace.Ops {
				if op.Layer >= 0 {
					got[op.Layer] += cm.Op(op)
				}
			}
			for l, opts := range cands {
				if opts[oi].Cost != got[l] {
					t.Errorf("%v block %d of %d stage(s): candidate cost %.0f != traced cost %.0f",
						opt.Kind, l, len(base.Stages), opts[oi].Cost, got[l])
				}
			}
		}
	}
}

func TestPaperHybridIsMixed(t *testing.T) {
	ms := PaperHybrid(nn.ViTCIFAR10())
	seen := map[nn.MixerKind]bool{}
	for _, k := range ms {
		seen[k] = true
	}
	if len(seen) < 2 {
		t.Errorf("paper hybrid degenerated to a single mixer: %v", ms)
	}
}

func TestCandidatesShape(t *testing.T) {
	cfg := nn.BERTGLUE()
	cands := Candidates(cfg, DefaultCostModel())
	if len(cands) != cfg.TotalBlocks() {
		t.Fatalf("%d candidate rows for %d blocks", len(cands), cfg.TotalBlocks())
	}
	for l, opts := range cands {
		if len(opts) != 4 {
			t.Errorf("layer %d: %d options", l, len(opts))
		}
		if opts[0].Kind != nn.MixerSoftmax {
			t.Errorf("layer %d: first option %v, want softmax", l, opts[0].Kind)
		}
	}
}

func randSource() *mrand.Rand { return mrand.New(mrand.NewSource(4)) }
