package planner

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"zkvc/internal/nn"
)

// searchAnswer is one Search result. Mixers spells the plan one digit
// per block, the nn.MixerKind value: 0 SoftApprox, 1 SoftFree-S,
// 2 SoftFree-P, 3 SoftFree-L.
type searchAnswer struct {
	mixers                 string
	cost, baseline, budget float64
}

var knownBudgets = [5]float64{0.1, 0.3, 0.55, 0.8, 1.0}

// plannerKnownAnswers were printed by the planner that priced blocks
// with hand-written per-mixer formulas, before it priced nn.ShapeTrace.
// The floats are exact: every price is an integer below 2⁵³. Two rows
// were re-printed since: vit-imagenet-hier at budget 1.0, all-SoftMax
// once Search stopped rounding each block's bins up past the budget
// (4,002 of 4,000 bins had dropped block 0 to SoftFree-S), and the CNN's
// feasibility floor, 0 instead of 0/0.
var plannerKnownAnswers = []struct {
	cfg     nn.Config
	hybrid  string // PaperHybrid
	minFrac float64
	search  [5]searchAnswer // Search at knownBudgets
}{
	{nn.ViTCIFAR10(), "3333300", 0.39853243322571175, [5]searchAnswer{
		{"2222222", 1.2165888e+07, 3.052672e+07, 3.052672e+06},
		{"2222222", 1.2165888e+07, 3.052672e+07, 9.158016e+06},
		{"3333330", 1.5010432e+07, 3.052672e+07, 1.6789696e+07},
		{"3330000", 2.2768576e+07, 3.052672e+07, 2.4421376e+07},
		{"0000000", 3.052672e+07, 3.052672e+07, 3.052672e+07},
	}},
	{nn.ViTTinyImageNet(), "111111100", 0.03625548212623315, [5]searchAnswer{
		{"333331111", 9.0326464e+07, 9.76351104e+08, 9.76351104e+07},
		{"111111110", 2.48164224e+08, 9.76351104e+08, 2.929053312e+08},
		{"111110000", 5.21234304e+08, 9.76351104e+08, 5.369931072e+08},
		{"111000000", 7.03281024e+08, 9.76351104e+08, 7.810808832e+08},
		{"000000000", 9.76351104e+08, 9.76351104e+08, 9.76351104e+08},
	}},
	{nn.ViTImageNetHier(), "110000000000", 0.007598711136472562, [5]searchAnswer{
		{"110000000000", 9.80370056e+08, 1.1261227656e+10, 1.1261227656000001e+09},
		{"110000000000", 9.80370056e+08, 1.1261227656e+10, 3.3783682967999997e+09},
		{"100000000000", 6.120798856e+09, 1.1261227656e+10, 6.1936752108e+09},
		{"100000000000", 6.120798856e+09, 1.1261227656e+10, 9.008982124800001e+09},
		{"000000000000", 1.1261227656e+10, 1.1261227656e+10, 1.1261227656e+10},
	}},
	{nn.BERTGLUE(), "3330", 0.24068582407484754, [5]searchAnswer{
		{"2222", 1.18016e+07, 4.9033216e+07, 4.903321600000001e+06},
		{"3333", 1.2129792e+07, 4.9033216e+07, 1.4709964799999999e+07},
		{"3330", 2.1355648e+07, 4.9033216e+07, 2.69682688e+07},
		{"3300", 3.0581504e+07, 4.9033216e+07, 3.9226572800000004e+07},
		{"0000", 4.9033216e+07, 4.9033216e+07, 4.9033216e+07},
	}},
	// A CNN has no blocks to plan: feasible at any budget, empty plans.
	{nn.CNNMNIST(), "", 0, [5]searchAnswer{
		{"", 0, 0, 0},
		{"", 0, 0, 0},
		{"", 0, 0, 0},
		{"", 0, 0, 0},
		{"", 0, 0, 0},
	}},
}

func mixerDigits(ms []nn.MixerKind) string {
	var b strings.Builder
	for _, k := range ms {
		fmt.Fprintf(&b, "%d", int(k))
	}
	return b.String()
}

// sameFloat is exact equality, with NaN equal to NaN.
func sameFloat(a, b float64) bool { return a == b || math.IsNaN(a) && math.IsNaN(b) }

// TestPlannerKnownAnswers pins PaperHybrid, MinFeasibleFrac and Search
// on the paper's configs and a CNN, so a change to how blocks are
// priced cannot move a plan unnoticed.
func TestPlannerKnownAnswers(t *testing.T) {
	cm := DefaultCostModel()
	for _, ka := range plannerKnownAnswers {
		name := ka.cfg.Name
		if got := mixerDigits(PaperHybrid(ka.cfg)); got != ka.hybrid {
			t.Errorf("%s: PaperHybrid = %q, want %q", name, got, ka.hybrid)
		}
		if got := MinFeasibleFrac(ka.cfg, cm); !sameFloat(got, ka.minFrac) {
			t.Errorf("%s: MinFeasibleFrac = %v, want %v", name, got, ka.minFrac)
		}
		for i, frac := range knownBudgets {
			p, want := Search(ka.cfg, cm, frac), ka.search[i]
			got := searchAnswer{mixerDigits(p.Mixers), p.Cost, p.Baseline, p.Budget}
			if got.mixers != want.mixers || !sameFloat(got.cost, want.cost) ||
				!sameFloat(got.baseline, want.baseline) || !sameFloat(got.budget, want.budget) {
				t.Errorf("%s: Search(%v) = %+v, want %+v", name, frac, got, want)
			}
		}
	}
}
