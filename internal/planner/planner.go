// Package planner implements the hybrid token-mixer planner behind the
// paper's "zkVC" rows in Tables III and IV. Given a transformer
// architecture it assigns each block one of the four token mixers so that
// estimated ZKP proving cost stays under a budget while a utility proxy
// for accuracy is maximized — reproducing the paper's observation that
// the best models "reintegrate SoftMax self-attention in later
// transformer layers with shorter token sequences" and use SoftMax-free
// mixers where sequences are long.
//
// Costs are counted in R1CS witness variables of the CRPC+PSQ circuits
// (internal/crpc): with both optimizations a matmul [a×n]·[n×b]
// contributes n constraints but a·n + n·b + a·b live wires, and wires are
// what the Groth16 MSMs and the Spartan sumcheck pay for. Nonlinear
// gadget costs follow internal/gadgets (bit decompositions dominate).
// Block prices come from nn.ShapeTrace, the op list of one forward pass
// derived from the configuration alone, so the planner prices the ops
// the model runs and holds no copy of any architecture.
package planner

import (
	"math"

	"zkvc/internal/nn"
)

// CostModel prices circuit fragments. The defaults mirror the gadgets in
// internal/gadgets: activations are range-checked at ActBits, fixed-point
// rescales at FracBits, and the exponential runs SquareIters squarings.
type CostModel struct {
	// ActBits is the dynamic range of activations (comparison and
	// division decomposition width).
	ActBits int
	// FracBits is the fixed-point fraction width (rescale remainders).
	FracBits int
	// SquareIters is n in the (1 + x/2ⁿ)^{2ⁿ} exponential approximation.
	SquareIters int
}

// DefaultCostModel matches gadgets.DefaultNonlinear and fixed.Default.
func DefaultCostModel() CostModel {
	return CostModel{ActBits: 16, FracBits: 8, SquareIters: 5}
}

// MatMul prices the CRPC+PSQ circuit of one [a×n]·[n×b] product: the
// witness wires (a·n inputs, n·b weights, a·b outputs, n prefix cells).
func (c CostModel) MatMul(a, n, b int) float64 {
	return float64(a*n + n*b + a*b + n)
}

// SoftmaxPerElem is the wire cost of one softmax element: the max check
// (one ActBits comparison plus the product-is-zero chain), the clipped
// exponential (one ActBits comparison plus SquareIters range-checked
// squarings), and the final division (quotient + remainder decomposition).
func (c CostModel) SoftmaxPerElem() float64 {
	return float64(3*c.ActBits + c.SquareIters*(c.FracBits+2) + 2*c.ActBits)
}

// Softmax prices rows softmaxes of the given width.
func (c CostModel) Softmax(rows, width int) float64 {
	return float64(rows*width) * c.SoftmaxPerElem()
}

// GELUPerElem is the wire cost of one quadratic GELU: the square's
// rescale (FracBits remainder) plus the constant divisions by 8 and 4
// (3- and 2-bit remainders) and the three product wires.
func (c CostModel) GELUPerElem() float64 {
	return float64(c.FracBits + 5 + 3)
}

// GELU prices n quadratic GELUs.
func (c CostModel) GELU(n int) float64 {
	return float64(n) * c.GELUPerElem()
}

// Op prices one traced operation.
func (c CostModel) Op(op nn.Op) float64 {
	switch op.Kind {
	case nn.OpMatMul, nn.OpConv2D:
		// A lowered conv costs exactly its im2col product.
		return c.MatMul(op.A, op.N, op.B)
	case nn.OpSoftmax:
		return c.Softmax(op.Rows, op.Width)
	case nn.OpGELU:
		return c.GELU(op.Rows * op.Width)
	default:
		return 0 // pooling: additions are free in R1CS
	}
}

// utility scores a mixer choice for one block. Base scores follow the
// accuracy ordering measured by the synthetic study (internal/nn) and
// the paper's Tables III/IV; depth weighting reflects that later layers
// carry more semantic content, so spending the attention budget there
// buys more accuracy (the paper's hybrid does exactly this).
func utility(kind nn.MixerKind, layer, total int) float64 {
	var base float64
	switch kind {
	case nn.MixerSoftmax:
		base = 1.00
	case nn.MixerScaling:
		base = 0.90
	case nn.MixerLinear:
		base = 0.72
	case nn.MixerPooling:
		base = 0.60
	}
	depth := 0.5
	if total > 1 {
		depth = 0.5 + float64(layer)/float64(total-1)
	}
	return base * depth
}

// BlockOption is one (mixer, cost, utility) choice for a block.
type BlockOption struct {
	Kind    nn.MixerKind
	Cost    float64
	Utility float64
}

// Plan is the planner's output.
type Plan struct {
	Mixers []nn.MixerKind
	// Cost is the estimated witness-wire cost of the planned model;
	// Baseline is the all-SoftMax cost; Budget what was allowed.
	Cost, Baseline, Budget float64
	// Utility is the achieved total utility.
	Utility float64
}

// Speedup returns Baseline/Cost.
func (p Plan) Speedup() float64 {
	if p.Cost == 0 {
		return math.Inf(1)
	}
	return p.Baseline / p.Cost
}

// Candidates lists every mixer option for every block of cfg, with costs
// and utilities. A block's cost is the sum of its ops in the ShapeTrace
// of cfg with that mixer in every block, so it prices exactly the ops
// Forward runs. A CNN has no blocks and gets no rows.
func Candidates(cfg nn.Config, cm CostModel) [][]BlockOption {
	total := cfg.TotalBlocks()
	out := make([][]BlockOption, total)
	for _, kind := range []nn.MixerKind{nn.MixerSoftmax, nn.MixerScaling, nn.MixerLinear, nn.MixerPooling} {
		cost := make([]float64, total)
		for _, op := range nn.ShapeTrace(cfg.WithMixers(nn.UniformMixers(total, kind))).Ops {
			if op.Layer >= 0 && op.Layer < total {
				cost[op.Layer] += cm.Op(op)
			}
		}
		for l := range out {
			out[l] = append(out[l], BlockOption{Kind: kind, Cost: cost[l], Utility: utility(kind, l, total)})
		}
	}
	return out
}

// Search assigns a mixer to every block maximizing total utility subject
// to total block cost ≤ budgetFrac × all-SoftMax block cost, via a
// discretized knapsack DP (layers ≤ a few dozen, so this is instant).
// Costs round down to bins, so every assignment within budget fits the
// bins; each state carries its path's exact cost, and a step that takes
// it over budget is rejected, so no plan the DP returns exceeds budget.
// A config with no blocks (a CNN) gets the empty plan.
func Search(cfg nn.Config, cm CostModel, budgetFrac float64) Plan {
	cands := Candidates(cfg, cm)
	if len(cands) == 0 {
		return Plan{}
	}
	var baseline float64
	for _, opts := range cands {
		baseline += opts[0].Cost // opts[0] is MixerSoftmax
	}
	budget := budgetFrac * baseline

	const bins = 4000
	scale := float64(bins) / math.Max(budget, 1)
	// dp[b] = best utility of a path whose binned cost is b, spent[b] its
	// exact cost; choice[l][b] = option index picked at layer l to reach
	// state b.
	neg := math.Inf(-1)
	dp := make([]float64, bins+1)
	spent := make([]float64, bins+1)
	for i := 1; i <= bins; i++ {
		dp[i] = neg
	}
	dp[0] = 0
	choice := make([][]int8, len(cands))
	parent := make([][]int32, len(cands))
	for l, opts := range cands {
		ndp := make([]float64, bins+1)
		nspent := make([]float64, bins+1)
		choice[l] = make([]int8, bins+1)
		parent[l] = make([]int32, bins+1)
		for i := range ndp {
			ndp[i] = neg
			choice[l][i] = -1
		}
		for b := 0; b <= bins; b++ {
			if dp[b] == neg {
				continue
			}
			for oi, opt := range opts {
				nb := b + int(opt.Cost*scale)
				cost := spent[b] + opt.Cost
				if nb > bins || cost > budget {
					continue
				}
				if u := dp[b] + opt.Utility; u > ndp[nb] {
					ndp[nb], nspent[nb] = u, cost
					choice[l][nb] = int8(oi)
					parent[l][nb] = int32(b)
				}
			}
		}
		dp, spent = ndp, nspent
	}

	// Best final state.
	bestB, bestU := -1, neg
	for b := 0; b <= bins; b++ {
		if dp[b] > bestU {
			bestU, bestB = dp[b], b
		}
	}
	plan := Plan{Budget: budget, Utility: bestU}
	if bestB < 0 {
		// Budget below even the cheapest assignment (mixer savings
		// cannot shrink the MLP floor): fall back to the cheapest option
		// everywhere and report the overshoot through plan.Cost.
		plan.Mixers = make([]nn.MixerKind, len(cands))
		plan.Utility = 0
		for l, opts := range cands {
			best := 0
			for oi := range opts {
				if opts[oi].Cost < opts[best].Cost {
					best = oi
				}
			}
			plan.Mixers[l] = opts[best].Kind
			plan.Cost += opts[best].Cost
			plan.Utility += opts[best].Utility
		}
		plan.Baseline = baseline
		return plan
	}
	// Trace back choices.
	plan.Mixers = make([]nn.MixerKind, len(cands))
	b := int32(bestB)
	for l := len(cands) - 1; l >= 0; l-- {
		oi := choice[l][b]
		plan.Mixers[l] = cands[l][oi].Kind
		plan.Cost += cands[l][oi].Cost
		b = parent[l][b]
	}
	plan.Baseline = baseline
	return plan
}

// MinFeasibleFrac returns the smallest budget fraction for which a plan
// exists: the all-cheapest block cost over the all-SoftMax baseline (the
// mixer-independent MLP is a hard floor). A config with no blocks is
// feasible at any budget: 0.
func MinFeasibleFrac(cfg nn.Config, cm CostModel) float64 {
	if cfg.TotalBlocks() == 0 {
		return 0
	}
	var cheapest, baseline float64
	for _, opts := range Candidates(cfg, cm) {
		minC := opts[0].Cost
		for _, o := range opts[1:] {
			if o.Cost < minC {
				minC = o.Cost
			}
		}
		cheapest += minC
		baseline += opts[0].Cost
	}
	return cheapest / baseline
}

// PaperHybrid returns the planner's assignment for cfg at the cost point
// the paper's zkVC rows sit at (~35–50% cheaper than all-SoftMax,
// between SoftFree-S and SoftFree-P). The budget adapts to the model's
// feasible range so flat short-sequence models (whose MLP floor is high)
// still get a genuine hybrid.
func PaperHybrid(cfg nn.Config) []nn.MixerKind {
	cm := DefaultCostModel()
	minFrac := MinFeasibleFrac(cfg, cm)
	frac := minFrac + 0.35*(1-minFrac)
	return Search(cfg, cm, frac).Mixers
}
