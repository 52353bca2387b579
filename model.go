package zkvc

// This file is the model-level public API: verifiable Transformer
// inference (the paper's §IV-V). It re-exports the quantized model stack
// (internal/nn), the hybrid token-mixer planner (internal/planner) and
// the circuit compiler (internal/zkml) behind stable names, so downstream
// users never import internal packages.

import (
	mrand "math/rand"

	"zkvc/internal/nn"
	"zkvc/internal/planner"
	"zkvc/internal/tensor"
	"zkvc/internal/zkml"
)

// Mixer selects a token mixer for a transformer block.
type Mixer = nn.MixerKind

// The paper's four token mixers (Tables III/IV).
const (
	MixerSoftmax = nn.MixerSoftmax // "SoftApprox.": full attention, approximated SoftMax
	MixerScaling = nn.MixerScaling // "SoftFree-S": scaling (linear-complexity) attention
	MixerPooling = nn.MixerPooling // "SoftFree-P": average pooling
	MixerLinear  = nn.MixerLinear  // "SoftFree-L": linear (FNet-style) token mixing
)

// ModelConfig describes a transformer architecture.
type ModelConfig = nn.Config

// Model is a quantized transformer with synthesized weights.
type Model = nn.Model

// IntMatrix is the quantized (int64 fixed-point) tensor type models
// consume and produce.
type IntMatrix = tensor.Mat

// The paper's §IV architectures.
var (
	// ViTCIFAR10 is the CIFAR-10 ViT: 7 layers, 4 heads, hidden 256, patch 4.
	ViTCIFAR10 = nn.ViTCIFAR10
	// ViTTinyImageNet is the Tiny-ImageNet ViT: 9 layers, 12 heads, hidden 192.
	ViTTinyImageNet = nn.ViTTinyImageNet
	// ViTImageNetHier is the hierarchical ImageNet model: 12 layers,
	// 4 stages, dims 64/128/320/512.
	ViTImageNetHier = nn.ViTImageNetHier
	// BERTGLUE is the NLP model: 4 layers, 4 heads, embedding 256.
	BERTGLUE = nn.BERTGLUE
	// CNNMNIST is the MNIST-scale CNN: two 3×3 conv layers (4 and 8
	// channels, each pooled 2×2 and GELU-activated) on 1×28×28 input,
	// 10-class head. Every conv lowers to an im2col matmul, so CNN
	// traces prove through the same pipeline as transformers.
	CNNMNIST = nn.CNNMNIST
)

// ConvSpec fixes one conv layer of a convolutional ModelConfig: a
// square Kernel at Stride with zero Pad producing Out channels,
// followed by a Pool×Pool average pool (1 = none) and a GELU.
type ConvSpec = nn.ConvSpec

// SGDStep is one recorded fine-tuning step: a capturing trace of the
// forward pass, the loss softmax, the gradient matmul and the
// weight-update matmul W' = W − lr·∇W, plus the step's results. Feed
// step.Trace to any Engine's ProveModel to attest the step.
type SGDStep = nn.SGDStep

// TraceSGDStep records one verifiable fine-tuning step of the model's
// classification head for input x and the given label. lr is a
// fixed-point learning rate (denominator cfg.Fixed.Scale()). The model
// is not mutated; adopt step.NewHead to take the step.
func TraceSGDStep(m *Model, x *IntMatrix, label int, lr int64) (*SGDStep, error) {
	return m.TraceSGDStep(x, label, lr)
}

// NewModel synthesizes a model with deterministic (seeded) weights at the
// config's shapes. Training is out of scope (DESIGN.md substitution 5);
// proving cost depends only on shapes.
func NewModel(cfg ModelConfig, seed int64) (*Model, error) { return nn.NewModel(cfg, seed) }

// UniformMixers assigns the same mixer to every block.
func UniformMixers(blocks int, kind Mixer) []Mixer { return nn.UniformMixers(blocks, kind) }

// PlanHybrid runs the paper's planner: it assigns each block a mixer so
// that estimated proving cost lands at the paper's hybrid operating point
// while maximizing an accuracy proxy (SoftMax attention is kept in the
// later, shorter-sequence layers).
func PlanHybrid(cfg ModelConfig) []Mixer { return planner.PaperHybrid(cfg) }

// PlanWithBudget is PlanHybrid with an explicit budget: the planned
// model's estimated proving cost stays below budgetFrac × the all-SoftMax
// cost.
func PlanWithBudget(cfg ModelConfig, budgetFrac float64) []Mixer {
	return planner.Search(cfg, planner.DefaultCostModel(), budgetFrac).Mixers
}

// RandomInput synthesizes a quantized input for the model (tokens ×
// patch features).
func RandomInput(m *Model, rng *mrand.Rand) *IntMatrix { return m.RandomInput(rng) }

// InferenceOptions configures end-to-end inference proving. It is the
// compiler's option set itself (no more mirrored fields to keep in
// sync): Backend picks the proof system, Circuit the CRPC/PSQ matmul
// optimizations (zero value = the paper's baseline circuits),
// ProveNonlinear the SoftMax/GELU gadget circuits. Start from
// DefaultInferenceOptions and override fields (an unset PCS falls back
// to the defaults on its own). EstimateInference reads it; proving a
// captured trace goes through an Engine's ProveModel.
type InferenceOptions = zkml.Options

// DefaultInferenceOptions proves everything, optimized, on Spartan.
func DefaultInferenceOptions() InferenceOptions { return zkml.DefaultOptions() }

// InferenceEstimate is a measured-and-extrapolated end-to-end cost at
// full architectural shapes (see internal/zkml's MeasureModel).
type InferenceEstimate struct {
	ProveSeconds  float64
	VerifySeconds float64
	ProofBytes    float64
	Wires         float64
}

// EstimateInference measures capped sub-circuits of every distinct
// operation shape in cfg and extrapolates the full-model proving cost —
// how the paper-scale Tables III/IV rows are produced.
func EstimateInference(cfg ModelConfig, opts InferenceOptions) (InferenceEstimate, error) {
	est, err := zkml.MeasureModel(cfg, opts, zkml.DefaultCaps())
	if err != nil {
		return InferenceEstimate{}, err
	}
	return InferenceEstimate{
		ProveSeconds:  est.TotalProve().Seconds(),
		VerifySeconds: est.TotalVerify().Seconds(),
		ProofBytes:    est.TotalProofBytes(),
		Wires:         est.TotalWires(),
	}, nil
}
