package bench

import (
	"fmt"
	"time"

	"zkvc/internal/crpc"
	"zkvc/internal/nn"
	"zkvc/internal/planner"
	"zkvc/internal/zkml"
)

// TableIRow is one scheme's capability line in Table I.
type TableIRow struct {
	Scheme                                                                             string
	ZK, NonInteractive, ConstProof, NoTrustedSetup, Transformers, EffMatMult, Codesign bool
}

// TableI returns the paper's capability matrix verbatim — it is a
// property table, not a measurement. Our reproduction's own row is the
// zkVC row: the Spartan backend needs no trusted setup, proofs are
// constant-size on Groth16, matmuls go through CRPC+PSQ, and the planner
// co-designs the model.
func TableI() []TableIRow {
	return []TableIRow{
		{"SafetyNets", false, false, false, true, false, false, false},
		{"zkCNN", true, false, false, true, false, false, false},
		{"Keuffer's", true, true, true, false, false, false, false},
		{"vCNN", true, true, true, false, false, false, false},
		{"VeriML", true, true, true, false, false, false, false},
		{"ZEN", true, true, true, false, false, false, false},
		{"zkML", true, true, false, false, false, false, false},
		{"pvCNN", true, true, true, false, false, false, false},
		{"zkVC", true, true, true, true, true, true, true},
	}
}

// AblationResult is one row of Table II.
type AblationResult struct {
	Opts             crpc.Options
	GrothProve       time.Duration
	GrothVerify      time.Duration
	SpartanProve     time.Duration
	SpartanVerify    time.Duration
	GrothConstraints int
}

// TableIIShape returns the ablation matmul shape. The paper says the
// transformer patch-embedding layer; default mode uses the Figure 3 shape
// [49,64]×[64,128] (whose baseline timing matches the paper's 9.12 s row),
// full mode the literal [49,160]×[160,256].
func TableIIShape(full bool) (a, n, b int) {
	if full {
		return Tokens, 160, 256
	}
	return fig6Shape(128)
}

// TableII reproduces the CRPC/PSQ ablation: the four circuit variants on
// both backends.
func TableII(cfg RunConfig) ([]AblationResult, error) {
	a, n, b := TableIIShape(cfg.Full)
	variants := []crpc.Options{
		{},
		{PSQ: true},
		{CRPC: true},
		{CRPC: true, PSQ: true},
	}
	out := make([]AblationResult, 0, len(variants))
	for _, opts := range variants {
		g, err := runCircuitScheme(SchemeZkVCG, opts, a, n, b, cfg.Seed)
		if err != nil {
			return nil, err
		}
		s, err := runCircuitScheme(SchemeZkVCS, opts, a, n, b, cfg.Seed)
		if err != nil {
			return nil, err
		}
		out = append(out, AblationResult{Opts: opts, GrothProve: g.Prove, GrothVerify: g.Verify,
			GrothConstraints: g.Constraints, SpartanProve: s.Prove, SpartanVerify: s.Verify})
	}
	return out, nil
}

// E2ERow is one model row of Table III or IV.
type E2ERow struct {
	Dataset string
	Model   string // mixer label as in the paper
	// PaperAcc holds the paper-reported accuracies (we cannot
	// retrain ImageNet-class models; see DESIGN.md substitution 5).
	PaperAcc []float64
	ProveG   time.Duration // extrapolated end-to-end Groth16 proving
	ProveS   time.Duration // extrapolated end-to-end Spartan proving
	Wires    float64
}

// visionRow describes one Table III dataset.
type visionDataset struct {
	Name  string
	Cfg   nn.Config
	Paper map[string]float64 // mixer label → paper Top-1
}

// mixerRows returns the four Table III/IV model variants for cfg.
func mixerRows(cfg nn.Config, third nn.MixerKind) []struct {
	Label  string
	Mixers []nn.MixerKind
} {
	n := cfg.TotalBlocks()
	return []struct {
		Label  string
		Mixers []nn.MixerKind
	}{
		{"SoftApprox.", nn.UniformMixers(n, nn.MixerSoftmax)},
		{"SoftFree-S", nn.UniformMixers(n, nn.MixerScaling)},
		{third.String(), nn.UniformMixers(n, third)},
		{"zkVC", planner.PaperHybrid(cfg)},
	}
}

// measureRow estimates both backends for one mixer assignment.
func measureRow(cfg nn.Config, mixers []nn.MixerKind, rcfg RunConfig) (g, s time.Duration, wires float64, err error) {
	c := cfg.WithMixers(mixers)
	caps := zkml.DefaultCaps()
	if rcfg.Full {
		caps = zkml.MeasureCaps{MaxDim: 128, MaxRows: 4, MaxWidth: 128}
	}
	optsG := zkml.DefaultOptions()
	optsG.Backend = zkml.Groth16
	optsG.Seed = rcfg.Seed
	estG, err := zkml.MeasureModel(c, optsG, caps)
	if err != nil {
		return 0, 0, 0, err
	}
	optsS := zkml.DefaultOptions()
	optsS.Backend = zkml.Spartan
	optsS.Seed = rcfg.Seed
	estS, err := zkml.MeasureModel(c, optsS, caps)
	if err != nil {
		return 0, 0, 0, err
	}
	return estG.TotalProve(), estS.TotalProve(), estG.TotalWires(), nil
}

// paperTableIII holds the paper's reported Top-1 accuracies.
var paperTableIII = map[string]map[string]float64{
	"Cifar-10": {
		"SoftApprox.": 93.5, "SoftFree-S": 88.3, "SoftFree-P": 75.1, "zkVC": 91.6,
	},
	"Tiny ImageNet": {
		"SoftApprox.": 60.5, "SoftFree-S": 51.4, "SoftFree-P": 42.7, "zkVC": 55.8,
	},
	"ImageNet": {
		"SoftApprox.": 81.0, "SoftFree-S": 78.5, "SoftFree-P": 77.2, "zkVC": 80.3,
	},
}

// paperTableIV holds the paper's reported GLUE accuracies
// (MNLI, QNLI, SST-2, MRPC).
var paperTableIV = map[string][]float64{
	"SoftApprox.": {74.5, 83.9, 85.8, 71.2},
	"SoftFree-S":  {72.7, 81.1, 85.2, 70.4},
	"SoftFree-L":  {67.3, 75.3, 84.5, 68.7},
	"zkVC":        {70.8, 80.2, 84.7, 69.3},
}

// TableIII reproduces the ViT end-to-end comparison on the paper's three
// vision datasets. Accuracies are paper-reported; proving times are
// measured-and-extrapolated on this machine (zkml.MeasureModel).
func TableIII(cfg RunConfig) ([]E2ERow, error) {
	datasets := []visionDataset{
		{"Cifar-10", nn.ViTCIFAR10(), paperTableIII["Cifar-10"]},
		{"Tiny ImageNet", nn.ViTTinyImageNet(), paperTableIII["Tiny ImageNet"]},
		{"ImageNet", nn.ViTImageNetHier(), paperTableIII["ImageNet"]},
	}
	var out []E2ERow
	for _, d := range datasets {
		for _, row := range mixerRows(d.Cfg, nn.MixerPooling) {
			g, s, wires, err := measureRow(d.Cfg, row.Mixers, cfg)
			if err != nil {
				return nil, fmt.Errorf("bench: %s/%s: %w", d.Name, row.Label, err)
			}
			out = append(out, E2ERow{
				Dataset:  d.Name,
				Model:    row.Label,
				PaperAcc: []float64{d.Paper[row.Label]},
				ProveG:   g,
				ProveS:   s,
				Wires:    wires,
			})
		}
	}
	return out, nil
}

// TableIV reproduces the BERT/GLUE end-to-end comparison. The third row
// is the linear token mixer ("SoftFree-L"), as in the paper.
func TableIV(cfg RunConfig) ([]E2ERow, error) {
	bert := nn.BERTGLUE()
	var out []E2ERow
	for _, row := range mixerRows(bert, nn.MixerLinear) {
		g, s, wires, err := measureRow(bert, row.Mixers, cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: BERT/%s: %w", row.Label, err)
		}
		out = append(out, E2ERow{
			Dataset:  "GLUE",
			Model:    row.Label,
			PaperAcc: paperTableIV[row.Label],
			ProveG:   g,
			ProveS:   s,
			Wires:    wires,
		})
	}
	return out, nil
}
