package nn

import "testing"

func TestSyntheticDatasetDeterministic(t *testing.T) {
	cfg := DefaultSynthetic()
	cfg.Train, cfg.Test = 8, 8
	a := NewSyntheticDataset(cfg)
	b := NewSyntheticDataset(cfg)
	for i := range a.Train {
		if a.Train[i].Label != b.Train[i].Label {
			t.Fatal("labels differ across identical seeds")
		}
		for j := range a.Train[i].X.Data {
			if a.Train[i].X.Data[j] != b.Train[i].X.Data[j] {
				t.Fatal("data differ across identical seeds")
			}
		}
	}
}

func TestSyntheticExamplesWellFormed(t *testing.T) {
	cfg := DefaultSynthetic()
	cfg.Train, cfg.Test = 16, 4
	d := NewSyntheticDataset(cfg)
	scale := int64(256)
	for _, ex := range d.Train {
		if ex.Label < 0 || ex.Label >= cfg.Classes {
			t.Fatalf("label %d out of range", ex.Label)
		}
		marked := 0
		for t := 0; t < cfg.Tokens; t++ {
			if ex.X.At(t, 0) == scale {
				marked++
			}
		}
		if marked != 1 {
			t.Fatalf("%d marked tokens, want 1", marked)
		}
	}
}

// TestMixerAccuracyOrdering is the qualitative stand-in for the paper's
// Table III/IV accuracy columns: on a retrieval task, content-based
// mixers must beat content-oblivious ones. Deterministic seeds make this
// stable; we assert the paper's coarse ordering (attention ≥ pooling)
// and log the exact figures (go test -v).
func TestMixerAccuracyOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("training loop")
	}
	d := NewSyntheticDataset(DefaultSynthetic())
	accs := d.EvaluateAllMixers()
	byKind := map[MixerKind]float64{}
	for _, a := range accs {
		t.Logf("%-12s accuracy %.3f", a.Mixer, a.Accuracy)
		byKind[a.Mixer] = a.Accuracy
	}
	chance := 1.0 / float64(DefaultSynthetic().Classes)
	if byKind[MixerSoftmax] <= chance {
		t.Errorf("softmax attention at chance: %.3f", byKind[MixerSoftmax])
	}
	if byKind[MixerSoftmax] < byKind[MixerPooling] {
		t.Errorf("softmax (%.3f) below pooling (%.3f): ordering violated",
			byKind[MixerSoftmax], byKind[MixerPooling])
	}
}
