package zkml

import (
	mrand "math/rand"
	"sync"
	"testing"

	"zkvc/internal/curve"
	"zkvc/internal/ff"
	"zkvc/internal/nn"
	"zkvc/internal/pcs"
)

// proven holds one proved report per backend; Groth16 pays a trusted
// setup per op, so each is proved once and handed out as copies.
var proven [2]struct {
	once sync.Once
	rep  *Report
	err  error
}

// provenReport returns a copy of the backend's proved report whose op
// fields and public inputs a test may overwrite freely.
func provenReport(t *testing.T, backend Backend) *Report {
	t.Helper()
	p := &proven[backend]
	p.once.Do(func() {
		kind := nn.MixerLinear
		if backend == Groth16 {
			kind = nn.MixerPooling // fewest ops: per-op trusted setup
		}
		m, _ := tinyModel(t, kind)
		x := m.RandomInput(mrand.New(mrand.NewSource(6)))
		opts := DefaultOptions()
		opts.Backend = backend
		p.rep, p.err = ProveModel(m, x, opts)
	})
	if p.rep == nil {
		t.Fatalf("proving the %s fixture report: %v", backend, p.err)
	}
	rep := *p.rep
	rep.Ops = append([]OpProof(nil), p.rep.Ops...)
	for i := range rep.Ops {
		rep.Ops[i].Public = append([]ff.Fr(nil), rep.Ops[i].Public...)
	}
	return &rep
}

func TestVerifyAggregatedSpartan(t *testing.T) {
	rep := provenReport(t, Spartan)
	if err := rep.VerifyAggregated(pcs.DefaultParams()); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	TamperPublic(rep, 0)
	if err := rep.VerifyAggregated(pcs.DefaultParams()); err == nil {
		t.Fatal("tampered public input verified in aggregate mode")
	}
}

func TestVerifyAggregatedGroth16(t *testing.T) {
	if testing.Short() {
		t.Skip("per-op trusted setup")
	}
	rep := provenReport(t, Groth16)
	_, fe0 := curve.PairingCounts()
	if err := rep.VerifyAggregated(pcs.DefaultParams()); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	_, fe1 := curve.PairingCounts()
	if err := VerifyReport(rep, DefaultOptions()); err != nil {
		t.Fatalf("valid report rejected per-op: %v", err)
	}
	_, fe2 := curve.PairingCounts()
	// The whole point of aggregation: k ops, one final exponentiation.
	if k := uint64(len(rep.Ops)); k < 2 || fe1-fe0 != 1 || fe2-fe1 < k {
		t.Fatalf("%d ops: aggregate ran %d final exponentiations (want 1), per-op %d (want ≥ one per op)",
			k, fe1-fe0, fe2-fe1)
	}

	// Corrupt exactly one op proof with a valid group element: only the
	// RLC multi-pairing can catch it, and it must sink the whole batch.
	forged := *rep.Ops[0].G16
	forged.A.Neg(&rep.Ops[0].G16.A)
	rep.Ops[0].G16 = &forged
	if err := rep.VerifyAggregated(pcs.DefaultParams()); err == nil {
		t.Fatal("report with one corrupted op proof verified in aggregate mode")
	}
}

// The aggregation weights must be bound to the whole report: relabeling
// an op (without touching any proof bytes) must change the transcript
// and therefore the weights.
func TestAggregateWeightsBindReportIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("per-op trusted setup")
	}
	rep := provenReport(t, Groth16)
	w1, err := aggregateWeights(rep)
	if err != nil {
		t.Fatal(err)
	}
	rep.Ops[0].Tag += "x"
	w2, err := aggregateWeights(rep)
	if err != nil {
		t.Fatal(err)
	}
	if len(w1) == 0 || len(w1) != len(w2) {
		t.Fatalf("weight counts %d, %d", len(w1), len(w2))
	}
	same := true
	for i := range w1 {
		if !w1[i].Equal(&w2[i]) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("relabeling an op left the aggregation weights unchanged")
	}
}

// A report whose op lost its proof payload (KeepProofs off, or stripped
// in transit) and a report with no ops both fail in aggregate mode, on
// both backends, instead of passing vacuously.
func TestVerifyAggregatedRejectsStrippedReport(t *testing.T) {
	for _, backend := range []Backend{Spartan, Groth16} {
		t.Run(backend.String(), func(t *testing.T) {
			if backend == Groth16 && testing.Short() {
				t.Skip("per-op trusted setup")
			}
			rep := provenReport(t, backend)
			if backend == Groth16 {
				rep.Ops[1].G16 = nil
			} else {
				rep.Ops[1].Spartan = nil
			}
			if err := rep.VerifyAggregated(pcs.DefaultParams()); err == nil {
				t.Fatal("report with a missing op payload verified in aggregate mode")
			}
			rep.Ops = nil
			if err := rep.VerifyAggregated(pcs.DefaultParams()); err == nil {
				t.Fatal("empty report verified in aggregate mode")
			}
		})
	}
}
