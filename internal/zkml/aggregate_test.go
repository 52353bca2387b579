package zkml

import (
	"errors"
	mrand "math/rand"
	"strings"
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

// verifyEachOp is the reference VerifyReport must agree with: every op
// checked on its own, first failure reported.
func verifyEachOp(rep *Report) error {
	if len(rep.Ops) == 0 {
		return errors.New("zkml: empty report")
	}
	for i := range rep.Ops {
		if err := VerifyOp(rep.Backend, &rep.Ops[i], pcs.DefaultParams()); err != nil {
			return err
		}
	}
	return nil
}

// forgeProof replaces one element of op's proof with another valid one:
// on Groth16 a group element no decode-stage subgroup check rejects, so
// only the pairing check can catch it.
func forgeProof(backend Backend, op *OpProof) {
	if backend == Groth16 {
		forged := *op.G16
		forged.A.Neg(&op.G16.A)
		op.G16 = &forged
		return
	}
	forged := *op.Spartan
	forged.VA.Add(&forged.VA, &forged.VB)
	op.Spartan = &forged
}

// verdictCase alters a proved report; VerifyReport must reach the same
// verdict as the op-by-op reference on it.
type verdictCase struct {
	name   string
	accept bool
	tamper func(Backend, *Report)
}

// tamperCases alter proofs, statements and the op list. Dropping or
// reordering whole ops leaves every proof valid, so both verifiers
// accept: a report's op list is bound by the service's issued digest,
// not by the proofs.
var tamperCases = []verdictCase{
	{"honest", true, func(Backend, *Report) {}},
	{"flipped-public", false, func(_ Backend, r *Report) { TamperPublic(r, 0) }},
	{"forged-element", false, func(b Backend, r *Report) { forgeProof(b, &r.Ops[len(r.Ops)/2]) }},
	// Op checks run in parallel; the error is still op 1's.
	{"two-forged-ops", false, func(b Backend, r *Report) {
		forgeProof(b, &r.Ops[1])
		forgeProof(b, &r.Ops[len(r.Ops)-1])
	}},
	{"dropped-op", true, func(_ Backend, r *Report) { r.Ops = r.Ops[1:] }},
	{"swapped-ops", true, func(_ Backend, r *Report) { r.Ops[0], r.Ops[1] = r.Ops[1], r.Ops[0] }},
	{"swapped-proofs", false, func(_ Backend, r *Report) {
		r.Ops[0].G16, r.Ops[1].G16 = r.Ops[1].G16, r.Ops[0].G16
		r.Ops[0].Spartan, r.Ops[1].Spartan = r.Ops[1].Spartan, r.Ops[0].Spartan
	}},
}

// strippedCases take proof payloads away instead.
var strippedCases = []verdictCase{
	{"stripped-proof", false, func(_ Backend, r *Report) { r.Ops[1].G16, r.Ops[1].Spartan = nil, nil }},
	{"empty", false, func(_ Backend, r *Report) { r.Ops = nil }},
}

// checkVerdicts runs cases on copies of the backend's proved report:
// VerifyReport and the reference agree, the verdict is the case's, and
// a rejection is the reference's error, which names the failing op.
func checkVerdicts(t *testing.T, backend Backend, cases []verdictCase) {
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := provenReport(t, backend)
			tc.tamper(backend, rep)
			want := verifyEachOp(rep)
			got := VerifyReport(rep, Options{})
			switch {
			case (got == nil) != (want == nil):
				t.Fatalf("VerifyReport: %v, per-op reference: %v", got, want)
			case (got == nil) != tc.accept:
				t.Fatalf("verdict %v, want accept=%v", got, tc.accept)
			case got != nil && got.Error() != want.Error():
				t.Fatalf("VerifyReport rejected with %q, per-op reference with %q", got, want)
			case got != nil && len(rep.Ops) > 0 && !strings.Contains(got.Error(), "op \""):
				t.Fatalf("rejection %q names no op", got)
			}
		})
	}
}

// TestVerifyAggregatedSpartan: on a Spartan report VerifyReport is the
// op-by-op check, and agrees with the reference on every tamper.
func TestVerifyAggregatedSpartan(t *testing.T) {
	checkVerdicts(t, Spartan, tamperCases)
}

// TestVerifyAggregatedGroth16: on a Groth16 report VerifyReport's one
// batched multi-pairing agrees with the op-by-op reference on every
// tamper, and costs one final exponentiation where the reference runs
// at least one per op.
func TestVerifyAggregatedGroth16(t *testing.T) {
	if testing.Short() {
		t.Skip("per-op trusted setup")
	}
	checkVerdicts(t, Groth16, tamperCases)

	rep := provenReport(t, Groth16)
	_, fe0 := curve.PairingCounts()
	if err := VerifyReport(rep, Options{}); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	_, fe1 := curve.PairingCounts()
	if err := verifyEachOp(rep); err != nil {
		t.Fatalf("valid report rejected per op: %v", err)
	}
	_, fe2 := curve.PairingCounts()
	if k := uint64(len(rep.Ops)); k < 2 || fe1-fe0 != 1 || fe2-fe1 < k {
		t.Fatalf("%d ops: VerifyReport ran %d final exponentiations (want 1), per op %d (want ≥ one per op)",
			k, fe1-fe0, fe2-fe1)
	}
}

// TestVerifyAggregatedRejectsStrippedReport: a report whose op lost its
// proof payload (stripped in transit) and a report
// with no ops both fail on both backends, with the reference's error,
// instead of passing vacuously.
func TestVerifyAggregatedRejectsStrippedReport(t *testing.T) {
	for _, backend := range []Backend{Spartan, Groth16} {
		t.Run(backend.String(), func(t *testing.T) {
			if backend == Groth16 && testing.Short() {
				t.Skip("per-op trusted setup")
			}
			checkVerdicts(t, backend, strippedCases)
		})
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
