package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"zkvc/internal/crpc"
)

// TestRunMatMulAllSchemes exercises every scheme on a tiny shape so the
// whole comparison path (synthesis, prove, self-verify) is covered
// without the cost of paper-scale dims.
func TestRunMatMulAllSchemes(t *testing.T) {
	for _, s := range AllSchemes() {
		res, err := RunMatMul(s, 8, 8, 16, 1)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if res.Prove <= 0 || res.Verify <= 0 || res.ProofBytes <= 0 {
			t.Errorf("%v: empty measurement %+v", s, res)
		}
		if s.Interactive() && res.Online <= res.Verify {
			t.Errorf("%v: interactive online time should include proving", s)
		}
		if !s.Interactive() && res.Online != res.Verify {
			t.Errorf("%v: non-interactive online time should equal verification", s)
		}
	}
}

func TestZkVCBeatsVanilla(t *testing.T) {
	// The headline claim at a small but non-trivial shape: CRPC+PSQ
	// constraints collapse from a·b·n to n.
	van, err := RunMatMul(SchemeSpartan, 8, 16, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := RunMatMul(SchemeZkVCS, 8, 16, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if van.Constraints <= fast.Constraints*10 {
		t.Errorf("vanilla %d constraints vs zkVC %d: expected ≫10x gap",
			van.Constraints, fast.Constraints)
	}
	if fast.Prove >= van.Prove {
		t.Errorf("zkVC proving (%v) not faster than vanilla (%v)", fast.Prove, van.Prove)
	}
}

func TestExtrapolateScaling(t *testing.T) {
	base := MatMulResult{
		Scheme: SchemeSpartan, Dim: 128,
		Prove: time.Second, Setup: time.Second, Verify: 100 * time.Millisecond,
		Online: 100 * time.Millisecond, ProofBytes: 1 << 20,
		Constraints: 1000, Variables: 2000,
	}
	out := extrapolate(base, 512)
	// (n·b) ratio: (256·512)/(64·128) = 16.
	if out.Prove != 16*time.Second {
		t.Errorf("prove = %v, want 16s", out.Prove)
	}
	if out.Constraints != 16000 {
		t.Errorf("constraints = %d, want 16000", out.Constraints)
	}
	// Transparent artifacts scale with √16 = 4.
	if out.Verify != 400*time.Millisecond {
		t.Errorf("verify = %v, want 400ms", out.Verify)
	}
	if out.ProofBytes != 4<<20 {
		t.Errorf("proof bytes = %d, want 4MiB", out.ProofBytes)
	}
	if !out.Estimated {
		t.Error("not marked estimated")
	}

	// Groth16 artifacts stay constant.
	base.Scheme = SchemeGroth16
	out = extrapolate(base, 320)
	if out.Verify != base.Verify || out.ProofBytes != base.ProofBytes {
		t.Error("groth16 verify/proof size should not scale")
	}
}

func TestTableIMatchesPaperShape(t *testing.T) {
	rows := TableI()
	if len(rows) != 9 {
		t.Fatalf("%d rows, want 9", len(rows))
	}
	last := rows[len(rows)-1]
	if last.Scheme != "zkVC" || !last.ZK || !last.NonInteractive || !last.NoTrustedSetup ||
		!last.Transformers || !last.EffMatMult || !last.Codesign {
		t.Errorf("zkVC row wrong: %+v", last)
	}
	// Only SafetyNets lacks zk; only SafetyNets and zkCNN are interactive.
	if rows[0].ZK || rows[0].NonInteractive {
		t.Errorf("SafetyNets row wrong: %+v", rows[0])
	}
	if rows[1].NonInteractive {
		t.Errorf("zkCNN row wrong: %+v", rows[1])
	}
}

func TestRunCircuitVariantAblation(t *testing.T) {
	// Every Table II variant, PSQ-only and CRPC-only included, must
	// produce a valid measurement.
	for _, opts := range []crpc.Options{{}, {PSQ: true}, {CRPC: true}, {CRPC: true, PSQ: true}} {
		for _, backend := range []Scheme{SchemeZkVCG, SchemeZkVCS} {
			res, err := runCircuitScheme(backend, opts, 6, 6, 6, 1)
			if err != nil {
				t.Fatalf("%v/%v: %v", opts, backend, err)
			}
			if res.Prove <= 0 {
				t.Errorf("%v/%v: empty prove time", opts, backend)
			}
		}
	}
}

func TestPrintersProduceOutput(t *testing.T) {
	var buf bytes.Buffer
	PrintTableI(&buf)
	if !strings.Contains(buf.String(), "zkVC") {
		t.Error("Table I missing zkVC row")
	}
	buf.Reset()
	rows := []MatMulResult{{Scheme: SchemeZkVCS, Dim: 128, Prove: time.Second,
		Verify: time.Millisecond, ProofBytes: 2048, Constraints: 64, Estimated: true}}
	PrintMatMulResults(&buf, "Fig test", rows)
	out := buf.String()
	if !strings.Contains(out, "zkVC-S") || !strings.Contains(out, "(est)") {
		t.Errorf("matmul printer output wrong:\n%s", out)
	}
	buf.Reset()
	PrintTableII(&buf, []AblationResult{{GrothConstraints: 407680}, {Opts: crpc.Options{CRPC: true, PSQ: true}, GrothConstraints: 64}}, false)
	if lines := strings.Split(buf.String(), "\n"); len(lines) < 4 || strings.Fields(lines[1])[2] != "constraints" ||
		strings.Fields(lines[2])[2] != "407680" || strings.Fields(lines[3])[2] != "64" {
		t.Errorf("Table II printer has no constraint column:\n%s", buf.String())
	}
	buf.Reset()
	PrintE2E(&buf, "Table test", []E2ERow{{Dataset: "d", Model: "m",
		PaperAcc: []float64{90.5, 80.1}, ProveG: time.Second, ProveS: 2 * time.Second}}, "Acc")
	if !strings.Contains(buf.String(), "90.5/80.1") {
		t.Errorf("E2E printer output wrong:\n%s", buf.String())
	}
}

func TestFig6ShapeMatchesPaper(t *testing.T) {
	a, n, b := fig6Shape(128)
	if a != 49 || n != 64 || b != 128 {
		t.Errorf("fig6Shape(128) = [%d,%d]x[%d,%d]", a, n, n, b)
	}
}
