package server_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"zkvc"
	"zkvc/internal/groth16"
	"zkvc/internal/nn"
	"zkvc/internal/server"
	"zkvc/internal/wire"
	"zkvc/internal/zkml"
)

// TestGroth16ReportKnownAnswers pins SHA-256 over the wire encoding of a
// seeded Groth16 model report with the softmax and GELU gadgets on, so
// several ops share one circuit's keys: proved locally (a per-call key
// cache) and through the service (its shared, bounded key cache), with
// timings zeroed. The digest was computed before the model-op prover
// and the matmul prover were merged onto one backend call: a mismatch
// means a CRS or proof byte moved. Never regenerate it to make a change
// pass.
func TestGroth16ReportKnownAnswers(t *testing.T) {
	const want = "4f145b010b30a92b1cf3d8a7d804713e0fd35ae0d45cc14d1869c609ca711c4f"
	const seed = 131
	mcfg := tinyModelConfig(nn.MixerSoftmax)
	trace := capturedTrace(t, mcfg, 137)
	check := func(name string, rep *zkml.Report) {
		t.Helper()
		sum := sha256.Sum256(wire.EncodeReport(zeroTimings(rep)))
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s report: %s, want %s", name, got, want)
		}
	}

	cfg := server.DefaultConfig()
	cfg.Backend = zkvc.Groth16
	cfg.Seed = seed
	opts := zkml.JobOptions(zkvc.Groth16, cfg.Opts, true, seed)
	local, err := zkml.ProveTrace(mcfg, trace, opts)
	if err != nil {
		t.Fatal(err)
	}
	check("local", local)
	keys := make(map[*groth16.VerifyingKey]bool)
	for i := range local.Ops {
		keys[local.Ops[i].G16VK] = true
	}
	if len(keys) >= len(local.Ops) {
		t.Fatalf("%d ops use %d distinct keys: no op shares its circuit's keys", len(local.Ops), len(keys))
	}

	_, ts := newTestServer(t, cfg)
	rep, err := proveModelHTTP(t, ts.URL, "", &wire.ProveModelRequest{
		Backend: zkvc.Groth16, ProveNonlinear: true, Cfg: mcfg, Trace: trace})
	if err != nil {
		t.Fatal(err)
	}
	check("service", rep)
}
