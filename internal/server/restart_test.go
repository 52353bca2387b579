package server_test

import (
	"bytes"
	mrand "math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"zkvc"
	"zkvc/internal/nn"
	"zkvc/internal/server"
	"zkvc/internal/wire"
)

// TestIssuedLogSurvivesRestart is the tentpole regression pin: with a
// JournalDir, attestations for synchronously issued proofs outlive the
// process. A model report from /v1/prove/model must still be vouched for
// by a server restarted over the same state directory. Before the
// durable log, every restart answered "not issued by this service" for
// everything the previous process proved. (TestIssuedBatchSurvivesRestart
// covers Groth16 batches and per-statement proofs.)
func TestIssuedLogSurvivesRestart(t *testing.T) {
	const tenant = "tenant-restart"
	dir := t.TempDir()
	scfg := server.DefaultConfig()
	scfg.Backend = zkvc.Spartan
	scfg.Window = 5 * time.Millisecond
	scfg.Seed = 11
	scfg.JournalDir = dir

	s1, err := server.New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())

	// A synchronously streamed model report.
	mcfg := tinyModelConfig(nn.MixerPooling)
	trace := capturedTrace(t, mcfg, 3)
	rep, err := proveModelHTTP(t, ts1.URL, tenant, &wire.ProveModelRequest{
		Backend: zkvc.Spartan, ProveNonlinear: true, Cfg: mcfg, Trace: trace,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ok, msg := verifyModelHTTP(t, ts1.URL, tenant, rep); !ok {
		t.Fatalf("fresh report rejected: %s", msg)
	}

	ts1.Close()
	s1.Close()

	// Same state directory, new process.
	s2, ts2 := newTestServer(t, scfg)

	if ok, msg := verifyModelHTTP(t, ts2.URL, tenant, rep); !ok {
		t.Fatalf("model report not vouched for after restart: %s", msg)
	}
	// The attestation binds the issuing tenant: another tenant's claim on
	// the same report stays rejected after the restart too.
	if ok, _ := verifyModelHTTP(t, ts2.URL, "tenant-other", rep); ok {
		t.Fatal("restarted server vouched for the report under a foreign tenant")
	}
	snap := s2.Metrics()
	if snap.IssuedAttestations < 1 {
		t.Errorf("issued_attestations = %d after restart, want >= 1", snap.IssuedAttestations)
	}
	if snap.IssuedLogRecords < 1 || snap.IssuedLogBytes <= 0 {
		t.Errorf("issued log gauges after restart: records=%d bytes=%d, want >= 1 record",
			snap.IssuedLogRecords, snap.IssuedLogBytes)
	}
	if snap.DiskBytes == 0 {
		t.Error("disk_bytes = 0 with a populated journal dir")
	}
}

// TestIssuedBatchSurvivesRestart: Groth16 responses — whose
// verification trusts the embedded verifying key only because this
// service issued those exact bytes — still round-trip /v1/verify/batch
// and /v1/verify after a restart over the same state directory.
func TestIssuedBatchSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	scfg := server.DefaultConfig()
	scfg.Backend = zkvc.Groth16
	scfg.Window = 5 * time.Millisecond
	scfg.Seed = 12
	scfg.JournalDir = dir

	s1, err := server.New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())

	rng := mrand.New(mrand.NewSource(1200))
	x := zkvc.RandomMatrix(rng, 3, 4, 32)
	wm := zkvc.RandomMatrix(rng, 4, 2, 32)
	status, raw := post(t, ts1.URL+"/v1/prove", wire.EncodeProveRequest(&wire.ProveRequest{X: x, W: wm}))
	if status != http.StatusOK {
		t.Fatalf("prove: status %d: %s", status, raw)
	}
	if status, verdict := post(t, ts1.URL+"/v1/verify/batch", raw); status != http.StatusOK {
		t.Fatalf("fresh batch rejected: %d %s", status, verdict)
	}

	// A per-statement Groth16 proof from /v1/prove/matmul — /v1/verify
	// only re-checks its embedded verifying key if this service attested
	// the proof.
	status, praw := post(t, ts1.URL+"/v1/prove/matmul", wire.EncodeProveRequest(&wire.ProveRequest{X: x, W: wm}))
	if status != http.StatusOK {
		t.Fatalf("prove/matmul: status %d: %s", status, praw)
	}
	proof, err := wire.DecodeMatMulProof(praw)
	if err != nil {
		t.Fatal(err)
	}
	verifyBody := wire.EncodeVerifyRequest(&wire.VerifyRequest{X: x, Proof: proof})
	if status, verdict := post(t, ts1.URL+"/v1/verify", verifyBody); status != http.StatusOK {
		t.Fatalf("fresh Groth16 matmul proof rejected: %d %s", status, verdict)
	}

	ts1.Close()
	s1.Close()

	_, ts2 := newTestServer(t, scfg)
	if status, verdict := post(t, ts2.URL+"/v1/verify/batch", raw); status != http.StatusOK || !bytes.Contains(verdict, []byte(`"ok":true`)) {
		t.Fatalf("Groth16 batch not vouched for after restart: %d %s", status, verdict)
	}
	if status, verdict := post(t, ts2.URL+"/v1/verify", verifyBody); status != http.StatusOK || !bytes.Contains(verdict, []byte(`"ok":true`)) {
		t.Fatalf("Groth16 matmul proof not vouched for after restart: %d %s", status, verdict)
	}
}
