package server_test

import (
	"io"
	mrand "math/rand"
	"net/http"
	"strings"
	"testing"
	"time"

	"zkvc"
	"zkvc/internal/promtext"
	"zkvc/internal/server"
	"zkvc/internal/wire"
)

// TestMetricsPrometheusEndpoint: /metrics/prometheus emits strictly
// well-formed exposition text carrying the issued-log, disk, and memory
// gauges the operator story depends on. promtext.Validate is the same
// checker CI scrapes the live endpoint with.
func TestMetricsPrometheusEndpoint(t *testing.T) {
	scfg := server.DefaultConfig()
	scfg.Backend = zkvc.Groth16
	scfg.Window = 5 * time.Millisecond
	scfg.Seed = 21
	scfg.JournalDir = t.TempDir()
	_, ts := newTestServer(t, scfg)

	// Move a few counters so the payload is not all zeros.
	rng := mrand.New(mrand.NewSource(2100))
	x := zkvc.RandomMatrix(rng, 3, 4, 32)
	wm := zkvc.RandomMatrix(rng, 4, 2, 32)
	if status, raw := post(t, ts.URL+"/v1/prove/matmul", wire.EncodeProveRequest(&wire.ProveRequest{X: x, W: wm})); status != http.StatusOK {
		t.Fatalf("prove/matmul: status %d: %s", status, raw)
	}

	resp, err := http.Get(ts.URL + "/metrics/prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != promtext.ContentType {
		t.Errorf("Content-Type = %q, want %q", ct, promtext.ContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := promtext.Validate(body); err != nil {
		t.Fatalf("payload fails exposition-format validation: %v\n%s", err, body)
	}
	for _, want := range []string{
		"zkvc_issued_attestations ",
		"zkvc_issued_log_records ",
		"zkvc_issued_log_bytes ",
		"zkvc_disk_bytes ",
		"zkvc_heap_alloc_bytes ",
		"zkvc_requests_total ",
		`zkvc_phase_nanos_total{phase="prove"}`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("payload is missing %q", want)
		}
	}
	// The durable attestation of the Groth16 proof shows up with a
	// nonzero value — the gauge reads the log, not a stale counter.
	if strings.Contains(string(body), "zkvc_issued_log_records 0\n") {
		t.Error("issued_log_records is 0 after an attested Groth16 proof")
	}
}
