package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	mrand "math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"zkvc"
	"zkvc/internal/nn"
	"zkvc/internal/parallel"
	"zkvc/internal/server"
	"zkvc/internal/wire"
	"zkvc/internal/zkml"
)

func newTestServer(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func post(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

func getMetrics(t *testing.T, base string) server.Snapshot {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap server.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestServerCoalescingE2E drives the real HTTP stack end to end: N
// concurrent clients submit overlapping matmul shapes, every response
// decodes through the canonical wire format and verifies, and the
// coalescer must have folded the N requests into strictly fewer backend
// proofs.
func TestServerCoalescingE2E(t *testing.T) {
	cfg := server.DefaultConfig()
	cfg.Backend = zkvc.Spartan
	cfg.Window = 300 * time.Millisecond
	cfg.MaxBatch = 8
	cfg.Seed = 1

	_, ts := newTestServer(t, cfg)

	const n = 10
	shapes := [][3]int{{3, 4, 2}, {2, 5, 3}} // overlapping shapes across clients
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := mrand.New(mrand.NewSource(int64(100 + i)))
			sh := shapes[i%len(shapes)]
			x := zkvc.RandomMatrix(rng, sh[0], sh[1], 32)
			w := zkvc.RandomMatrix(rng, sh[1], sh[2], 32)

			status, raw := post(t, ts.URL+"/v1/prove", wire.EncodeProveRequest(&wire.ProveRequest{X: x, W: w}))
			if status != http.StatusOK {
				errs <- fmt.Errorf("client %d: status %d: %s", i, status, raw)
				return
			}
			resp, err := wire.DecodeProveResponse(raw)
			if err != nil {
				errs <- fmt.Errorf("client %d: decode: %v", i, err)
				return
			}
			if err := zkvc.VerifyMatMulBatch(resp.Xs, resp.Batch); err != nil {
				errs <- fmt.Errorf("client %d: batch does not verify: %v", i, err)
				return
			}
			if !resp.Xs[resp.Index].Equal(x) {
				errs <- fmt.Errorf("client %d: response index points at someone else's input", i)
				return
			}
			if want := zkvc.MatMul(x, w); !resp.Batch.Ys[resp.Index].Equal(want) {
				errs <- fmt.Errorf("client %d: Y[%d] is not X·W", i, resp.Index)
				return
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	snap := getMetrics(t, ts.URL)
	if snap.Requests != n {
		t.Errorf("metrics report %d requests, want %d", snap.Requests, n)
	}
	if snap.BatchesProved == 0 || snap.BatchesProved >= n {
		t.Errorf("coalescing produced %d backend proofs for %d requests, want fewer", snap.BatchesProved, n)
	}
	if snap.CoalesceRatio <= 1 {
		t.Errorf("coalesce ratio %.2f, want > 1", snap.CoalesceRatio)
	}
	if snap.QueueDepth != 0 {
		t.Errorf("queue depth %d after drain, want 0", snap.QueueDepth)
	}
	if snap.PhaseNanos.Prove == 0 {
		t.Error("per-phase prove timing not recorded")
	}
	// The memory gauges come from the runtime, not counters: live heap is
	// never zero in a running process, and proving enough batches to get
	// here has certainly triggered at least one GC cycle.
	if snap.HeapAllocBytes == 0 {
		t.Error("heap_alloc_bytes gauge is zero")
	}
	if snap.GCPauseTotalNanos == 0 {
		t.Error("gc_pause_total_nanos gauge is zero")
	}
}

// TestModelCRSCacheSingleflight exercises the digest-keyed Groth16 CRS
// cache under concurrency: identical model jobs racing for the same
// circuit digests must run exactly one trusted setup per digest
// (singleflight) and hit for the rest, and every report must verify.
func TestModelCRSCacheSingleflight(t *testing.T) {
	cfg := server.DefaultConfig()
	cfg.Backend = zkvc.Groth16
	cfg.Seed = 2
	// As many jobs as the model endpoints admit buffered bodies at once
	// (modelBodySlots), so no submission is shed with a 503.
	const n = 4

	_, ts := newTestServer(t, cfg)

	mcfg := tinyModelConfig(nn.MixerPooling)
	trace := capturedTrace(t, mcfg, 200)
	req := &wire.ProveModelRequest{Backend: zkvc.Groth16, Cfg: mcfg, Trace: trace}
	reps := make([]*zkml.Report, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reps[i], errs[i] = proveModelHTTP(t, ts.URL, "", req)
		}(i)
	}
	wg.Wait()
	// Verified one at a time: the model endpoints admit only a few
	// buffered bodies at once, and this test is about proving.
	for i, rep := range reps {
		if errs[i] != nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		if ok, msg := verifyModelHTTP(t, ts.URL, "", rep); !ok {
			t.Errorf("job %d: service rejected its own report: %s", i, msg)
		}
	}

	// Every job looks each of the model's D distinct circuit digests up
	// once, so hits + misses = n·D. Singleflight means misses = D, which
	// holds exactly when hits = (n−1)·misses.
	snap := getMetrics(t, ts.URL)
	if snap.CRSCacheMisses == 0 || snap.CRSCacheHits != (n-1)*snap.CRSCacheMisses {
		t.Errorf("CRS cache misses %d, hits %d: want one setup per digest and n-1 hits each",
			snap.CRSCacheMisses, snap.CRSCacheHits)
	}

	// A Groth16 batch this service issued round-trips /v1/verify/batch
	// (foreign Groth16 batches are rejected; see TestVerifyEndpoints).
	rng := mrand.New(mrand.NewSource(250))
	x := zkvc.RandomMatrix(rng, 3, 4, 32)
	w := zkvc.RandomMatrix(rng, 4, 2, 32)
	status, raw := post(t, ts.URL+"/v1/prove", wire.EncodeProveRequest(&wire.ProveRequest{X: x, W: w}))
	if status != http.StatusOK {
		t.Fatalf("batch prove: status %d: %s", status, raw)
	}
	status, verdict := post(t, ts.URL+"/v1/verify/batch", raw)
	if status != http.StatusOK || !bytes.Contains(verdict, []byte(`"ok":true`)) {
		t.Fatalf("issued Groth16 batch rejected: status %d body %s", status, verdict)
	}
}

// TestVerifyEndpoints round-trips proofs through the service's verifier,
// including a tampered proof that must be rejected with ok=false.
func TestVerifyEndpoints(t *testing.T) {
	cfg := server.DefaultConfig()
	cfg.Backend = zkvc.Spartan
	cfg.Window = 5 * time.Millisecond
	cfg.Seed = 3

	_, ts := newTestServer(t, cfg)

	rng := mrand.New(mrand.NewSource(300))
	x := zkvc.RandomMatrix(rng, 3, 4, 32)
	w := zkvc.RandomMatrix(rng, 4, 2, 32)

	// Batch path proof → /v1/verify/batch.
	status, raw := post(t, ts.URL+"/v1/prove", wire.EncodeProveRequest(&wire.ProveRequest{X: x, W: w}))
	if status != http.StatusOK {
		t.Fatalf("prove status %d: %s", status, raw)
	}
	status, verdict := post(t, ts.URL+"/v1/verify/batch", raw)
	if status != http.StatusOK || !bytes.Contains(verdict, []byte(`"ok":true`)) {
		t.Fatalf("batch verify: status %d body %s", status, verdict)
	}

	// Single proof → /v1/verify, honest then tampered.
	prover := zkvc.NewMatMulProver(zkvc.Spartan, zkvc.DefaultOptions())
	prover.Reseed(4)
	proof, err := prover.ProveContext(context.Background(), x, w)
	if err != nil {
		t.Fatal(err)
	}
	status, verdict = post(t, ts.URL+"/v1/verify", wire.EncodeVerifyRequest(&wire.VerifyRequest{X: x, Proof: proof}))
	if status != http.StatusOK || !bytes.Contains(verdict, []byte(`"ok":true`)) {
		t.Fatalf("verify: status %d body %s", status, verdict)
	}
	proof.Y.At(0, 0).SetInt64(777)
	status, verdict = post(t, ts.URL+"/v1/verify", wire.EncodeVerifyRequest(&wire.VerifyRequest{X: x, Proof: proof}))
	if status != http.StatusUnprocessableEntity || !bytes.Contains(verdict, []byte(`"ok":false`)) {
		t.Fatalf("tampered verify: status %d body %s", status, verdict)
	}

	// Per-statement Groth16 proofs carry their own verifying key, which
	// the service cannot trust — whoever ran that setup can forge.
	g16 := zkvc.NewMatMulProver(zkvc.Groth16, zkvc.DefaultOptions())
	g16.Reseed(9)
	g16Proof, err := g16.ProveContext(context.Background(), x, w)
	if err != nil {
		t.Fatal(err)
	}
	status, verdict = post(t, ts.URL+"/v1/verify", wire.EncodeVerifyRequest(&wire.VerifyRequest{X: x, Proof: g16Proof}))
	if status != http.StatusUnprocessableEntity || !bytes.Contains(verdict, []byte("verifying key")) {
		t.Fatalf("per-statement Groth16 proof accepted: status %d body %s", status, verdict)
	}

	// Same for a Groth16 batch from a foreign setup: /v1/verify/batch
	// only accepts Groth16 batches this service issued.
	g16Batch, err := g16.ProveBatchContext(context.Background(), [2]*zkvc.Matrix{x, w})
	if err != nil {
		t.Fatal(err)
	}
	foreignResp := wire.EncodeProveResponse(&wire.ProveResponse{Index: 0, Xs: []*zkvc.Matrix{x}, Batch: g16Batch})
	status, verdict = post(t, ts.URL+"/v1/verify/batch", foreignResp)
	if status != http.StatusUnprocessableEntity || !bytes.Contains(verdict, []byte("verifying key")) {
		t.Fatalf("foreign Groth16 batch accepted: status %d body %s", status, verdict)
	}

	// Garbage bodies are rejected up front.
	if status, _ := post(t, ts.URL+"/v1/prove", []byte("not a wire message")); status != http.StatusBadRequest {
		t.Errorf("garbage prove request: status %d, want 400", status)
	}
}

// TestVerifyRejectsForeignEpochProofs: the service issues no epoch
// proofs, and an epoch label is public, so an epoch proof from anyone
// else proves nothing (its prover saw the challenge before choosing its
// statement). /v1/verify must reject them on both backends, even when
// they are honestly generated and would pass VerifyMatMulInEpoch.
func TestVerifyRejectsForeignEpochProofs(t *testing.T) {
	cfg := server.DefaultConfig()
	cfg.Seed = 6
	_, ts := newTestServer(t, cfg)

	rng := mrand.New(mrand.NewSource(500))
	x := zkvc.RandomMatrix(rng, 3, 4, 32)
	w := zkvc.RandomMatrix(rng, 4, 2, 32)
	epoch := []byte("zkvc-epoch-0")

	for _, backend := range []zkvc.Backend{zkvc.Spartan, zkvc.Groth16} {
		prover := zkvc.NewMatMulProver(backend, zkvc.DefaultOptions())
		prover.Reseed(7)
		crs, err := prover.Setup(3, 4, 2, epoch)
		if err != nil {
			t.Fatal(err)
		}
		proof, err := prover.ProveWithCRS(crs, x, w)
		if err != nil {
			t.Fatal(err)
		}
		if err := zkvc.VerifyMatMulInEpoch(x, proof, epoch); err != nil {
			t.Fatalf("%v: library epoch proof should be cryptographically valid: %v", backend, err)
		}
		status, verdict := post(t, ts.URL+"/v1/verify", wire.EncodeVerifyRequest(&wire.VerifyRequest{X: x, Proof: proof}))
		if status != http.StatusUnprocessableEntity || !bytes.Contains(verdict, []byte(`"ok":false`)) {
			t.Errorf("%v: epoch proof accepted: status %d body %s", backend, status, verdict)
		}
		if !bytes.Contains(verdict, []byte("issues no epoch proofs")) {
			t.Errorf("%v: rejection does not explain the policy: %s", backend, verdict)
		}
	}
}

// TestRemovedSurfacesRejected pins what is gone from the node: the
// epoch-proof route and the POST twin of the job stream are no longer
// served, and /v1/verify/model refuses the retired mode-carrying body
// (tag 0x16) with a 400, query or no query.
func TestRemovedSurfacesRejected(t *testing.T) {
	cfg := server.DefaultConfig()
	cfg.Seed = 12
	_, ts := newTestServer(t, cfg)

	rng := mrand.New(mrand.NewSource(510))
	x := zkvc.RandomMatrix(rng, 3, 4, 32)
	w := zkvc.RandomMatrix(rng, 4, 2, 32)
	status, raw := post(t, ts.URL+"/v1/prove/single", wire.EncodeProveRequest(&wire.ProveRequest{X: x, W: w}))
	if status != http.StatusNotFound && status != http.StatusMethodNotAllowed {
		t.Errorf("/v1/prove/single: status %d body %s, want 404 or 405", status, raw)
	}

	// A job stream has one route, GET /v1/jobs/{id}/stream; its
	// body-addressed POST twin is gone.
	status, raw = post(t, ts.URL+"/v1/jobs/stream", []byte("job-1"))
	if status != http.StatusNotFound && status != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/jobs/stream: status %d body %s, want 404 or 405", status, raw)
	}

	mcfg := tinyModelConfig(nn.MixerPooling)
	rep, err := proveModelHTTP(t, ts.URL, "", &wire.ProveModelRequest{
		Backend: zkvc.Spartan, Cfg: mcfg, Trace: capturedTrace(t, mcfg, 511),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/v1/verify/model", "/v1/verify/model?mode=per-op"} {
		status, raw := post(t, ts.URL+path, retiredVerifyModelBody(rep))
		if status != http.StatusBadRequest {
			t.Errorf("%s with a tag-0x16 body: status %d body %s, want 400", path, status, raw)
		}
	}
	if ok, msg := verifyModelHTTP(t, ts.URL, "", rep); !ok {
		t.Fatalf("the same report as a wire Report rejected: %s", msg)
	}
}

// retiredVerifyModelBody builds the body of the retired mode-carrying
// verify exchange: a Report under tag 0x16 with a per-op mode byte
// after the header.
func retiredVerifyModelBody(rep *zkml.Report) []byte {
	raw := wire.EncodeReport(rep)
	out := append([]byte(nil), raw[:wire.HeaderLen]...)
	out[wire.HeaderLen-1] = 0x16
	return append(append(out, 0), raw[wire.HeaderLen:]...)
}

// TestTenantPartitioning submits concurrent jobs under two tenant keys
// with a window long enough that an unpartitioned coalescer would fold
// them all into one batch. Every response must contain only the
// submitting tenant's statements, while jobs still coalesce within each
// tenant.
func TestTenantPartitioning(t *testing.T) {
	cfg := server.DefaultConfig()
	cfg.Backend = zkvc.Spartan
	cfg.Window = 300 * time.Millisecond
	cfg.MaxBatch = 8
	cfg.Seed = 8

	_, ts := newTestServer(t, cfg)

	// Tenants are told apart by their X dimensions.
	dims := map[string][3]int{"alice": {2, 3, 2}, "bob": {3, 4, 2}}
	const perTenant = 4
	var wg sync.WaitGroup
	errs := make(chan error, 2*perTenant)
	for tenant, sh := range dims {
		for i := 0; i < perTenant; i++ {
			wg.Add(1)
			go func(tenant string, sh [3]int, i int) {
				defer wg.Done()
				rng := mrand.New(mrand.NewSource(int64(600 + i)))
				x := zkvc.RandomMatrix(rng, sh[0], sh[1], 16)
				w := zkvc.RandomMatrix(rng, sh[1], sh[2], 16)
				body := wire.EncodeProveRequest(&wire.ProveRequest{X: x, W: w})
				req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/prove", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				req.Header.Set(server.TenantHeader, tenant)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					errs <- err
					return
				}
				defer resp.Body.Close()
				raw, err := io.ReadAll(resp.Body)
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("%s/%d: status %d: %s", tenant, i, resp.StatusCode, raw)
					return
				}
				pr, err := wire.DecodeProveResponse(raw)
				if err != nil {
					errs <- fmt.Errorf("%s/%d: decode: %v", tenant, i, err)
					return
				}
				for _, other := range pr.Xs {
					if other.Rows != sh[0] || other.Cols != sh[1] {
						errs <- fmt.Errorf("%s/%d: batch leaked a foreign %dx%d statement", tenant, i, other.Rows, other.Cols)
						return
					}
				}
				if err := zkvc.VerifyMatMulBatch(pr.Xs, pr.Batch); err != nil {
					errs <- fmt.Errorf("%s/%d: batch does not verify: %v", tenant, i, err)
				}
			}(tenant, sh, i)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	snap := getMetrics(t, ts.URL)
	if snap.BatchesProved < 2 {
		t.Errorf("batches proved %d, want at least one per tenant", snap.BatchesProved)
	}
	if snap.BatchesProved >= 2*perTenant {
		t.Errorf("coalescing produced %d backend proofs for %d requests, want fewer", snap.BatchesProved, 2*perTenant)
	}
}

// TestQueueCapBoundsParkedJobs: QueueCap must bound jobs parked in open
// coalescing windows, not just the submit channel buffer — otherwise a
// burst of distinct tenants (each opening its own window) would accept
// unbounded work.
func TestQueueCapBoundsParkedJobs(t *testing.T) {
	cfg := server.DefaultConfig()
	cfg.Backend = zkvc.Spartan
	cfg.Window = 10 * time.Second // park jobs until Close flushes
	cfg.QueueCap = 2
	cfg.Seed = 11

	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rng := mrand.New(mrand.NewSource(900))
	x := zkvc.RandomMatrix(rng, 2, 3, 16)
	w := zkvc.RandomMatrix(rng, 3, 2, 16)
	body := wire.EncodeProveRequest(&wire.ProveRequest{X: x, W: w})

	submit := func(tenant string) (int, []byte) {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/prove", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return 0, nil
		}
		req.Header.Set(server.TenantHeader, tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			return 0, nil
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, raw
	}

	// Two distinct tenants park two singleton windows.
	statuses := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			status, _ := submit(fmt.Sprintf("tenant-%d", i))
			statuses <- status
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics().QueueDepth < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("parked jobs never reached queue depth 2 (depth %d)", s.Metrics().QueueDepth)
		}
		time.Sleep(time.Millisecond)
	}

	// The cap counts the parked jobs: a third tenant is shed.
	if status, raw := submit("tenant-2"); status != http.StatusServiceUnavailable {
		t.Errorf("third parked job: status %d body %s, want 503", status, raw)
	}

	// Close flushes the parked windows; both accepted jobs complete.
	s.Close()
	for i := 0; i < 2; i++ {
		if status := <-statuses; status != http.StatusOK {
			t.Errorf("parked job finished with status %d, want 200", status)
		}
	}
}

// TestServerCloseDrains: jobs accepted before Close must complete, and
// submissions after Close must be refused rather than hang or panic.
func TestServerCloseDrains(t *testing.T) {
	cfg := server.DefaultConfig()
	cfg.Backend = zkvc.Spartan
	cfg.Window = 20 * time.Millisecond
	cfg.Seed = 5

	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rng := mrand.New(mrand.NewSource(400))
	x := zkvc.RandomMatrix(rng, 2, 3, 16)
	w := zkvc.RandomMatrix(rng, 3, 2, 16)
	body := wire.EncodeProveRequest(&wire.ProveRequest{X: x, W: w})

	status, raw := post(t, ts.URL+"/v1/prove", body)
	if status != http.StatusOK {
		t.Fatalf("pre-close prove: status %d: %s", status, raw)
	}
	s.Close()
	s.Close() // idempotent

	status, _ = post(t, ts.URL+"/v1/prove", body)
	if status != http.StatusServiceUnavailable {
		t.Errorf("post-close prove: status %d, want 503", status)
	}
}

// TestQueueCapShedsDirectRoutes: the direct routes are admitted against
// the same QueueCap ledger as every other proving request. With the
// ledger filled by a model job parked behind the only budget token, they
// answer 503 at once instead of waiting for the token without bound,
// and the shed requests leave nothing charged behind. Every refusal of
// a full ledger — these two, a coalesced /v1/prove, a sync
// /v1/prove/model and a 429 on /v1/jobs — counts once in
// admission_rejects. A batch larger than the whole ledger is a 400.
func TestQueueCapShedsDirectRoutes(t *testing.T) {
	mcfg := tinyModelConfig(nn.MixerPooling)
	trace := capturedTrace(t, mcfg, 5)
	plan, err := zkml.PlanTrace(trace, zkml.Options{ProveNonlinear: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := server.DefaultConfig()
	cfg.Seed = 3
	cfg.Parallelism = 1
	cfg.QueueCap = len(plan) // the model job fills the ledger exactly
	s, ts := newTestServer(t, cfg)

	// Hold the one token, so the admitted job parks with its units charged.
	pool := parallel.Default()
	pool.Acquire()
	held := true
	defer func() {
		if held {
			pool.Release()
		}
	}()
	submit := wire.EncodeJobSubmitRequest(&wire.JobSubmitRequest{
		Model: &wire.ProveModelRequest{Backend: zkvc.Spartan, ProveNonlinear: true, Cfg: mcfg, Trace: trace},
	})
	if code, raw := post(t, ts.URL+"/v1/jobs", submit); code != http.StatusAccepted {
		t.Fatalf("model job: status %d: %s", code, raw)
	}
	if got := s.Metrics().ModelOpsQueued; got != int64(len(plan)) {
		t.Fatalf("model_ops_queued = %d, want %d", got, len(plan))
	}

	rng := mrand.New(mrand.NewSource(70))
	x := zkvc.RandomMatrix(rng, 2, 3, 16)
	w := zkvc.RandomMatrix(rng, 3, 2, 16)
	direct := map[string][]byte{
		"/v1/prove/matmul": wire.EncodeProveRequest(&wire.ProveRequest{X: x, W: w}),
		"/v1/prove/batch":  wire.EncodeProveBatchRequest(&wire.ProveBatchRequest{Pairs: [][2]*zkvc.Matrix{{x, w}}}),
	}
	// A bounded client: a route that waits for the held token instead of
	// shedding fails here rather than hanging the test.
	hc := &http.Client{Timeout: 10 * time.Second}
	for path, body := range direct {
		resp, err := hc.Post(ts.URL+path, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s with the ledger full: %v", path, err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s with the ledger full: status %d body %s, want 503", path, resp.StatusCode, raw)
		}
	}
	if snap := s.Metrics(); snap.QueueDepth != 0 || snap.ModelOpsQueued != int64(len(plan)) || snap.AdmissionRejects != 2 {
		t.Fatalf("after shedding: queue_depth %d, model_ops_queued %d, admission_rejects %d; want 0, %d and 2",
			snap.QueueDepth, snap.ModelOpsQueued, snap.AdmissionRejects, len(plan))
	}
	// The other routes that charge the ledger shed too, one count each.
	for _, c := range []struct {
		path string
		body []byte
		code int
	}{
		{"/v1/prove", direct["/v1/prove/matmul"], http.StatusServiceUnavailable},
		{"/v1/prove/model", wire.EncodeProveModelRequest(&wire.ProveModelRequest{Backend: zkvc.Spartan, ProveNonlinear: true, Cfg: mcfg, Trace: trace}), http.StatusServiceUnavailable},
		{"/v1/jobs", submit, http.StatusTooManyRequests},
	} {
		if code, raw := post(t, ts.URL+c.path, c.body); code != c.code {
			t.Fatalf("%s with the ledger full: status %d: %s, want %d", c.path, code, raw, c.code)
		}
	}
	if got := s.Metrics().AdmissionRejects; got != 5 {
		t.Fatalf("admission_rejects = %d after five refusals, want 5", got)
	}

	// Once the token is free the job proves, the ledger drains, and the
	// direct routes are admitted again.
	held = false
	pool.Release()
	deadline := time.Now().Add(60 * time.Second)
	for snap := s.Metrics(); snap.ModelJobsProved != 1 || snap.ModelOpsQueued != 0; snap = s.Metrics() {
		if time.Now().After(deadline) {
			t.Fatalf("parked model job never drained: %+v", snap)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for path, body := range direct {
		if code, raw := post(t, ts.URL+path, body); code != http.StatusOK {
			t.Fatalf("%s after the ledger drained: status %d: %s", path, code, raw)
		}
	}
	if snap := s.Metrics(); snap.QueueDepth != 0 || snap.MatMulsProved != 1 || snap.DirectBatchesProved != 1 {
		t.Fatalf("after the direct proofs: queue_depth %d, matmuls %d, batches %d; want 0, 1, 1",
			snap.QueueDepth, snap.MatMulsProved, snap.DirectBatchesProved)
	}
	// A batch that could never be admitted is told so, not shed forever.
	pairs := make([][2]*zkvc.Matrix, cfg.QueueCap+1)
	for i := range pairs {
		pairs[i] = [2]*zkvc.Matrix{x, w}
	}
	if code, raw := post(t, ts.URL+"/v1/prove/batch", wire.EncodeProveBatchRequest(&wire.ProveBatchRequest{Pairs: pairs})); code != http.StatusBadRequest {
		t.Fatalf("batch above the queue capacity: status %d: %s, want 400", code, raw)
	}
}

// TestWindowStaleTimerDoesNotCutNextWindowShort: a window flushed early
// at MaxBatch leaves its timer behind, and that timer must not flush the
// tenant's next window when it fires. Jobs 1 and 2 fill a window at
// once; job 3 opens the next one at W/2, and job 4 joins it at 5W/4 —
// after the first window's timer fired at W, before job 3's own timer
// at 3W/2. Each job must come back in a batch of two, two batches in
// all; a stale flush would prove job 3 alone and give job 4 a third.
func TestWindowStaleTimerDoesNotCutNextWindowShort(t *testing.T) {
	const window = time.Second
	cfg := server.DefaultConfig()
	cfg.Window = window
	cfg.MaxBatch = 2
	cfg.Seed = 9
	s, ts := newTestServer(t, cfg)

	rng := mrand.New(mrand.NewSource(80))
	x := zkvc.RandomMatrix(rng, 2, 3, 16)
	w := zkvc.RandomMatrix(rng, 3, 2, 16)
	body := wire.EncodeProveRequest(&wire.ProveRequest{X: x, W: w})

	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	send := func(job int, at time.Duration) {
		time.Sleep(time.Until(start.Add(at)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, raw := post(t, ts.URL+"/v1/prove", body)
			if status != http.StatusOK {
				errs <- fmt.Errorf("job %d: status %d: %s", job, status, raw)
				return
			}
			resp, err := wire.DecodeProveResponse(raw)
			if err != nil {
				errs <- fmt.Errorf("job %d: %v", job, err)
				return
			}
			if len(resp.Xs) != 2 {
				errs <- fmt.Errorf("job %d came back in a batch of %d, want 2", job, len(resp.Xs))
			}
		}()
	}
	send(1, 0)
	send(2, 0)
	send(3, window/2)
	send(4, window*5/4)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if snap := s.Metrics(); snap.BatchesProved != 2 || snap.Requests != 4 {
		t.Errorf("batches_proved %d, requests %d; want 2 and 4", snap.BatchesProved, snap.Requests)
	}
}

// TestAnnounceCarriesParallelism: the registration a node sends its
// coordinator carries the node's parallel budget as its capacity hint.
func TestAnnounceCarriesParallelism(t *testing.T) {
	cfg := server.DefaultConfig()
	cfg.Parallelism = 3
	s, _ := newTestServer(t, cfg)
	snap := s.Metrics()
	a := snap.Announce("prover-1", "http://10.0.0.7:8799")
	if a.Name != "prover-1" || a.URL != "http://10.0.0.7:8799" || a.Workers != 3 {
		t.Fatalf("announce = %+v, want prover-1 at http://10.0.0.7:8799 with 3 workers", a)
	}
	if _, err := wire.DecodeNodeAnnounce(wire.EncodeNodeAnnounce(a)); err != nil {
		t.Fatalf("announce does not round-trip the wire: %v", err)
	}
}
