package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	mrand "math/rand"
	"net/http"
	"sync"
	"testing"
	"time"

	"zkvc"
	"zkvc/internal/ff"
	"zkvc/internal/nn"
	"zkvc/internal/parallel"
	"zkvc/internal/pcs"
	"zkvc/internal/server"
	"zkvc/internal/wire"
	"zkvc/internal/zkml"
)

// tinyModelConfig is a synthetic architecture small enough that full
// end-to-end proving — including Groth16 per-circuit setup — stays well
// inside the test budget.
func tinyModelConfig(mixer nn.MixerKind) nn.Config {
	return nn.TinyConfig("tiny-e2e", mixer)
}

// capturedTrace runs one synthetic forward pass with operand capture.
func capturedTrace(t *testing.T, cfg nn.Config, seed int64) *nn.Trace {
	t.Helper()
	model, err := nn.NewModel(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	x := model.RandomInput(mrand.New(mrand.NewSource(seed + 1)))
	trace := nn.Trace{Capture: true}
	model.Forward(x, &trace)
	return &trace
}

// proveModelHTTP drives /v1/prove/model and reassembles the stream.
func proveModelHTTP(t *testing.T, baseURL, tenant string, req *wire.ProveModelRequest) (*zkml.Report, error) {
	t.Helper()
	hreq, err := http.NewRequest(http.MethodPost, baseURL+"/v1/prove/model",
		bytes.NewReader(wire.EncodeProveModelRequest(req)))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		hreq.Header.Set(server.TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	return wire.DecodeModelStream(resp.Body, nil)
}

// verifyModelHTTP posts a report to /v1/verify/model and returns the
// service's JSON verdict: 200 passes, 422 fails; any other status is a
// test failure.
func verifyModelHTTP(t *testing.T, baseURL, tenant string, rep *zkml.Report) (bool, string) {
	t.Helper()
	hreq, err := http.NewRequest(http.MethodPost, baseURL+"/v1/verify/model", bytes.NewReader(wire.EncodeReport(rep)))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		hreq.Header.Set(server.TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var verdict struct {
		OK    bool   `json:"ok"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(raw, &verdict); err != nil {
		t.Fatalf("verify/model: status %d: %s", resp.StatusCode, raw)
	}
	want := http.StatusUnprocessableEntity
	if verdict.OK {
		want = http.StatusOK
	}
	if resp.StatusCode != want {
		t.Fatalf("verify/model: verdict ok=%v with status %d, want %d", verdict.OK, resp.StatusCode, want)
	}
	return verdict.OK, verdict.Error
}

// zeroTimings strips the wall-clock fields, the only part of a report
// that legitimately differs between two provings of the same trace.
func zeroTimings(rep *zkml.Report) *zkml.Report {
	out := *rep
	out.Ops = append([]zkml.OpProof(nil), rep.Ops...)
	for i := range out.Ops {
		out.Ops[i].Synthesis = 0
		out.Ops[i].Setup = 0
		out.Ops[i].Prove = 0
		out.Ops[i].Verify = 0
	}
	return &out
}

// TestModelProveMatchesLocalAcrossParallelism is the end-to-end pin for
// the model workload: a synthetic config proven through the service
// round-trips the wire format, verifies via /v1/verify/model, and the
// reassembled report is byte-identical (timings aside) to a locally
// produced zkml.ProveTrace report — at parallelism 1, 2 and 4, on both
// backends.
func TestModelProveMatchesLocalAcrossParallelism(t *testing.T) {
	const seed = 7
	cfg := tinyModelConfig(nn.MixerPooling)
	trace := capturedTrace(t, cfg, 3)

	for _, backend := range []zkml.Backend{zkvc.Spartan, zkvc.Groth16} {
		opts := zkml.DefaultOptions()
		opts.Backend = backend
		opts.Seed = seed
		local, err := zkml.ProveTrace(cfg, trace, opts)
		if err != nil {
			t.Fatalf("%v: local proving: %v", backend, err)
		}
		want := wire.EncodeReport(zeroTimings(local))

		for _, par := range []int{1, 2, 4} {
			scfg := server.DefaultConfig()
			scfg.Seed = seed
			scfg.Parallelism = par
			s, ts := newTestServer(t, scfg)

			rep, err := proveModelHTTP(t, ts.URL, "", &wire.ProveModelRequest{
				Backend:        backend,
				ProveNonlinear: true,
				Cfg:            cfg,
				Trace:          trace,
			})
			if err != nil {
				t.Fatalf("%v par=%d: %v", backend, par, err)
			}
			if got := wire.EncodeReport(zeroTimings(rep)); !bytes.Equal(got, want) {
				t.Fatalf("%v par=%d: streamed report differs from local ProveTrace report (%d vs %d bytes)",
					backend, par, len(got), len(want))
			}
			if ok, msg := verifyModelHTTP(t, ts.URL, "", rep); !ok {
				t.Fatalf("%v par=%d: service rejected its own report: %s", backend, par, msg)
			}
			snap := s.Metrics()
			if snap.ModelJobs != 1 || snap.ModelJobsProved != 1 {
				t.Fatalf("%v par=%d: model job counters %d/%d, want 1/1",
					backend, par, snap.ModelJobs, snap.ModelJobsProved)
			}
			if snap.ModelOpsProved != int64(len(rep.Ops)) {
				t.Fatalf("%v par=%d: %d ops proved, want %d", backend, par, snap.ModelOpsProved, len(rep.Ops))
			}
			if snap.ModelOpsQueued != 0 {
				t.Fatalf("%v par=%d: %d ops still queued after stream ended", backend, par, snap.ModelOpsQueued)
			}
		}
	}
}

// TestVerifyModelPolicy: /v1/verify/model vouches only for reports this
// service issued, unmodified, under the same tenant. Everything in a
// model report is prover-supplied, so a foreign or tampered report must
// hit the policy wall, not a cryptographic coin flip.
func TestVerifyModelPolicy(t *testing.T) {
	const seed = 11
	cfg := tinyModelConfig(nn.MixerPooling)
	trace := capturedTrace(t, cfg, 5)

	scfg := server.DefaultConfig()
	scfg.Seed = seed
	s, ts := newTestServer(t, scfg)

	req := &wire.ProveModelRequest{Backend: zkvc.Spartan, ProveNonlinear: true, Cfg: cfg, Trace: trace}
	rep, err := proveModelHTTP(t, ts.URL, "tenant-a", req)
	if err != nil {
		t.Fatal(err)
	}

	if ok, _ := verifyModelHTTP(t, ts.URL, "tenant-a", rep); !ok {
		t.Fatal("issuing tenant's report rejected")
	}
	// Same bytes, wrong tenant: the per-tenant partitioning extends to
	// model reports.
	if ok, _ := verifyModelHTTP(t, ts.URL, "tenant-b", rep); ok {
		t.Fatal("report verified under a tenant it was not issued to")
	}
	// Relabeled report: the header is part of the attestation, so an
	// issued report renamed to someone else's model must be rejected.
	relabeled := &zkml.Report{Model: "bert-glue-production", Backend: rep.Backend,
		Circuit: rep.Circuit, Ops: rep.Ops}
	if ok, _ := verifyModelHTTP(t, ts.URL, "tenant-a", relabeled); ok {
		t.Fatal("relabeled report verified")
	}
	// Truncated report: a strict subset of issued ops is not the issued
	// report (the attested digest binds the op count and order).
	truncated := &zkml.Report{Model: rep.Model, Backend: rep.Backend,
		Circuit: rep.Circuit, Ops: rep.Ops[:len(rep.Ops)-1]}
	if ok, _ := verifyModelHTTP(t, ts.URL, "tenant-a", truncated); ok {
		t.Fatal("truncated report verified")
	}
	// Tampered op (flip one public input): no longer the issued bytes.
	tampered := &zkml.Report{Model: rep.Model, Backend: rep.Backend, Circuit: rep.Circuit,
		Ops: append([]zkml.OpProof(nil), rep.Ops...)}
	tampered.Ops[0].Public = append([]ff.Fr(nil), rep.Ops[0].Public...)
	zkml.TamperPublic(tampered, 0)
	if ok, _ := verifyModelHTTP(t, ts.URL, "tenant-a", tampered); ok {
		t.Fatal("tampered report verified")
	}
	// A locally produced report was never issued by the service at all.
	opts := zkml.DefaultOptions()
	opts.Seed = seed
	local, err := zkml.ProveTrace(cfg, trace, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := zkml.VerifyReport(local, zkml.Options{PCS: pcs.DefaultParams()}); err != nil {
		t.Fatalf("local report must verify locally: %v", err)
	}
	if ok, _ := verifyModelHTTP(t, ts.URL, "tenant-a", local); ok {
		t.Fatal("foreign (locally produced) report verified")
	}
	if s.Metrics().ModelRejects < 5 {
		t.Fatalf("model_rejects = %d, want >= 5", s.Metrics().ModelRejects)
	}
}

// TestModelSlotsSurviveMalformedBodies pins the body-slot accounting of
// every early-exit path on the model-slot routes: more malformed bodies
// than there are buffering slots (4) must all answer 400 — a leaked slot
// would turn the tail of the flood into 503s — and valid requests
// afterwards must still be served.
func TestModelSlotsSurviveMalformedBodies(t *testing.T) {
	cfg := server.DefaultConfig()
	cfg.Seed = 29
	_, ts := newTestServer(t, cfg)

	for _, path := range []string{"/v1/prove/model", "/v1/verify/model", "/v1/jobs"} {
		for i := 0; i < 9; i++ { // 2×modelBodySlots+1
			status, raw := post(t, ts.URL+path, []byte("not a wire message"))
			if status != http.StatusBadRequest {
				t.Fatalf("%s malformed body %d: status %d (%s), want 400", path, i, status, raw)
			}
		}
	}

	mcfg := tinyModelConfig(nn.MixerPooling)
	trace := capturedTrace(t, mcfg, 31)
	rep, err := proveModelHTTP(t, ts.URL, "", &wire.ProveModelRequest{
		Backend: zkvc.Spartan, ProveNonlinear: true, Cfg: mcfg, Trace: trace,
	})
	if err != nil {
		t.Fatalf("valid request after malformed flood: %v", err)
	}
	if ok, msg := verifyModelHTTP(t, ts.URL, "", rep); !ok {
		t.Fatalf("verify after malformed flood: %s", msg)
	}
	submit := wire.EncodeJobSubmitRequest(&wire.JobSubmitRequest{Model: &wire.ProveModelRequest{
		Backend: zkvc.Spartan, ProveNonlinear: true, Cfg: mcfg, Trace: trace,
	}})
	if status, raw := post(t, ts.URL+"/v1/jobs", submit); status != http.StatusAccepted {
		t.Fatalf("job submission after malformed flood: status %d (%s), want 202", status, raw)
	}
}

// TestStalledStreamReaderDoesNotWedgeWorker: a client that opens
// /v1/prove/model and never reads the response must not hold the (here:
// only) budget token and its queue units forever. Once the stream write
// deadline fires the stalled job cancels like a disconnect and the next
// job proves. (If the whole stream fits in socket buffers the first job
// simply completes — either way the token must come free.)
func TestStalledStreamReaderDoesNotWedgeWorker(t *testing.T) {
	cfg := server.DefaultConfig()
	cfg.Seed = 37
	cfg.Parallelism = 1
	cfg.StreamWriteTimeout = 200 * time.Millisecond
	s, ts := newTestServer(t, cfg)

	mcfg := tinyModelConfig(nn.MixerPooling)
	trace := capturedTrace(t, mcfg, 41)
	req := &wire.ProveModelRequest{Backend: zkvc.Spartan, ProveNonlinear: true, Cfg: mcfg, Trace: trace}

	// Open the stream and never read from it.
	stalled, err := http.Post(ts.URL+"/v1/prove/model", "application/octet-stream",
		bytes.NewReader(wire.EncodeProveModelRequest(req)))
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Body.Close()

	// A second job behind the same single token must still complete.
	done := make(chan error, 1)
	go func() {
		rep, err := proveModelHTTP(t, ts.URL, "", req)
		if err == nil && len(rep.Ops) == 0 {
			err = fmt.Errorf("empty report")
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("budget token still wedged behind a stalled stream reader")
	}
	if got := parallel.Default().InUse(); got != 0 {
		t.Fatalf("%d budget tokens still held", got)
	}
	if snap := s.Metrics(); snap.ModelJobsProved+snap.ModelJobsCanceled < 2 {
		t.Fatalf("stalled job neither proved nor canceled: %+v", snap)
	}
}

// TestModelJobsShareParallelBudgetUnderConcurrentLoad mixes concurrent
// model jobs and coalescing matmul jobs over real HTTP on a small shared
// budget. Under -race this is the budget-sharing data race check for the
// model pipeline: jobs hold one token each, trace ops borrow only idle
// tokens, and every token must come home.
func TestModelJobsShareParallelBudgetUnderConcurrentLoad(t *testing.T) {
	defer zkvc.SetParallelism(0)
	cfg := server.DefaultConfig()
	cfg.Backend = zkvc.Spartan
	cfg.Window = 5 * time.Millisecond
	cfg.MaxBatch = 4
	cfg.Parallelism = 3
	cfg.Seed = 13

	s, ts := newTestServer(t, cfg)

	mcfg := tinyModelConfig(nn.MixerPooling)
	trace := capturedTrace(t, mcfg, 17)
	rng := mrand.New(mrand.NewSource(23))
	x := zkvc.RandomMatrix(rng, 6, 8, 32)
	w := zkvc.RandomMatrix(rng, 8, 6, 32)
	matmulBody := wire.EncodeProveRequest(&wire.ProveRequest{X: x, W: w})

	const modelClients, matmulClients = 3, 4
	var wg sync.WaitGroup
	errs := make(chan error, modelClients+matmulClients)
	for c := 0; c < modelClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rep, err := proveModelHTTP(t, ts.URL, fmt.Sprintf("m%d", c), &wire.ProveModelRequest{
				Backend: zkvc.Spartan, ProveNonlinear: true, Cfg: mcfg, Trace: trace,
			})
			if err != nil {
				errs <- fmt.Errorf("model client %d: %v", c, err)
				return
			}
			if err := zkml.VerifyReport(rep, zkml.Options{PCS: pcs.DefaultParams()}); err != nil {
				errs <- fmt.Errorf("model client %d: %v", c, err)
			}
		}(c)
	}
	for c := 0; c < matmulClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			status, raw := post(t, ts.URL+"/v1/prove", matmulBody)
			if status != http.StatusOK {
				errs <- fmt.Errorf("matmul client %d: status %d: %s", c, status, raw)
				return
			}
			resp, err := wire.DecodeProveResponse(raw)
			if err != nil {
				errs <- fmt.Errorf("matmul client %d: %v", c, err)
				return
			}
			if err := zkvc.VerifyMatMulBatch(resp.Xs, resp.Batch); err != nil {
				errs <- fmt.Errorf("matmul client %d: %v", c, err)
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	snap := s.Metrics()
	if snap.Parallelism != 3 {
		t.Fatalf("metrics parallelism = %d, want 3", snap.Parallelism)
	}
	if snap.ModelJobsProved != modelClients {
		t.Fatalf("%d model jobs proved, want %d", snap.ModelJobsProved, modelClients)
	}
	if snap.ModelOpsQueued != 0 || snap.QueueDepth != 0 {
		t.Fatalf("queue not drained: matmul %d, model ops %d", snap.QueueDepth, snap.ModelOpsQueued)
	}
	if got := parallel.Default().InUse(); got != 0 {
		t.Fatalf("%d budget tokens still held after load drained", got)
	}
}

// TestKeyCacheSharesGadgetsAndReplaysNotMatMuls pins what the service's
// Groth16 key cache shares. A matmul op's circuit is built at a
// Fiat–Shamir challenge over its own operands, so every new input is a
// new circuit and a setup; a gadget circuit (softmax, GELU) depends only
// on its shape, so a second input hits for every gadget op; replaying an
// input hits for every op.
func TestKeyCacheSharesGadgetsAndReplaysNotMatMuls(t *testing.T) {
	cfg := server.DefaultConfig()
	cfg.Backend = zkvc.Groth16
	cfg.Seed = 4
	s, ts := newTestServer(t, cfg)

	mcfg := nn.TinyConfig("tiny-keys", nn.MixerSoftmax)
	model, err := nn.NewModel(mcfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	trace := func(seed int64) *nn.Trace {
		tr := nn.Trace{Capture: true}
		model.Forward(model.RandomInput(mrand.New(mrand.NewSource(seed))), &tr)
		return &tr
	}
	in1, in2 := trace(1), trace(2)
	plan, err := zkml.PlanTrace(in1, zkml.Options{ProveNonlinear: true})
	if err != nil {
		t.Fatal(err)
	}
	var matmuls, gadgets int64
	for _, op := range plan {
		if op.Kind == nn.OpMatMul {
			matmuls++
		} else {
			gadgets++
		}
	}
	if matmuls == 0 || gadgets == 0 {
		t.Fatalf("plan has %d matmul and %d gadget ops; the test needs both", matmuls, gadgets)
	}

	var hits, misses int64
	prove := func(name string, tr *nn.Trace, wantHits, wantMisses int64) {
		t.Helper()
		req := &wire.ProveModelRequest{Backend: zkvc.Groth16, ProveNonlinear: true, Cfg: mcfg, Trace: tr}
		if _, err := proveModelHTTP(t, ts.URL, "", req); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		snap := s.Metrics()
		dh, dm := snap.CRSCacheHits-hits, snap.CRSCacheMisses-misses
		hits, misses = snap.CRSCacheHits, snap.CRSCacheMisses
		if dh+dm != matmuls+gadgets || dh < wantHits || dm < wantMisses {
			t.Fatalf("%s: %d hits, %d misses over %d matmul and %d gadget ops; want at least %d hits and %d misses",
				name, dh, dm, matmuls, gadgets, wantHits, wantMisses)
		}
	}
	prove("input 1", in1, 0, matmuls)       // every matmul op is a new circuit
	prove("input 2", in2, gadgets, matmuls) // ...again; every gadget op hits
	prove("input 1 again", in1, matmuls+gadgets, 0)
	t.Logf("cumulative: %d hits, %d misses", hits, misses)
}
