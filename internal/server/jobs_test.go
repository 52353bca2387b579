package server_test

// The crash/resume regression suite for the async durable-job layer.
// The headline claims pinned here:
//
//   - a job's journaled frame stream reassembles into a Report
//     byte-identical to a local zkml.ProveTrace run at the same seed, on
//     both backends, at parallelism 1, 2 and 4;
//   - a stream interrupted after k acked frames resumes from exactly
//     frame k — acked frames are never replayed, torn frames are
//     re-fetched whole — and the assembled report is still
//     byte-identical to an uninterrupted run;
//   - with a JournalDir, resumability survives a server restart: a
//     recreated server over the same directory replays the journal,
//     re-attests complete reports, and honestly fails journals whose
//     tail was torn off;
//   - admission is honest: a saturated queue answers 429 with a
//     Retry-After header and a monotonically non-increasing queue
//     position, never unbounded parking;
//   - the TTL reaper deletes expired journals and withdraws their
//     attestations, so later status lookups get 404 and verify gets the
//     issued-policy error.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"zkvc"
	"zkvc/internal/nn"
	"zkvc/internal/server"
	"zkvc/internal/wire"
	"zkvc/internal/zkml"
)

// localModelReport proves the trace in-process and returns the
// canonical (timings-zeroed) report bytes every journaled run must
// reproduce.
func localModelReport(t *testing.T, backend zkml.Backend, cfg nn.Config, trace *nn.Trace, seed int64) []byte {
	t.Helper()
	opts := zkml.DefaultOptions()
	opts.Backend = backend
	opts.Seed = seed
	rep, err := zkml.ProveTrace(cfg, trace, opts)
	if err != nil {
		t.Fatalf("%v: local proving: %v", backend, err)
	}
	return wire.EncodeReport(zeroTimings(rep))
}

// modelRequest packages the standard tiny trace as an Engine request.
func modelRequest(backend zkml.Backend, cfg nn.Config, trace *nn.Trace) *zkvc.ModelRequest {
	return &zkvc.ModelRequest{Backend: backend, ProveNonlinear: true, Cfg: cfg, Trace: trace}
}

// asyncReportBytes drives AsyncClient.ProveModel to completion and
// returns the canonical report bytes.
func asyncReportBytes(t *testing.T, ac *server.AsyncClient, req *zkvc.ModelRequest) []byte {
	t.Helper()
	rep, err := ac.ProveModel(context.Background(), req).Report()
	if err != nil {
		t.Fatalf("async Report: %v", err)
	}
	return wire.EncodeReport(zeroTimings(rep))
}

// TestAsyncJobMatchesLocalAcrossParallelism is the async counterpart of
// the synchronous model pin: a job submitted through POST /v1/jobs,
// proved into a journal and streamed back must assemble into the exact
// bytes a local ProveTrace produces — both backends, parallelism 1/2/4.
func TestAsyncJobMatchesLocalAcrossParallelism(t *testing.T) {
	const seed = 7
	cfg := tinyModelConfig(nn.MixerPooling)
	trace := capturedTrace(t, cfg, 3)

	for _, backend := range []zkml.Backend{zkvc.Spartan, zkvc.Groth16} {
		want := localModelReport(t, backend, cfg, trace, seed)
		for _, par := range []int{1, 2, 4} {
			scfg := server.DefaultConfig()
			scfg.Seed = seed
			scfg.Parallelism = par
			s, ts := newTestServer(t, scfg)

			ac := server.NewAsyncClient(ts.URL)
			rep, err := ac.ProveModel(context.Background(), modelRequest(backend, cfg, trace)).Report()
			if err != nil {
				t.Fatalf("%v par=%d: %v", backend, par, err)
			}
			if got := wire.EncodeReport(zeroTimings(rep)); !bytes.Equal(got, want) {
				t.Fatalf("%v par=%d: journaled report differs from local ProveTrace report (%d vs %d bytes)",
					backend, par, len(got), len(want))
			}
			// The journaled report carries the same attestation a streamed
			// one would: the service vouches for it on /v1/verify/model.
			if ok, msg := verifyModelHTTP(t, ts.URL, "", rep); !ok {
				t.Fatalf("%v par=%d: service rejected its own journaled report: %s", backend, par, msg)
			}
			snap := s.Metrics()
			if snap.JobsSubmitted != 1 || snap.JobsActive != 1 {
				t.Fatalf("%v par=%d: jobs submitted/active %d/%d, want 1/1",
					backend, par, snap.JobsSubmitted, snap.JobsActive)
			}
			if snap.ModelJobsProved != 1 {
				t.Fatalf("%v par=%d: %d model jobs proved, want 1", backend, par, snap.ModelJobsProved)
			}
			if snap.ModelOpsQueued != 0 {
				t.Fatalf("%v par=%d: %d ops still on the queue ledger after completion",
					backend, par, snap.ModelOpsQueued)
			}
		}
	}
}

// cuttingTransport interposes on GET /v1/jobs/{id}/stream responses and
// severs the connection mid-body a configured number of times: each
// victim stream delivers only `cutAfter` bytes and then fails with a
// transport error, exactly what a dropped TCP connection looks like to
// the client. It also records the `from` value of every stream request
// so the test can pin that resumption never re-asks for acked frames.
type cuttingTransport struct {
	base     http.RoundTripper
	cutAfter int64

	mu    sync.Mutex
	cuts  int   // remaining connections to sever
	froms []int // from= of every stream request, in order
}

func (ct *cuttingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method != http.MethodGet || !strings.HasSuffix(req.URL.Path, "/stream") {
		return ct.base.RoundTrip(req)
	}
	from, err := strconv.Atoi(req.URL.Query().Get("from"))
	if err != nil {
		return nil, fmt.Errorf("cuttingTransport: stream request without a from= count: %w", err)
	}
	resp, err := ct.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	ct.mu.Lock()
	ct.froms = append(ct.froms, from)
	cut := ct.cuts > 0
	if cut {
		ct.cuts--
	}
	ct.mu.Unlock()
	if cut && resp.StatusCode == http.StatusOK {
		resp.Body = &severedBody{body: resp.Body, remaining: ct.cutAfter}
	}
	return resp, nil
}

// severedBody passes through `remaining` bytes and then fails the way a
// dead connection does.
type severedBody struct {
	body      io.ReadCloser
	remaining int64
}

func (sb *severedBody) Read(p []byte) (int, error) {
	if sb.remaining <= 0 {
		sb.body.Close()
		return 0, errors.New("connection reset by test harness")
	}
	if int64(len(p)) > sb.remaining {
		p = p[:sb.remaining]
	}
	n, err := sb.body.Read(p)
	sb.remaining -= int64(n)
	if err == io.EOF {
		return n, io.EOF
	}
	if sb.remaining <= 0 {
		sb.body.Close()
		if n > 0 {
			return n, nil
		}
		return 0, errors.New("connection reset by test harness")
	}
	return n, err
}

func (sb *severedBody) Close() error { return sb.body.Close() }

// TestAsyncStreamResumesAfterConnectionLoss severs the frame stream
// twice — mid-frame, so the client holds a torn frame it must discard —
// and requires the assembled report to still be byte-identical to an
// uninterrupted local run. The transport's log of from= values pins the
// resumption contract: each reconnect asks for strictly more frames
// than the last (acked frames are never re-requested, so the server
// never replays them), and the jobs_resumed counter records each one.
func TestAsyncStreamResumesAfterConnectionLoss(t *testing.T) {
	const seed = 7
	cfg := tinyModelConfig(nn.MixerPooling)
	trace := capturedTrace(t, cfg, 3)
	want := localModelReport(t, zkvc.Spartan, cfg, trace, seed)

	scfg := server.DefaultConfig()
	scfg.Seed = seed
	scfg.Parallelism = 2
	s, ts := newTestServer(t, scfg)

	ac := server.NewAsyncClient(ts.URL)
	ac.RetryBase = 5 * time.Millisecond
	ct := &cuttingTransport{base: http.DefaultTransport, cuts: 2, cutAfter: 150}
	ac.HTTP = &http.Client{Transport: ct}

	got := asyncReportBytes(t, ac, modelRequest(zkvc.Spartan, cfg, trace))
	if !bytes.Equal(got, want) {
		t.Fatalf("report assembled across %d severed connections differs from local run (%d vs %d bytes)",
			2, len(got), len(want))
	}

	ct.mu.Lock()
	froms := append([]int(nil), ct.froms...)
	ct.mu.Unlock()
	if len(froms) < 3 {
		t.Fatalf("expected at least 3 stream connections (2 severed + 1 final), saw %d: %v", len(froms), froms)
	}
	if froms[0] != 0 {
		t.Fatalf("first stream connection asked for frame %d, want 0", froms[0])
	}
	// The ack boundary never moves backwards: a reconnect may re-request
	// the same frame it was torn off mid-way through (nothing new was
	// acked), but never a frame it already holds.
	for i := 1; i < len(froms); i++ {
		if froms[i] < froms[i-1] {
			t.Fatalf("reconnect %d asked for frame %d after already holding %d frames — an acked frame would be replayed: %v",
				i, froms[i], froms[i-1], froms)
		}
	}
	resumedPastZero := false
	for _, f := range froms[1:] {
		if f > 0 {
			resumedPastZero = true
		}
	}
	if !resumedPastZero {
		t.Fatalf("no reconnect resumed past frame 0 — the cuts never exercised resumption: %v", froms)
	}
	if snap := s.Metrics(); snap.JobsResumed < 2 {
		t.Fatalf("jobs_resumed = %d after 2 severed connections, want >= 2", snap.JobsResumed)
	}
}

// readFrames reads up to max frames from a stream body (max < 0 means
// all) and returns them.
func readFrames(t *testing.T, body io.Reader, max int) [][]byte {
	t.Helper()
	var frames [][]byte
	for max < 0 || len(frames) < max {
		frame, err := wire.ReadFrame(body)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("reading frame %d: %v", len(frames), err)
		}
		frames = append(frames, frame)
	}
	return frames
}

// journalFiles lists the *.journal files in a journal directory (which
// also holds the durable issued log, so a raw ReadDir over-counts).
func journalFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, ent := range entries {
		if strings.HasSuffix(ent.Name(), ".journal") {
			names = append(names, ent.Name())
		}
	}
	return names
}

// assembleReport decodes a full frame sequence (header first) through
// the same trust boundary the client uses.
func assembleReport(t *testing.T, frames [][]byte) *zkml.Report {
	t.Helper()
	var buf bytes.Buffer
	for _, f := range frames {
		if err := wire.WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := wire.DecodeModelStream(&buf, nil)
	if err != nil {
		t.Fatalf("assembling report from journal frames: %v", err)
	}
	return rep
}

// TestJobJournalSurvivesRestart is the durability pin: with a
// JournalDir, a completed job's frames — and its report attestation —
// outlive the server process. A client that acked k frames against the
// old server resumes from=k against the new one and assembles the same
// byte-identical report; a journal whose tail was torn off (the crash
// landed mid-append) is truncated to its intact prefix and the job
// honestly failed, never silently shortened.
func TestJobJournalSurvivesRestart(t *testing.T) {
	const seed = 7
	const tenant = "tenant-restart"
	cfg := tinyModelConfig(nn.MixerPooling)
	trace := capturedTrace(t, cfg, 3)
	want := localModelReport(t, zkvc.Spartan, cfg, trace, seed)

	dir := t.TempDir()
	scfg := server.DefaultConfig()
	scfg.Seed = seed
	scfg.JournalDir = dir

	s1, err := server.New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())

	ac := server.NewAsyncClient(ts1.URL)
	ac.Tenant = tenant
	ctx := context.Background()
	st, err := ac.SubmitJob(ctx, modelRequest(zkvc.Spartan, cfg, trace))
	if err != nil {
		t.Fatal(err)
	}
	// Ack k=3 frames (header + 2 ops) against the first server, then
	// drain the rest. The journal publishes the last op's frame only
	// once the report is attested and the job done, so both must hold
	// the instant the stream ends — no status polling.
	body, err := ac.StreamJob(ctx, st.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	acked := readFrames(t, body, 3)
	if len(acked) != 3 {
		t.Fatalf("acked %d frames, want 3", len(acked))
	}
	drained := assembleReport(t, append(acked, readFrames(t, body, -1)...))
	body.Close()
	if cur, err := ac.JobStatus(ctx, st.ID); err != nil || cur.State != wire.JobDone {
		t.Fatalf("job status the instant its stream ended: %+v, %v (want done)", cur, err)
	}
	if ok, msg := verifyModelHTTP(t, ts1.URL, tenant, drained); !ok {
		t.Fatalf("report rejected the instant its stream ended: %s", msg)
	}

	// Restart: tear the whole server down and recreate it over the same
	// journal directory.
	ts1.Close()
	s1.Close()
	s2, err := server.New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		s2.Close()
	})

	ac2 := server.NewAsyncClient(ts2.URL)
	ac2.Tenant = tenant
	// Resume exactly where the pre-restart client left off.
	body, err = ac2.StreamJob(ctx, st.ID, len(acked))
	if err != nil {
		t.Fatalf("resuming across restart: %v", err)
	}
	rest := readFrames(t, body, -1)
	body.Close()
	rep := assembleReport(t, append(acked, rest...))
	if got := wire.EncodeReport(zeroTimings(rep)); !bytes.Equal(got, want) {
		t.Fatalf("report assembled across a server restart differs from local run (%d vs %d bytes)",
			len(got), len(want))
	}
	// The recovered server re-attested the journaled report: verify
	// still vouches for it under the issuing tenant.
	if ok, msg := verifyModelHTTP(t, ts2.URL, tenant, rep); !ok {
		t.Fatalf("recovered server rejected the journaled report: %s", msg)
	}
	if st2, err := ac2.JobStatus(ctx, st.ID); err != nil || st2.State != wire.JobDone {
		t.Fatalf("recovered job status: %+v, %v (want done)", st2, err)
	}

	// Torn tail: chop bytes off the journal file mid-record and restart
	// again. Recovery must truncate to the intact prefix and fail the
	// job explicitly — the stream ends in an error frame, not a silent
	// shortening, and the shortened report is no longer attested.
	ts2.Close()
	s2.Close()
	path := filepath.Join(dir, st.ID+".journal")
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-7); err != nil {
		t.Fatal(err)
	}
	s3, err := server.New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	ts3 := httptest.NewServer(s3.Handler())
	t.Cleanup(func() {
		ts3.Close()
		s3.Close()
	})
	ac3 := server.NewAsyncClient(ts3.URL)
	ac3.Tenant = tenant
	st3, err := ac3.JobStatus(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st3.State != wire.JobFailed || st3.Error == "" {
		t.Fatalf("torn-tail job recovered as state %d (error %q), want failed with an explicit error",
			st3.State, st3.Error)
	}
	body, err = ac3.StreamJob(ctx, st.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wire.DecodeModelStream(body, nil); err == nil {
		t.Fatal("stream over a torn journal decoded as a complete report — silent truncation")
	}
	body.Close()
	if ok, _ := verifyModelHTTP(t, ts3.URL, tenant, rep); ok {
		t.Fatal("full report still attested after its journal lost the tail")
	}
}

// TestJobAdmissionHonest429 pins the load-shedding contract: a queue
// with no room for a second job answers 429 with a Retry-After header
// and a typed queue-position snapshot, and as the pool drains the
// positions it reports never increase — the client can watch its
// standing improve instead of guessing.
func TestJobAdmissionHonest429(t *testing.T) {
	const seed = 7
	cfg := tinyModelConfig(nn.MixerPooling)
	trace := capturedTrace(t, cfg, 3)
	plan, err := zkml.PlanTrace(trace, zkml.Options{ProveNonlinear: true})
	if err != nil {
		t.Fatal(err)
	}

	scfg := server.DefaultConfig()
	scfg.Seed = seed
	scfg.Backend = zkvc.Groth16 // per-op circuit setup keeps the first job busy long enough
	scfg.Parallelism = 1
	scfg.QueueCap = len(plan) // the first job fills the queue exactly
	s, ts := newTestServer(t, scfg)

	submit := wire.EncodeJobSubmitRequest(&wire.JobSubmitRequest{
		Model: &wire.ProveModelRequest{Backend: zkvc.Groth16, ProveNonlinear: true, Cfg: cfg, Trace: trace},
	})
	code, _ := post(t, ts.URL+"/v1/jobs", submit)
	if code != http.StatusAccepted {
		t.Fatalf("first submission: status %d, want 202", code)
	}

	var positions []int64
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/octet-stream", bytes.NewReader(submit))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusAccepted {
			break
		}
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("saturated submission: status %d, want 429", resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("429 without a Retry-After header")
		}
		st, err := wire.DecodeJobStatus(raw)
		if err != nil {
			t.Fatalf("429 body is not a typed JobStatus: %v", err)
		}
		if st.State != wire.JobRejected || st.RetryAfterSeconds <= 0 {
			t.Fatalf("429 body: state %d retry %d, want rejected with positive retry advice",
				st.State, st.RetryAfterSeconds)
		}
		positions = append(positions, st.QueuePos)
		if time.Now().After(deadline) {
			t.Fatalf("queue never drained; rejection positions: %v", positions)
		}
		time.Sleep(5 * time.Millisecond)
	}

	if len(positions) == 0 {
		t.Fatal("second submission was admitted instantly; the saturation path was never exercised")
	}
	for i := 1; i < len(positions); i++ {
		if positions[i] > positions[i-1] {
			t.Fatalf("queue position rose from %d to %d across rejections %d->%d: %v",
				positions[i-1], positions[i], i-1, i, positions)
		}
	}
	if snap := s.Metrics(); snap.AdmissionRejects != int64(len(positions)) {
		t.Fatalf("admission_rejects = %d, want %d: one per 429", snap.AdmissionRejects, len(positions))
	}
}

// TestJobTTLReaperWithdrawsAttestation: an expired job disappears
// honestly — its journal file is deleted, its status is 404, its report
// no longer verifies (the issued-policy error, not a crypto coin flip),
// and the reap is counted. The TTL is generous and expiry is forced
// through the ExpireJob test hook, so neither proving nor the fresh
// verify can lose a race against the reaper.
func TestJobTTLReaperWithdrawsAttestation(t *testing.T) {
	const seed = 7
	const tenant = "tenant-reap"
	cfg := tinyModelConfig(nn.MixerPooling)
	trace := capturedTrace(t, cfg, 3)

	dir := t.TempDir()
	scfg := server.DefaultConfig()
	scfg.Seed = seed
	scfg.JournalDir = dir
	scfg.JobTTL = time.Hour
	scfg.ReapInterval = 20 * time.Millisecond
	s, ts := newTestServer(t, scfg)

	ac := server.NewAsyncClient(ts.URL)
	ac.Tenant = tenant
	rep, err := ac.ProveModel(context.Background(), modelRequest(zkvc.Spartan, cfg, trace)).Report()
	if err != nil {
		t.Fatal(err)
	}
	if ok, msg := verifyModelHTTP(t, ts.URL, tenant, rep); !ok {
		t.Fatalf("fresh report rejected: %s", msg)
	}

	// The journal file is named after the job ID — the one completed job
	// in this directory is the one to expire. (The directory also holds
	// the durable issued log; only *.journal files are job journals.)
	journals := journalFiles(t, dir)
	if len(journals) != 1 {
		t.Fatalf("journal dir holds %d journals, want 1", len(journals))
	}
	id := strings.TrimSuffix(journals[0], ".journal")
	if !server.ExpireJob(s, id) {
		t.Fatalf("job %s not in the store", id)
	}

	// Wait for the reaper. The journal and the attestation must both go.
	deadline := time.Now().Add(10 * time.Second)
	for {
		journals := journalFiles(t, dir)
		if len(journals) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("journal never reaped; %d journals remain", len(journals))
		}
		time.Sleep(20 * time.Millisecond)
	}
	if ok, msg := verifyModelHTTP(t, ts.URL, tenant, rep); ok {
		t.Fatal("reaped job's report still verifies")
	} else if msg == "" {
		t.Fatal("reaped report rejected without an explanation")
	}
	snap := s.Metrics()
	if snap.JobsReaped < 1 {
		t.Fatalf("jobs_reaped = %d, want >= 1", snap.JobsReaped)
	}
	if snap.JobsActive != 0 {
		t.Fatalf("jobs_active = %d after the reap, want 0", snap.JobsActive)
	}
}

// TestJobTenantIsolationQuotaAndCancel: job IDs are not an existence
// oracle across tenants, per-tenant quotas shed with 429, and DELETE
// frees both the quota slot and the journal.
func TestJobTenantIsolationQuotaAndCancel(t *testing.T) {
	const seed = 7
	cfg := tinyModelConfig(nn.MixerPooling)
	trace := capturedTrace(t, cfg, 3)

	dir := t.TempDir()
	scfg := server.DefaultConfig()
	scfg.Seed = seed
	scfg.JournalDir = dir
	scfg.TenantJobQuota = 1
	s, ts := newTestServer(t, scfg)

	ctx := context.Background()
	acA := server.NewAsyncClient(ts.URL)
	acA.Tenant = "tenant-a"
	req := modelRequest(zkvc.Spartan, cfg, trace)
	st, err := acA.SubmitJob(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	// Another tenant sees 404 for this ID — same answer as a bogus ID.
	acB := server.NewAsyncClient(ts.URL)
	acB.Tenant = "tenant-b"
	var se *server.StatusError
	if _, err := acB.JobStatus(ctx, st.ID); !errors.As(err, &se) || se.Code != http.StatusNotFound {
		t.Fatalf("cross-tenant status: %v, want 404", err)
	}
	if _, err := acB.StreamJob(ctx, st.ID, 0); !errors.As(err, &se) || se.Code != http.StatusNotFound {
		t.Fatalf("cross-tenant stream: %v, want 404", err)
	}

	// tenant-a is at quota: the second submission sheds with 429 (the
	// AsyncClient surfaces it after its bounded retries).
	acA.SubmitRetries = 1
	acA.RetryCap = 10 * time.Millisecond
	if _, err := acA.SubmitJob(ctx, req); !errors.As(err, &se) || se.Code != http.StatusTooManyRequests {
		t.Fatalf("over-quota submission: %v, want 429", err)
	}
	if got := s.Metrics().AdmissionRejects; got != 2 {
		t.Fatalf("admission_rejects = %d after two over-quota attempts, want 2", got)
	}
	// tenant-b has its own quota.
	stB, err := acB.SubmitJob(ctx, req)
	if err != nil {
		t.Fatalf("tenant-b submission blocked by tenant-a's quota: %v", err)
	}
	_ = stB

	// Cancel frees the slot and deletes the journal file.
	if err := acA.CancelJob(ctx, st.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	if _, err := acA.JobStatus(ctx, st.ID); !errors.As(err, &se) || se.Code != http.StatusNotFound {
		t.Fatalf("status after cancel: %v, want 404", err)
	}
	if _, err := os.Stat(filepath.Join(dir, st.ID+".journal")); !os.IsNotExist(err) {
		t.Fatalf("journal file survives cancellation: %v", err)
	}
	if _, err := acA.SubmitJob(ctx, req); err != nil {
		t.Fatalf("submission after cancel freed the quota slot: %v", err)
	}
}

// TestSyncStreamIsNotASubmittedJob: a /v1/prove/model stream is a job
// attached to its request, not a submitted one. With a JournalDir set it
// leaves no journal file, nothing of it shows under /v1/jobs/* or in the
// job counters, and a tenant already at its async-job quota is still
// served.
func TestSyncStreamIsNotASubmittedJob(t *testing.T) {
	const seed, tenant = 7, "acme"
	cfg := tinyModelConfig(nn.MixerPooling)
	trace := capturedTrace(t, cfg, 3)

	dir := t.TempDir()
	scfg := server.DefaultConfig()
	scfg.Seed = seed
	scfg.JournalDir = dir
	scfg.TenantJobQuota = 1
	s, ts := newTestServer(t, scfg)

	ctx := context.Background()
	ac := server.NewAsyncClient(ts.URL)
	ac.Tenant = tenant
	ac.SubmitRetries = 1
	ac.RetryCap = 10 * time.Millisecond
	req := modelRequest(zkvc.Spartan, cfg, trace)
	st, err := ac.SubmitJob(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	var se *server.StatusError
	if _, err := ac.SubmitJob(ctx, req); !errors.As(err, &se) || se.Code != http.StatusTooManyRequests {
		t.Fatalf("second submission: %v, want 429 (the tenant is at quota)", err)
	}

	onlyTheSubmittedJob := func(when string) {
		t.Helper()
		if got := journalFiles(t, dir); len(got) != 1 || got[0] != st.ID+".journal" {
			t.Fatalf("%s: journal files %v, want only the submitted job's", when, got)
		}
		if snap := s.Metrics(); snap.JobsSubmitted != 1 || snap.JobsActive != 1 {
			t.Fatalf("%s: jobs submitted/active %d/%d, want 1/1", when, snap.JobsSubmitted, snap.JobsActive)
		}
	}
	body := wire.EncodeProveModelRequest(&wire.ProveModelRequest{Backend: zkvc.Spartan, ProveNonlinear: true, Cfg: cfg, Trace: trace})
	hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/prove/model", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set(server.TenantHeader, tenant)
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("/v1/prove/model for a tenant at quota: %d %s, want 200", resp.StatusCode, raw)
	}
	frames := readFrames(t, resp.Body, 1)
	onlyTheSubmittedJob("mid-stream")
	rep := assembleReport(t, append(frames, readFrames(t, resp.Body, -1)...))
	onlyTheSubmittedJob("after the stream")
	if ok, msg := verifyModelHTTP(t, ts.URL, tenant, rep); !ok {
		t.Fatalf("the service rejected its own streamed report: %s", msg)
	}
}

// writeJournalFile hand-encodes a journal the way the server writes one:
// each record numbered and chained over the payloads before it, starting
// from sha256 of the job ID.
func writeJournalFile(t *testing.T, dir, id string, recs []wire.JournalRecord) string {
	t.Helper()
	var buf bytes.Buffer
	chain := sha256.Sum256([]byte(id))
	for i := range recs {
		recs[i].Seq, recs[i].Prev = i, chain
		if err := wire.WriteFrame(&buf, wire.EncodeJournalRecord(&recs[i])); err != nil {
			t.Fatal(err)
		}
		chain = sha256.Sum256(append(chain[:], recs[i].Payload...))
	}
	path := filepath.Join(dir, id+".journal")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestJobJournalCompleteByOpCount: recovery calls a journal complete
// when it holds every announced op, never because its error record is
// empty. A journal with 0 of 2 ops and an empty error message, and one
// whose error record does not decode at all (a grammar break, truncated
// like a torn tail), must both come back failed — not done, not
// attested, and streaming to an error instead of a short report.
func TestJobJournalCompleteByOpCount(t *testing.T) {
	const tenant = "tenant-count"
	dir := t.TempDir()
	now := time.Now()
	manifest := func(id string) wire.JournalRecord {
		return wire.JournalRecord{Kind: wire.JournalManifest, Payload: wire.EncodeJobManifest(&wire.JobManifest{
			ID: id, Tenant: tenant, CreatedUnix: now.Unix(), DeadlineUnix: now.Add(time.Hour).Unix(),
		})}
	}
	header := wire.JournalRecord{Kind: wire.JournalHeader, Payload: wire.EncodeModelStreamHeader(&wire.ModelStreamHeader{
		Model: "tiny", Backend: zkvc.Spartan, Circuit: zkvc.DefaultOptions(), TotalOps: 2,
	})}
	op := wire.JournalRecord{Kind: wire.JournalOp, Payload: wire.EncodeOpProof(&zkml.OpProof{Seq: 0, Tag: "op0"})}

	const emptyErr = "00000000000000000000000000000001"
	writeJournalFile(t, dir, emptyErr, []wire.JournalRecord{manifest(emptyErr), header,
		{Kind: wire.JournalError, Payload: wire.EncodeModelStreamError("")}})
	const badErr = "00000000000000000000000000000002"
	path := writeJournalFile(t, dir, badErr, []wire.JournalRecord{manifest(badErr), header, op,
		{Kind: wire.JournalError, Payload: []byte("not a stream error")}})
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	scfg := server.DefaultConfig()
	scfg.JournalDir = dir
	_, ts := newTestServer(t, scfg)
	ac := server.NewAsyncClient(ts.URL)
	ac.Tenant = tenant
	ctx := context.Background()
	for _, tc := range []struct {
		id  string
		ops int
	}{{emptyErr, 0}, {badErr, 1}} {
		st, err := ac.JobStatus(ctx, tc.id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != wire.JobFailed || st.CompletedOps != tc.ops {
			t.Fatalf("journal %s with %d of 2 ops recovered as state %d with %d ops, want failed",
				tc.id, tc.ops, st.State, st.CompletedOps)
		}
		body, err := ac.StreamJob(ctx, tc.id, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := wire.DecodeModelStream(body, nil); err == nil {
			t.Fatalf("journal %s streamed as a complete report", tc.id)
		}
		body.Close()
	}
	// The undecodable error record was cut off and replaced by the
	// restart's own, explicit one.
	cut, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frames := readFrames(t, bytes.NewReader(cut), -1)
	if len(frames) != 4 || !bytes.HasPrefix(raw, cut[:len(cut)-4-len(frames[3])]) {
		t.Fatalf("journal with an undecodable error record kept %d records", len(frames))
	}
	rec, err := wire.DecodeJournalRecord(frames[3])
	if err != nil {
		t.Fatal(err)
	}
	if msg, err := wire.DecodeModelStreamError(rec.Payload); err != nil || !strings.Contains(msg, "restarted") {
		t.Fatalf("replacement error record %q, %v", msg, err)
	}
}
