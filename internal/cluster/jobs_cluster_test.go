package cluster_test

// Cluster fault harness for the async job layer:
//
//   - a job submitted through the coordinator routes by the model
//     affinity key, its status/stream/cancel exchanges find the same
//     node again, and the assembled report is byte-identical to the
//     synchronous path through the same cluster;
//   - a node dying mid-job-stream surfaces as an explicit in-stream
//     error frame telling the client to reconnect from its ack boundary
//     — never a silent truncation, never a replay of forwarded frames;
//   - a saturated cluster relays the nodes' 429 — Retry-After, typed
//     queue position and all — instead of inventing its own answer or
//     parking the job;
//   - unknown and canceled job IDs get the honest 404.

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"zkvc"
	"zkvc/internal/cluster"
	"zkvc/internal/server"
	"zkvc/internal/wire"
	"zkvc/internal/zkml"
)

// TestClusterAsyncJobEndToEnd: an AsyncClient pointed at the
// coordinator proves the same bytes the synchronous path does, and the
// coordinator's route table tracks the job across status and stream
// exchanges.
func TestClusterAsyncJobEndToEnd(t *testing.T) {
	_, n1 := newNode(t, nodeConfig(harnessSeed))
	_, n2 := newNode(t, nodeConfig(harnessSeed))
	ccfg := cluster.DefaultConfig()
	ccfg.Nodes = []string{n1.URL, n2.URL}
	coord, coordTS := newCoordinator(t, ccfg)

	req := modelRequest(t, zkvc.Spartan, harnessSeed)

	sync := server.NewClient(coordTS.URL)
	syncRep, err := sync.ProveModel(tctx, req).Report()
	if err != nil {
		t.Fatalf("sync path: %v", err)
	}

	ac := server.NewAsyncClient(coordTS.URL)
	asyncRep, err := ac.ProveModel(tctx, req).Report()
	if err != nil {
		t.Fatalf("async path: %v", err)
	}
	if !bytes.Equal(zeroReportTimings(asyncRep), zeroReportTimings(syncRep)) {
		t.Fatal("async report through the cluster differs from the synchronous path at the same seed")
	}
	// The cluster vouches for the journaled report like any other.
	if err := ac.VerifyModel(tctx, asyncRep); err != nil {
		t.Fatalf("cluster rejected the async report: %v", err)
	}
	snap := coord.Metrics()
	if snap.JobsRouted < 1 {
		t.Fatalf("cluster_jobs_routed = %d, want >= 1", snap.JobsRouted)
	}
	if snap.JobRoutes < 1 {
		t.Fatalf("cluster_job_routes = %d, want >= 1", snap.JobRoutes)
	}
}

// stubJobNode fakes a prover node's job endpoints: submission returns a
// fixed job ID, the stream sends a header plus opFrames frames and then
// kills the connection — a node dying mid-journal-replay, made
// deterministic.
func stubJobNode(t *testing.T, id string, totalOps, opFrames int) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, "{}")
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Location", "/v1/jobs/"+id)
		w.WriteHeader(http.StatusAccepted)
		w.Write(wire.EncodeJobStatus(&wire.JobStatus{ID: id, State: wire.JobRunning, TotalOps: totalOps}))
	})
	stream := func(w http.ResponseWriter, _ *http.Request) {
		flusher := w.(http.Flusher)
		header := wire.EncodeModelStreamHeader(&wire.ModelStreamHeader{
			Model: "stub", Backend: zkvc.Spartan, Circuit: zkvc.DefaultOptions(), TotalOps: totalOps,
		})
		if err := wire.WriteFrame(w, header); err != nil {
			return
		}
		flusher.Flush()
		for i := 0; i < opFrames; i++ {
			if err := wire.WriteFrame(w, []byte("journaled-op-frame")); err != nil {
				return
			}
			flusher.Flush()
		}
		panic(http.ErrAbortHandler)
	}
	mux.HandleFunc("GET /v1/jobs/{id}/stream", stream)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestClusterJobNodeDeathMidStreamSurfacesErrorFrame: the job stream
// has no failover (the journal lives on one node), so a mid-stream node
// death must become an explicit error frame directing the client back
// to its ack boundary.
func TestClusterJobNodeDeathMidStreamSurfacesErrorFrame(t *testing.T) {
	stub := stubJobNode(t, "deadbeefdeadbeefdeadbeefdeadbeef", 3, 1)
	ccfg := cluster.DefaultConfig()
	ccfg.Nodes = []string{stub.URL}
	ccfg.ProbeInterval = time.Hour
	coord, coordTS := newCoordinator(t, ccfg)

	body := wire.EncodeJobSubmitRequest(&wire.JobSubmitRequest{
		Model: wireModelRequest(modelRequest(t, zkvc.Spartan, 9)),
	})
	code, raw := postBytes(t, coordTS.URL+"/v1/jobs", body)
	if code != http.StatusAccepted {
		t.Fatalf("submission: status %d", code)
	}
	st, err := wire.DecodeJobStatus(raw)
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(coordTS.URL + "/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	frame, err := wire.ReadFrame(resp.Body)
	if err != nil {
		t.Fatalf("header frame: %v", err)
	}
	if _, err := wire.DecodeModelStreamHeader(frame); err != nil {
		t.Fatalf("header frame does not decode: %v", err)
	}
	frame, err = wire.ReadFrame(resp.Body)
	if err != nil {
		t.Fatalf("op frame: %v", err)
	}
	if !bytes.Equal(frame, []byte("journaled-op-frame")) {
		t.Fatalf("op frame modified in transit: %q", frame)
	}
	frame, err = wire.ReadFrame(resp.Body)
	if err != nil {
		t.Fatalf("expected an in-stream error frame, got %v — a silent truncation", err)
	}
	msg, err := wire.DecodeModelStreamError(frame)
	if err != nil {
		t.Fatalf("third frame is not a ModelStreamError: %v", err)
	}
	if !strings.Contains(msg, "mid-stream") || !strings.Contains(msg, "acked frame") {
		t.Fatalf("error frame does not direct the client to resume: %q", msg)
	}
	if snap := coord.Metrics(); snap.StreamErrors != 1 {
		t.Fatalf("cluster_stream_errors = %d, want 1", snap.StreamErrors)
	}
}

// postBytes posts a wire body and returns status + body.
func postBytes(t *testing.T, url string, body []byte) (int, []byte) {
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

// TestClusterJobSaturationRelays429: when every candidate node sheds a
// submission, the coordinator relays the last node's 429 — header and
// typed body — and a later cancel frees the queue for the next
// submission.
func TestClusterJobSaturationRelays429(t *testing.T) {
	req := modelRequest(t, zkvc.Spartan, harnessSeed)
	plan, err := zkml.PlanTrace(req.Trace, zkml.Options{ProveNonlinear: true})
	if err != nil {
		t.Fatal(err)
	}
	ncfg := nodeConfig(harnessSeed)
	ncfg.Backend = zkvc.Groth16 // slow enough that the queue stays full across the second submit
	ncfg.QueueCap = len(plan)
	_, n1 := newNode(t, ncfg)
	ccfg := cluster.DefaultConfig()
	ccfg.Nodes = []string{n1.URL}
	_, coordTS := newCoordinator(t, ccfg)

	body := wire.EncodeJobSubmitRequest(&wire.JobSubmitRequest{
		Model: &wire.ProveModelRequest{Backend: zkvc.Groth16, ProveNonlinear: true,
			Cfg: req.Cfg, Trace: req.Trace},
	})
	code, raw := postBytes(t, coordTS.URL+"/v1/jobs", body)
	if code != http.StatusAccepted {
		t.Fatalf("first submission: status %d", code)
	}
	first, err := wire.DecodeJobStatus(raw)
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(coordTS.URL+"/v1/jobs", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated submission: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("relayed 429 lost its Retry-After header")
	}
	st, err := wire.DecodeJobStatus(raw)
	if err != nil {
		t.Fatalf("relayed 429 body is not a typed JobStatus: %v", err)
	}
	if st.State != wire.JobRejected || st.RetryAfterSeconds <= 0 {
		t.Fatalf("relayed rejection: state %d retry %d", st.State, st.RetryAfterSeconds)
	}

	// Cancel through the coordinator frees the node's queue; the route
	// is forgotten and the ID honestly 404s afterwards.
	dreq, err := http.NewRequest(http.MethodDelete, coordTS.URL+"/v1/jobs/"+first.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("cancel through coordinator: status %d, want 204", dresp.StatusCode)
	}
	sresp, err := http.Get(coordTS.URL + "/v1/jobs/" + first.ID)
	if err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusNotFound {
		t.Fatalf("status after cancel: %d, want 404", sresp.StatusCode)
	}
}

// TestClusterJobUnknownIDHonest404: an ID the coordinator never routed
// gets the same honest 404 a node gives for a reaped job.
func TestClusterJobUnknownIDHonest404(t *testing.T) {
	_, n1 := newNode(t, nodeConfig(harnessSeed))
	ccfg := cluster.DefaultConfig()
	ccfg.Nodes = []string{n1.URL}
	_, coordTS := newCoordinator(t, ccfg)

	resp, err := http.Get(coordTS.URL + "/v1/jobs/ffffffffffffffffffffffffffffffff")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status: %d, want 404", resp.StatusCode)
	}
}
