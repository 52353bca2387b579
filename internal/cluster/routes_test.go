package cluster_test

// The forwarding table, pinned from outside:
//
//   - parity: every forwarded endpoint answers a malformed body or an
//     unknown job ID with the same status through the coordinator as
//     straight at a node;
//   - failover policy: against stub nodes that all answer one fixed 503,
//     429 or dropped connection, each route either moves to the next
//     candidate or relays the answer, exactly as its row says;
//   - an AsyncClient resumes through a coordinator whose job node died
//     before the first frame.

import (
	"bytes"
	"fmt"
	"io"
	mrand "math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"zkvc"
	"zkvc/internal/cluster"
	"zkvc/internal/server"
	"zkvc/internal/wire"
	"zkvc/internal/zkml"
)

// exchange issues one request and returns its status and body.
func exchange(t *testing.T, method, url string, body []byte) (int, string) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(raw)
}

// TestRouteParityNodeAndCoordinator: the coordinator decodes each
// forwarded body the way the node does, so a request the node refuses
// is refused identically one hop earlier — and a route missing from the
// table answers 404/405 instead, failing the comparison.
func TestRouteParityNodeAndCoordinator(t *testing.T) {
	_, nodeTS := newNode(t, nodeConfig(harnessSeed))
	ccfg := cluster.DefaultConfig()
	ccfg.Nodes = []string{nodeTS.URL}
	ccfg.ProbeInterval = time.Hour
	_, coordTS := newCoordinator(t, ccfg)

	const unknown = "ffffffffffffffffffffffffffffffff"
	bad := []byte("not a wire message")
	req := modelRequest(t, zkvc.Spartan, 5)
	opts := zkml.DefaultOptions()
	opts.Seed = harnessSeed
	rep, err := zkml.ProveTrace(req.Cfg, req.Trace, opts)
	if err != nil {
		t.Fatal(err)
	}
	retired := retiredVerifyModelBody(rep)
	cases := []struct {
		pattern, method, path string
		body                  []byte
		want                  int
	}{
		{"POST /v1/prove", "POST", "/v1/prove", bad, http.StatusBadRequest},
		{"POST /v1/prove/matmul", "POST", "/v1/prove/matmul", bad, http.StatusBadRequest},
		{"POST /v1/prove/batch", "POST", "/v1/prove/batch", bad, http.StatusBadRequest},
		{"POST /v1/prove/model", "POST", "/v1/prove/model", bad, http.StatusBadRequest},
		{"POST /v1/jobs", "POST", "/v1/jobs", bad, http.StatusBadRequest},
		{"GET /v1/jobs/{id}", "GET", "/v1/jobs/" + unknown, nil, http.StatusNotFound},
		{"GET /v1/jobs/{id}/stream", "GET", "/v1/jobs/" + unknown + "/stream", nil, http.StatusNotFound},
		{"DELETE /v1/jobs/{id}", "DELETE", "/v1/jobs/" + unknown, nil, http.StatusNotFound},
		{"POST /v1/verify", "POST", "/v1/verify", bad, http.StatusBadRequest},
		{"POST /v1/verify/batch", "POST", "/v1/verify/batch", bad, http.StatusBadRequest},
		{"POST /v1/verify/model", "POST", "/v1/verify/model", bad, http.StatusBadRequest},
		// The retired mode-carrying body (tag 0x16) under its old query.
		{"POST /v1/verify/model", "POST", "/v1/verify/model?mode=per-op", retired, http.StatusBadRequest},
	}
	var covered []string
	for _, tc := range cases {
		covered = append(covered, tc.pattern)
		nodeCode, nodeBody := exchange(t, tc.method, nodeTS.URL+tc.path, tc.body)
		coordCode, coordBody := exchange(t, tc.method, coordTS.URL+tc.path, tc.body)
		if nodeCode != tc.want || coordCode != tc.want {
			t.Errorf("%s %s: node %d (%s), coordinator %d (%s), want %d from both",
				tc.method, tc.path, nodeCode, strings.TrimSpace(nodeBody), coordCode, strings.TrimSpace(coordBody), tc.want)
		}
	}
	// A job stream has one route: the body-addressed POST twin is gone
	// from both hops.
	for _, base := range []string{nodeTS.URL, coordTS.URL} {
		if code, body := exchange(t, "POST", base+"/v1/jobs/stream", bad); code != http.StatusNotFound && code != http.StatusMethodNotAllowed {
			t.Errorf("POST %s/v1/jobs/stream: %d (%s), want 404 or 405", base, code, strings.TrimSpace(body))
		}
	}
	covered = slices.Compact(covered)
	table := cluster.ForwardedPatterns()
	sort.Strings(covered)
	sort.Strings(table)
	if !slices.Equal(covered, table) {
		t.Fatalf("parity cases cover %v, the forwarding table has %v", covered, table)
	}
}

// TestModelSlotsSurviveMalformedBodiesThroughCoordinator: the
// coordinator holds its own model-body slots (4) on every model-slot
// route. More malformed bodies than slots all answer 400 there — a
// leaked slot would turn the tail of the flood into 503s — and valid
// requests afterwards are still forwarded and served.
func TestModelSlotsSurviveMalformedBodiesThroughCoordinator(t *testing.T) {
	_, nodeTS := newNode(t, nodeConfig(harnessSeed))
	ccfg := cluster.DefaultConfig()
	ccfg.Nodes = []string{nodeTS.URL}
	ccfg.ProbeInterval = time.Hour
	_, coordTS := newCoordinator(t, ccfg)

	for _, path := range []string{"/v1/prove/model", "/v1/verify/model", "/v1/jobs"} {
		for i := 0; i < 9; i++ { // 2×slots+1
			if code, body := exchange(t, "POST", coordTS.URL+path, []byte("not a wire message")); code != http.StatusBadRequest {
				t.Fatalf("%s malformed body %d: %d (%s), want 400", path, i, code, strings.TrimSpace(body))
			}
		}
	}

	req := modelRequest(t, zkvc.Spartan, 43)
	client := server.NewClient(coordTS.URL)
	rep, err := client.ProveModel(tctx, req).Report()
	if err != nil {
		t.Fatalf("prove after malformed flood: %v", err)
	}
	if err := client.VerifyModel(tctx, rep); err != nil {
		t.Fatalf("verify after malformed flood: %v", err)
	}
	submit := wire.EncodeJobSubmitRequest(&wire.JobSubmitRequest{Model: wireModelRequest(req)})
	if code, body := exchange(t, "POST", coordTS.URL+"/v1/jobs", submit); code != http.StatusAccepted {
		t.Fatalf("job submission after malformed flood: %d (%s), want 202", code, strings.TrimSpace(body))
	}
}

// faultDrop makes a faultNode drop the connection before answering.
const faultDrop = -1

const stubJobID = "0123456789abcdef0123456789abcdef"

// faultNode is a stub prover node. With fault 0 it answers every
// forwarded route healthily (202 with stubJobID to a submission, 204 to
// a cancel, 200 otherwise); with a status code it answers every route
// with that code; with faultDrop it drops the connection unanswered. It
// records whether any forwarded request reached it.
type faultNode struct {
	ts    *httptest.Server
	fault atomic.Int64
	hit   atomic.Bool
}

func newFaultNode(t *testing.T) *faultNode {
	t.Helper()
	f := &faultNode{}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "{}")
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		f.hit.Store(true)
		switch fault := f.fault.Load(); {
		case fault == faultDrop:
			panic(http.ErrAbortHandler)
		case fault != 0:
			http.Error(w, "stub fault", int(fault))
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			w.WriteHeader(http.StatusAccepted)
			w.Write(wire.EncodeJobStatus(&wire.JobStatus{ID: stubJobID, State: wire.JobQueued, TotalOps: 1}))
		case r.Method == http.MethodDelete:
			w.WriteHeader(http.StatusNoContent)
		default:
			w.Write(wire.EncodeJobStatus(&wire.JobStatus{ID: stubJobID, State: wire.JobRunning, TotalOps: 1}))
		}
	})
	f.ts = httptest.NewServer(mux)
	t.Cleanup(f.ts.Close)
	return f
}

// TestFailoverPolicyTable drives every forwarded route against two stub
// nodes that share one fault, and checks the row's retry column: a
// fault the route moves on reaches every candidate and ends in the
// coordinator's own 503 (or, for a submission every node shed with 429,
// the last node's 429); a fault the route relays reaches one node and
// comes back verbatim.
func TestFailoverPolicyTable(t *testing.T) {
	a, b := newFaultNode(t), newFaultNode(t)
	ccfg := cluster.DefaultConfig()
	ccfg.Nodes = []string{a.ts.URL, b.ts.URL}
	ccfg.ProbeInterval = time.Hour // the faults go unprobed: forwarding must cope
	coord, coordTS := newCoordinator(t, ccfg)

	rng := mrand.New(mrand.NewSource(harnessSeed))
	x := zkvc.RandomMatrix(rng, 3, 4, 32)
	w := zkvc.RandomMatrix(rng, 4, 2, 32)
	local := zkvc.NewLocal(zkvc.Spartan, zkvc.DefaultOptions())
	proof, err := local.ProveMatMul(tctx, x, w)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := local.ProveBatch(tctx, [][2]*zkvc.Matrix{{x, w}})
	if err != nil {
		t.Fatal(err)
	}
	mreq := modelRequest(t, zkvc.Spartan, 5)
	opts := zkml.DefaultOptions()
	opts.Seed = harnessSeed
	rep, err := zkml.ProveTrace(mreq.Cfg, mreq.Trace, opts)
	if err != nil {
		t.Fatal(err)
	}
	submit := wire.EncodeJobSubmitRequest(&wire.JobSubmitRequest{Model: wireModelRequest(mreq)})

	// A healthy submission gives the job routes a home node.
	if code, body := exchange(t, "POST", coordTS.URL+"/v1/jobs", submit); code != http.StatusAccepted {
		t.Fatalf("healthy submission: %d %s", code, body)
	}
	home := a
	if !a.hit.Load() {
		home = b
	}

	shed := []int{http.StatusServiceUnavailable}
	cases := []struct {
		method, path string
		body         []byte
		moveOn       []int // answers the route moves on; a dropped connection always moves on
		candidates   int
	}{
		{"POST", "/v1/prove", wire.EncodeProveRequest(&wire.ProveRequest{X: x, W: w}), shed, 2},
		{"POST", "/v1/prove/matmul", wire.EncodeProveRequest(&wire.ProveRequest{X: x, W: w}), shed, 2},
		{"POST", "/v1/prove/batch", wire.EncodeProveBatchRequest(&wire.ProveBatchRequest{Pairs: [][2]*zkvc.Matrix{{x, w}}}), shed, 2},
		{"POST", "/v1/prove/model", wire.EncodeProveModelRequest(wireModelRequest(mreq)), shed, 2},
		{"POST", "/v1/jobs", submit, []int{http.StatusServiceUnavailable, http.StatusTooManyRequests}, 2},
		{"GET", "/v1/jobs/" + stubJobID, nil, nil, 1},
		{"GET", "/v1/jobs/" + stubJobID + "/stream", nil, nil, 1},
		{"DELETE", "/v1/jobs/" + stubJobID, nil, nil, 1},
		{"POST", "/v1/verify", wire.EncodeVerifyRequest(&wire.VerifyRequest{X: x, Proof: proof}), nil, 2},
		{"POST", "/v1/verify/batch", wire.EncodeProveResponse(&wire.ProveResponse{Xs: []*zkvc.Matrix{x}, Batch: batch}), nil, 2},
		{"POST", "/v1/verify/model", wire.EncodeReport(rep), nil, 2},
	}
	for _, fault := range []int{http.StatusServiceUnavailable, http.StatusTooManyRequests, faultDrop} {
		a.fault.Store(int64(fault))
		b.fault.Store(int64(fault))
		for _, tc := range cases {
			a.hit.Store(false)
			b.hit.Store(false)
			code, body := exchange(t, tc.method, coordTS.URL+tc.path, tc.body)
			asked := 0
			for _, n := range []*faultNode{a, b} {
				if n.hit.Load() {
					asked++
				}
			}
			name := fmt.Sprintf("fault %d, %s %s", fault, tc.method, tc.path)
			if fault == faultDrop || slices.Contains(tc.moveOn, fault) {
				wantCode, wantBody := http.StatusServiceUnavailable, "every candidate node failed"
				if fault == http.StatusTooManyRequests {
					wantCode, wantBody = fault, "stub fault"
				}
				if asked != tc.candidates || code != wantCode || !strings.Contains(body, wantBody) {
					t.Errorf("%s: asked %d of %d candidates, answered %d %q; want every candidate asked and %d %q",
						name, asked, tc.candidates, code, strings.TrimSpace(body), wantCode, wantBody)
				}
			} else if asked != 1 || code != fault || !strings.Contains(body, "stub fault") {
				t.Errorf("%s: asked %d nodes, answered %d %q; want one node asked and its %d relayed",
					name, asked, code, strings.TrimSpace(body), fault)
			}
		}
	}

	// Job status and cancel count as routed on the job's node and in the
	// cluster, like every other relayed exchange.
	a.fault.Store(0)
	b.fault.Store(0)
	routed := func() (nodeRouted, clusterRouted int64) {
		snap := coord.Metrics()
		for _, n := range snap.Nodes {
			if n.Name == home.ts.URL {
				nodeRouted = n.Routed
			}
		}
		return nodeRouted, snap.Routed
	}
	nodeBefore, clusterBefore := routed()
	if code, body := exchange(t, "GET", coordTS.URL+"/v1/jobs/"+stubJobID, nil); code != http.StatusOK {
		t.Fatalf("job status: %d %s", code, body)
	}
	if code, body := exchange(t, "DELETE", coordTS.URL+"/v1/jobs/"+stubJobID, nil); code != http.StatusNoContent {
		t.Fatalf("job cancel: %d %s", code, body)
	}
	if nodeAfter, clusterAfter := routed(); nodeAfter != nodeBefore+2 || clusterAfter != clusterBefore+2 {
		t.Fatalf("status + cancel routed: node %d → %d, cluster %d → %d; want +2 on both",
			nodeBefore, nodeAfter, clusterBefore, clusterAfter)
	}
	if code, _ := exchange(t, "GET", coordTS.URL+"/v1/jobs/"+stubJobID, nil); code != http.StatusNotFound {
		t.Fatalf("status after cancel: %d, want 404 (the route is dropped)", code)
	}
}

// TestAsyncClientResumesThroughCoordinator5xx: a job node that dies
// before the first frame of a stream reaches the client as a 5xx from
// the coordinator. That is transient — the journal is intact on the
// node — so the AsyncClient backs off and reconnects instead of giving
// up, and assembles the whole report from the second stream.
func TestAsyncClientResumesThroughCoordinator5xx(t *testing.T) {
	req := modelRequest(t, zkvc.Spartan, 41)
	opts := zkml.DefaultOptions()
	opts.Seed = harnessSeed
	rep, err := zkml.ProveTrace(req.Cfg, req.Trace, opts)
	if err != nil {
		t.Fatal(err)
	}
	var streams atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "{}")
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		w.Write(wire.EncodeJobStatus(&wire.JobStatus{ID: stubJobID, State: wire.JobRunning, TotalOps: len(rep.Ops)}))
	})
	mux.HandleFunc("GET /v1/jobs/{id}/stream", func(w http.ResponseWriter, _ *http.Request) {
		if streams.Add(1) == 1 {
			panic(http.ErrAbortHandler) // dies before the first frame
		}
		wire.WriteFrame(w, wire.EncodeModelStreamHeader(&wire.ModelStreamHeader{
			Model: rep.Model, Backend: rep.Backend, Circuit: rep.Circuit, TotalOps: len(rep.Ops),
		}))
		for i := range rep.Ops {
			wire.WriteFrame(w, wire.EncodeOpProof(&rep.Ops[i]))
		}
	})
	stub := httptest.NewServer(mux)
	t.Cleanup(stub.Close)

	ccfg := cluster.DefaultConfig()
	ccfg.Nodes = []string{stub.URL}
	ccfg.ProbeInterval = time.Hour
	_, coordTS := newCoordinator(t, ccfg)

	ac := server.NewAsyncClient(coordTS.URL)
	ac.RetryBase = 5 * time.Millisecond
	got, err := ac.ProveModel(tctx, req).Report()
	if err != nil {
		t.Fatalf("async prove through a coordinator whose node died before the first frame: %v (after %d stream requests)", err, streams.Load())
	}
	if n := streams.Load(); n != 2 {
		t.Fatalf("%d stream requests, want 2 (one dropped, one served)", n)
	}
	if !bytes.Equal(zeroReportTimings(got), zeroReportTimings(rep)) {
		t.Fatal("resumed report differs from the one the node streamed")
	}
}
