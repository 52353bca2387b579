package cluster_test

// Fault injection: nodes dying mid-stream, dead nodes in the hash
// order, drains, and the tenant-forwarding regression. All of these run
// under -race in CI (the race job covers internal/cluster).

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	mrand "math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"zkvc"
	"zkvc/internal/cluster"
	"zkvc/internal/server"
	"zkvc/internal/wire"
	"zkvc/internal/zkml"
)

// TestCoordinatorForwardsTenantVerbatim is the regression test for the
// tenant header: the coordinator must forward Zkvc-Tenant byte for byte.
// A dropped header would silently merge the two tenants into the node's
// default coalescing pool — one batch carrying both statements, each
// client seeing the other's X and Y (the cross-tenant exposure PR 1's
// partitioning exists to prevent). With the header forwarded, two
// concurrent same-shape jobs under different tenants must come back as
// two single-statement batches.
func TestCoordinatorForwardsTenantVerbatim(t *testing.T) {
	ncfg := nodeConfig(11)
	ncfg.Window = 250 * time.Millisecond
	_, nodeTS := newNode(t, ncfg)

	ccfg := cluster.DefaultConfig()
	ccfg.Nodes = []string{nodeTS.URL}
	_, coordTS := newCoordinator(t, ccfg)

	rng := mrand.New(mrand.NewSource(5))
	x := zkvc.RandomMatrix(rng, 6, 8, 32)
	w := zkvc.RandomMatrix(rng, 8, 5, 32)

	var wg sync.WaitGroup
	resps := make([]*wire.ProveResponse, 2)
	errs := make([]error, 2)
	for i, tenant := range []string{"tenant-a", "tenant-b"} {
		wg.Add(1)
		go func(i int, tenant string) {
			defer wg.Done()
			c := server.NewClient(coordTS.URL)
			c.Tenant = tenant
			resps[i], errs[i] = c.ProveCoalesced(tctx, x, w)
		}(i, tenant)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("tenant %d: %v", i, err)
		}
		if got := len(resps[i].Xs); got != 1 {
			t.Fatalf("tenant %d got a %d-statement batch: the coordinator merged tenants (Zkvc-Tenant not forwarded)", i, got)
		}
		if err := zkvc.VerifyMatMulBatch(resps[i].Xs, resps[i].Batch); err != nil {
			t.Fatalf("tenant %d: %v", i, err)
		}
	}
}

// stubStreamNode is a fake prover node whose /v1/prove/model sends a
// stream header plus opFrames arbitrary frames, then kills the
// connection — a node dying mid-model-stream, made deterministic.
func stubStreamNode(t *testing.T, totalOps, opFrames int) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, "{}")
	})
	mux.HandleFunc("POST /v1/prove/model", func(w http.ResponseWriter, r *http.Request) {
		flusher := w.(http.Flusher)
		header := wire.EncodeModelStreamHeader(&wire.ModelStreamHeader{
			Model: "stub", Backend: zkvc.Spartan, Circuit: zkvc.DefaultOptions(), TotalOps: totalOps,
		})
		if err := wire.WriteFrame(w, header); err != nil {
			return
		}
		flusher.Flush()
		for i := 0; i < opFrames; i++ {
			if err := wire.WriteFrame(w, []byte("started-op-frame")); err != nil {
				return
			}
			flusher.Flush()
		}
		// Die with the stream open: ErrAbortHandler tears the connection
		// down without a graceful end-of-body.
		panic(http.ErrAbortHandler)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestNodeDeathMidStreamSurfacesErrorFrame: once frames have been
// forwarded, a dying node must become an in-stream ModelStreamError
// frame — the client's decoder reports a server error instead of a
// truncated stream, and the coordinator does not silently retry work
// whose frames the client already holds.
func TestNodeDeathMidStreamSurfacesErrorFrame(t *testing.T) {
	stub := stubStreamNode(t, 3, 1)
	ccfg := cluster.DefaultConfig()
	ccfg.Nodes = []string{stub.URL}
	ccfg.ProbeInterval = time.Hour // health changes only via forwarding, not probing
	coord, coordTS := newCoordinator(t, ccfg)

	body := wire.EncodeProveModelRequest(wireModelRequest(modelRequest(t, zkvc.Spartan, 9)))
	resp, err := http.Post(coordTS.URL+"/v1/prove/model", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	// Frame 1: the stub's header, passed through unmodified.
	frame, err := wire.ReadFrame(resp.Body)
	if err != nil {
		t.Fatalf("header frame: %v", err)
	}
	if _, err := wire.DecodeModelStreamHeader(frame); err != nil {
		t.Fatalf("header frame does not decode: %v", err)
	}
	// Frame 2: the started op's frame, passed through unmodified.
	frame, err = wire.ReadFrame(resp.Body)
	if err != nil {
		t.Fatalf("op frame: %v", err)
	}
	if !bytes.Equal(frame, []byte("started-op-frame")) {
		t.Fatalf("op frame was modified in transit: %q", frame)
	}
	// Frame 3: the coordinator's in-stream error for the node death.
	frame, err = wire.ReadFrame(resp.Body)
	if err != nil {
		t.Fatalf("expected an in-stream error frame, got %v", err)
	}
	msg, err := wire.DecodeModelStreamError(frame)
	if err != nil {
		t.Fatalf("third frame is not a ModelStreamError: %v", err)
	}
	if !strings.Contains(msg, "mid-stream") {
		t.Fatalf("error frame does not name the mid-stream failure: %q", msg)
	}
	snap := coord.Metrics()
	if snap.StreamErrors != 1 {
		t.Fatalf("cluster_stream_errors = %d, want 1", snap.StreamErrors)
	}
}

// TestDeadNodeFailover: jobs whose home node is dead (unreachable, not
// yet probed out) must be retried, unstarted, against the next node in
// hash order — for both buffered matmul jobs and model streams that
// never got a first frame. With enough distinct tenants, some keys are
// guaranteed (up to 2^-24) to rank the dead node first.
func TestDeadNodeFailover(t *testing.T) {
	_, liveTS := newNode(t, nodeConfig(13))
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // connection refused from here on

	ccfg := cluster.DefaultConfig()
	ccfg.Nodes = []string{liveTS.URL, deadURL}
	ccfg.ProbeInterval = time.Hour // keep the dead node "healthy" so forwarding must cope
	coord, coordTS := newCoordinator(t, ccfg)

	rng := mrand.New(mrand.NewSource(3))
	x := zkvc.RandomMatrix(rng, 6, 8, 32)
	w := zkvc.RandomMatrix(rng, 8, 5, 32)
	for i := 0; i < 12; i++ {
		c := server.NewClient(coordTS.URL)
		c.Tenant = fmt.Sprintf("failover-%d", i)
		resp, err := c.ProveCoalesced(tctx, x, w)
		if err != nil {
			t.Fatalf("tenant %d: %v", i, err)
		}
		if err := zkvc.VerifyMatMulBatch(resp.Xs, resp.Batch); err != nil {
			t.Fatalf("tenant %d: %v", i, err)
		}
	}
	snap := coord.Metrics()
	if snap.FailedOver < 1 {
		t.Fatalf("12 tenants against a half-dead pool recorded no failovers: %+v", snap)
	}
	if snap.Routed != 12 {
		t.Fatalf("cluster_routed = %d, want 12", snap.Routed)
	}

	// Model jobs fail over the same way when the dead node is first in
	// hash order (no frames were ever forwarded).
	req := modelRequest(t, zkvc.Spartan, 15)
	for i := 0; i < 4; i++ {
		c := server.NewClient(coordTS.URL)
		c.Tenant = fmt.Sprintf("model-failover-%d", i)
		rep, err := c.ProveModel(tctx, req).Report()
		if err != nil {
			t.Fatalf("model tenant %d: %v", i, err)
		}
		if len(rep.Ops) == 0 {
			t.Fatalf("model tenant %d: empty report", i)
		}
	}
	if snap := coord.Metrics(); snap.StreamErrors != 0 {
		t.Fatalf("unstarted model failovers must not surface stream errors: %+v", snap)
	}
}

// TestDrainFinishesQueuedWork: draining a node must stop new work
// without dropping what is already accepted — a job parked in the
// node's coalescing window completes and verifies after every node in
// the pool is drained.
func TestDrainFinishesQueuedWork(t *testing.T) {
	ncfg := nodeConfig(17)
	ncfg.Window = 400 * time.Millisecond
	_, aTS := newNode(t, ncfg)
	_, bTS := newNode(t, ncfg)

	ccfg := cluster.DefaultConfig()
	ccfg.Nodes = []string{aTS.URL, bTS.URL}
	ccfg.ProbeInterval = time.Hour
	coord, coordTS := newCoordinator(t, ccfg)

	rng := mrand.New(mrand.NewSource(21))
	x := zkvc.RandomMatrix(rng, 6, 8, 32)
	w := zkvc.RandomMatrix(rng, 8, 5, 32)

	// Park a job in some node's coalescing window.
	type result struct {
		resp *wire.ProveResponse
		err  error
	}
	done := make(chan result, 1)
	go func() {
		c := server.NewClient(coordTS.URL)
		c.Tenant = "drain-tenant"
		resp, err := c.ProveCoalesced(tctx, x, w)
		done <- result{resp, err}
	}()

	// Give the forward a moment to reach the node, then drain the whole
	// pool — via the operator endpoint, so it is exercised too.
	time.Sleep(100 * time.Millisecond)
	for _, name := range []string{aTS.URL, bTS.URL} {
		resp, err := http.Post(coordTS.URL+"/v1/cluster/drain?node="+name+"&drain=true", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("drain %s: status %d", name, resp.StatusCode)
		}
	}

	// New work is refused while everything drains...
	c := server.NewClient(coordTS.URL)
	c.Tenant = "post-drain"
	var se *server.StatusError
	if _, err := c.ProveCoalesced(tctx, x, w); !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("prove against a fully drained pool: got %v, want 503", err)
	}
	if err := c.Healthz(tctx); !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz of a fully drained pool: got %v, want 503", err)
	}

	// ...but the parked job still completes and verifies.
	r := <-done
	if r.err != nil {
		t.Fatalf("parked job was dropped by the drain: %v", r.err)
	}
	if err := zkvc.VerifyMatMulBatch(r.resp.Xs, r.resp.Batch); err != nil {
		t.Fatalf("parked job's proof does not verify: %v", err)
	}

	// Undraining brings the pool back.
	if !coord.Drain(aTS.URL, false) {
		t.Fatal("undrain of a known node reported unknown")
	}
	if _, err := c.ProveCoalesced(tctx, x, w); err != nil {
		t.Fatalf("prove after undrain: %v", err)
	}
	if snap := coord.Metrics(); snap.Unroutable < 1 {
		t.Fatalf("fully drained pool recorded no unroutable requests: %+v", snap)
	}
}

// TestAnnounceLifecycle drives the control plane end to end: a
// coordinator born with zero nodes is unhealthy, an announce brings it
// up, announcing again is idempotent (one node, two announces), a
// re-announce cannot move a node to another URL, and an operator drain
// survives the node's routine re-announces.
func TestAnnounceLifecycle(t *testing.T) {
	_, nodeTS := newNode(t, nodeConfig(23))
	ccfg := cluster.DefaultConfig()
	ccfg.ProbeInterval = time.Hour
	coord, coordTS := newCoordinator(t, ccfg)

	cc := server.NewClient(coordTS.URL)
	var se *server.StatusError
	if err := cc.Healthz(tctx); !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("empty cluster healthz: got %v, want 503", err)
	}

	announce := &wire.NodeAnnounce{Name: "prover-1", URL: nodeTS.URL, Workers: 1}
	for i := 0; i < 2; i++ {
		if err := cc.Announce(tctx, announce); err != nil {
			t.Fatalf("announce %d: %v", i+1, err)
		}
	}
	if snap := coord.Metrics(); len(snap.Nodes) != 1 || snap.Announces != 2 {
		t.Fatalf("two announces of one node: %d nodes, %d announces; want 1 and 2", len(snap.Nodes), snap.Announces)
	}
	if err := cc.Healthz(tctx); err != nil {
		t.Fatalf("healthz after announce: %v", err)
	}

	rng := mrand.New(mrand.NewSource(27))
	x := zkvc.RandomMatrix(rng, 6, 8, 32)
	w := zkvc.RandomMatrix(rng, 8, 5, 32)
	cc.Tenant = "announced"
	if _, err := cc.ProveCoalesced(tctx, x, w); err != nil {
		t.Fatalf("prove through an announced node: %v", err)
	}

	// Re-announcing under the same name must not move the node to a new
	// URL (that would be trivial traffic hijacking on an open port).
	if err := cc.Announce(tctx, &wire.NodeAnnounce{Name: "prover-1", URL: "http://evil:1"}); !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("re-announce with a different URL: got %v, want 400", err)
	}

	// An operator drain must survive the node's routine re-announces:
	// only the operator hands a drain back.
	if !coord.Drain("prover-1", true) {
		t.Fatal("operator drain of announced node failed")
	}
	if err := cc.Announce(tctx, announce); err != nil {
		t.Fatalf("re-announce during operator drain: %v", err)
	}
	if _, err := cc.ProveCoalesced(tctx, x, w); !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("re-announce reverted an operator drain: got %v, want 503", err)
	}
	if snap := coord.Metrics(); !snap.Nodes[0].Draining {
		t.Fatalf("metrics don't reflect the operator drain: %+v", snap.Nodes)
	}
	if !coord.Drain("prover-1", false) {
		t.Fatal("operator undrain failed")
	}
	if _, err := cc.ProveCoalesced(tctx, x, w); err != nil {
		t.Fatalf("prove after operator undrain: %v", err)
	}
}

// TestReannounceKeepsProbeVerdict: health is the probe's verdict alone.
// A node the probe has ejected stays out of rotation when it announces
// again — an unreachable node must not announce itself back in.
func TestReannounceKeepsProbeVerdict(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	ccfg := cluster.DefaultConfig()
	ccfg.ProbeInterval = 20 * time.Millisecond
	ccfg.ProbeFailures = 5
	coord, coordTS := newCoordinator(t, ccfg)
	cc := server.NewClient(coordTS.URL)
	announce := &wire.NodeAnnounce{Name: "prover-dead", URL: deadURL, Workers: 1}
	if err := cc.Announce(tctx, announce); err != nil {
		t.Fatalf("announce: %v", err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for coord.Metrics().Nodes[0].Healthy {
		if time.Now().After(deadline) {
			t.Fatalf("probe never ejected the unreachable node: %+v", coord.Metrics().Nodes)
		}
		time.Sleep(20 * time.Millisecond)
	}

	if err := cc.Announce(tctx, announce); err != nil {
		t.Fatalf("re-announce: %v", err)
	}
	if n := coord.Metrics().Nodes[0]; n.Healthy || n.ProbeFailures < int64(ccfg.ProbeFailures) {
		t.Fatalf("re-announce reset the probe's verdict: %+v", n)
	}
	var se *server.StatusError
	if err := cc.Healthz(tctx); !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz with only an ejected node: got %v, want 503", err)
	}
}

// TestDrainEndpointParsesBoolean: the operator endpoint reads drain as a
// boolean — an absent or empty value drains, every spelling
// strconv.ParseBool accepts is honoured, and anything else is a 400
// that leaves the node as it was.
func TestDrainEndpointParsesBoolean(t *testing.T) {
	_, nodeTS := newNode(t, nodeConfig(31))
	ccfg := cluster.DefaultConfig()
	ccfg.Nodes = []string{nodeTS.URL}
	ccfg.ProbeInterval = time.Hour
	coord, coordTS := newCoordinator(t, ccfg)

	post := func(query string) int {
		t.Helper()
		resp, err := http.Post(coordTS.URL+"/v1/cluster/drain?"+query, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	node := "node=" + url.QueryEscape(nodeTS.URL)
	for _, c := range []struct {
		param string
		code  int
		drain bool
	}{
		{"", http.StatusOK, true},
		{"&drain=", http.StatusOK, true},
		{"&drain=true", http.StatusOK, true},
		{"&drain=1", http.StatusOK, true},
		{"&drain=TRUE", http.StatusOK, true},
		{"&drain=false", http.StatusOK, false},
		{"&drain=0", http.StatusOK, false},
		{"&drain=False", http.StatusOK, false},
		{"&drain=flase", http.StatusBadRequest, false},
		{"&drain=yes", http.StatusBadRequest, false},
	} {
		// Start from the opposite state, so a handled request must move
		// the node and a rejected one must leave it.
		coord.Drain(nodeTS.URL, !c.drain)
		if code := post(node + c.param); code != c.code {
			t.Errorf("%q: status %d, want %d", c.param, code, c.code)
			continue
		}
		want := c.drain
		if c.code != http.StatusOK {
			want = !c.drain
		}
		if got := coord.Metrics().Nodes[0].Draining; got != want {
			t.Errorf("%q: draining = %v, want %v", c.param, got, want)
		}
	}
	if code := post("drain=true"); code != http.StatusBadRequest {
		t.Errorf("missing node: status %d, want 400", code)
	}
	if code := post("node=" + url.QueryEscape("http://unknown:1")); code != http.StatusNotFound {
		t.Errorf("unknown node: status %d, want 404", code)
	}
}

// stubVerifyNode is a fake node whose /v1/verify/model always answers
// with the given status and body (plus a live /metrics for probes).
func stubVerifyNode(t *testing.T, status int, body string) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "{}")
	})
	mux.HandleFunc("POST /v1/verify/model", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(status)
		fmt.Fprintln(w, body)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestVerifyShedLoadIsNotFailedOver: a verify answer is node state, not
// work — only the issuing node's log can vouch for a proof. A 503 from
// a busy issuing node must therefore reach the client as a retryable
// 503, NOT be failed over to a node that would answer a definitive
// (and wrong) "not issued". With one always-503 node and one
// always-verdict node, enough distinct tenants rank each node first at
// least once; if verifies failed over, no 503 would ever surface.
func TestVerifyShedLoadIsNotFailedOver(t *testing.T) {
	busy := stubVerifyNode(t, http.StatusServiceUnavailable, "busy")
	verdict := stubVerifyNode(t, http.StatusUnprocessableEntity, `{"ok":false,"error":"not issued"}`)

	ccfg := cluster.DefaultConfig()
	ccfg.Nodes = []string{busy.URL, verdict.URL}
	ccfg.ProbeInterval = time.Hour
	_, coordTS := newCoordinator(t, ccfg)

	// Any valid report body will do; the stubs never decode it.
	req := modelRequest(t, zkvc.Spartan, 33)
	opts := zkml.DefaultOptions()
	opts.Seed = 7
	rep, err := zkml.ProveTrace(req.Cfg, req.Trace, opts)
	if err != nil {
		t.Fatal(err)
	}
	body := wire.EncodeReport(rep)

	got503, gotVerdict := 0, 0
	for i := 0; i < 16; i++ {
		hreq, err := http.NewRequest(http.MethodPost, coordTS.URL+"/v1/verify/model", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		hreq.Header.Set(server.TenantHeader, fmt.Sprintf("verify-%d", i))
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusServiceUnavailable:
			got503++
		case http.StatusUnprocessableEntity:
			gotVerdict++
		default:
			t.Fatalf("verify %d: unexpected status %d", i, resp.StatusCode)
		}
	}
	if got503 == 0 {
		t.Fatal("no verify came back 503: shed verifies are being failed over to non-issuing nodes")
	}
	if gotVerdict == 0 {
		t.Fatal("no verify reached the verdict node (rendezvous should split 16 tenants)")
	}
}

// TestProbeMarksDeadNodeUnhealthy: the periodic probe must eject an
// unreachable node after ProbeFailures consecutive failures, and the
// pool routes around it without paying per-request dial failures.
func TestProbeMarksDeadNodeUnhealthy(t *testing.T) {
	_, liveTS := newNode(t, nodeConfig(29))
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	ccfg := cluster.DefaultConfig()
	ccfg.Nodes = []string{liveTS.URL, deadURL}
	ccfg.ProbeInterval = 20 * time.Millisecond
	ccfg.ProbeFailures = 2
	coord, _ := newCoordinator(t, ccfg)

	deadline := time.Now().Add(5 * time.Second)
	for {
		snap := coord.Metrics()
		unhealthy := 0
		for _, n := range snap.Nodes {
			if !n.Healthy {
				unhealthy++
			}
		}
		if unhealthy == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("probe never marked the dead node unhealthy: %+v", snap.Nodes)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestProbeHungNodeDelaysNoOtherVerdict: a node whose /metrics hangs
// holds only its own probe, so a dead node beside it is ejected after
// about ProbeFailures probe intervals, not after the hung probe's
// 5-second timeout. Close then cuts the hung probe short.
func TestProbeHungNodeDelaysNoOtherVerdict(t *testing.T) {
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	t.Cleanup(hung.Close)
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	ccfg := cluster.DefaultConfig()
	ccfg.Nodes = []string{hung.URL, deadURL}
	ccfg.ProbeInterval = 20 * time.Millisecond
	ccfg.ProbeFailures = 2
	start := time.Now()
	coord, _ := newCoordinator(t, ccfg)

	deadline := start.Add(2 * time.Second)
	for {
		ejected := false
		for _, n := range coord.Metrics().Nodes {
			ejected = ejected || n.Name == deadURL && !n.Healthy
		}
		if ejected {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dead node still healthy after %v: the hung node's probe is holding it back", time.Since(start))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClientCancelMidStreamRelaysAbortWithoutWedgingNode: a client that
// cancels its context mid-model-stream through the coordinator must (a)
// see the cancellation as its own ctx error, (b) have the abort relayed
// to the prover node — whose job lands in model_jobs_canceled, not
// prove_errors — and (c) leave both coordinator and node serving the
// next request normally. This is the ctx-cancel scenario of the fault
// harness: cancellation crosses two HTTP hops and must not strand work
// or capacity on either. The scenario races the ~50-op job against the
// cancel; a lost race (job finished first) proves nothing, so it
// retries with a fresh cluster and only fails if cancellation never
// wins.
func TestClientCancelMidStreamRelaysAbortWithoutWedgingNode(t *testing.T) {
	for attempt := int64(0); attempt < 3; attempt++ {
		if runClusterCancelScenario(t, 51+attempt) {
			return
		}
	}
	t.Fatal("job completed before cancellation in all 3 attempts — model too small for this machine")
}

func runClusterCancelScenario(t *testing.T, seed int64) bool {
	t.Helper()
	ncfg := nodeConfig(seed)
	nodeSrv, nodeTS := newNode(t, ncfg)

	ccfg := cluster.DefaultConfig()
	ccfg.Nodes = []string{nodeTS.URL}
	ccfg.ProbeInterval = time.Hour
	coord, coordTS := newCoordinator(t, ccfg)

	// Enough operations that the job is overwhelmingly likely to still
	// be mid-pipeline when the cancellation lands.
	mcfg := zkvc.ViTCIFAR10().Scaled(16)
	if err := mcfg.Validate(); err != nil {
		t.Fatal(err)
	}
	model, err := zkvc.NewModel(mcfg, seed+2)
	if err != nil {
		t.Fatal(err)
	}
	trace := zkvc.Trace{Capture: true}
	model.Forward(model.RandomInput(mrand.New(mrand.NewSource(seed+3))), &trace)

	eng := cluster.NewEngine(coordTS.URL)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stream := eng.ProveModel(ctx, &zkvc.ModelRequest{
		Backend: zkvc.Spartan, ProveNonlinear: true, Cfg: mcfg, Trace: &trace,
	})
	streamed := 0
	var streamErr error
	for _, err := range stream.All() {
		if err != nil {
			streamErr = err
			break
		}
		streamed++
		cancel() // first proof in hand: abort mid-stream
	}
	if streamed == 0 {
		t.Fatalf("stream ended before any op arrived: %v", streamErr)
	}
	if streamErr == nil {
		// The whole stream arrived before the cancel took effect.
		return false
	}
	if !errors.Is(streamErr, context.Canceled) {
		t.Fatalf("canceled stream returned %v, want context.Canceled", streamErr)
	}

	// The abort must reach the node as a cancellation, not a fault.
	deadline := time.Now().Add(60 * time.Second)
	for {
		snap := nodeSrv.Metrics()
		if snap.ModelJobsProved > 0 {
			// The node finished proving anyway — inconclusive, retry.
			return false
		}
		if snap.ModelJobsCanceled == 1 {
			if snap.ProveErrors != 0 {
				t.Fatalf("relayed cancel polluted the node's prove_errors: %+v", snap)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cancel never reached the node as model_jobs_canceled: %+v", snap)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Neither hop is wedged: the next model job through the same
	// coordinator and the same node completes.
	req := modelRequest(t, zkvc.Spartan, seed+4)
	rep, err := eng.ProveModel(tctx, req).Report()
	if err != nil {
		t.Fatalf("model job after a canceled stream: %v", err)
	}
	if err := eng.VerifyModel(tctx, rep); err != nil {
		t.Fatalf("verify after a canceled stream: %v", err)
	}
	if snap := coord.Metrics(); snap.StreamErrors != 0 {
		t.Fatalf("client-side cancel must not count as a node stream error: %+v", snap)
	}
	return true
}

// TestDeadIssuingNodeVerifyFailover is the replication tentpole's fault
// drill: a report issued by a node that then dies must still verify
// through the coordinator. The issuer replicated the attestation digest
// upward on issue; the coordinator fanned it out to the digest's
// replica set; so when the verify forward finds the issuer unreachable
// it fails over to a replica that vouches — instead of relaying the
// dead node's silence as a definitive "not issued".
func TestDeadIssuingNodeVerifyFailover(t *testing.T) {
	ccfg := cluster.DefaultConfig()
	ccfg.ProbeInterval = time.Hour // the death goes unprobed: forwarding must cope
	ccfg.ReplicaCount = 2
	coord, coordTS := newCoordinator(t, ccfg)

	// Each node needs its listen URL at construction time: server.New
	// wires the replicator from NodeName + ReplicateTo, so bind first.
	type fnode struct {
		s    *server.Server
		ts   *httptest.Server
		name string
	}
	var nodes []*fnode
	cc := server.NewClient(coordTS.URL)
	for i := 0; i < 3; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		name := "http://" + l.Addr().String()
		ncfg := nodeConfig(31)
		ncfg.NodeName = name
		ncfg.ReplicateTo = coordTS.URL
		s, err := server.New(ncfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewUnstartedServer(s.Handler())
		ts.Listener = l
		ts.Start()
		n := &fnode{s: s, ts: ts, name: name}
		nodes = append(nodes, n)
		t.Cleanup(func() {
			n.ts.Close()
			n.s.Close()
		})
		if err := cc.Announce(tctx, &wire.NodeAnnounce{Name: name, URL: name, Workers: 1}); err != nil {
			t.Fatalf("announce node %d: %v", i, err)
		}
	}

	cc.Tenant = "failover-verify"
	rep, err := cc.ProveModel(tctx, modelRequest(t, zkvc.Spartan, 31)).Report()
	if err != nil {
		t.Fatalf("model prove through coordinator: %v", err)
	}

	// Replication is asynchronous (issuer → coordinator → replicas);
	// wait until both non-issuing nodes hold the replicated digest
	// before pulling the plug.
	var issuer *fnode
	deadline := time.Now().Add(10 * time.Second)
	for {
		issuer = nil
		replicated := 0
		for _, n := range nodes {
			snap := n.s.Metrics()
			if snap.ModelJobsProved > 0 {
				issuer = n
			} else if snap.ReplicatedAttestations > 0 {
				replicated++
			}
		}
		if issuer != nil && replicated == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("attestation never reached both replicas (issuer found: %v, replicas holding it: %d)",
				issuer != nil, replicated)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Kill the issuing node — unprobed, the coordinator still believes
	// it healthy and will try it first.
	issuer.ts.Close()
	issuer.s.Close()

	if err := cc.VerifyModel(tctx, rep); err != nil {
		t.Fatalf("verify of the dead issuer's report did not fail over to a replica: %v", err)
	}
	snap := coord.Metrics()
	if snap.AttestUpdates < 1 {
		t.Fatalf("coordinator relayed no attestation updates: %+v", snap)
	}
	if snap.FailedOver < 1 {
		t.Fatalf("verify succeeded without a recorded failover — did the dead node answer? %+v", snap)
	}
}
