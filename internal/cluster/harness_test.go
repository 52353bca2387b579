package cluster_test

// In-process cluster e2e harness: a coordinator fronting three ordinary
// prover nodes over httptest, driven through the same server.Client the
// CLI uses. The pins that matter:
//
//   - proofs proved through the coordinator are byte-identical (timings
//     aside) to a single-node run with the same seed — sharding must not
//     change a single proved byte;
//   - affinity keeps each circuit's setup on exactly one node (observed
//     via per-node /metrics CRS counters);
//   - verify endpoints route back to the issuing node, so the per-node
//     issued-proof policy works without a replicated log.

import (
	"bytes"
	"context"
	"io"
	mrand "math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"zkvc"
	"zkvc/internal/cluster"
	"zkvc/internal/nn"
	"zkvc/internal/pcs"
	"zkvc/internal/server"
	"zkvc/internal/wire"
	"zkvc/internal/zkml"
)

const harnessSeed = 7

// tctx is the background context every client call in these tests runs
// under; cancellation paths get their own contexts.
var tctx = context.Background()

// nodeConfig is the shared node configuration: seeded, so the model
// reports a node proves are a function of the seed alone, which is what
// makes cluster and single-node reports comparable byte for byte.
func nodeConfig(seed int64) server.Config {
	cfg := server.DefaultConfig()
	cfg.Seed = seed
	cfg.Window = 10 * time.Millisecond
	return cfg
}

// newNode starts one prover node.
func newNode(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server) {
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

// newCoordinator starts a coordinator over the given node URLs.
func newCoordinator(t *testing.T, cfg cluster.Config) (*cluster.Coordinator, *httptest.Server) {
	t.Helper()
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		ts.Close()
		c.Close()
	})
	return c, ts
}

// zeroBatchTimings strips wall clock from a batch response so two
// provings of the same statements compare byte for byte.
func zeroBatchTimings(resp *wire.ProveResponse) []byte {
	out := *resp
	batch := *resp.Batch
	batch.Timings = zkvc.Timings{}
	out.Batch = &batch
	return wire.EncodeProveResponse(&out)
}

// zeroReportTimings strips per-op wall clock from a model report.
func zeroReportTimings(rep *zkml.Report) []byte {
	out := *rep
	out.Ops = append([]zkml.OpProof(nil), rep.Ops...)
	for i := range out.Ops {
		out.Ops[i].Synthesis = 0
		out.Ops[i].Setup = 0
		out.Ops[i].Prove = 0
		out.Ops[i].Verify = 0
	}
	return wire.EncodeReport(&out)
}

func modelRequest(t *testing.T, backend zkml.Backend, seed int64) *zkvc.ModelRequest {
	t.Helper()
	cfg := nn.TinyConfig("cluster-e2e", nn.MixerPooling)
	model, err := nn.NewModel(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	trace := nn.Trace{Capture: true}
	model.Forward(model.RandomInput(mrand.New(mrand.NewSource(seed+1))), &trace)
	return &zkvc.ModelRequest{Backend: backend, ProveNonlinear: true, Cfg: cfg, Trace: &trace}
}

// wireModelRequest renders a model request as the raw wire body the
// endpoints decode — for tests that drive HTTP directly.
func wireModelRequest(req *zkvc.ModelRequest) *wire.ProveModelRequest {
	return &wire.ProveModelRequest{
		Backend:        req.Backend,
		ProveNonlinear: req.ProveNonlinear,
		Cfg:            req.Cfg,
		Trace:          req.Trace,
	}
}

// nodesWithNewMisses counts nodes whose miss counter moved past its
// baseline.
func nodesWithNewMisses(nodes []*server.Server, baseline []int64) int {
	count := 0
	for i, n := range nodes {
		if n.Metrics().CRSCacheMisses > baseline[i] {
			count++
		}
	}
	return count
}

func TestClusterE2E(t *testing.T) {
	// Reference: one stand-alone node with the same seed.
	refSrv, refTS := newNode(t, nodeConfig(harnessSeed))
	ref := server.NewClient(refTS.URL)
	ref.Tenant = "tenant-e2e"

	// Cluster: coordinator over three fresh nodes, same seed each.
	var nodes []*server.Server
	var urls []string
	for i := 0; i < 3; i++ {
		s, ts := newNode(t, nodeConfig(harnessSeed))
		nodes = append(nodes, s)
		urls = append(urls, ts.URL)
	}
	ccfg := cluster.DefaultConfig()
	ccfg.Nodes = urls
	ccfg.ProbeInterval = 50 * time.Millisecond
	coord, coordTS := newCoordinator(t, ccfg)
	cc := server.NewClient(coordTS.URL)
	cc.Tenant = "tenant-e2e"

	rng := mrand.New(mrand.NewSource(harnessSeed))
	x := zkvc.RandomMatrix(rng, 6, 8, 32)
	w := zkvc.RandomMatrix(rng, 8, 5, 32)

	// --- Matmul batch: byte-identical to the single-node run. ---
	refResp, err := ref.ProveCoalesced(tctx, x, w)
	if err != nil {
		t.Fatalf("reference prove: %v", err)
	}
	resp, err := cc.ProveCoalesced(tctx, x, w)
	if err != nil {
		t.Fatalf("cluster prove: %v", err)
	}
	if err := zkvc.VerifyMatMulBatch(resp.Xs, resp.Batch); err != nil {
		t.Fatalf("cluster batch does not verify: %v", err)
	}
	if !bytes.Equal(zeroBatchTimings(resp), zeroBatchTimings(refResp)) {
		t.Fatal("cluster batch proof differs from the single-node run at equal seeds")
	}
	// The batch verifies through the coordinator too: affinity brings it
	// back to the node whose issued log attests it.
	if err := cc.VerifyResponse(tctx, resp); err != nil {
		t.Fatalf("cluster verify/batch: %v", err)
	}

	// --- Per-statement proofs: byte-identical to the single-node run,
	// and they verify through the coordinator. ---
	refProof, err := ref.ProveMatMul(tctx, x, w)
	if err != nil {
		t.Fatalf("reference prove/matmul: %v", err)
	}
	proof, err := cc.ProveMatMul(tctx, x, w)
	if err != nil {
		t.Fatalf("cluster prove/matmul: %v", err)
	}
	refProof.Timings, proof.Timings = zkvc.Timings{}, zkvc.Timings{}
	if !bytes.Equal(wire.EncodeMatMulProof(proof), wire.EncodeMatMulProof(refProof)) {
		t.Fatal("cluster per-statement proof differs from the single-node run at equal seeds")
	}
	if err := cc.VerifyMatMul(tctx, x, proof); err != nil {
		t.Fatalf("cluster verify of a per-statement proof: %v", err)
	}

	// --- Model (Groth16, so setups are visible in CRS counters):
	// byte-identical to the single-node run, and every distinct circuit
	// digest's setup lives on exactly one node. ---
	req := modelRequest(t, zkvc.Groth16, 3)
	refRep, err := ref.ProveModel(tctx, req).Report()
	if err != nil {
		t.Fatalf("reference model prove: %v", err)
	}
	refModelMisses := refSrv.Metrics().CRSCacheMisses

	missBase := make([]int64, len(nodes))
	hitBase := make([]int64, len(nodes))
	for i, n := range nodes {
		snap := n.Metrics()
		missBase[i] = snap.CRSCacheMisses
		hitBase[i] = snap.CRSCacheHits
	}
	rep, err := cc.ProveModel(tctx, req).Report()
	if err != nil {
		t.Fatalf("cluster model prove: %v", err)
	}
	if !bytes.Equal(zeroReportTimings(rep), zeroReportTimings(refRep)) {
		t.Fatal("cluster model report differs from the single-node run at equal seeds")
	}
	if err := zkml.VerifyReport(rep, zkml.Options{PCS: pcs.DefaultParams()}); err != nil {
		t.Fatalf("cluster model report does not verify locally: %v", err)
	}
	if _, err := cc.ProveModel(tctx, req).Report(); err != nil {
		t.Fatalf("cluster model prove (repeat): %v", err)
	}
	if got := nodesWithNewMisses(nodes, missBase); got != 1 {
		t.Fatalf("model circuit setups landed on %d nodes, want exactly 1", got)
	}
	var newMisses, newHits int64
	for i, n := range nodes {
		snap := n.Metrics()
		newMisses += snap.CRSCacheMisses - missBase[i]
		newHits += snap.CRSCacheHits - hitBase[i]
	}
	if newMisses != refModelMisses {
		t.Fatalf("cluster paid %d circuit setups, single-node run paid %d — affinity is not keeping digests on one node",
			newMisses, refModelMisses)
	}
	if newHits < refModelMisses {
		t.Fatalf("repeat model prove hit the CRS cache %d times, want >= %d", newHits, refModelMisses)
	}
	// The report verifies through the coordinator: the model affinity key
	// derived from the report finds the node that issued it.
	if err := cc.VerifyModel(tctx, rep); err != nil {
		t.Fatalf("cluster verify/model: %v", err)
	}

	// --- Distribution: distinct tenants spread across the pool. ---
	for i := 0; i < 8; i++ {
		tc := server.NewClient(coordTS.URL)
		tc.Tenant = "spread-" + string(rune('a'+i))
		r, err := tc.ProveCoalesced(tctx, x, w)
		if err != nil {
			t.Fatalf("tenant %d: %v", i, err)
		}
		if err := zkvc.VerifyMatMulBatch(r.Xs, r.Batch); err != nil {
			t.Fatalf("tenant %d: %v", i, err)
		}
	}
	snap := coord.Metrics()
	busy := 0
	for _, n := range snap.Nodes {
		if n.Routed > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("8 tenants all routed to %d node(s); rendezvous hashing should spread them", busy)
	}
	if snap.FailedOver != 0 || snap.StreamErrors != 0 || snap.Unroutable != 0 {
		t.Fatalf("healthy-pool run recorded failures: %+v", snap)
	}
}

// TestCoordinatorRemovedSurfaces pins what is gone from the coordinator:
// the epoch-proof route is no longer served, and /v1/verify/model
// refuses the retired mode-carrying body (tag 0x16) with a 400, query or
// no query — answered at the coordinator, before any node is asked.
func TestCoordinatorRemovedSurfaces(t *testing.T) {
	_, nodeTS := newNode(t, nodeConfig(harnessSeed))
	ccfg := cluster.DefaultConfig()
	ccfg.Nodes = []string{nodeTS.URL}
	_, coordTS := newCoordinator(t, ccfg)

	post := func(path string, body []byte) (int, string) {
		t.Helper()
		resp, err := http.Post(coordTS.URL+path, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(raw)
	}

	rng := mrand.New(mrand.NewSource(harnessSeed))
	x := zkvc.RandomMatrix(rng, 3, 4, 32)
	w := zkvc.RandomMatrix(rng, 4, 2, 32)
	status, body := post("/v1/prove/single", wire.EncodeProveRequest(&wire.ProveRequest{X: x, W: w}))
	if status != http.StatusNotFound && status != http.StatusMethodNotAllowed {
		t.Errorf("/v1/prove/single: status %d body %s, want 404 or 405", status, body)
	}

	req := modelRequest(t, zkvc.Spartan, 5)
	opts := zkml.DefaultOptions()
	opts.Seed = harnessSeed
	rep, err := zkml.ProveTrace(req.Cfg, req.Trace, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/v1/verify/model", "/v1/verify/model?mode=per-op"} {
		status, body := post(path, retiredVerifyModelBody(rep))
		if status != http.StatusBadRequest || !strings.Contains(body, "wire: malformed message") {
			t.Errorf("%s with a tag-0x16 body: status %d body %s, want the coordinator's decode 400", path, status, body)
		}
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
