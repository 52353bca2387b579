package main

import (
	"context"
	"fmt"
	mrand "math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"zkvc"
	"zkvc/internal/cluster"
	"zkvc/internal/crpc"
	"zkvc/internal/server"
	"zkvc/internal/wire"
)

// serviceInst is service_matmul: two in-process prover nodes behind one
// coordinator, all on loopback HTTP, and min(nproc, 2) closed-loop
// clients that each alternate a prove and a verify request on fresh
// statements. The statement is deliberately tiny, so the service shell
// is about half of every round trip.
type serviceInst struct {
	cfg     runConfig
	nodes   []*server.Server
	nodeTS  []*httptest.Server
	coord   *cluster.Coordinator
	front   *httptest.Server
	clients []*serviceClient
}

// serviceDim is the statement size: 8×8 times 8×8.
const serviceDim = 8

// serviceClient is one closed-loop caller with its own private W.
type serviceClient struct {
	eng zkvc.Engine
	rng *mrand.Rand
	w   *zkvc.Matrix

	lastX     *zkvc.Matrix
	lastProof *zkvc.MatMulProof
}

func newServiceClient(eng zkvc.Engine, seed int64) *serviceClient {
	rng := mrand.New(mrand.NewSource(seed))
	return &serviceClient{eng: eng, rng: rng, w: zkvc.RandomMatrix(rng, serviceDim, serviceDim, matmulBound)}
}

// clusterEngine is a coordinator client on the test server's transport.
func clusterEngine(url string, hc *http.Client, tenant string) zkvc.Engine {
	eng := cluster.NewEngine(url)
	eng.HTTP, eng.Tenant = hc, tenant
	return eng
}

func newService(cfg runConfig) (instance, error) {
	sv := &serviceInst{cfg: cfg}
	scfg := server.DefaultConfig()
	scfg.Seed = proverSeed
	var urls []string
	for i := 0; i < 2; i++ {
		node, err := server.New(scfg)
		if err != nil {
			sv.close()
			return nil, err
		}
		ts := httptest.NewServer(node.Handler())
		sv.nodes, sv.nodeTS = append(sv.nodes, node), append(sv.nodeTS, ts)
		urls = append(urls, ts.URL)
	}
	ccfg := cluster.DefaultConfig()
	ccfg.Nodes = urls
	coord, err := cluster.New(ccfg)
	if err != nil {
		sv.close()
		return nil, err
	}
	sv.coord = coord
	sv.front = httptest.NewServer(coord.Handler())
	for i := 0; i < min(runtime.NumCPU(), 2); i++ {
		eng := clusterEngine(sv.front.URL, sv.front.Client(), fmt.Sprintf("benchmark-%d", i))
		sv.clients = append(sv.clients, newServiceClient(eng, cfg.seed+int64(i)))
	}
	return sv, nil
}

func (sv *serviceInst) close() {
	if sv.front != nil {
		sv.front.Close()
	}
	if sv.coord != nil {
		sv.coord.Close()
	}
	for _, ts := range sv.nodeTS {
		ts.Close()
	}
	for _, node := range sv.nodes {
		node.Close()
	}
}

// round is one prove request and one verify request on a fresh X.
func (c *serviceClient) round(ctx context.Context, i int, s *samples, rec *recorder, layer string) {
	x := zkvc.RandomMatrix(c.rng, serviceDim, serviceDim, matmulBound)
	root := rec.begin("iteration", 0, i, false)
	defer rec.end(root)
	var p *zkvc.MatMulProof
	var err error
	d := rec.timed(layer+".prove", root, i, false, func() { p, err = c.eng.ProveMatMul(ctx, x, c.w) })
	if !s.record(opProve, d, err) {
		return
	}
	d = rec.timed(layer+".verify", root, i, false, func() { err = c.eng.VerifyMatMul(ctx, x, p) })
	s.record(opVerify, d, err)
	s.bytes = append(s.bytes, len(wire.EncodeMatMulProof(p))) // the canonical encoding is the response body
	c.lastX, c.lastProof = x, p
}

// loop runs every client's closed loop concurrently for the window.
func (sv *serviceInst) loop(ctx context.Context, window time.Duration, minRounds int, rec *recorder) *samples {
	parts := make([]*samples, len(sv.clients))
	var wg sync.WaitGroup
	for ci, c := range sv.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[ci] = closedLoop(window, minRounds, func(i int, s *samples) {
				c.round(ctx, i*len(sv.clients)+ci, s, rec, "cluster")
			})
		}()
	}
	wg.Wait()
	total := &samples{}
	for _, p := range parts {
		total.merge(p)
		total.window = max(total.window, p.window)
	}
	return total
}

func (sv *serviceInst) warm(ctx context.Context) error {
	rounds := 100 // 200 requests per client
	if sv.cfg.small {
		rounds = 5
	}
	return sv.loop(ctx, 0, rounds, nil).firstErr
}

func (sv *serviceInst) measure(ctx context.Context, window time.Duration, rec *recorder) *samples {
	rounds := 1000 // at least 2 000 requests per client
	if sv.cfg.small {
		rounds = 25
	}
	return sv.loop(ctx, window, rounds, rec)
}

func (sv *serviceInst) tamper(ctx context.Context) error {
	c := sv.clients[0]
	return wantRejected(c.eng.VerifyMatMul(ctx, c.lastX, tamperedMatMul(c.lastProof)))
}

func (sv *serviceInst) layers(ctx context.Context, rec *recorder, out map[string]float64) error {
	rounds := 300
	if sv.cfg.small {
		rounds = 10
	}
	// The same statement stream through three deployment shapes, one
	// caller each: in-process, straight at a node, through the coordinator.
	local := zkvc.NewLocal(zkvc.Spartan, zkvc.DefaultOptions())
	local.Seed = proverSeed
	node := server.NewClient(sv.nodeTS[0].URL)
	node.HTTP = sv.nodeTS[0].Client()
	paths := []struct {
		layer string
		eng   zkvc.Engine
	}{
		{"zkvc", local},
		{"server", node},
		{"cluster", clusterEngine(sv.front.URL, sv.front.Client(), "benchmark-layers")},
	}
	prove, verify := map[string]float64{}, map[string]float64{}
	for _, p := range paths {
		c := newServiceClient(p.eng, sv.cfg.seed+100)
		s := closedLoop(0, rounds, func(i int, s *samples) { c.round(ctx, i, s, rec, p.layer) })
		if s.firstErr != nil {
			return fmt.Errorf("%s path: %w", p.layer, s.firstErr)
		}
		prove[p.layer], verify[p.layer] = median(s.lat[opProve]), median(s.lat[opVerify])
	}
	out["server.prove_rtt_s"], out["server.verify_rtt_s"] = prove["server"], verify["server"]
	out["cluster.prove_rtt_s"], out["cluster.verify_rtt_s"] = prove["cluster"], verify["cluster"]
	out["server.shell_s"] = prove["server"] - prove["zkvc"]
	out["cluster.route_s"] = prove["cluster"] - prove["server"]

	c := sv.clients[0]
	se := series{}
	for i := 0; i < rounds; i++ {
		stmt := crpc.NewStatement(c.lastX, c.w)
		var err error
		se.addDur("crpc.synthesize_s", rec.timed("crpc.synthesize", 0, i, false, func() { _, err = crpc.Synthesize(stmt, zkvc.DefaultOptions()) }))
		if err != nil {
			return err
		}
		var raw []byte
		se.addDur("wire.encode_proof_s", rec.timed("wire.encode_proof", 0, i, false, func() { raw = wire.EncodeMatMulProof(c.lastProof) }))
		se.addDur("wire.decode_proof_s", rec.timed("wire.decode_proof", 0, i, false, func() { _, err = wire.DecodeMatMulProof(raw) }))
		if err != nil {
			return err
		}
	}
	se.medians(out)

	cs := sv.coord.Metrics()
	out["cluster.retried"], out["cluster.failovers"] = float64(cs.Retried), float64(cs.FailedOver)
	var shed int64
	for _, n := range sv.nodes {
		shed += n.Metrics().AdmissionRejects
	}
	out["server.shed"] = float64(shed)
	microFr(mrand.New(mrand.NewSource(sv.cfg.seed+1)), out)
	return nil
}
