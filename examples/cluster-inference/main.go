// Sharded proving: a coordinator routes jobs across three prover nodes
// by CRS affinity — the scale-out step after the single service, all
// in-process so the whole cluster runs with one command. Clients speak
// to the cluster through cluster.NewEngine, the third implementation of
// the zkvc.Engine interface: the code below would run unchanged against
// zkvc.NewLocal or a single server.NewClient.
//
// The coordinator hashes each job's coalescing key (matmul: tenant +
// shape + options; model: tenant + circuit structure) over the node
// pool, so identical circuits keep hitting the node whose Groth16 setup
// cache is already warm: watch the per-node CRS counters — repeat
// proofs of the same model pay zero new setups, and they all live on
// one node. The example then drains that node and shows work flowing to
// the rest of the pool while the drained node finishes what it had.
//
//	go run ./examples/cluster-inference
package main

import (
	"context"
	"fmt"
	"log"
	mrand "math/rand"
	"net/http/httptest"

	"zkvc"
	"zkvc/internal/cluster"
	"zkvc/internal/nn"
	"zkvc/internal/server"
)

func main() {
	ctx := context.Background()

	// Three ordinary prover nodes — each is exactly what `zkvc serve`
	// runs, here in-process behind httptest listeners.
	var nodes []*server.Server
	var urls []string
	for i := 0; i < 3; i++ {
		cfg := server.DefaultConfig()
		cfg.Seed = 42 // deterministic demo; production keeps crypto/rand
		s, err := server.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		defer s.Close()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		nodes = append(nodes, s)
		urls = append(urls, ts.URL)
	}

	// The coordinator — `zkvc serve -coordinator -node <url> ...`.
	ccfg := cluster.DefaultConfig()
	ccfg.Nodes = urls
	coord, err := cluster.New(ccfg)
	if err != nil {
		log.Fatal(err)
	}
	defer coord.Close()
	front := httptest.NewServer(coord.Handler())
	defer front.Close()
	fmt.Printf("cluster up: coordinator fronting %d nodes\n", len(urls))

	// Matmul jobs from a few tenants spread across the pool: each tenant
	// gets its own Engine, and the coordinator routes by (tenant, shape).
	rng := mrand.New(mrand.NewSource(7))
	x := zkvc.RandomMatrix(rng, 6, 8, 32)
	w := zkvc.RandomMatrix(rng, 8, 5, 32)
	for _, tenant := range []string{"acme", "globex", "initech", "umbrella"} {
		eng := cluster.NewEngine(front.URL)
		eng.Tenant = tenant
		proof, err := eng.ProveMatMul(ctx, x, w)
		if err != nil {
			log.Fatal(err)
		}
		if err := eng.VerifyMatMul(ctx, x, proof); err != nil {
			log.Fatal(err)
		}
	}

	// ...while one tenant's model lands on one node, twice: the second
	// pass hits that node's warm key cache instead of paying new setups.
	cfg := nn.TinyConfig("cluster-demo", nn.MixerPooling)
	model, err := zkvc.NewModel(cfg, 42)
	if err != nil {
		log.Fatal(err)
	}
	trace := zkvc.Trace{Capture: true}
	model.Forward(model.RandomInput(mrand.New(mrand.NewSource(9))), &trace)
	req := &zkvc.ModelRequest{Backend: zkvc.Groth16, ProveNonlinear: true, Cfg: cfg, Trace: &trace}

	eng := cluster.NewEngine(front.URL)
	eng.Tenant = "acme"
	rep, err := eng.ProveModel(ctx, req).Report()
	if err != nil {
		log.Fatal(err)
	}
	if _, err := eng.ProveModel(ctx, req).Report(); err != nil {
		log.Fatal(err)
	}
	if err := eng.VerifyModel(ctx, rep); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model %q proved twice through the cluster (%d ops), report verified by the issuing node\n",
		cfg.Name, len(rep.Ops))

	var homeNode string
	for i, n := range nodes {
		snap := n.Metrics()
		fmt.Printf("  node %d: crs misses %d, hits %d, model jobs %d\n",
			i, snap.CRSCacheMisses, snap.CRSCacheHits, snap.ModelJobsProved)
		if snap.ModelJobsProved > 0 {
			homeNode = urls[i]
		}
	}

	// Drain the model's home node: new work routes around it; nothing
	// already accepted is dropped.
	coord.Drain(homeNode, true)
	if _, err := eng.ProveMatMul(ctx, x, w); err != nil {
		log.Fatal(err)
	}
	snap := coord.Metrics()
	fmt.Printf("drained %s; cluster totals: routed %d, failovers %d, unroutable %d\n",
		homeNode, snap.Routed, snap.FailedOver, snap.Unroutable)
}
