package cluster_test

import (
	"io"
	mrand "math/rand"
	"net/http"
	"strings"
	"testing"
	"time"

	"zkvc"
	"zkvc/internal/cluster"
	"zkvc/internal/promtext"
	"zkvc/internal/server"
)

// TestCoordinatorPrometheusEndpoint: the coordinator's
// /metrics/prometheus payload validates against the exposition format
// and carries per-node health, disk, and memory as labeled series.
func TestCoordinatorPrometheusEndpoint(t *testing.T) {
	var urls []string
	for i := 0; i < 2; i++ {
		_, ts := newNode(t, nodeConfig(harnessSeed))
		urls = append(urls, ts.URL)
	}
	ccfg := cluster.DefaultConfig()
	ccfg.Nodes = urls
	ccfg.ProbeInterval = 25 * time.Millisecond
	_, coordTS := newCoordinator(t, ccfg)

	// Route one job so the counters move, and give the probe loop a
	// cycle to pull disk/memory from the nodes' /metrics snapshots.
	cc := server.NewClient(coordTS.URL)
	rng := mrand.New(mrand.NewSource(harnessSeed))
	x := zkvc.RandomMatrix(rng, 3, 4, 32)
	w := zkvc.RandomMatrix(rng, 4, 2, 32)
	if _, err := cc.ProveCoalesced(tctx, x, w); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, err := http.Get(coordTS.URL + "/metrics/prometheus")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != promtext.ContentType {
			t.Errorf("Content-Type = %q, want %q", ct, promtext.ContentType)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if err := promtext.Validate(body); err != nil {
			t.Fatalf("payload fails exposition-format validation: %v\n%s", err, body)
		}
		missing := ""
		for _, want := range []string{
			"zkvc_cluster_routed_total ",
			"zkvc_cluster_attest_updates_total ",
			`zkvc_node_healthy{node="`,
			`zkvc_node_disk_bytes{node="`,
			`zkvc_node_mem_bytes{node="`,
			`zkvc_node_mem_bytes{node="` + urls[0] + `"}`,
		} {
			if !strings.Contains(string(body), want) {
				missing = want
				break
			}
		}
		// Memory gauges come from the probe's /metrics pull, so poll
		// until a probe cycle has populated a nonzero value.
		if missing == "" && !strings.Contains(string(body), `zkvc_node_mem_bytes{node="`+urls[0]+`"} 0`) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("payload still missing %q (or mem gauge still 0) at deadline:\n%s", missing, body)
		}
		time.Sleep(25 * time.Millisecond)
	}
}
