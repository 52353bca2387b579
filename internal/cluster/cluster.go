// Package cluster scales the proving service out: a coordinator fronts
// a pool of ordinary prover nodes (internal/server instances), routing
// every job by CRS affinity so identical circuits (gadget shapes,
// replayed inputs) keep landing on the node whose setup cache is
// already warm.
//
// Routing is rendezvous (highest-random-weight) hashing on the same key
// the nodes coalesce and cache by — matmul: (tenant, shape, circuit
// options); model: (tenant, backend, trace circuit structure) — so a
// tenant's repeated circuits hit one node's Groth16 CRS cache instead of
// every node setting each one up, and adding a node only remaps the
// 1/n of the keyspace it takes over.
//
// Forwarding is one table (forward.go): a row per endpoint of the node
// surface, and one function that relays every row. Each row is the
// node's own server.Routes row — body bound, model slot and decoder,
// run by the same prelude — so the coordinator never forwards what a
// node would reject, and bounds buffered model bodies exactly as a node
// does. The finder column names the candidates: the affinity rank
// for prove routes and submissions, the issuer then the digest's
// replicas for verifies, the job's home node for job exchanges. The
// retry column says which answers leave the exchange unstarted — a
// transport error always, a 503 on prove routes, a 503 or 429 on a
// submission — and only those move to the next candidate. The stream
// column commits a frame stream to its node on the first frame, after
// which a node death is an in-stream error frame. The accepted column
// records a submitted job's home node and forgets a canceled one.
// Bodies are forwarded byte for byte and the Zkvc-Tenant header
// verbatim: a dropped header would silently merge tenants' coalescing
// windows on the node.
//
// A periodic /metrics-based probe is the one source of a node's health
// and load: it marks unreachable nodes unhealthy, and they stop
// receiving new work but finish what they accepted (forwarding is
// synchronous, so nothing is queued at the coordinator), which is also
// exactly what Drain does on demand.
//
// Verify endpoints route by the same affinity as their prove
// counterparts, so a resubmitted proof finds the node whose issued log
// attests it. That affinity is backed by replication: every node pushes
// its new (and withdrawn) attestation digests to the coordinator, which
// fans each update out to the digest's ReplicaCount-node replica set,
// so the policy survives f node failures with ReplicaCount = f+1 —
// when the issuing node is unreachable, verification fails over to a
// replica that holds the attestation (and re-checks the proof
// cryptographically) instead of relaying a dead node's silence as "not
// issued".
package cluster

import (
	"context"
	"crypto/sha256"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"zkvc"
	"zkvc/internal/server"
	"zkvc/internal/wire"
)

// Config tunes a coordinator. The zero value is not valid; use
// DefaultConfig as a base.
type Config struct {
	// Nodes are the static prover-node base URLs. More can join at
	// runtime through /v1/cluster/announce.
	Nodes []string
	// Opts are the deployment-wide circuit options, folded into matmul
	// affinity keys so they match the nodes' CRS cache keys.
	Opts zkvc.Options
	// ProbeInterval is how often every node's /metrics is probed.
	// 0 means 1s.
	ProbeInterval time.Duration
	// ProbeFailures is how many consecutive probe failures mark a node
	// unhealthy. 0 means 2.
	ProbeFailures int
	// StreamWriteTimeout bounds one relayed model-stream frame write
	// toward the client, exactly like server.Config.StreamWriteTimeout.
	// 0 means 30s.
	StreamWriteTimeout time.Duration
	// ReplicaCount is how many nodes beyond the issuer each attestation
	// digest is replicated to. To tolerate f simultaneous node failures
	// set it to f+1: even with the issuer and f-1 replicas down, one
	// replica still vouches. 0 means 2 (f = 1).
	ReplicaCount int
}

// DefaultConfig returns a production-shaped coordinator configuration.
func DefaultConfig() Config {
	return Config{
		Opts:               zkvc.DefaultOptions(),
		ProbeInterval:      time.Second,
		ProbeFailures:      2,
		StreamWriteTimeout: 30 * time.Second,
		ReplicaCount:       2,
	}
}

// probeTimeout bounds one probe round trip.
const probeTimeout = 5 * time.Second

// node is one prover in the pool. Identity (name, url) is immutable
// after registration; everything observable is atomic so the probe
// loop, the forwarding paths and /metrics never contend.
type node struct {
	name string
	url  string

	// probe is the health-check client (bounded timeout); forward is the
	// proving-path client (no timeout — a model stream lasts as long as
	// proving does, and contexts handle cancellation).
	probe   *server.Client
	forward *http.Client

	workers atomic.Int64

	// probeOK is the probe loop's verdict and only the probe moves it.
	// drained belongs to the operator (Drain / the drain endpoint) and
	// only the operator clears it. A node takes new work only when the
	// probe finds it alive and the operator has not drained it.
	probeOK atomic.Bool
	drained atomic.Bool
	fails   atomic.Int64

	// queueUnits is the node's accepted-but-unproved work as of the last
	// probe (matmul jobs + model ops).
	queueUnits atomic.Int64
	// diskBytes and memBytes are the node's on-disk state (journals plus
	// issued log) and live heap, as of its last probe — the operator's
	// per-node capacity gauges.
	diskBytes atomic.Uint64
	memBytes  atomic.Uint64

	routed     atomic.Int64
	failedOver atomic.Int64
}

func (n *node) healthy() bool { return n.probeOK.Load() && !n.drained.Load() }

// heard records a successful probe: the node is alive and carries the
// load its snapshot reports — queued work units (matmul statements plus
// model ops, the sum server.Config.QueueCap bounds), on-disk state and
// live heap.
func (n *node) heard(snap *server.Snapshot) {
	n.fails.Store(0)
	n.probeOK.Store(true)
	n.queueUnits.Store(snap.QueueDepth + snap.ModelOpsQueued)
	n.diskBytes.Store(snap.DiskBytes)
	n.memBytes.Store(snap.HeapAllocBytes)
}

// Coordinator fronts the node pool. Create with New, serve Handler,
// Close to stop the probe loop.
type Coordinator struct {
	cfg     Config
	metrics clusterMetrics

	mu    sync.RWMutex
	nodes []*node

	// modelSlots bounds concurrent model-endpoint requests while their
	// bodies are buffered here — the same protection the nodes have,
	// because routing does not make the coordinator's memory any less
	// finite.
	modelSlots server.ModelSlots

	// jobRoutes remembers which node each accepted async job lives on,
	// so status/stream/cancel exchanges find the journal again.
	jobRoutes *jobRouteTable

	stop chan struct{}
	wg   sync.WaitGroup
}

// New validates the configuration and starts the health-probe loop.
func New(cfg Config) (*Coordinator, error) {
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.ProbeFailures <= 0 {
		cfg.ProbeFailures = 2
	}
	if cfg.StreamWriteTimeout <= 0 {
		cfg.StreamWriteTimeout = 30 * time.Second
	}
	if cfg.ReplicaCount <= 0 {
		cfg.ReplicaCount = 2
	}
	c := &Coordinator{
		cfg:        cfg,
		modelSlots: server.NewModelSlots(),
		jobRoutes:  newJobRouteTable(),
		stop:       make(chan struct{}),
	}
	for _, raw := range cfg.Nodes {
		if _, err := c.addNode(raw, raw, 0); err != nil {
			return nil, err
		}
	}
	c.wg.Add(1)
	go c.probeLoop()
	return c, nil
}

// Close stops the probe loop. In-flight forwarded requests are not
// interrupted (their handlers own them).
func (c *Coordinator) Close() {
	close(c.stop)
	c.wg.Wait()
}

// addNode registers a node. Names are the rendezvous identity: a known
// name re-announcing at the same URL refreshes only its capacity hint
// instead of adding a duplicate. Health stays the probe's verdict and a
// drain the operator's, so an unreachable node cannot announce itself
// back into rotation.
func (c *Coordinator) addNode(name, rawURL string, workers int) (*node, error) {
	u, err := url.Parse(rawURL)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return nil, fmt.Errorf("cluster: node URL %q is not an absolute http(s) URL", rawURL)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range c.nodes {
		if n.name == name {
			if n.url != rawURL {
				return nil, fmt.Errorf("cluster: node %q re-announced with URL %q, registered at %q (restart the coordinator to move a node)", name, rawURL, n.url)
			}
			n.workers.Store(int64(workers))
			return n, nil
		}
	}
	n := &node{
		name:    name,
		url:     u.String(),
		probe:   server.NewClient(rawURL),
		forward: &http.Client{},
	}
	n.probe.HTTP = &http.Client{Timeout: probeTimeout}
	n.workers.Store(int64(workers))
	// A freshly registered node is presumed healthy until the probe says
	// otherwise — routing must work before the first probe round.
	n.probeOK.Store(true)
	c.nodes = append(c.nodes, n)
	return n, nil
}

// lookup finds a node by name.
func (c *Coordinator) lookup(name string) *node {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, n := range c.nodes {
		if n.name == name {
			return n
		}
	}
	return nil
}

// snapshotNodes copies the node list out from under the lock.
func (c *Coordinator) snapshotNodes() []*node {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]*node(nil), c.nodes...)
}

// Drain marks a node as (not) accepting new work. A draining node keeps
// finishing the jobs already forwarded to it — the coordinator holds no
// queue of its own, so nothing is dropped. Returns false for an unknown
// node name.
func (c *Coordinator) Drain(name string, drain bool) bool {
	n := c.lookup(name)
	if n == nil {
		return false
	}
	n.drained.Store(drain)
	return true
}

// probeLoop polls every node's /metrics. A reachable node is healthy
// and reports its queue depth; ProbeFailures consecutive failures mark
// it unhealthy (drained of new work) until a probe succeeds again.
func (c *Coordinator) probeLoop() {
	defer c.wg.Done()
	ticker := time.NewTicker(c.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
		}
		nodes := c.snapshotNodes()
		var wg sync.WaitGroup
		for _, n := range nodes {
			wg.Add(1)
			go func(n *node) {
				defer wg.Done()
				snap, err := n.probe.Metrics(context.Background())
				if err != nil {
					if n.fails.Add(1) >= int64(c.cfg.ProbeFailures) {
						n.probeOK.Store(false)
					}
					return
				}
				n.heard(&snap)
			}(n)
		}
		wg.Wait()
	}
}

// rank orders every registered node by rendezvous score for key,
// highest first: position 0 is the job's home, the rest are its
// failover order. The score is sha256(key ‖ 0x00 ‖ name), so each
// node's slice of the keyspace is stable under pool changes — adding a
// node steals only the keys it now wins.
func (c *Coordinator) rank(key []byte) []*node {
	nodes := c.snapshotNodes()
	type scored struct {
		n     *node
		score [sha256.Size]byte
	}
	ranked := make([]scored, len(nodes))
	for i, n := range nodes {
		h := sha256.New()
		h.Write(key)
		h.Write([]byte{0})
		h.Write([]byte(n.name))
		h.Sum(ranked[i].score[:0])
		ranked[i].n = n
	}
	sort.Slice(ranked, func(i, j int) bool {
		for b := 0; b < sha256.Size; b++ {
			if ranked[i].score[b] != ranked[j].score[b] {
				return ranked[i].score[b] > ranked[j].score[b]
			}
		}
		return ranked[i].n.name < ranked[j].n.name
	})
	out := make([]*node, len(ranked))
	for i, s := range ranked {
		out[i] = s.n
	}
	return out
}

// healthyRanked is rank filtered to nodes currently taking new work.
func (c *Coordinator) healthyRanked(key []byte) []*node {
	ranked := c.rank(key)
	out := ranked[:0]
	for _, n := range ranked {
		if n.healthy() {
			out = append(out, n)
		}
	}
	return out
}

// maxControlBodyBytes bounds control-plane bodies (the announce) and
// the node answers buffered for a failover message.
const maxControlBodyBytes = 1 << 16

// announceRoute is the coordinator's own control route with a body.
// Attestation updates use the node's row, server.Routes.Attest.
var announceRoute = server.Route{Pattern: "POST /v1/cluster/announce", Limit: maxControlBodyBytes, Decode: server.Decoder(wire.DecodeNodeAnnounce)}

// Handler returns the coordinator's HTTP surface: the forwarding table,
// then the cluster control plane.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	for i := range routes {
		rt := &routes[i]
		rt.Mount(mux, c.modelSlots, func(w http.ResponseWriter, r *http.Request, in server.Input) { c.forward(w, r, in, rt) })
	}
	announceRoute.Mount(mux, c.modelSlots, c.handleAnnounce)
	server.Routes.Attest.Mount(mux, c.modelSlots, c.handleAttest)
	mux.HandleFunc("POST /v1/cluster/drain", c.handleDrain)
	// The coordinator counts no write errors of its own.
	server.MountMetrics(mux, c.Metrics, func(error) {})
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	return mux
}

// ListenAndServe serves the handler on addr until the listener fails.
func (c *Coordinator) ListenAndServe(addr string) error {
	hs := &http.Server{Addr: addr, Handler: c.Handler()}
	return hs.ListenAndServe()
}

func (c *Coordinator) handleAnnounce(w http.ResponseWriter, _ *http.Request, in server.Input) {
	a := in.Msg.(*wire.NodeAnnounce)
	if _, err := c.addNode(a.Name, a.URL, a.Workers); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	c.metrics.announces.Add(1)
	w.WriteHeader(http.StatusOK)
}

// handleDrain is the operator lever behind Drain:
//
//	POST /v1/cluster/drain?node=<name>&drain=true|false
//
// An absent or empty drain value drains; a value strconv.ParseBool
// rejects is a 400.
func (c *Coordinator) handleDrain(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	name := q.Get("node")
	if name == "" {
		http.Error(w, "missing node parameter", http.StatusBadRequest)
		return
	}
	drain := true
	if v := q.Get("drain"); v != "" {
		var err error
		if drain, err = strconv.ParseBool(v); err != nil {
			http.Error(w, fmt.Sprintf("drain parameter %q is not a boolean", v), http.StatusBadRequest)
			return
		}
	}
	if !c.Drain(name, drain) {
		http.Error(w, fmt.Sprintf("unknown node %q", name), http.StatusNotFound)
		return
	}
	w.WriteHeader(http.StatusOK)
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	healthy := 0
	nodes := c.snapshotNodes()
	for _, n := range nodes {
		if n.healthy() {
			healthy++
		}
	}
	if healthy == 0 {
		http.Error(w, fmt.Sprintf("no healthy prover nodes (%d registered)", len(nodes)),
			http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintf(w, "ok: %d/%d nodes healthy\n", healthy, len(nodes))
}
