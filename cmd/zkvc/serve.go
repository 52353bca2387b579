package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"time"

	"zkvc"
	"zkvc/internal/cluster"
	"zkvc/internal/server"
	"zkvc/internal/wire"
)

func parseBackend(name string) (zkvc.Backend, error) {
	switch name {
	case "groth16":
		return zkvc.Groth16, nil
	case "spartan":
		return zkvc.Spartan, nil
	default:
		return 0, fmt.Errorf("unknown backend %q (want groth16 or spartan)", name)
	}
}

// stringList is a repeatable string flag (e.g. -node url -node url).
type stringList []string

func (s *stringList) String() string { return strings.Join(*s, ",") }
func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

// cmdServe runs the proving service — as a single node, or with
// -coordinator as the router in front of a pool of nodes.
func cmdServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8799", "listen address")
	backendName := fs.String("backend", "spartan", "proof system: groth16 or spartan")
	window := fs.Duration("window", 10*time.Millisecond, "coalescing window")
	maxBatch := fs.Int("max-batch", 16, "flush a batch early at this many pending jobs")
	parallelism := fs.Int("parallelism", 0,
		"process-wide worker budget, the service's only concurrency bound: each running proof holds one token and its hot loops borrow the idle rest (0 = ZKVC_PARALLELISM env or GOMAXPROCS)")
	streamTimeout := fs.Duration("stream-timeout", 30*time.Second,
		"per-frame model-stream write deadline; a client that stops reading this long is treated as gone")
	journalDir := fs.String("journal-dir", "",
		"persist async job journals here so resumable streams survive a restart (empty = in-memory journals only)")
	jobTTL := fs.Duration("job-ttl", 15*time.Minute, "retain each async job's journal at most this long")
	tenantQuota := fs.Int("tenant-quota", 64, "live async jobs one tenant may hold before submissions shed with 429")

	coordinator := fs.Bool("coordinator", false,
		"run as a cluster coordinator: route jobs across -node prover nodes by CRS affinity instead of proving locally")
	var nodes stringList
	fs.Var(&nodes, "node", "prover node base URL (repeatable; coordinator mode)")
	probeInterval := fs.Duration("probe-interval", time.Second, "node health-probe interval (coordinator mode)")
	probeFailures := fs.Int("probe-failures", 2, "consecutive probe failures before a node stops receiving work (coordinator mode)")
	replicas := fs.Int("replicas", 2, "nodes each attestation digest is replicated to for verify failover; f+1 tolerates f failures (coordinator mode)")
	pprofOn := fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the service address")

	announce := fs.String("announce", "",
		"coordinator base URL to register this node with (node mode); requires -advertise")
	advertise := fs.String("advertise", "",
		"base URL the coordinator should reach this node at, e.g. http://10.0.0.7:8799")
	nodeName := fs.String("node-name", "", "stable node identity for the coordinator (default: the -advertise URL)")
	announceInterval := fs.Duration("announce-interval", 2*time.Second,
		"how often to re-send the announce to -announce, so a restarted coordinator learns this node again")
	fs.Parse(args)

	if *coordinator {
		if len(nodes) == 0 {
			fmt.Fprintln(os.Stderr, "serve: -coordinator with no -node flags: nodes must join via /v1/cluster/announce before any job can be routed")
		}
		ccfg := cluster.DefaultConfig()
		ccfg.Nodes = nodes
		ccfg.ProbeInterval = *probeInterval
		ccfg.ProbeFailures = *probeFailures
		ccfg.StreamWriteTimeout = *streamTimeout
		ccfg.ReplicaCount = *replicas
		c, err := cluster.New(ccfg)
		if err != nil {
			fatalf("serve: %v", err)
		}
		defer c.Close()
		fmt.Printf("zkvc cluster coordinator on %s: %d static node(s), probe every %v, %d attestation replicas\n",
			*addr, len(nodes), *probeInterval, ccfg.ReplicaCount)
		if err := serveHTTP(*addr, c.Handler(), *pprofOn); err != nil {
			fatalf("serve: %v", err)
		}
		return
	}

	backend, err := parseBackend(*backendName)
	if err != nil {
		fatalf("serve: %v", err)
	}
	cfg := server.DefaultConfig()
	cfg.Backend = backend
	cfg.Window = *window
	cfg.MaxBatch = *maxBatch
	cfg.Parallelism = *parallelism
	cfg.StreamWriteTimeout = *streamTimeout
	cfg.JournalDir = *journalDir
	cfg.JobTTL = *jobTTL
	cfg.TenantJobQuota = *tenantQuota

	// The node's identity is fixed before the server starts: New wires
	// the attestation replicator from NodeName + ReplicateTo, so both
	// must be known here, not after the announce loop spins up.
	name := *nodeName
	if name == "" {
		name = *advertise
	}
	if *announce != "" {
		if *advertise == "" {
			fatalf("serve: -announce requires -advertise (the URL the coordinator reaches this node at)")
		}
		cfg.NodeName = name
		cfg.ReplicateTo = *announce
	}

	s, err := server.New(cfg)
	if err != nil {
		fatalf("serve: %v", err)
	}
	defer s.Close()
	if *announce != "" {
		go announceLoop(s, *announce, name, *advertise, *announceInterval)
	}
	fmt.Printf("zkvc proving service on %s: backend %s, window %v, max batch %d, parallelism %d\n",
		*addr, backend, *window, *maxBatch, zkvc.Parallelism())
	if err := serveHTTP(*addr, s.Handler(), *pprofOn); err != nil {
		fatalf("serve: %v", err)
	}
}

// serveHTTP serves h on addr, optionally with the pprof surface mounted
// in front.
func serveHTTP(addr string, h http.Handler, pprofOn bool) error {
	if pprofOn {
		h = withPprof(h)
	}
	hs := &http.Server{Addr: addr, Handler: h}
	return hs.ListenAndServe()
}

// withPprof mounts net/http/pprof under /debug/pprof/ in front of h.
// The handlers are registered explicitly — the service never serves
// http.DefaultServeMux, so the profiling surface exists only behind
// the -pprof flag.
func withPprof(h http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", h)
	return mux
}

// announceLoop registers the node with a coordinator and re-sends the
// idempotent announce every interval, so a restarted coordinator learns
// the node again. The node's health and load reach the coordinator
// through its probe of /metrics, not through this loop.
func announceLoop(s *server.Server, coordinatorURL, name, advertise string, interval time.Duration) {
	c := server.NewClient(coordinatorURL)
	snap := s.Metrics()
	a := snap.Announce(name, advertise)
	for registered := false; ; time.Sleep(interval) {
		if err := c.Announce(context.Background(), a); err != nil {
			fmt.Fprintf(os.Stderr, "zkvc: announce to %s failed (will retry): %v\n", coordinatorURL, err)
			registered = false
		} else if !registered {
			fmt.Printf("registered with coordinator %s as %q\n", coordinatorURL, name)
			registered = true
		}
	}
}

// cmdClient submits a proving job to a running service (or a cluster
// coordinator — same surface), verifies the result locally, and stores
// the response in the wire format.
func cmdClient(args []string) {
	fs := flag.NewFlagSet("client", flag.ExitOnError)
	serverURL := fs.String("server", "http://localhost:8799", "proving service base URL")
	xPath := fs.String("x", "", "public input matrix (required)")
	wPath := fs.String("w", "", "private weight matrix (required)")
	out := fs.String("out", "proof.bin", "write the wire-encoded prove response here")
	tenant := fs.String("tenant", "", "tenant key: jobs only coalesce with jobs of the same tenant")
	fs.Parse(args)
	if *xPath == "" || *wPath == "" {
		fatalf("client: -x and -w are required")
	}
	x, err := readMatrix(*xPath)
	if err != nil {
		fatalf("client: %v", err)
	}
	w, err := readMatrix(*wPath)
	if err != nil {
		fatalf("client: %v", err)
	}

	c := server.NewClient(*serverURL)
	c.Tenant = *tenant
	pr, err := c.ProveCoalesced(context.Background(), x, w)
	if err != nil {
		fatalf("client: %v", err)
	}
	if err := zkvc.VerifyMatMulBatch(pr.Xs, pr.Batch); err != nil {
		fatalf("client: batch does not verify: %v", err)
	}
	if !pr.Xs[pr.Index].Equal(x) || !pr.Batch.Ys[pr.Index].Equal(zkvc.MatMul(x, w)) {
		fatalf("client: batch index %d does not hold our statement", pr.Index)
	}
	fmt.Printf("batch proof OK: %d statements coalesced, ours is #%d, backend %s, %d bytes\n",
		len(pr.Xs), pr.Index, pr.Batch.Backend, pr.Batch.SizeBytes())
	if err := os.WriteFile(*out, wire.EncodeProveResponse(pr), 0o644); err != nil {
		fatalf("client: %v", err)
	}
	fmt.Printf("wrote response to %s\n", *out)
}
