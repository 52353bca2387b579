// Package server exposes zkVC proving and verification as a concurrent
// HTTP service. It is the system the paper's batching argument calls for:
// per-proof overhead (Groth16 CRS generation, Spartan commitments)
// dominates small matmuls, so the service folds requests arriving close
// together into a single ProveBatchContext call — one circuit, one
// setup, one proof for the whole window.
//
// Every proving request runs the same way: admit charges its units to
// the QueueCap ledger or sheds it, and the admitted work holds one token
// of the process-wide parallel budget while it proves — on the request
// goroutine for the direct matmul routes, on a goroutine of its own
// (spawn) for a flushed coalescing window or a model job. The budget is
// the service's only concurrency bound: a lone proof's inner loops
// borrow the idle tokens, so the independent ops of a model fan out
// exactly like batch statements. A model job — a captured transformer
// forward pass (nn.Trace), the paper's end-to-end Tables III/IV
// workload — streams one proof per traced operation back as it
// finishes, so a 12-block model never buffers its whole report
// server-side. All work shares the Groth16 key cache (zkml.KeyCache,
// keyed by circuit structure digest: gadget circuits are set up once per
// shape and a replayed input hits on every op, while each matmul circuit
// is bound to its operands and set up per input) and the issued-proof
// log.
//
// The endpoints are the rows of Routes (route.go), each with its request
// and answer; besides them a node serves GET /healthz and, through
// MountMetrics, GET /metrics and GET /metrics/prometheus: two encodings
// (JSON, Prometheus text) of one Snapshot. Adding a metric means adding
// one field to Snapshot with a json and a prom tag.
//
// # Durable state
//
// With Config.JournalDir set the service keeps two kinds of file there,
// both chainlogs (chainlog.go): one write-ahead journal per submitted
// async job (journal.go) and the issued-proof log (issued.go). A
// chainlog is hash-chained, fsynced per append and cut back to its
// intact prefix on startup. Every model job, attached to its request or
// submitted, has a journal (memory-only for an attached one), and a
// report has one attestation point: the append that journals its last
// op attests it under the journal lock, before any stream can see that
// frame, so a client can verify the moment it holds every op.
//
// # Tenancy
//
// A coalesced response carries the whole batch: every X in the window and
// every Y inside the batch proof. That is inherent to the paper's batching
// identity (one proof covers all statements, and verifying it needs all
// public inputs) — so everyone in a batch sees everyone else's inputs and
// outputs, and enough (X, Y) pairs reconstruct another client's private W.
// Batches are therefore partitioned by the Zkvc-Tenant request header:
// jobs only ever coalesce with jobs carrying the same tenant value.
// The service does not authenticate that header — a client can claim any
// tenant — so the isolation is only real when a fronting proxy that
// terminates authentication sets (and overwrites) Zkvc-Tenant from the
// verified principal. Without such a proxy, treat the whole deployment
// as one trust domain, exactly as for requests without the header, which
// share the default pool.
package server

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"zkvc"
	"zkvc/internal/parallel"
	"zkvc/internal/wire"
	"zkvc/internal/zkml"
)

// Config tunes the proving service. The zero value is not valid; use
// DefaultConfig as a base.
type Config struct {
	Backend zkvc.Backend
	Opts    zkvc.Options

	// Window is how long a tenant's coalescing window stays open after
	// its first job before the window is proved.
	Window time.Duration
	// MaxBatch flushes a window early once it holds this many jobs.
	MaxBatch int
	// Parallelism resizes the PROCESS-WIDE worker budget every proof's
	// hot loops draw from (zkvc.SetParallelism) — by design, because
	// budget sharing is the point. The budget is the service's only
	// concurrency bound: each admitted proof (a direct request, a
	// coalesced window, a model job) holds a token while it runs and its
	// inner loops borrow only the tokens left over, so N concurrent
	// proofs on an N-token budget run side by side, each sequentially,
	// while a lone proof fans out across every token. Setting it
	// therefore also affects library-level proving in the same process;
	// Close restores the budget that was in effect when New resized it.
	// 0 leaves the current budget (ZKVC_PARALLELISM env or GOMAXPROCS)
	// untouched.
	Parallelism int
	// QueueCap bounds admitted-but-unproved proving work, in units: one
	// per matmul statement — coalesced (parked in a window or proving)
	// or direct (/v1/prove/matmul, each pair of /v1/prove/batch) — and
	// one per model op. Work past it is shed with 503 (429 on
	// POST /v1/jobs).
	QueueCap int
	// StreamWriteTimeout bounds how long one model-stream frame write may
	// wait on the client. Without it, a client that connects and never
	// reads wedges its job (and the job's parallel-budget token and queue
	// units) forever — the frame write blocks on full socket buffers and
	// the request context only ends on disconnect. Past the deadline the
	// write fails, the connection is torn down and the job cancels like
	// any other disconnect. 0 means 30s.
	StreamWriteTimeout time.Duration
	// JobTTL is how long an async job and its journal are retained after
	// submission before the reaper deletes them (status turns 404, the
	// report's attestation is withdrawn). Clients may ask for a shorter
	// TTL per job; requests for a longer one are clamped to this cap.
	// 0 means 15 minutes.
	JobTTL time.Duration
	// TenantJobQuota bounds how many async jobs one tenant may hold live
	// (queued, running, or retained) at once; past it submissions are
	// rejected with 429. 0 means 64.
	TenantJobQuota int
	// JournalDir, when set, persists each async job's journal to
	// <JournalDir>/<id>.journal so resumable streams survive a server
	// restart; New recovers every journal found there. It also holds the
	// durable issued-proof log (<JournalDir>/issued.log): every sync-path
	// attestation is fsynced there before the response is sent and
	// recovered on restart, so /v1/verify keeps vouching for proofs
	// issued by earlier runs. Empty keeps journals and attestations in
	// memory only (they still survive client reconnects, not restarts).
	JournalDir string
	// NodeName is this node's stable cluster identity (the name it
	// announces under). It labels replicated attestation updates so the
	// coordinator can exclude the issuer from a digest's replica set.
	// Empty outside a cluster.
	NodeName string
	// ReplicateTo, when set together with NodeName, is the coordinator
	// base URL this node replicates attestation digests to; the
	// coordinator fans them out to peer nodes so cluster verify requests
	// fail over to a replica instead of reading a dead issuer's silence
	// as "not issued". Replication is asynchronous and best-effort —
	// failures are counted (replication_errors), never block proving.
	ReplicateTo string
	// ReapInterval is how often the reaper scans for expired jobs.
	// 0 means 1 second.
	ReapInterval time.Duration
	// Seed makes proving deterministic for tests. 0 (the default) keeps
	// the provers on crypto/rand, which production deployments must: a
	// guessable seed lets anyone reconstruct the Groth16 CRS toxic waste
	// and forge proofs for every circuit this service sets up.
	Seed int64
}

// TenantHeader names the request header that keys batch coalescing. The
// service takes the value on faith: a fronting proxy that terminates
// authentication must set — and overwrite, never forward — this header
// from the verified principal, or the partitioning keeps honest clients
// apart but stops nobody (see the package comment on tenancy).
const TenantHeader = "Zkvc-Tenant"

// DefaultConfig returns a production-shaped configuration: the full zkVC
// circuit and a short coalescing window, on the process's parallel
// budget.
func DefaultConfig() Config {
	return Config{
		Backend:            zkvc.Spartan,
		Opts:               zkvc.DefaultOptions(),
		Window:             10 * time.Millisecond,
		MaxBatch:           16,
		QueueCap:           1024,
		JobTTL:             15 * time.Minute,
		TenantJobQuota:     64,
		ReapInterval:       time.Second,
		StreamWriteTimeout: 30 * time.Second,
	}
}

// maxShapes bounds the Groth16 key cache model ops share
// (zkml.KeyCache, LRU eviction): each distinct model-op circuit costs a
// trusted setup and keeps its keys resident, and clients pick models
// freely.
const maxShapes = 64

// ErrClosed is returned for jobs submitted after Close.
var ErrClosed = errors.New("server: shutting down")

// errQueueFull sheds load when the QueueCap ledger is full.
var errQueueFull = errors.New("server: queue full")

// job is one coalesced matmul statement waiting for its window's proof.
type job struct {
	tenant string
	x, w   *zkvc.Matrix
	resp   chan jobResult
}

type jobResult struct {
	resp *wire.ProveResponse
	err  error
}

// window is one tenant's open coalescing window and the timer that
// flushes it when Window runs out.
type window struct {
	jobs  []*job
	timer *time.Timer
}

// Server is the proving service. Create it with New, serve s.Handler(),
// and Close it to finish admitted work.
type Server struct {
	cfg     Config
	metrics *metrics
	keys    *zkml.KeyCache
	issued  *issuedLog

	// replicated holds attestation digests peer nodes issued, ingested
	// via POST /v1/cluster/attest; the verify handlers fall back to it
	// when the local log has no attestation, which is what lets cluster
	// verify fail over to this node after the issuer dies. In-memory
	// only: the peers' durable logs are the source of truth.
	replicated *issuedLog

	// attestCh buffers outbound attestation updates for the replicator
	// goroutine; attestStop ends it on Close. A full buffer drops the
	// update (counted), never blocks a prove response.
	attestCh   chan *wire.AttestationUpdate
	attestStop chan struct{}

	// windows holds each tenant's open coalescing window, under winMu.
	winMu   sync.Mutex
	windows map[string]*window

	// modelSlots bounds concurrent model-endpoint requests while they
	// buffer and decode their (large) bodies.
	modelSlots ModelSlots

	// jobs is the async durable-job store (journals, TTLs, quotas);
	// reapStop ends its reaper goroutine on Close.
	jobs     *jobStore
	reapStop chan struct{}

	// mu guards closed: admit holds it shared, Close exclusively, so
	// nothing is admitted once Close has begun. wg counts admitted work
	// that is running (or parked for a budget token).
	mu     sync.RWMutex
	closed bool
	wg     sync.WaitGroup

	// prevParallelism is the budget New replaced when Config.Parallelism
	// was set (0 = New left the budget alone); Close restores it, but
	// only while installedPool is still the process default — if anyone
	// resized the budget after New, their setting wins and Close leaves
	// it alone.
	prevParallelism int
	installedPool   *parallel.Pool

	seedCtr atomic.Int64
}

// New validates the configuration and starts the background goroutines
// (the job reaper and, in a cluster, the attestation replicator). The
// service accepts work immediately.
func New(cfg Config) (*Server, error) {
	if !cfg.Opts.CRPC {
		return nil, fmt.Errorf("server: coalesced proving requires the CRPC identity (got %v)", cfg.Opts)
	}
	if cfg.Backend != zkvc.Groth16 && cfg.Backend != zkvc.Spartan {
		return nil, fmt.Errorf("server: unknown backend %d", cfg.Backend)
	}
	if cfg.Window <= 0 {
		return nil, fmt.Errorf("server: coalescing window must be positive")
	}
	if cfg.MaxBatch <= 0 {
		return nil, fmt.Errorf("server: max batch must be positive")
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 1024
	}
	if cfg.StreamWriteTimeout <= 0 {
		cfg.StreamWriteTimeout = 30 * time.Second
	}
	if cfg.JobTTL <= 0 {
		cfg.JobTTL = 15 * time.Minute
	}
	if cfg.TenantJobQuota <= 0 {
		cfg.TenantJobQuota = 64
	}
	if cfg.ReapInterval <= 0 {
		cfg.ReapInterval = time.Second
	}
	// The issued log opens (and replays) before anything else can fail:
	// it is the attestation store every prove handler appends to, and an
	// unreadable one is a refuse-to-start error, not a degraded mode.
	issued := newIssuedLog(issuedLogCap)
	if cfg.JournalDir != "" {
		var err error
		if issued, err = openIssuedLog(issuedLogCap, cfg.JournalDir); err != nil {
			return nil, err
		}
	}
	prevParallelism := 0
	var installedPool *parallel.Pool
	if cfg.Parallelism > 0 {
		prevParallelism = parallel.DefaultSize()
		parallel.SetDefaultSize(cfg.Parallelism)
		installedPool = parallel.Default()
	}
	s := &Server{
		cfg:        cfg,
		metrics:    &metrics{},
		keys:       zkml.NewKeyCache(maxShapes, cfg.Seed),
		issued:     issued,
		replicated: newIssuedLog(issuedLogCap),
		windows:    make(map[string]*window),

		attestCh:   make(chan *wire.AttestationUpdate, 1024),
		attestStop: make(chan struct{}),

		modelSlots: NewModelSlots(),

		jobs:     newJobStore(),
		reapStop: make(chan struct{}),

		prevParallelism: prevParallelism,
		installedPool:   installedPool,
	}
	if cfg.JournalDir != "" {
		if err := s.recoverJobs(); err != nil {
			s.issued.close()
			return nil, err
		}
	}
	s.wg.Add(1)
	go s.reaper()
	if cfg.ReplicateTo != "" && cfg.NodeName != "" {
		s.wg.Add(1)
		go s.replicator()
	}
	return s, nil
}

// Close refuses new admissions, flushes every open coalescing window,
// and waits for admitted work to finish.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.reapStop)
	close(s.attestStop)
	s.mu.Unlock()
	s.winMu.Lock()
	for tenant := range s.windows {
		s.flushLocked(tenant)
	}
	s.winMu.Unlock()
	s.wg.Wait()
	// Admitted jobs finished above; release journal file handles so a
	// successor server can recover the directory.
	s.jobs.closeAll()
	s.issued.close()
	if s.prevParallelism > 0 && parallel.Default() == s.installedPool {
		parallel.SetDefaultSize(s.prevParallelism)
	}
}

// newProver returns a fresh prover for one coalesced batch.
// MatMulProver is not safe for concurrent use, so every batch gets its
// own. Provers stay on their crypto/rand default unless the configuration
// asks for test determinism, in which case each gets a unique derived
// seed so concurrent proofs still differ.
func (s *Server) newProver() *zkvc.MatMulProver {
	p := zkvc.NewMatMulProver(s.cfg.Backend, s.cfg.Opts)
	if s.cfg.Seed != 0 {
		p.Reseed(s.cfg.Seed + s.seedCtr.Add(1))
	}
	return p
}

// newDirectProver is the prover for the Engine-shape direct endpoints
// (/v1/prove/matmul, /v1/prove/batch). Unlike newProver it reseeds with
// the configured seed exactly — no per-request counter — because
// determinism is those endpoints' contract: a seeded service must
// produce byte-identical proofs to zkvc.Local with the same seed, which
// the conformance suite pins across every Engine implementation. With
// Seed 0 (production) the prover stays on crypto/rand.
func (s *Server) newDirectProver() *zkvc.MatMulProver {
	p := zkvc.NewMatMulProver(s.cfg.Backend, s.cfg.Opts)
	if s.cfg.Seed != 0 {
		p.Reseed(s.cfg.Seed)
	}
	return p
}

// admit is the one admission check of proving work. It charges units to
// the QueueCap ledger and to gauge, the kind's share of it in Snapshot,
// or returns errQueueFull (ErrClosed after Close), counting the refusal
// in admission_rejects. The one atomic add is what keeps concurrent
// admissions of every kind from jointly overshooting the cap, and the
// cap is what keeps a burst of distinct tenants from parking unbounded
// decoded matrices in open windows.
// Admitted, it calls start — which must not block — while Close cannot
// begin, so every admitted unit is running, parked in a window Close
// flushes, or counted in s.wg. release gives the units back once their
// work is proved or dropped.
func (s *Server) admit(units int, gauge *atomic.Int64, start func()) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	if s.metrics.queueUnits.Add(int64(units)) > int64(s.cfg.QueueCap) {
		s.metrics.queueUnits.Add(-int64(units))
		s.metrics.admissionRejects.Add(1)
		return errQueueFull
	}
	gauge.Add(int64(units))
	start()
	return nil
}

// release returns units admit charged to gauge and the ledger.
func (s *Server) release(units int, gauge *atomic.Int64) {
	gauge.Add(-int64(units))
	s.metrics.queueUnits.Add(-int64(units))
}

// spawn runs admitted work on a goroutine of its own, counted in s.wg,
// holding one budget token for the whole run: with every token taken
// the per-proof loops run sequentially, and a lone run borrows the idle
// tokens for its own hot loops. The pool is resolved per run — not
// captured at construction — so if the embedder resizes the budget
// (zkvc.SetParallelism) new work moves to the new pool together with the
// loops inside it, and each Acquire/Release pair lands on one pool.
// Callers hold the admission lock or winMu, so Close's wait sees it.
// The QueueCap ledger bounds how many spawned runs wait for a token:
// each holds at least one admitted unit.
func (s *Server) spawn(run func()) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		pool := parallel.Default()
		pool.Acquire()
		defer pool.Release()
		run()
	}()
}

// submitJob admits one matmul statement into its tenant's coalescing
// window and waits for the window's proof. Jobs only coalesce with jobs
// of the same tenant.
func (s *Server) submitJob(tenant string, x, w *zkvc.Matrix) (*wire.ProveResponse, error) {
	j := &job{tenant: tenant, x: x, w: w, resp: make(chan jobResult, 1)}
	if err := s.admit(1, &s.metrics.queueDepth, func() { s.enqueue(j) }); err != nil {
		return nil, err
	}
	r := <-j.resp
	return r.resp, r.err
}

// enqueue adds an admitted job to its tenant's window. The first job of
// a window arms the window's own timer; the job that fills it to
// MaxBatch flushes it at once. A timer that fires after its window was
// flushed finds another window (or none) in the map and does nothing.
func (s *Server) enqueue(j *job) {
	s.winMu.Lock()
	defer s.winMu.Unlock()
	w := s.windows[j.tenant]
	if w == nil {
		w = &window{}
		w.timer = time.AfterFunc(s.cfg.Window, func() {
			s.winMu.Lock()
			defer s.winMu.Unlock()
			if s.windows[j.tenant] == w {
				s.flushLocked(j.tenant)
			}
		})
		s.windows[j.tenant] = w
	}
	w.jobs = append(w.jobs, j)
	if len(w.jobs) >= s.cfg.MaxBatch {
		s.flushLocked(j.tenant)
	}
}

// flushLocked closes tenant's window and proves it. winMu is held.
func (s *Server) flushLocked(tenant string) {
	w := s.windows[tenant]
	delete(s.windows, tenant)
	w.timer.Stop()
	s.spawn(func() { s.proveBatch(w.jobs) })
}

func (s *Server) proveBatch(jobs []*job) {
	pairs := make([][2]*zkvc.Matrix, len(jobs))
	xs := make([]*zkvc.Matrix, len(jobs))
	for i, j := range jobs {
		pairs[i] = [2]*zkvc.Matrix{j.x, j.w}
		xs[i] = j.x
	}
	proof, err := s.newProver().ProveBatchContext(context.Background(), pairs...)
	s.release(len(jobs), &s.metrics.queueDepth)
	if err != nil {
		s.metrics.proveErrors.Add(1)
		for _, j := range jobs {
			j.resp <- jobResult{err: err}
		}
		return
	}
	s.metrics.batchesProved.Add(1)
	s.metrics.requestsProved.Add(int64(len(jobs)))
	s.metrics.recordTimings(proof.Timings)
	if s.cfg.Backend == zkvc.Groth16 {
		// Attest Groth16 batches so /v1/verify/batch can tell this
		// service's responses from foreign-setup forgeries: one fsync
		// for the whole batch, then one replication update.
		s.replicate(s.issued.addAll(issuedBatchDigests(xs, proof, len(jobs))), nil)
	}
	for i, j := range jobs {
		j.resp <- jobResult{resp: &wire.ProveResponse{Index: i, Xs: xs, Batch: proof}}
	}
}

// Handler returns the HTTP surface of the service.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	Routes.Prove.Mount(mux, s.modelSlots, s.handleProve)
	Routes.ProveMatMul.Mount(mux, s.modelSlots, s.handleProveMatMul)
	Routes.ProveBatch.Mount(mux, s.modelSlots, s.handleProveBatch)
	Routes.ProveModel.Mount(mux, s.modelSlots, s.handleProveModel)
	Routes.SubmitJob.Mount(mux, s.modelSlots, s.handleSubmitJob)
	Routes.JobStatus.Mount(mux, s.modelSlots, s.handleJobStatus)
	Routes.JobStream.Mount(mux, s.modelSlots, s.handleJobStream)
	Routes.CancelJob.Mount(mux, s.modelSlots, s.handleJobCancel)
	Routes.Verify.Mount(mux, s.modelSlots, s.handleVerify)
	Routes.VerifyBatch.Mount(mux, s.modelSlots, s.handleVerifyBatch)
	Routes.VerifyModel.Mount(mux, s.modelSlots, s.handleVerifyModel)
	Routes.Attest.Mount(mux, s.modelSlots, s.handleAttest)
	MountMetrics(mux, s.Metrics, s.metrics.countWriteError)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n")
	})
	return mux
}

// ListenAndServe serves the handler on addr until the listener fails.
func (s *Server) ListenAndServe(addr string) error {
	hs := &http.Server{Addr: addr, Handler: s.Handler()}
	return hs.ListenAndServe()
}

func (s *Server) handleProve(w http.ResponseWriter, r *http.Request, in Input) {
	req := in.Msg.(*wire.ProveRequest)
	resp, err := s.submitJob(r.Header.Get(TenantHeader), req.X, req.W)
	switch {
	case errors.Is(err, errQueueFull) || errors.Is(err, ErrClosed):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(wire.EncodeProveResponse(resp))
}

// handleProveMatMul serves the Engine-shape per-statement endpoint: one
// proof per request with a per-statement Fiat–Shamir challenge — exactly
// zkvc.Local's ProveMatMul semantics, so a client swapping Local for a
// Client sees identical proofs at equal seeds. No coalescing: the
// Groth16 backend pays a fresh setup here, and the proof is
// attested in the issued log so /v1/verify can later vouch for it (a
// per-statement Groth16 proof carries its own verifying key, which only
// means something when this service ran that setup).
func (s *Server) handleProveMatMul(w http.ResponseWriter, r *http.Request, in Input) {
	req := in.Msg.(*wire.ProveRequest)
	s.proveDirect(w, r, 1, &s.metrics.matmulsProved, func(ctx context.Context, p *zkvc.MatMulProver) (*directProof, error) {
		proof, err := p.ProveContext(ctx, req.X, req.W)
		if err != nil {
			return nil, err
		}
		digest := func() [sha256.Size]byte { return IssuedDigest(req.X, proof) }
		return &directProof{wire.EncodeMatMulProof(proof), proof.Timings, digest}, nil
	})
}

// directProof is one direct endpoint's finished proof: the response
// body, the timings to record, and the issued-log digest (computed only
// when the backend needs an attestation).
type directProof struct {
	body    []byte
	timings zkvc.Timings
	digest  func() [sha256.Size]byte
}

// proveDirect is the one path behind both direct endpoints, run on the
// request goroutine. It admits the request's statements (units) like
// every other unit of proving work, shedding with 503 when the ledger is
// full, and holds one budget token for the proof; the request context
// bounds the wait for it, so a caller that cancels while queued leaves
// the line instead of proving to nobody. Units and token go back once
// the proof exists, before it is attested and written.
func (s *Server) proveDirect(w http.ResponseWriter, r *http.Request, units int, proved *atomic.Int64, prove func(context.Context, *zkvc.MatMulProver) (*directProof, error)) {
	if units > s.cfg.QueueCap {
		http.Error(w, fmt.Sprintf("batch of %d statements is above this service's queue capacity %d; split it or raise QueueCap",
			units, s.cfg.QueueCap), http.StatusBadRequest)
		return
	}
	if err := s.admit(units, &s.metrics.queueDepth, func() { s.wg.Add(1) }); err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	defer s.wg.Done()
	p, err := func() (*directProof, error) {
		defer s.release(units, &s.metrics.queueDepth)
		pool := parallel.Default()
		if err := pool.AcquireCtx(r.Context()); err != nil {
			return nil, err
		}
		defer pool.Release()
		return prove(r.Context(), s.newDirectProver())
	}()
	if err != nil {
		// A canceled request is client churn, not a proving fault: keep
		// prove_errors an operator alarm, matching the model pipeline's
		// model_jobs_canceled discipline.
		if r.Context().Err() != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		s.metrics.proveErrors.Add(1)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	// Attest Groth16 proofs only: they are the ones the verify endpoints
	// re-check against the issued log (the embedded key is trustworthy
	// exactly because this service ran the setup). Spartan proofs verify
	// transparently and never consult the log — attesting them would
	// only push live Groth16/model attestations out of the bounded FIFO.
	if s.cfg.Backend == zkvc.Groth16 {
		d := p.digest()
		if s.issued.add(d) {
			s.replicate([][sha256.Size]byte{d}, nil)
		}
	}
	proved.Add(1)
	s.metrics.recordTimings(p.timings)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(p.body)
}

// handleProveBatch serves the Engine-shape direct batch endpoint: fold
// exactly the submitted pairs into one proof, in order — zkvc.Local's
// ProveBatch over HTTP. It differs from /v1/prove, where a request
// contributes one statement to a server-assembled coalescing window and
// the batch membership depends on concurrent traffic; here the client
// names the whole batch, which is what makes the proof deterministic at
// equal seeds. Groth16 batches are attested (at recipient index 0, the
// canonical index for a client-assembled batch) so /v1/verify/batch can
// vouch for them.
func (s *Server) handleProveBatch(w http.ResponseWriter, r *http.Request, in Input) {
	req := in.Msg.(*wire.ProveBatchRequest)
	s.proveDirect(w, r, len(req.Pairs), &s.metrics.directBatchesProved, func(ctx context.Context, p *zkvc.MatMulProver) (*directProof, error) {
		proof, err := p.ProveBatchContext(ctx, req.Pairs...)
		if err != nil {
			return nil, err
		}
		digest := func() [sha256.Size]byte {
			xs := make([]*zkvc.Matrix, len(req.Pairs))
			for i, pair := range req.Pairs {
				xs[i] = pair[0]
			}
			return IssuedBatchDigest(&wire.ProveResponse{Index: 0, Xs: xs, Batch: proof})
		}
		return &directProof{wire.EncodeBatchProof(proof), proof.Timings, digest}, nil
	})
}

func (s *Server) handleVerify(w http.ResponseWriter, _ *http.Request, in Input) {
	req := in.Msg.(*wire.VerifyRequest)
	s.metrics.verifyRequests.Add(1)
	if len(req.Proof.Epoch) > 0 {
		writeVerdict(w, fmt.Errorf("%w: this service issues no epoch proofs; submit a per-statement proof", zkvc.ErrVerification))
		return
	}
	// A per-statement Groth16 proof carries its own verifying key, and a
	// key from a setup this service did not witness proves nothing — its
	// creator holds the toxic waste and can simulate proofs of false
	// statements. The exception is a proof this service itself issued
	// (/v1/prove/matmul attests one digest per proof) or a peer node
	// attested through replication — either way the embedded key came
	// from a setup a cluster member ran, so re-checking against it is
	// sound. Everything else must use the transparent Spartan backend,
	// which verifies without trusting prover-supplied material.
	if req.Proof.Backend == zkvc.Groth16 && !s.attested(IssuedDigest(req.X, req.Proof)) {
		s.metrics.vkRejects.Add(1)
		writeVerdict(w, fmt.Errorf("%w: per-statement Groth16 proofs carry a prover-supplied verifying key this service has no reason to trust (only proofs this service issued are re-checked; attestations also expire from the bounded issued log); use the Spartan backend", zkvc.ErrVerification))
		return
	}
	writeVerdict(w, zkvc.VerifyMatMul(req.X, req.Proof))
}

func (s *Server) handleVerifyBatch(w http.ResponseWriter, _ *http.Request, in Input) {
	resp := in.Msg.(*wire.ProveResponse)
	s.metrics.verifyRequests.Add(1)
	// Spartan batches verify unconditionally (transparent backend,
	// per-statement Fiat–Shamir challenges). A Groth16 batch proof is
	// only checked against its own embedded verifying key, so it proves
	// nothing unless this service ran the setup — i.e. issued the batch.
	if resp.Batch.Backend == zkvc.Groth16 && !s.attested(IssuedBatchDigest(resp)) {
		s.metrics.vkRejects.Add(1)
		writeVerdict(w, fmt.Errorf("%w: Groth16 batch proofs carry a prover-supplied verifying key; only batches this service issued are accepted", zkvc.ErrVerification))
		return
	}
	writeVerdict(w, zkvc.VerifyMatMulBatch(resp.Xs, resp.Batch))
}

func writeVerdict(w http.ResponseWriter, err error) {
	w.Header().Set("Content-Type", "application/json")
	if err != nil {
		w.WriteHeader(http.StatusUnprocessableEntity)
		fmt.Fprintf(w, "{\"ok\":false,\"error\":%q}\n", err.Error())
		return
	}
	io.WriteString(w, "{\"ok\":true}\n")
}
