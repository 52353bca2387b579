package server

import (
	"encoding/json"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sync"
	"sync/atomic"

	"zkvc"
	"zkvc/internal/parallel"
	"zkvc/internal/zkml"
)

// metrics are the service counters, all lock-free. The coalesce ratio
// (requests per backend proof) is the service's headline number: it is the
// amortization factor of the paper's batching argument, measured live.
type metrics struct {
	// queueUnits is the single capacity ledger QueueCap bounds: one unit
	// per matmul job, one per model op. Admission checks increment it
	// atomically (the per-kind gauges below are display-only), so
	// concurrent submissions of different kinds cannot jointly overshoot
	// the cap.
	queueUnits atomic.Int64

	queueDepth     atomic.Int64
	requestsProved atomic.Int64
	batchesProved  atomic.Int64
	// Engine-shape direct endpoints: per-statement proofs from
	// /v1/prove/matmul and client-named batches from /v1/prove/batch.
	// They are counted apart from the coalescing path so CoalesceRatio
	// (requests per coalesced backend proof) stays meaningful.
	matmulsProved       atomic.Int64
	directBatchesProved atomic.Int64
	verifyRequests      atomic.Int64
	vkRejects           atomic.Int64
	proveErrors         atomic.Int64
	crsHits             atomic.Int64
	crsMisses           atomic.Int64

	// Model-job counters: accepted jobs, jobs fully proved, per-op
	// progress, queued-but-unproved ops (the model share of QueueCap),
	// issued-policy rejections on /v1/verify/model, and stream
	// backpressure (how often — and for how long — proving blocked on a
	// slow response reader).
	modelJobs         atomic.Int64
	modelJobsProved   atomic.Int64
	modelJobsCanceled atomic.Int64
	modelOpsProved    atomic.Int64
	modelOpsQueued    atomic.Int64
	modelRejects      atomic.Int64
	streamStalls      atomic.Int64
	streamStallNanos  atomic.Int64

	// Async-job counters: jobs admitted through POST /v1/jobs, jobs
	// currently held by the store (gauge), streams resumed from a
	// non-zero frame, journals deleted by the TTL reaper or DELETE, and
	// submissions turned away with 429 (queue saturation or tenant
	// quota) — the honest-admission counterpart of silent parking.
	jobsSubmitted    atomic.Int64
	jobsActive       atomic.Int64
	jobsResumed      atomic.Int64
	jobsReaped       atomic.Int64
	admissionRejects atomic.Int64

	synthesisNanos atomic.Int64
	setupNanos     atomic.Int64
	proveNanos     atomic.Int64
	verifyNanos    atomic.Int64

	// replicationErrors counts attestation updates dropped or failed on
	// their way to the coordinator (replication is best-effort; this is
	// where the effort's failures become visible). writeErrors counts
	// response writes/encodes that failed on /metrics and job-status
	// responses — a wedged scraper or poller should show up here, not
	// vanish. Each logs once so a broken scrape loop does not flood the
	// log.
	replicationErrors atomic.Int64
	writeErrors       atomic.Int64
	replLogOnce       sync.Once
	writeLogOnce      sync.Once
}

// countWriteError records a failed response write or encode: counted
// always, logged once.
func (m *metrics) countWriteError(err error) {
	m.writeErrors.Add(1)
	m.writeLogOnce.Do(func() {
		log.Printf("server: response write failed (counted in write_errors from here on): %v", err)
	})
}

// countReplicationError records a failed or dropped attestation update.
func (m *metrics) countReplicationError(err error) {
	m.replicationErrors.Add(1)
	m.replLogOnce.Do(func() {
		log.Printf("server: attestation replication failed (counted in replication_errors from here on): %v", err)
	})
}

func (m *metrics) recordTimings(t zkvc.Timings) {
	m.synthesisNanos.Add(int64(t.Synthesis))
	m.setupNanos.Add(int64(t.Setup))
	m.proveNanos.Add(int64(t.Prove))
}

// recordOpTimings charges one model op's phases, including the per-op
// self-verification the compiler performs.
func (m *metrics) recordOpTimings(op *zkml.OpProof) {
	m.synthesisNanos.Add(int64(op.Synthesis))
	m.setupNanos.Add(int64(op.Setup))
	m.proveNanos.Add(int64(op.Prove))
	m.verifyNanos.Add(int64(op.Verify))
}

// Snapshot is the JSON shape of GET /metrics.
type Snapshot struct {
	// QueueDepth is the matmul share of the queue; ModelOpsQueued the
	// model share (in ops — a parked model is parked work proportional
	// to its trace). Their sum is what Config.QueueCap bounds.
	QueueDepth     int64 `json:"queue_depth"`
	ModelOpsQueued int64 `json:"model_ops_queued"`
	Requests       int64 `json:"requests"`
	BatchesProved  int64 `json:"batches_proved"`
	// MatMulsProved counts /v1/prove/matmul proofs and
	// DirectBatchesProved counts /v1/prove/batch proofs — the
	// Engine-shape direct endpoints, outside the coalescing pipeline.
	MatMulsProved       int64 `json:"matmuls_proved"`
	DirectBatchesProved int64 `json:"direct_batches_proved"`

	// Model-job counters: accepted jobs, fully proved jobs, streamed op
	// proofs, issued-policy rejections on /v1/verify/model, and stream
	// backpressure (count and total nanoseconds proving spent blocked on
	// slow response readers).
	ModelJobs       int64 `json:"model_jobs"`
	ModelJobsProved int64 `json:"model_jobs_proved"`
	// ModelJobsCanceled counts jobs ended by client disconnect (or a
	// stalled reader hitting StreamWriteTimeout) — routine churn, kept
	// apart from ProveErrors so that counter stays a proving-fault alarm.
	ModelJobsCanceled int64 `json:"model_jobs_canceled"`
	ModelOpsProved    int64 `json:"model_ops_proved"`
	ModelRejects      int64 `json:"model_rejects"`
	StreamStalls      int64 `json:"stream_stalls"`
	StreamStallNanos  int64 `json:"stream_stall_nanos"`

	// Async-job counters: admitted jobs, live jobs (gauge), resumed
	// streams, reaped journals, and 429-rejected submissions.
	JobsSubmitted    int64 `json:"jobs_submitted"`
	JobsActive       int64 `json:"jobs_active"`
	JobsResumed      int64 `json:"jobs_resumed"`
	JobsReaped       int64 `json:"jobs_reaped"`
	AdmissionRejects int64 `json:"admission_rejects"`

	VerifyRequests int64 `json:"verify_requests"`
	// VKRejects counts Groth16 proofs turned away because they carry a
	// prover-supplied verifying key the service cannot trust.
	VKRejects   int64 `json:"vk_rejects"`
	ProveErrors int64 `json:"prove_errors"`

	// CoalesceRatio is batch-path requests per backend proof (≥ 1 once
	// any batch has been proved; higher means better amortization).
	CoalesceRatio float64 `json:"coalesce_ratio"`

	CRSCacheHits   int64 `json:"crs_cache_hits"`
	CRSCacheMisses int64 `json:"crs_cache_misses"`

	// Parallelism is the process-wide worker budget proofs draw from
	// (Config.Parallelism / ZKVC_PARALLELISM / GOMAXPROCS), and
	// ParallelInUse is how many of those tokens are held right now by
	// proving jobs and the loop workers they borrowed — the service's
	// effective parallelism at snapshot time.
	Parallelism   int `json:"parallelism"`
	ParallelInUse int `json:"parallel_in_use"`

	// Memory-discipline gauges. The proving hot path recycles its scratch
	// buffers through internal/arena, so under steady load the live heap
	// and the GC pause total should both plateau; a service where either
	// climbs with every proof has lost the pooled hot path (e.g. runs
	// with ZKVC_NO_POOL set). HeapAllocBytes is the bytes currently
	// occupied by live heap objects (runtime/metrics
	// "/memory/classes/heap/objects:bytes"); GCPauseTotalNanos is the
	// cumulative stop-the-world pause time since process start.
	HeapAllocBytes    uint64 `json:"heap_alloc_bytes"`
	GCPauseTotalNanos int64  `json:"gc_pause_total_nanos"`

	// Issued-log gauges: live attestations in the local log, records and
	// bytes in its durable file (both 0 without a JournalDir), and write
	// errors — a nonzero error count means attestations made this run may
	// not survive the next restart. ReplicatedAttestations counts peer
	// attestations this node holds (the cluster verify-failover set) and
	// ReplicationErrors the updates this node failed to push out.
	// WriteErrors counts failed /metrics and job-status response writes.
	// DiskBytes is the node's total on-disk state (job journals plus the
	// issued log) — the disk gauge heartbeats carry to the coordinator.
	IssuedAttestations     int64  `json:"issued_attestations"`
	IssuedLogRecords       int64  `json:"issued_log_records"`
	IssuedLogBytes         int64  `json:"issued_log_bytes"`
	IssuedLogErrors        int64  `json:"issued_log_errors"`
	ReplicatedAttestations int64  `json:"replicated_attestations"`
	ReplicationErrors      int64  `json:"replication_errors"`
	WriteErrors            int64  `json:"write_errors"`
	DiskBytes              uint64 `json:"disk_bytes"`

	PhaseNanos struct {
		Synthesis int64 `json:"synthesis"`
		Setup     int64 `json:"setup"`
		Prove     int64 `json:"prove"`
		// Verify is the per-op self-verification model jobs perform.
		Verify int64 `json:"verify"`
	} `json:"phase_nanos"`
}

func (m *metrics) snapshot(pool *parallel.Pool) Snapshot {
	var s Snapshot
	s.QueueDepth = m.queueDepth.Load()
	s.ModelOpsQueued = m.modelOpsQueued.Load()
	s.Requests = m.requestsProved.Load()
	s.BatchesProved = m.batchesProved.Load()
	s.MatMulsProved = m.matmulsProved.Load()
	s.DirectBatchesProved = m.directBatchesProved.Load()
	s.ModelJobs = m.modelJobs.Load()
	s.ModelJobsProved = m.modelJobsProved.Load()
	s.ModelJobsCanceled = m.modelJobsCanceled.Load()
	s.ModelOpsProved = m.modelOpsProved.Load()
	s.ModelRejects = m.modelRejects.Load()
	s.StreamStalls = m.streamStalls.Load()
	s.StreamStallNanos = m.streamStallNanos.Load()
	s.JobsSubmitted = m.jobsSubmitted.Load()
	s.JobsActive = m.jobsActive.Load()
	s.JobsResumed = m.jobsResumed.Load()
	s.JobsReaped = m.jobsReaped.Load()
	s.AdmissionRejects = m.admissionRejects.Load()
	s.VerifyRequests = m.verifyRequests.Load()
	s.VKRejects = m.vkRejects.Load()
	s.ProveErrors = m.proveErrors.Load()
	if s.BatchesProved > 0 {
		s.CoalesceRatio = float64(s.Requests) / float64(s.BatchesProved)
	}
	s.CRSCacheHits = m.crsHits.Load()
	s.CRSCacheMisses = m.crsMisses.Load()
	if pool != nil {
		s.Parallelism = pool.Size()
		s.ParallelInUse = pool.InUse()
	}
	sample := []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	rtmetrics.Read(sample)
	if sample[0].Value.Kind() == rtmetrics.KindUint64 {
		s.HeapAllocBytes = sample[0].Value.Uint64()
	}
	// PauseTotalNs has no scalar runtime/metrics equivalent (only a
	// histogram); ReadMemStats is exact and /metrics is polled, not hot.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.GCPauseTotalNanos = int64(ms.PauseTotalNs)
	s.PhaseNanos.Synthesis = m.synthesisNanos.Load()
	s.PhaseNanos.Setup = m.setupNanos.Load()
	s.PhaseNanos.Prove = m.proveNanos.Load()
	s.PhaseNanos.Verify = m.verifyNanos.Load()
	s.ReplicationErrors = m.replicationErrors.Load()
	s.WriteErrors = m.writeErrors.Load()
	return s
}

// writeJSON encodes a snapshot; a failed encode (client hung up
// mid-scrape) is counted, not swallowed.
func (m *metrics) writeJSON(w io.Writer, snap Snapshot) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(snap); err != nil {
		m.countWriteError(err)
	}
}

// Metrics returns a point-in-time snapshot of the service counters,
// including the issued-log, replication and disk gauges only the Server
// (not the bare counter set) can see.
func (s *Server) Metrics() Snapshot {
	snap := s.metrics.snapshot(parallel.Default())
	live, records, bytes, errs := s.issued.stats()
	snap.IssuedAttestations = live
	snap.IssuedLogRecords = records
	snap.IssuedLogBytes = bytes
	snap.IssuedLogErrors = errs
	replicated, _, _, _ := s.replicated.stats()
	snap.ReplicatedAttestations = replicated
	snap.DiskBytes = s.diskBytes()
	return snap
}

// diskBytes sums the node's on-disk state: every regular file directly
// under JournalDir (job journals and the issued log). 0 without a
// JournalDir.
func (s *Server) diskBytes() uint64 {
	if s.cfg.JournalDir == "" {
		return 0
	}
	entries, err := os.ReadDir(s.cfg.JournalDir)
	if err != nil {
		return 0
	}
	var total uint64
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		if info, err := os.Stat(filepath.Join(s.cfg.JournalDir, ent.Name())); err == nil {
			total += uint64(info.Size())
		}
	}
	return total
}
