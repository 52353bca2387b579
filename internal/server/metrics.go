package server

import (
	"bytes"
	"encoding/json"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sync"
	"sync/atomic"

	"zkvc"
	"zkvc/internal/parallel"
	"zkvc/internal/promtext"
	"zkvc/internal/wire"
	"zkvc/internal/zkml"
)

// metrics are the service counters, all lock-free: the live values
// behind the Snapshot fields of the same meaning, which document them.
type metrics struct {
	// queueUnits is the single capacity ledger QueueCap bounds: one unit
	// per matmul statement, one per model op. Server.admit is the only
	// code that charges it (the per-kind gauges below are display-only).
	queueUnits atomic.Int64

	queueDepth, modelOpsQueued                                           atomic.Int64
	requestsProved, batchesProved, matmulsProved, directBatchesProved    atomic.Int64
	modelJobs, modelJobsProved, modelJobsCanceled, modelOpsProved        atomic.Int64
	modelRejects, streamStalls, streamStallNanos                         atomic.Int64
	jobsSubmitted, jobsActive, jobsResumed, jobsReaped, admissionRejects atomic.Int64
	verifyRequests, vkRejects, proveErrors                               atomic.Int64
	synthesisNanos, setupNanos, proveNanos, verifyNanos                  atomic.Int64
	replicationErrors, writeErrors                                       atomic.Int64
	replLogOnce, writeLogOnce                                            sync.Once
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

// Snapshot is a node's metrics, and the only place one is declared:
// GET /metrics is its JSON encoding and GET /metrics/prometheus its
// promtext.Encode, both written by MountMetrics. A new metric is one
// field here with a json and a prom tag.
type Snapshot struct {
	// QueueDepth is the matmul share of the queue, in statements
	// admitted and not yet proved — coalesced ones and those of the
	// direct /v1/prove/matmul and /v1/prove/batch routes alike;
	// ModelOpsQueued the model share (in ops — a parked model is parked
	// work proportional to its trace). Their sum is what Config.QueueCap
	// bounds.
	QueueDepth     int64 `json:"queue_depth" prom:"gauge"`
	ModelOpsQueued int64 `json:"model_ops_queued" prom:"gauge"`
	Requests       int64 `json:"requests" prom:"counter"`
	BatchesProved  int64 `json:"batches_proved" prom:"counter"`
	// MatMulsProved counts /v1/prove/matmul proofs and
	// DirectBatchesProved counts /v1/prove/batch proofs — the
	// Engine-shape direct endpoints, outside the coalescing pipeline,
	// counted apart so that CoalesceRatio stays meaningful.
	MatMulsProved       int64 `json:"matmuls_proved" prom:"counter"`
	DirectBatchesProved int64 `json:"direct_batches_proved" prom:"counter"`

	// Model-job counters: accepted jobs, fully proved jobs, streamed op
	// proofs, issued-policy rejections on /v1/verify/model, and stream
	// backpressure (count and total nanoseconds proving spent blocked on
	// slow response readers).
	ModelJobs       int64 `json:"model_jobs" prom:"counter"`
	ModelJobsProved int64 `json:"model_jobs_proved" prom:"counter"`
	// ModelJobsCanceled counts jobs ended by client disconnect (or a
	// stalled reader hitting StreamWriteTimeout) — routine churn, kept
	// apart from ProveErrors so that counter stays a proving-fault alarm.
	ModelJobsCanceled int64 `json:"model_jobs_canceled" prom:"counter"`
	ModelOpsProved    int64 `json:"model_ops_proved" prom:"counter"`
	ModelRejects      int64 `json:"model_rejects" prom:"counter"`
	StreamStalls      int64 `json:"stream_stalls" prom:"counter"`
	StreamStallNanos  int64 `json:"stream_stall_nanos" prom:"counter"`

	// Async-job counters: jobs admitted through POST /v1/jobs, live jobs
	// (gauge), streams resumed from a non-zero frame and journals deleted
	// by the TTL reaper or DELETE. AdmissionRejects counts every shed
	// proving request once: a full QueueCap ledger on any route (503, or
	// 429 on POST /v1/jobs) and a tenant at its job quota (429).
	JobsSubmitted    int64 `json:"jobs_submitted" prom:"counter"`
	JobsActive       int64 `json:"jobs_active" prom:"gauge"`
	JobsResumed      int64 `json:"jobs_resumed" prom:"counter"`
	JobsReaped       int64 `json:"jobs_reaped" prom:"counter"`
	AdmissionRejects int64 `json:"admission_rejects" prom:"counter"`

	VerifyRequests int64 `json:"verify_requests" prom:"counter"`
	// VKRejects counts Groth16 proofs turned away because they carry a
	// prover-supplied verifying key the service cannot trust.
	VKRejects   int64 `json:"vk_rejects" prom:"counter"`
	ProveErrors int64 `json:"prove_errors" prom:"counter"`

	// CoalesceRatio is batch-path requests per backend proof (≥ 1 once
	// any batch has been proved): the amortization factor of the paper's
	// batching argument, measured live.
	CoalesceRatio float64 `json:"coalesce_ratio" prom:"gauge"`

	// CRSCacheHits and CRSCacheMisses count lookups in the Groth16 key
	// cache model ops share (maxShapes): one per proved Groth16
	// op, a miss when that op ran the circuit's setup.
	CRSCacheHits   int64 `json:"crs_cache_hits" prom:"counter"`
	CRSCacheMisses int64 `json:"crs_cache_misses" prom:"counter"`

	// Parallelism is the process-wide worker budget proofs draw from
	// (Config.Parallelism / ZKVC_PARALLELISM / GOMAXPROCS), and
	// ParallelInUse is how many of those tokens are held right now by
	// proving jobs and the loop workers they borrowed — the service's
	// effective parallelism at snapshot time.
	Parallelism   int `json:"parallelism" prom:"gauge"`
	ParallelInUse int `json:"parallel_in_use" prom:"gauge"`

	// Memory-discipline gauges. The proving hot path recycles its scratch
	// buffers through internal/arena, so under steady load the live heap
	// and the GC pause total should both plateau; a service where either
	// climbs with every proof has lost the pooled hot path (e.g. runs
	// with ZKVC_NO_POOL set). HeapAllocBytes is the bytes currently
	// occupied by live heap objects (runtime/metrics
	// "/memory/classes/heap/objects:bytes"); GCPauseTotalNanos is the
	// cumulative stop-the-world pause time since process start.
	HeapAllocBytes    uint64 `json:"heap_alloc_bytes" prom:"gauge"`
	GCPauseTotalNanos int64  `json:"gc_pause_total_nanos" prom:"counter,name=gc_pause_nanos"`

	// Issued-log gauges: live attestations in the local log, records and
	// bytes in its durable file (both 0 without a JournalDir), and write
	// errors — a nonzero error count means attestations made this run may
	// not survive the next restart. ReplicatedAttestations counts peer
	// attestations this node holds (the cluster verify-failover set) and
	// ReplicationErrors the updates this node failed to push out
	// (replication is best-effort; this is where its failures show).
	// WriteErrors counts failed /metrics and job-status response writes.
	// DiskBytes is the node's total on-disk state (job journals plus the
	// issued log) — the disk gauge the coordinator's probe reads.
	IssuedAttestations     int64  `json:"issued_attestations" prom:"gauge"`
	IssuedLogRecords       int64  `json:"issued_log_records" prom:"gauge"`
	IssuedLogBytes         int64  `json:"issued_log_bytes" prom:"gauge"`
	IssuedLogErrors        int64  `json:"issued_log_errors" prom:"counter"`
	ReplicatedAttestations int64  `json:"replicated_attestations" prom:"gauge"`
	ReplicationErrors      int64  `json:"replication_errors" prom:"counter"`
	WriteErrors            int64  `json:"write_errors" prom:"counter"`
	DiskBytes              uint64 `json:"disk_bytes" prom:"gauge"`

	PhaseNanos struct {
		Synthesis int64 `json:"synthesis"`
		Setup     int64 `json:"setup"`
		Prove     int64 `json:"prove"`
		// Verify is the per-op self-verification model jobs perform.
		Verify int64 `json:"verify"`
	} `json:"phase_nanos" prom:"counter,label=phase"`
}

// Metrics returns a point-in-time snapshot of the service counters and
// of the issued-log, replication, memory and disk gauges.
func (s *Server) Metrics() Snapshot {
	m := s.metrics
	snap := Snapshot{
		QueueDepth:          m.queueDepth.Load(),
		ModelOpsQueued:      m.modelOpsQueued.Load(),
		Requests:            m.requestsProved.Load(),
		BatchesProved:       m.batchesProved.Load(),
		MatMulsProved:       m.matmulsProved.Load(),
		DirectBatchesProved: m.directBatchesProved.Load(),
		ModelJobs:           m.modelJobs.Load(),
		ModelJobsProved:     m.modelJobsProved.Load(),
		ModelJobsCanceled:   m.modelJobsCanceled.Load(),
		ModelOpsProved:      m.modelOpsProved.Load(),
		ModelRejects:        m.modelRejects.Load(),
		StreamStalls:        m.streamStalls.Load(),
		StreamStallNanos:    m.streamStallNanos.Load(),
		JobsSubmitted:       m.jobsSubmitted.Load(),
		JobsActive:          m.jobsActive.Load(),
		JobsResumed:         m.jobsResumed.Load(),
		JobsReaped:          m.jobsReaped.Load(),
		AdmissionRejects:    m.admissionRejects.Load(),
		VerifyRequests:      m.verifyRequests.Load(),
		VKRejects:           m.vkRejects.Load(),
		ProveErrors:         m.proveErrors.Load(),
		ReplicationErrors:   m.replicationErrors.Load(),
		WriteErrors:         m.writeErrors.Load(),
		DiskBytes:           s.diskBytes(),
	}
	if snap.BatchesProved > 0 {
		snap.CoalesceRatio = float64(snap.Requests) / float64(snap.BatchesProved)
	}
	pool := parallel.Default()
	snap.Parallelism, snap.ParallelInUse = pool.Size(), pool.InUse()
	sample := []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	rtmetrics.Read(sample)
	if sample[0].Value.Kind() == rtmetrics.KindUint64 {
		snap.HeapAllocBytes = sample[0].Value.Uint64()
	}
	// PauseTotalNs has no scalar runtime/metrics equivalent (only a
	// histogram); ReadMemStats is exact and /metrics is polled, not hot.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	snap.GCPauseTotalNanos = int64(ms.PauseTotalNs)
	snap.PhaseNanos.Synthesis = m.synthesisNanos.Load()
	snap.PhaseNanos.Setup = m.setupNanos.Load()
	snap.PhaseNanos.Prove = m.proveNanos.Load()
	snap.PhaseNanos.Verify = m.verifyNanos.Load()
	snap.CRSCacheHits, snap.CRSCacheMisses = s.keys.Stats()
	snap.IssuedAttestations, snap.IssuedLogRecords, snap.IssuedLogBytes, snap.IssuedLogErrors = s.issued.stats()
	snap.ReplicatedAttestations, _, _, _ = s.replicated.stats()
	return snap
}

// Announce is the registration a node sends its coordinator under name,
// reachable at url. Its capacity hint is the node's parallel budget,
// the service's only concurrency bound.
func (s *Snapshot) Announce(name, url string) *wire.NodeAnnounce {
	return &wire.NodeAnnounce{Name: name, URL: url, Workers: s.Parallelism}
}

// MountMetrics registers the two encodings of one metrics snapshot on
// mux, for a node and a coordinator alike: GET /metrics as indented
// JSON, GET /metrics/prometheus as promtext.Encode of its prom tags.
// Each scrape takes a fresh snapshot. writeErr hears about every failed
// encode or write.
func MountMetrics[S any](mux *http.ServeMux, snapshot func() S, writeErr func(error)) {
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		if err := enc.Encode(snapshot()); err != nil {
			writeErr(err)
		}
	})
	mux.HandleFunc("GET /metrics/prometheus", func(w http.ResponseWriter, _ *http.Request) {
		var buf bytes.Buffer
		if err := promtext.Encode(&buf, "zkvc", snapshot()); err != nil {
			writeErr(err)
			http.Error(w, "rendering metrics failed", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", promtext.ContentType)
		if _, err := w.Write(buf.Bytes()); err != nil {
			writeErr(err)
		}
	})
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
