package server

// Prometheus-text rendering of the service metrics. GET /metrics stays
// the JSON snapshot; GET /metrics/prometheus is the same snapshot in the
// text exposition format so a stock Prometheus can scrape a node without
// a translation shim. Counter families carry the conventional _total
// suffix; point-in-time values (queue depths, live jobs, log sizes,
// memory and disk) are gauges.

import (
	"bytes"
	"net/http"

	"zkvc/internal/promtext"
)

func (s *Server) handleMetricsProm(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	if err := writePrometheus(&buf, s.Metrics()); err != nil {
		s.metrics.countWriteError(err)
		http.Error(w, "rendering metrics failed", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", promtext.ContentType)
	if _, err := w.Write(buf.Bytes()); err != nil {
		s.metrics.countWriteError(err)
	}
}

// writePrometheus renders one snapshot as text exposition format.
func writePrometheus(buf *bytes.Buffer, snap Snapshot) error {
	p := promtext.NewWriter(buf)

	p.Gauge("zkvc_queue_depth", float64(snap.QueueDepth))
	p.Gauge("zkvc_model_ops_queued", float64(snap.ModelOpsQueued))
	p.Counter("zkvc_requests_total", float64(snap.Requests))
	p.Counter("zkvc_batches_proved_total", float64(snap.BatchesProved))
	p.Counter("zkvc_matmuls_proved_total", float64(snap.MatMulsProved))
	p.Counter("zkvc_direct_batches_proved_total", float64(snap.DirectBatchesProved))

	p.Counter("zkvc_model_jobs_total", float64(snap.ModelJobs))
	p.Counter("zkvc_model_jobs_proved_total", float64(snap.ModelJobsProved))
	p.Counter("zkvc_model_jobs_canceled_total", float64(snap.ModelJobsCanceled))
	p.Counter("zkvc_model_ops_proved_total", float64(snap.ModelOpsProved))
	p.Counter("zkvc_model_rejects_total", float64(snap.ModelRejects))
	p.Counter("zkvc_stream_stalls_total", float64(snap.StreamStalls))
	p.Counter("zkvc_stream_stall_nanos_total", float64(snap.StreamStallNanos))

	p.Counter("zkvc_jobs_submitted_total", float64(snap.JobsSubmitted))
	p.Gauge("zkvc_jobs_active", float64(snap.JobsActive))
	p.Counter("zkvc_jobs_resumed_total", float64(snap.JobsResumed))
	p.Counter("zkvc_jobs_reaped_total", float64(snap.JobsReaped))
	p.Counter("zkvc_admission_rejects_total", float64(snap.AdmissionRejects))

	p.Counter("zkvc_verify_requests_total", float64(snap.VerifyRequests))
	p.Counter("zkvc_vk_rejects_total", float64(snap.VKRejects))
	p.Counter("zkvc_prove_errors_total", float64(snap.ProveErrors))

	p.Gauge("zkvc_coalesce_ratio", snap.CoalesceRatio)
	p.Counter("zkvc_crs_cache_hits_total", float64(snap.CRSCacheHits))
	p.Counter("zkvc_crs_cache_misses_total", float64(snap.CRSCacheMisses))
	p.Gauge("zkvc_parallelism", float64(snap.Parallelism))
	p.Gauge("zkvc_parallel_in_use", float64(snap.ParallelInUse))
	p.Gauge("zkvc_heap_alloc_bytes", float64(snap.HeapAllocBytes))
	p.Counter("zkvc_gc_pause_nanos_total", float64(snap.GCPauseTotalNanos))

	p.Gauge("zkvc_issued_attestations", float64(snap.IssuedAttestations))
	p.Gauge("zkvc_issued_log_records", float64(snap.IssuedLogRecords))
	p.Gauge("zkvc_issued_log_bytes", float64(snap.IssuedLogBytes))
	p.Counter("zkvc_issued_log_errors_total", float64(snap.IssuedLogErrors))
	p.Gauge("zkvc_replicated_attestations", float64(snap.ReplicatedAttestations))
	p.Counter("zkvc_replication_errors_total", float64(snap.ReplicationErrors))
	p.Counter("zkvc_write_errors_total", float64(snap.WriteErrors))
	p.Gauge("zkvc_disk_bytes", float64(snap.DiskBytes))

	p.Counter("zkvc_phase_nanos_total", float64(snap.PhaseNanos.Synthesis), promtext.Label{Name: "phase", Value: "synthesis"})
	p.Counter("zkvc_phase_nanos_total", float64(snap.PhaseNanos.Setup), promtext.Label{Name: "phase", Value: "setup"})
	p.Counter("zkvc_phase_nanos_total", float64(snap.PhaseNanos.Prove), promtext.Label{Name: "phase", Value: "prove"})
	p.Counter("zkvc_phase_nanos_total", float64(snap.PhaseNanos.Verify), promtext.Label{Name: "phase", Value: "verify"})

	return p.Err()
}
