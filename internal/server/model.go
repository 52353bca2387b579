package server

// Model proving as a service workload: a modelJob is the second job kind
// of the dispatcher — "prove every circuit of this captured forward
// pass". It reuses the whole matmul-era machinery: the submission queue
// and its capacity bound (a model job counts as its op count, since that
// is the work it parks), the worker pool and its one-token-per-job
// budget discipline, the CRS cache (keyed by circuit structure digest,
// so the twelve identical blocks of a ViT pay one Groth16 setup across
// all requests and tenants) and the issued-proof log (one whole-report,
// tenant-scoped digest per completed job, so /v1/verify/model only
// vouches for reports this service streamed to that tenant, unmodified
// and complete).

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"zkvc"
	"zkvc/internal/groth16"
	"zkvc/internal/nn"
	"zkvc/internal/parallel"
	"zkvc/internal/pcs"
	"zkvc/internal/r1cs"
	"zkvc/internal/wire"
	"zkvc/internal/zkml"
)

// modelJob is one end-to-end model proving request flowing through the
// dispatcher to the worker pool.
type modelJob struct {
	tenant         string
	backend        zkml.Backend
	proveNonlinear bool
	cfg            nn.Config
	trace          *nn.Trace

	// ctx derives from the submitting request's context, and the handler
	// cancels it when a stream frame write fails: the proving pipeline
	// runs under it, so a client disconnect or a stalled reader cancels
	// unstarted ops. It stays live for the job's whole lifetime because
	// the handler blocks draining events until run finishes.
	ctx context.Context

	plan      int // ops that will be proved (queue-capacity units)
	completed atomic.Int64

	// header is the wire-encoded stream header the handler sends first;
	// it is folded into the issued-report digest, binding the model
	// name, backend, circuit options and op count the proofs were
	// streamed under.
	header []byte
	// opHashes collects each op frame's digest at its sequence slot
	// (concurrent writers touch disjoint indices); on success they are
	// combined, in order, into the single issued-report attestation.
	opHashes [][32]byte

	// events carries pre-encoded OpProof frames to the HTTP handler. The
	// buffer is deliberately small: a slow reader backpressures proving
	// after a few ops instead of letting finished proofs (and their
	// payloads) pile up in memory — that bound is the reason the endpoint
	// streams at all.
	events chan modelEvent
}

type modelEvent struct {
	frame []byte
	err   error
}

func (*modelJob) submissionKind() string { return "model" }

// modelEventBuffer is the per-job frame buffer (see modelJob.events).
const modelEventBuffer = 4

// run proves the trace on the worker's goroutine. Independent ops fan
// out over whatever budget tokens are free, each drawing its randomness
// from its sequence number, so the streamed proofs are byte-identical to
// a local ProveTrace at any parallelism level.
func (j *modelJob) run(s *Server, _ *zkvc.MatMulProver) {
	defer close(j.events)
	defer func() {
		// Ops skipped by an error (or never streamed) leave the queue here.
		delta := j.completed.Load() - int64(j.plan)
		s.metrics.modelOpsQueued.Add(delta)
		s.metrics.queueUnits.Add(delta)
	}()
	opts := s.modelOpts(j.backend, j.proveNonlinear, func(op *zkml.OpProof) { s.streamOp(j, op) })
	_, err := zkml.ProveTraceContext(j.ctx, j.cfg, j.trace, opts)
	switch {
	case j.completed.Load() == int64(j.plan):
		// Every op was proved (and the report attested, see streamOp),
		// even if the context ended after the last one.
		s.metrics.modelJobsProved.Add(1)
	case errors.Is(err, zkml.ErrCanceled):
		// A client disconnect or failed frame write is routine churn,
		// not a proving fault; keep prove_errors meaningful for
		// operators alerting on it.
		s.metrics.modelJobsCanceled.Add(1)
		j.events <- modelEvent{err: err}
	default:
		s.metrics.proveErrors.Add(1)
		j.events <- modelEvent{err: err}
	}
}

// modelOpts is zkml.JobOptions at the service's circuit options and
// seed, with Groth16 setups routed through the shared digest-keyed CRS
// cache and each proved op handed to onOp.
func (s *Server) modelOpts(backend zkml.Backend, proveNonlinear bool, onOp func(*zkml.OpProof)) zkml.Options {
	opts := zkml.JobOptions(backend, s.cfg.Opts, proveNonlinear, s.cfg.Seed)
	if backend == zkml.Groth16 {
		opts.Setup = s.circuitSetup
	}
	opts.OnOp = onOp
	return opts
}

// streamOp frames one proved op for the stream handler. It runs on
// whichever worker goroutine finished the op.
func (s *Server) streamOp(j *modelJob, op *zkml.OpProof) {
	frame := wire.EncodeOpProof(op)
	j.opHashes[op.Seq] = sha256.Sum256(frame)
	s.metrics.modelOpsProved.Add(1)
	s.metrics.modelOpsQueued.Add(-1)
	s.metrics.queueUnits.Add(-1)
	s.metrics.recordOpTimings(op)
	if j.completed.Add(1) == int64(j.plan) {
		// The plan's last op: attest the whole report — header, every op
		// frame digest in sequence order, and the tenant — before its
		// final frame is queued, so a client holding every op can verify
		// at once. A report relabeled, spliced from other issued reports,
		// or reordered no longer matches. Canceled or failed jobs never
		// get here and attest nothing.
		d := modelReportDigest(j.header, j.opHashes, j.tenant)
		if s.issued.add(d) {
			s.replicate([][sha256.Size]byte{d}, nil)
		}
	}
	select {
	case j.events <- modelEvent{frame: frame}:
	default:
		// The handler (or its client) is behind; block, and account the
		// stall so /metrics shows stream backpressure.
		s.metrics.streamStalls.Add(1)
		start := time.Now()
		j.events <- modelEvent{frame: frame}
		s.metrics.streamStallNanos.Add(time.Since(start).Nanoseconds())
	}
}

// circuitSetup is the SetupFunc model jobs use: Groth16 proving material
// memoized in the shared CRS cache under the circuit's structure digest.
// The derivation inside zkml.SetupCircuit is seed-deterministic, so a
// service configured with a test seed regenerates identical material
// after an eviction (and matches local proving with the same seed); with
// the production crypto/rand posture a regenerated CRS simply issues
// fresh attestations.
func (s *Server) circuitSetup(digest [32]byte, sys *r1cs.System) (*groth16.ProvingKey, *groth16.VerifyingKey, error) {
	c, hit, err := s.cache.get(digest, func() (*circuitCRS, error) {
		pk, vk, err := zkml.SetupCircuit(sys, s.cfg.Seed)
		if err != nil {
			return nil, err
		}
		return &circuitCRS{pk: pk, vk: vk}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	if hit {
		s.metrics.crsHits.Add(1)
	} else {
		s.metrics.crsMisses.Add(1)
	}
	return c.pk, c.vk, nil
}

// modelReportDigest fingerprints one issued report: the stream header
// (model name, backend, circuit options, op count), every op frame's
// digest in sequence order, and the tenant the stream was issued to —
// verifying through /v1/verify/model requires presenting the same
// tenant header, extending the per-tenant partitioning of the coalescer
// to model reports. (As with coalescing, the header is taken on faith —
// the isolation is real only behind an authenticating proxy; see the
// package comment on tenancy.)
func modelReportDigest(header []byte, opHashes [][32]byte, tenant string) [sha256.Size]byte {
	h := sha256.New()
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(header)))
	h.Write(n[:])
	h.Write(header)
	for i := range opHashes {
		h.Write(opHashes[i][:])
	}
	binary.BigEndian.PutUint32(n[:], uint32(len(tenant)))
	h.Write(n[:])
	h.Write([]byte(tenant))
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

// ReportDigest recomputes the whole-report attestation digest for a
// report as submitted by tenant — the digest the issued log records
// when the report is streamed and /v1/verify/model looks up before
// vouching. Exported for the cluster router, which needs the digest to
// pick a report's replica set for verify failover.
func ReportDigest(rep *zkml.Report, tenant string) [sha256.Size]byte {
	header := wire.EncodeModelStreamHeader(&wire.ModelStreamHeader{
		Model:    rep.Model,
		Backend:  rep.Backend,
		Circuit:  rep.Circuit,
		TotalOps: len(rep.Ops),
	})
	opHashes := make([][32]byte, len(rep.Ops))
	for i := range rep.Ops {
		opHashes[i] = sha256.Sum256(wire.EncodeOpProof(&rep.Ops[i]))
	}
	return modelReportDigest(header, opHashes, tenant)
}

// submitPlanned admits a model job of either kind into the dispatcher.
// The job charges its op count against the shared queue capacity: a
// parked model is parked work proportional to its trace, not one slot.
func (s *Server) submitPlanned(j submission, plan int) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	if s.metrics.queueUnits.Add(int64(plan)) > int64(s.cfg.QueueCap) {
		s.metrics.queueUnits.Add(-int64(plan))
		return errQueueFull
	}
	s.metrics.modelOpsQueued.Add(int64(plan))
	select {
	case s.submit <- j:
		return nil
	default:
		s.metrics.modelOpsQueued.Add(-int64(plan))
		s.metrics.queueUnits.Add(-int64(plan))
		return errQueueFull
	}
}

// planModel plans a submitted trace and returns its op count, answering
// 400 for a trace that cannot be planned, has nothing to prove, or could
// never be admitted: one bigger than the whole queue capacity gets that
// said honestly instead of 503 forever.
func (s *Server) planModel(w http.ResponseWriter, trace *nn.Trace, proveNonlinear bool) (int, bool) {
	plan, err := zkml.PlanTrace(trace, zkml.Options{ProveNonlinear: proveNonlinear})
	switch {
	case err != nil:
		http.Error(w, err.Error(), http.StatusBadRequest)
	case len(plan) == 0:
		http.Error(w, "trace has no provable operations", http.StatusBadRequest)
	case len(plan) > s.cfg.QueueCap:
		http.Error(w, fmt.Sprintf("trace has %d provable operations, above this service's queue capacity %d; split the model or raise QueueCap",
			len(plan), s.cfg.QueueCap), http.StatusBadRequest)
	default:
		return len(plan), true
	}
	return 0, false
}

// handleProveModel proves a captured trace and streams each operation's
// proof as a length-prefixed frame the moment it finishes: header frame
// (total op count), then OpProof frames in completion order (op.Seq
// positions each in the report), then end of body. A mid-stream failure
// is a ModelStreamError frame. wire.DecodeModelStream reassembles the
// report client-side.
func (s *Server) handleProveModel(w http.ResponseWriter, r *http.Request, in Input) {
	req := in.Msg.(*wire.ProveModelRequest)
	in.Body = nil // the decoded request is all the job keeps
	plan, ok := s.planModel(w, req.Trace, req.ProveNonlinear)
	if !ok {
		return
	}
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	j := &modelJob{
		tenant:         r.Header.Get(TenantHeader),
		backend:        req.Backend,
		proveNonlinear: req.ProveNonlinear,
		cfg:            req.Cfg,
		trace:          req.Trace,
		ctx:            ctx,
		plan:           plan,
		opHashes:       make([][32]byte, plan),
		events:         make(chan modelEvent, modelEventBuffer),
	}
	j.header = wire.EncodeModelStreamHeader(&wire.ModelStreamHeader{
		Model:    req.Cfg.Name,
		Backend:  req.Backend,
		Circuit:  s.cfg.Opts,
		TotalOps: plan,
	})
	if err := s.submitPlanned(j, plan); err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	s.metrics.modelJobs.Add(1)
	// The job is admitted and its memory is accounted by the queue
	// ledger; the body-buffering slot can go back before streaming.
	in.Release()

	w.Header().Set("Content-Type", "application/octet-stream")
	flusher, _ := w.(http.Flusher)
	rc := http.NewResponseController(w)
	write := func(msg []byte) {
		if ctx.Err() != nil {
			return
		}
		// Per-frame write deadline: a client that stops reading (socket
		// buffers full, connection still open) must not wedge this worker
		// and its budget token forever. Past the deadline the write fails
		// and the job cancels like any other disconnect. Best-effort — a
		// ResponseWriter without deadline support just keeps the old
		// write-failure-only detection. Deliberately never cleared: the
		// server clears it between keep-alive requests itself, and an
		// expired deadline is what makes the post-handler flush to a
		// stalled client fail fast instead of blocking conn.serve.
		rc.SetWriteDeadline(time.Now().Add(s.cfg.StreamWriteTimeout))
		if err := wire.WriteFrame(w, msg); err != nil {
			// Either way, keep draining events (so the proving job never
			// blocks on a reader that is gone) and cancel the ops the
			// pipeline has not started.
			cancel()
			if errors.Is(err, wire.ErrFrameTooLarge) {
				// The connection is healthy — the server hit its own
				// encoding bound. Say so in-stream instead of letting the
				// client see an unexplained truncated stream.
				if wire.WriteFrame(w, wire.EncodeModelStreamError(err.Error())) == nil && flusher != nil {
					flusher.Flush()
				}
			}
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	write(j.header)
	for ev := range j.events {
		if ev.err != nil {
			write(wire.EncodeModelStreamError(ev.err.Error()))
			return
		}
		write(ev.frame)
	}
}

// errReportNotIssued is the issued-only policy rejection, identical in
// both verify modes: they attest exactly the same whole-report digest.
var errReportNotIssued = fmt.Errorf("%w: report was not issued by this service under this tenant (model reports carry prover-supplied verifying material, so only reports this service streamed — resubmitted unmodified and complete, with the same Zkvc-Tenant header — are accepted; attestations also expire from the bounded issued log)",
	zkvc.ErrVerification)

// writeVerifyModelResponse writes the binary verdict of /v1/verify/model.
// Unlike the JSON verdicts of /v1/verify and /v1/verify/batch, a
// processed request is always HTTP 200 — the verdict rides in the OK
// flag.
func writeVerifyModelResponse(w http.ResponseWriter, mode zkvc.VerifyMode, err error) {
	resp := &wire.VerifyModelResponse{OK: err == nil, Mode: mode}
	if err != nil {
		resp.Error = err.Error()
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(wire.EncodeVerifyModelResponse(resp))
}

// handleVerifyModel checks a model report. Every payload in a report is
// prover-supplied — the Groth16 ops carry their verifying keys, the
// Spartan ops carry the very R1CS they claim to satisfy — so a report
// proves nothing unless this service produced it. The handler therefore
// requires the whole-report issued-log attestation (header, ops in
// order, requesting tenant) before re-running cryptographic
// verification; reports from elsewhere — or issued ones relabeled,
// reordered or spliced — are rejected with a policy error, not a bogus
// pass. Verification holds one parallel-budget token, like every other
// unit of proving-stack work on this service.
//
// The request names its mode twice: the ?mode=per-op|aggregate query
// and the mode embedded in the wire.VerifyModelRequest body, which must
// agree (routing and statement may not disagree). The verdict is a
// binary wire.VerifyModelResponse; mode=aggregate runs the whole-report
// batched check on a Groth16 report (a Spartan one verifies per op),
// attesting exactly the digest the per-op path attests.
func (s *Server) handleVerifyModel(w http.ResponseWriter, r *http.Request, in Input) {
	req := in.Msg.(*wire.VerifyModelRequest)
	rep, mode := req.Report, req.Mode
	s.metrics.verifyRequests.Add(1)
	if !s.attested(ReportDigest(rep, r.Header.Get(TenantHeader))) {
		s.metrics.modelRejects.Add(1)
		writeVerifyModelResponse(w, mode, errReportNotIssued)
		return
	}
	pool := parallel.Default()
	if err := pool.AcquireCtx(r.Context()); err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	defer pool.Release()
	var err error
	if mode == zkvc.VerifyAggregate {
		err = rep.VerifyAggregated(pcs.DefaultParams())
	} else {
		err = zkml.VerifyReport(rep, zkml.Options{PCS: pcs.DefaultParams()})
	}
	writeVerifyModelResponse(w, mode, err)
}

// decodeVerifyModel parses a /v1/verify/model request: the ?mode= query,
// which is required, and the wire.VerifyModelRequest body, whose
// embedded mode must match it. It is Routes.VerifyModel's decoder, so a
// request a coordinator forwards is one a node accepts.
func decodeVerifyModel(r *http.Request, raw []byte) (any, error) {
	q := r.URL.Query().Get("mode")
	if q == "" {
		return nil, fmt.Errorf("missing ?mode= query: /v1/verify/model needs ?mode=%s or ?mode=%s", zkvc.VerifyPerOp, zkvc.VerifyAggregate)
	}
	mode, err := zkvc.ParseVerifyMode(q)
	if err != nil {
		return nil, err
	}
	req, err := wire.DecodeVerifyModelRequest(raw)
	if err != nil {
		return nil, err
	}
	if req.Mode != mode {
		return nil, fmt.Errorf("request body carries mode %q, query requests %q", req.Mode, mode)
	}
	return req, nil
}
