package server

// Model jobs and the durable-job API. Every model job is admitted
// against the queue ledger and proves its trace on a spawned goroutine
// holding one budget token, appending each completed op frame to its
// journal (journal.go), and every stream of a job is served from that
// journal by one frame loop. POST /v1/prove/model attaches the job to its
// request and streams it in the response. POST /v1/jobs submits it:
// the answer returns at once and the client streams the frames on its
// own schedule — resuming from the last frame it acked after a
// reconnect and, with JournalDir set, after a server restart.
// Admission is honest: a saturated queue or exhausted tenant quota
// answers 429 with a Retry-After header and a queue-position snapshot in
// the body, never unbounded parking. A reaper enforces per-job TTLs:
// expired journals are deleted, their report attestations withdrawn,
// and later lookups get an honest 404 (or, for verify, the
// issued-policy error).

import (
	"context"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"zkvc/internal/wire"
	"zkvc/internal/zkml"
)

// asyncJob is the service's one model job: a trace proved op by op
// into a journal that serveFrames streams. A submitted job
// (POST /v1/jobs) is detached from its request and kept in the job
// store, its journal under JournalDir, so its stream is read and
// resumed on the client's schedule. An attached job
// (POST /v1/prove/model) belongs to its request, with a memory-only
// journal and credits that bound the op frames queued for its writer.
type asyncJob struct {
	id     string // empty for an attached job, which has no ID lookup
	tenant string
	req    *wire.ProveModelRequest // nil once proved: the journal holds the work
	plan   int
	jl     *journal

	// ctx ends the job early. A submitted job's is detached from any
	// request, and cancel ends it (DELETE, reaper, journal write
	// failure); an attached job's is its request's.
	ctx    context.Context
	cancel context.CancelFunc

	// credits is nil for a submitted job; an attached job holds one per
	// op frame journaled and not yet taken by the frame loop.
	credits  chan struct{}
	finished chan struct{} // closed when run returns

	mu sync.Mutex
	// state is JobQueued, JobRunning, JobFailed or JobCanceled; JobDone
	// is the journal's completion, which status reads from the journal.
	state byte
	// appendErr is the first op append that failed.
	appendErr error
}

// attachedQueuedFrames is an attached job's memory bound: this many op
// frames may wait behind the one being written, and the next proved op
// waits for the writer. A slow reader backpressures proving instead of
// letting finished proofs pile up in memory — the reason the endpoint
// streams at all.
const attachedQueuedFrames = 4

func (j *asyncJob) setState(st byte) {
	j.mu.Lock()
	j.state = st
	j.mu.Unlock()
}

// run proves the trace on the job's spawned goroutine. Independent ops
// fan out over whatever budget tokens are free, each drawing its
// randomness from its sequence number, so the journaled frames are
// byte-identical to a local ProveTrace at any parallelism level. The
// terminal state lands in the journal, where every stream of the job
// reads it.
func (j *asyncJob) run(s *Server) {
	defer close(j.finished)
	j.setState(wire.JobRunning)
	opts := zkml.JobOptions(j.req.Backend, s.cfg.Opts, j.req.ProveNonlinear, s.cfg.Seed)
	opts.Keys = s.keys
	opts.OnOp = func(op *zkml.OpProof) { j.journalOp(s, op) }
	_, err := zkml.ProveTraceContext(j.ctx, j.req.Cfg, j.req.Trace, opts)
	// Ops never journaled (error or cancellation) leave the queue ledger here.
	ops, _, _ := j.jl.snapshot()
	s.release(j.plan-ops, &s.metrics.modelOpsQueued)
	j.req = nil // the journal is the job's memory from here on
	j.mu.Lock()
	failedAppend := j.appendErr
	j.mu.Unlock()
	_, complete := j.jl.attestation()
	switch {
	case complete:
		// The append of the last op attested the report and made the job
		// done before any streamer could see that frame.
		s.metrics.modelJobsProved.Add(1)
	case failedAppend != nil:
		s.metrics.proveErrors.Add(1)
		j.jl.fail(fmt.Sprintf("journal write failed: %v", failedAppend))
		j.setState(wire.JobFailed)
	case err == nil, errors.Is(err, zkml.ErrCanceled):
		// Canceled, or every op proved but the job ended before the last
		// were journaled. A disconnect, a failed frame write or a DELETE
		// is routine churn, not a proving fault; keep prove_errors
		// meaningful for operators alerting on it.
		s.metrics.modelJobsCanceled.Add(1)
		j.jl.fail("job canceled before completion")
		j.setState(wire.JobCanceled)
	default:
		s.metrics.proveErrors.Add(1)
		j.jl.fail(err.Error())
		j.setState(wire.JobFailed)
	}
}

// journalOp journals one proved op, on whichever goroutine finished it;
// an attached job first takes a frame credit.
func (j *asyncJob) journalOp(s *Server, op *zkml.OpProof) {
	if j.credits != nil && !j.takeCredit(s.metrics) {
		return
	}
	if err := j.jl.append(journalRec{kind: wire.JournalOp, payload: wire.EncodeOpProof(op), opSeq: op.Seq}); err != nil {
		// Teardown racing (reaper/cancel already ended the journal) is
		// routine; anything else means an op could not be persisted, and
		// a journal that cannot persist an op must not pretend the op was
		// durably streamed — fail the job.
		if !errors.Is(err, errJournalDone) {
			j.mu.Lock()
			if j.appendErr == nil {
				j.appendErr = err
				j.cancel()
			}
			j.mu.Unlock()
		}
		return
	}
	s.metrics.modelOpsProved.Add(1)
	s.release(1, &s.metrics.modelOpsQueued)
	s.metrics.recordOpTimings(op)
}

// takeCredit waits for room in an attached job's frame queue, counted
// as a stream stall. It fails once the job's ctx ends: a reader that
// left cancels the job instead of wedging it.
func (j *asyncJob) takeCredit(m *metrics) bool {
	select {
	case j.credits <- struct{}{}:
		return true
	default:
	}
	m.streamStalls.Add(1)
	start := time.Now()
	defer func() { m.streamStallNanos.Add(time.Since(start).Nanoseconds()) }()
	select {
	case j.credits <- struct{}{}:
		return true
	case <-j.ctx.Done():
		return false
	}
}

// sending hands stream frame k to the wire. An attached job gets an op
// frame's credit back and the journal drops its copy of the payload,
// which nothing reads again (the loop's reference lives until the write
// ends). A submitted job keeps every frame for resumption.
func (j *asyncJob) sending(k int) {
	if j.credits != nil && j.jl.forget(k) {
		<-j.credits
	}
}

// attestJournaled is a submitted journal's completion hook and
// recovery's re-attestation, so /v1/verify/model vouches for the
// reassembled report until the reaper withdraws it. It is memory-only
// in the issued log: the journal is its durable record, and recovery
// re-attests exactly the journals that are still complete.
func (s *Server) attestJournaled(d [sha256.Size]byte) {
	if s.issued.addMem(d) {
		s.replicate([][sha256.Size]byte{d}, nil)
	}
}

// attestIssued is an attached job's completion hook: its journal dies
// with the request, so the durable issued log is the only record.
func (s *Server) attestIssued(d [sha256.Size]byte) {
	if s.issued.add(d) {
		s.replicate([][sha256.Size]byte{d}, nil)
	}
}

// status snapshots the job for wire.JobStatus responses.
func (j *asyncJob) status(queueUnits int64) *wire.JobStatus {
	ops, total, errMsg := j.jl.snapshot()
	j.mu.Lock()
	st := j.state
	j.mu.Unlock()
	if ops == total {
		st = wire.JobDone
	}
	out := &wire.JobStatus{ID: j.id, State: st, TotalOps: total, CompletedOps: ops, Error: errMsg}
	if st == wire.JobQueued {
		out.QueuePos = queueUnits
	}
	return out
}

// jobStore indexes live async jobs by ID and enforces per-tenant quotas.
type jobStore struct {
	mu       sync.Mutex
	jobs     map[string]*asyncJob
	byTenant map[string]int
}

func newJobStore() *jobStore {
	return &jobStore{jobs: make(map[string]*asyncJob), byTenant: make(map[string]int)}
}

// admit registers a job unless its tenant is at quota.
func (st *jobStore) admit(j *asyncJob, quota int) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.byTenant[j.tenant] >= quota {
		return false
	}
	st.jobs[j.id] = j
	st.byTenant[j.tenant]++
	return true
}

// get returns a job only to its own tenant: other tenants see the same
// 404 a nonexistent ID gets, so job IDs are not an existence oracle.
func (st *jobStore) get(id, tenant string) *asyncJob {
	st.mu.Lock()
	defer st.mu.Unlock()
	j := st.jobs[id]
	if j == nil || j.tenant != tenant {
		return nil
	}
	return j
}

// remove unregisters a job (reaper or DELETE); the caller still holds
// the pointer for teardown.
func (st *jobStore) remove(id string) *asyncJob {
	st.mu.Lock()
	defer st.mu.Unlock()
	j := st.jobs[id]
	if j == nil {
		return nil
	}
	delete(st.jobs, id)
	if st.byTenant[j.tenant]--; st.byTenant[j.tenant] == 0 {
		delete(st.byTenant, j.tenant)
	}
	return j
}

// expired lists jobs whose deadline has passed.
func (st *jobStore) expired(now time.Time) []*asyncJob {
	st.mu.Lock()
	defer st.mu.Unlock()
	var out []*asyncJob
	for _, j := range st.jobs {
		if !j.jl.deadline.IsZero() && now.After(j.jl.deadline) {
			out = append(out, j)
		}
	}
	return out
}

// closeAll releases journal file handles at shutdown (files stay for the
// successor server to recover).
func (st *jobStore) closeAll() {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, j := range st.jobs {
		j.jl.closeFile()
	}
}

// newJobID draws a 128-bit random identifier. IDs are capability-ish
// (knowing one plus the tenant header reads the stream), so they must
// not be guessable or sequential.
func newJobID() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", err
	}
	return hex.EncodeToString(b[:]), nil
}

// retryAfterSeconds turns a queue position into honest backoff advice:
// at least a second, growing with the backlog, capped so a huge queue
// never tells clients to go away for hours.
func retryAfterSeconds(pos int64) int {
	secs := 1 + int(pos/64)
	if secs > 30 {
		secs = 30
	}
	return secs
}

// rejectJob sheds one submission with 429 + Retry-After and a
// queue-position snapshot in the body — the dcs-web admission pattern:
// tell the client where it would have stood, let it decide. The refusal
// is counted where it is made: by admit, or at the tenant quota.
func (s *Server) rejectJob(w http.ResponseWriter, reason string) {
	pos := s.metrics.queueUnits.Load()
	if pos < 0 {
		pos = 0
	}
	retry := retryAfterSeconds(pos)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	w.WriteHeader(http.StatusTooManyRequests)
	w.Write(wire.EncodeJobStatus(&wire.JobStatus{
		State:             wire.JobRejected,
		QueuePos:          pos,
		RetryAfterSeconds: retry,
		Error:             reason,
	}))
}

// startModelJob is the one constructor of both model routes: plan the
// trace, journal its stream header, admit the job against the shared
// queue ledger (ops, the same coin as every other workload) and spawn
// its proving. A submitted job (id set) is detached from r, journaled
// under JournalDir when one is set, retained for ttl and entered in the
// job store under its tenant's quota. An attached job (id empty)
// belongs to r: its journal lives in memory even with a JournalDir set,
// since it can never be resumed, and its report is attested in the
// durable issued log instead. On failure the answer is written to w and
// the job is nil.
func (s *Server) startModelJob(w http.ResponseWriter, r *http.Request, in Input, req *wire.ProveModelRequest, id string, ttl time.Duration) *asyncJob {
	plan, ok := s.planModel(w, req.Trace, req.ProveNonlinear)
	if !ok {
		return nil
	}
	j := &asyncJob{id: id, tenant: r.Header.Get(TenantHeader), req: req, plan: plan, finished: make(chan struct{}), state: wire.JobQueued}
	header := wire.EncodeModelStreamHeader(&wire.ModelStreamHeader{
		Model:    req.Cfg.Name,
		Backend:  req.Backend,
		Circuit:  s.cfg.Opts,
		TotalOps: plan,
	})
	now := time.Now()
	var err error
	if id == "" {
		j.ctx, j.cancel = context.WithCancel(r.Context())
		j.credits = make(chan struct{}, attachedQueuedFrames)
		j.jl, err = newJournal(id, j.tenant, now, time.Time{}, "", header, plan, s.attestIssued)
	} else {
		j.ctx, j.cancel = context.WithCancel(context.Background())
		j.jl, err = newJournal(id, j.tenant, now, now.Add(ttl), s.cfg.JournalDir, header, plan, s.attestJournaled)
	}
	if err != nil {
		j.cancel()
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return nil
	}
	if id != "" && !s.jobs.admit(j, s.cfg.TenantJobQuota) {
		j.cancel()
		j.jl.removeFile()
		s.metrics.admissionRejects.Add(1)
		s.rejectJob(w, fmt.Sprintf("tenant holds %d live jobs, the per-tenant quota; cancel or let some expire", s.cfg.TenantJobQuota))
		return nil
	}
	if err := s.admit(plan, &s.metrics.modelOpsQueued, func() { s.spawn(func() { j.run(s) }) }); err != nil {
		s.jobs.remove(id)
		j.cancel()
		j.jl.removeFile()
		if id == "" || errors.Is(err, ErrClosed) {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
		} else {
			s.rejectJob(w, err.Error())
		}
		return nil
	}
	s.metrics.modelJobs.Add(1)
	// The job is admitted and its memory is accounted by the queue
	// ledger; the body-buffering slot can go back before streaming.
	in.Release()
	return j
}

// handleSubmitJob admits one async job and starts its proving. The 202
// response carries the job's initial status; the client streams frames
// whenever it likes.
func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request, in Input) {
	req := in.Msg.(*wire.JobSubmitRequest)
	in.Body = nil // the decoded request is all the job keeps
	id, err := newJobID()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	ttl := s.cfg.JobTTL
	if req.TTLSeconds > 0 {
		if asked := time.Duration(req.TTLSeconds) * time.Second; asked < ttl {
			ttl = asked
		}
	}
	j := s.startModelJob(w, r, in, req.Model, id, ttl)
	if j == nil {
		return
	}
	s.metrics.jobsSubmitted.Add(1)
	s.metrics.jobsActive.Add(1)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Location", "/v1/jobs/"+id)
	w.WriteHeader(http.StatusAccepted)
	w.Write(wire.EncodeJobStatus(j.status(s.metrics.queueUnits.Load())))
}

// lookupJob finds the path's job for the requesting tenant, answering
// 404 when there is none.
func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) *asyncJob {
	j := s.jobs.get(r.PathValue("id"), r.Header.Get(TenantHeader))
	if j == nil {
		http.Error(w, "no such job (it may have expired and been reaped)", http.StatusNotFound)
	}
	return j
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request, _ Input) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if _, err := w.Write(wire.EncodeJobStatus(j.status(s.metrics.queueUnits.Load()))); err != nil {
		s.metrics.countWriteError(err)
	}
}

// handleJobStream serves a submitted job's stream from frame ?from=k:
// the k frames the client acked are never re-sent.
func (s *Server) handleJobStream(w http.ResponseWriter, r *http.Request, _ Input) {
	from := 0
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, "from must be a non-negative frame count", http.StatusBadRequest)
			return
		}
		from = n
	}
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	// On a terminal journal, a resume point beyond the last frame can
	// never be satisfied — replying with an empty 200 would be exactly
	// the silent truncation the stream contract forbids (the client
	// would read "nothing new" when really its ack state is ahead of
	// anything this journal ever held). Reject it loudly. from == n
	// stays legal: the client holds everything and drains zero frames.
	if n, done := j.jl.frames(); done && from > n {
		http.Error(w, fmt.Sprintf("from=%d is beyond the stream's final frame count %d", from, n), http.StatusBadRequest)
		return
	}
	if from > 0 {
		s.metrics.jobsResumed.Add(1)
	}
	s.serveFrames(w, r, j, from)
}

// serveFrames writes a job's stream from frame `from` (frame 0 is the
// stream header) and follows the journal live until it is terminal,
// r's context ends or a write fails. It is the one frame loop of both
// model routes, so the client-side trust boundary
// (wire.ModelStreamReader) is the same for both. A stream never just
// stops: it ends at the announced op count or with an explicit error
// frame.
func (s *Server) serveFrames(w http.ResponseWriter, r *http.Request, j *asyncJob, from int) {
	w.Header().Set("Content-Type", "application/octet-stream")
	flusher, _ := w.(http.Flusher)
	rc := http.NewResponseController(w)
	for k := from; ; k++ {
		frame, ok := j.jl.frame(r.Context(), k)
		if !ok {
			return
		}
		j.sending(k)
		// Per-frame write deadline: a client that stops reading (socket
		// buffers full, connection still open) must not wedge this
		// handler — nor an attached job's goroutine and budget token —
		// forever. Past the deadline the write fails. Best-effort — a
		// ResponseWriter without deadline support just keeps the old
		// write-failure-only detection. Deliberately never cleared: the
		// server clears it between keep-alive requests itself, and an
		// expired deadline is what makes the post-handler flush to a
		// stalled client fail fast instead of blocking conn.serve.
		rc.SetWriteDeadline(time.Now().Add(s.cfg.StreamWriteTimeout))
		if err := wire.WriteFrame(w, frame); err != nil {
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
}

// handleJobCancel ends a job and forgets it: proving is canceled, the
// journal file deleted, the attestation withdrawn. In-flight streams
// drain to an explicit cancellation frame.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request, _ Input) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	s.reapJob(j.id, "job canceled by the client")
	w.WriteHeader(http.StatusNoContent)
}

// reapJob removes one job everywhere: store, journal file, issued log.
// The shared teardown of DELETE and the TTL reaper.
func (s *Server) reapJob(id, reason string) {
	j := s.jobs.remove(id)
	if j == nil {
		return
	}
	j.cancel()
	// Once fail returns the journal is terminal, so a completing append
	// either attested before it or never will. The attestation (with the
	// cluster's copies) and the counters go before the journal file, so
	// nothing sees the file gone while the report still verifies. Deleting
	// the file is the durable withdrawal (recovery re-attests only
	// journals it can read complete); a crash before it re-attests the
	// job on restart, and the journal's deadline reaps it again.
	j.jl.fail(reason)
	if d, ok := j.jl.attestation(); ok && s.issued.removeMem(d) {
		s.replicate(nil, [][sha256.Size]byte{d})
	}
	s.metrics.jobsActive.Add(-1)
	s.metrics.jobsReaped.Add(1)
	j.jl.removeFile()
}

// reaper enforces job TTLs in the background until Close.
func (s *Server) reaper() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.ReapInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.reapStop:
			return
		case <-ticker.C:
			now := time.Now()
			for _, j := range s.jobs.expired(now) {
				s.reapJob(j.id, "job expired and was reaped")
			}
		}
	}
}

// recoverJobs rebuilds the job store from Config.JournalDir at startup.
// Complete journals come back as done jobs with their report attestation
// restored, so resumable streams and /v1/verify/model survive a restart.
// Incomplete journals cannot resume proving (the trace was never
// persisted — only finished work is durable), so they are failed with an
// explicit error record rather than left looking alive; their journaled
// prefix stays streamable, honestly terminated. Expired journals and
// files that hold no valid journal prefix are deleted.
func (s *Server) recoverJobs() error {
	entries, err := os.ReadDir(s.cfg.JournalDir)
	if err != nil {
		return fmt.Errorf("server: reading journal dir: %w", err)
	}
	now := time.Now()
	for _, ent := range entries {
		if ent.IsDir() || filepath.Ext(ent.Name()) != journalExt {
			continue
		}
		path := filepath.Join(s.cfg.JournalDir, ent.Name())
		jl, err := loadJournal(path)
		if err != nil {
			os.Remove(path)
			continue
		}
		if !jl.deadline.IsZero() && now.After(jl.deadline) {
			// Expired while the process was down: reap it now, before
			// it would be re-attested below.
			jl.removeFile()
			s.metrics.jobsReaped.Add(1)
			continue
		}
		j := &asyncJob{id: jl.id, tenant: jl.tenant, plan: jl.totalOps, jl: jl}
		j.ctx, j.cancel = context.WithCancel(context.Background())
		if d, ok := jl.attestation(); ok {
			s.attestJournaled(d)
		} else {
			// Mid-proving at the crash: the acked prefix is intact, the
			// rest is gone with the process. Say so in-stream (a journal
			// that already failed keeps its own error record).
			jl.fail("server restarted before the job completed; the journaled prefix is intact, resubmit to prove the rest")
			j.state = wire.JobFailed
		}
		s.jobs.admit(j, int(^uint(0)>>1)) // recovery ignores quotas: the work already exists
		s.metrics.jobsActive.Add(1)
	}
	return nil
}
