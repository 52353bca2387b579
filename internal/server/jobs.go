package server

// The asynchronous durable-job layer: POST /v1/jobs admits a model trace
// and returns immediately; the proving work flows through the same
// dispatcher, worker pool, queue ledger and budget discipline as a
// synchronous model job, but every completed op frame is appended to the
// job's write-ahead journal (journal.go) instead of a response body, so
// the client streams the frames on its own schedule — resuming from the
// last frame it acked after a reconnect and, with JournalDir set, after
// a server restart. Admission is honest: a saturated pool or exhausted
// tenant quota answers 429 with a Retry-After header and a queue-position
// snapshot in the body, never unbounded parking. A reaper enforces
// per-job TTLs: expired journals are deleted, their report attestations
// withdrawn, and later lookups get an honest 404 (or, for verify, the
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

	"zkvc"
	"zkvc/internal/nn"
	"zkvc/internal/wire"
	"zkvc/internal/zkml"
)

// asyncJob is the third submission kind of the dispatcher: a model trace
// proved into a journal rather than a response stream.
type asyncJob struct {
	id     string
	tenant string

	backend        zkml.Backend
	proveNonlinear bool
	cfg            nn.Config
	trace          *nn.Trace

	plan int
	jl   *journal

	// ctx is detached from any request — the job survives its submitter.
	// cancel ends it early (DELETE, reaper, journal write failure).
	ctx    context.Context
	cancel context.CancelFunc

	mu sync.Mutex
	// state is JobQueued, JobRunning, JobFailed or JobCanceled; JobDone
	// is the journal's completion, which status reads from the journal.
	state byte
}

func (*asyncJob) submissionKind() string { return "async-job" }

func (j *asyncJob) setState(st byte) {
	j.mu.Lock()
	j.state = st
	j.mu.Unlock()
}

// run proves the trace on a worker goroutine, exactly like a synchronous
// model job — same per-op seeding, so the journaled frames are
// byte-identical to a streamed or local run at the same seed — but frames
// land in the journal and the terminal state lands in the store instead
// of a response body.
func (j *asyncJob) run(s *Server, _ *zkvc.MatMulProver) {
	j.setState(wire.JobRunning)
	// OnOp runs on whichever worker goroutine finished the op, so the
	// first-append-failure slot is locked; the journal counts the ops.
	var appendErrMu sync.Mutex
	var appendErr error
	opts := s.modelOpts(j.backend, j.proveNonlinear, func(op *zkml.OpProof) {
		if err := j.jl.append(journalRec{kind: wire.JournalOp, payload: wire.EncodeOpProof(op), opSeq: op.Seq}); err != nil {
			// Teardown racing (reaper/cancel already ended the journal) is
			// routine; anything else means an op could not be persisted, and
			// a journal that cannot persist an op must not pretend the op was
			// durably streamed — fail the job.
			if !errors.Is(err, errJournalDone) {
				appendErrMu.Lock()
				if appendErr == nil {
					appendErr = err
					j.cancel()
				}
				appendErrMu.Unlock()
			}
			return
		}
		s.metrics.modelOpsProved.Add(1)
		s.metrics.modelOpsQueued.Add(-1)
		s.metrics.queueUnits.Add(-1)
		s.metrics.recordOpTimings(op)
	})
	_, err := zkml.ProveTraceContext(j.ctx, j.cfg, j.trace, opts)
	// Ops never proved (error or cancellation) leave the queue ledger here.
	ops, _, _ := j.jl.snapshot()
	delta := int64(ops - j.plan)
	s.metrics.modelOpsQueued.Add(delta)
	s.metrics.queueUnits.Add(delta)
	j.trace = nil // the journal is the job's memory from here on
	appendErrMu.Lock()
	failedAppend := appendErr
	appendErrMu.Unlock()
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
	case errors.Is(err, zkml.ErrCanceled):
		s.metrics.modelJobsCanceled.Add(1)
		j.jl.fail("job canceled before completion")
		j.setState(wire.JobCanceled)
	case err != nil:
		s.metrics.proveErrors.Add(1)
		j.jl.fail(err.Error())
		j.setState(wire.JobFailed)
	}
}

// attestJournaled attests a journaled report exactly like a streamed
// one: the digest binds header, op frames in sequence order, and tenant,
// so /v1/verify/model vouches for the reassembled report until the
// reaper withdraws it. It is the journal's completion hook and
// recovery's re-attestation. The attestation is memory-only in the
// issued log — the journal is its durable record, and recovery
// re-attests exactly the journals that are still complete.
func (s *Server) attestJournaled(d [sha256.Size]byte) {
	if s.issued.addMem(d) {
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
// tell the client where it would have stood, let it decide.
func (s *Server) rejectJob(w http.ResponseWriter, reason string) {
	s.metrics.admissionRejects.Add(1)
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

// handleSubmitJob admits one async job: plan the trace, charge the
// shared queue ledger (ops, same coin as every other workload), journal
// the manifest + stream header, and hand the proving to the dispatcher.
// The 202 response carries the job's initial status; the client streams
// frames whenever it likes.
func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request, in Input) {
	req := in.Msg.(*wire.JobSubmitRequest)
	in.Body = nil // the decoded request is all the job keeps
	plan, ok := s.planModel(w, req.Model.Trace, req.Model.ProveNonlinear)
	if !ok {
		return
	}
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
	now := time.Now()
	tenant := r.Header.Get(TenantHeader)
	header := wire.EncodeModelStreamHeader(&wire.ModelStreamHeader{
		Model:    req.Model.Cfg.Name,
		Backend:  req.Model.Backend,
		Circuit:  s.cfg.Opts,
		TotalOps: plan,
	})
	jl, err := newJournal(id, tenant, now, now.Add(ttl), s.cfg.JournalDir, header, plan, s.attestJournaled)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	j := &asyncJob{
		id:             id,
		tenant:         tenant,
		backend:        req.Model.Backend,
		proveNonlinear: req.Model.ProveNonlinear,
		cfg:            req.Model.Cfg,
		trace:          req.Model.Trace,
		plan:           plan,
		jl:             jl,
		ctx:            ctx,
		cancel:         cancel,
		state:          wire.JobQueued,
	}
	if !s.jobs.admit(j, s.cfg.TenantJobQuota) {
		cancel()
		jl.removeFile()
		s.rejectJob(w, fmt.Sprintf("tenant holds %d live jobs, the per-tenant quota; cancel or let some expire", s.cfg.TenantJobQuota))
		return
	}
	if err := s.submitPlanned(j, plan); err != nil {
		s.jobs.remove(id)
		cancel()
		jl.removeFile()
		if errors.Is(err, ErrClosed) {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		s.rejectJob(w, err.Error())
		return
	}
	s.metrics.jobsSubmitted.Add(1)
	s.metrics.jobsActive.Add(1)
	s.metrics.modelJobs.Add(1)
	in.Release()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Location", "/v1/jobs/"+id)
	w.WriteHeader(http.StatusAccepted)
	w.Write(wire.EncodeJobStatus(j.status(s.metrics.queueUnits.Load())))
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request, _ Input) {
	j := s.jobs.get(r.PathValue("id"), r.Header.Get(TenantHeader))
	if j == nil {
		http.Error(w, "no such job (it may have expired and been reaped)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if _, err := w.Write(wire.EncodeJobStatus(j.status(s.metrics.queueUnits.Load()))); err != nil {
		s.metrics.countWriteError(err)
	}
}

func (s *Server) handleJobStreamGet(w http.ResponseWriter, r *http.Request, _ Input) {
	from := 0
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, "from must be a non-negative frame count", http.StatusBadRequest)
			return
		}
		from = n
	}
	s.streamJob(w, r, r.PathValue("id"), from)
}

func (s *Server) handleJobStreamPost(w http.ResponseWriter, r *http.Request, in Input) {
	req := in.Msg.(*wire.JobStreamRequest)
	s.streamJob(w, r, req.ID, req.From)
}

// streamJob replays a job's journal from frame `from` (frame 0 is the
// stream header) and keeps following it live until the journal is
// terminal — the same wire format as /v1/prove/model, so the client-side
// trust boundary (wire.ModelStreamReader) is reused unchanged. Frames
// the client acked are never re-sent (the replay starts exactly at
// `from`) and a stream never just stops: it ends at the announced op
// count or with an explicit error frame.
func (s *Server) streamJob(w http.ResponseWriter, r *http.Request, id string, from int) {
	j := s.jobs.get(id, r.Header.Get(TenantHeader))
	if j == nil {
		http.Error(w, "no such job (it may have expired and been reaped)", http.StatusNotFound)
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
	w.Header().Set("Content-Type", "application/octet-stream")
	flusher, _ := w.(http.Flusher)
	rc := http.NewResponseController(w)
	for k := from; ; k++ {
		frame, ok := j.jl.frame(r.Context(), k)
		if !ok {
			return
		}
		// Same per-frame deadline discipline as the synchronous stream: a
		// reader that stops reading must not wedge this handler forever.
		rc.SetWriteDeadline(time.Now().Add(s.cfg.StreamWriteTimeout))
		if err := wire.WriteFrame(w, frame); err != nil {
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
	id := r.PathValue("id")
	if s.jobs.get(id, r.Header.Get(TenantHeader)) == nil {
		http.Error(w, "no such job (it may have expired and been reaped)", http.StatusNotFound)
		return
	}
	s.reapJob(id, "job canceled by the client")
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
	// either attested before it or never will.
	j.jl.fail(reason)
	j.jl.removeFile()
	// Deleting the journal IS the durable withdrawal (recovery only
	// re-attests journals it can still read complete); here the
	// in-memory attestation goes, and the cluster learns the removal.
	if d, ok := j.jl.attestation(); ok && s.issued.removeMem(d) {
		s.replicate(nil, [][sha256.Size]byte{d})
	}
	s.metrics.jobsActive.Add(-1)
	s.metrics.jobsReaped.Add(1)
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
