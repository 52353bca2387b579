package wire

// Durable-job messages: submitting a model proof as an asynchronous job,
// polling its status, resuming its frame stream, and the journal records
// the server persists so a stream survives reconnects and restarts. All
// of them cross the unauthenticated HTTP surface (and journal records are
// additionally re-read from disk after a crash), so the full strict-decode
// discipline applies: bounded lengths, no trailing bytes, canonical
// re-encode, errors instead of panics.

// Job lifecycle states carried by JobStatus.
const (
	JobQueued   byte = 0 // admitted, waiting for a worker
	JobRunning  byte = 1 // a worker is proving ops
	JobDone     byte = 2 // every op proved, journal complete
	JobFailed   byte = 3 // terminal error recorded in the journal
	JobCanceled byte = 4 // canceled by the client or the reaper
	JobRejected byte = 5 // never admitted (saturation or quota)
)

// maxJobState bounds the state byte; decoders reject anything above it.
const maxJobState = JobRejected

// Bounds specific to job messages.
const (
	maxTTLSeconds        = 1 << 22 // ~48 days; far beyond any sane journal TTL
	maxRetryAfterSeconds = 1 << 20 // ~12 days; Retry-After beyond this is a bug
	maxJournalPayload    = maxFrameLen
	// A journal holds one manifest record, one stream-header record, one
	// record per op and at most one terminal error record.
	maxJournalSeq = maxTraceOps + 3
)

// JobSubmitRequest asks the service to prove a model trace asynchronously:
// the response is a job ID, not a stream, and the frames are read back —
// possibly much later, possibly more than once — from the job's stream.
// TTLSeconds caps how long the finished journal is retained (0 means the
// server's default); the payload is the same config + trace a synchronous
// /v1/prove/model request carries.
type JobSubmitRequest struct {
	TTLSeconds int
	Model      *ProveModelRequest
}

// EncodeJobSubmitRequest serializes an asynchronous job submission.
func EncodeJobSubmitRequest(r *JobSubmitRequest) []byte {
	e := newEnc(TagJobSubmitRequest)
	e.u32(uint32(r.TTLSeconds))
	encodeProveModelBody(e, r.Model)
	return e.buf
}

// DecodeJobSubmitRequest parses an asynchronous job submission with the
// same validation the synchronous prove-model decoder applies.
func DecodeJobSubmitRequest(b []byte) (*JobSubmitRequest, error) {
	return decode(b, TagJobSubmitRequest, func(d *dec) *JobSubmitRequest {
		r := &JobSubmitRequest{}
		r.TTLSeconds = d.u32max("job TTL seconds", maxTTLSeconds)
		r.Model = decodeProveModelBody(d)
		return r
	})
}

// JobStatus reports where a job is in its lifecycle. It is the body of
// the 202 a successful submission returns, the response to a status poll,
// and — with State == JobRejected — the body of a 429: QueuePos is how
// many queue units stand ahead of the rejected work and RetryAfterSeconds
// mirrors the Retry-After header, so a client can make an informed retry
// decision instead of hammering a saturated pool. ID is empty exactly
// when the job was never admitted (rejected work has no identity).
type JobStatus struct {
	ID                string
	State             byte
	TotalOps          int
	CompletedOps      int
	QueuePos          int64
	RetryAfterSeconds int
	Error             string
}

// EncodeJobStatus serializes a job status report.
func EncodeJobStatus(s *JobStatus) []byte {
	e := newEnc(TagJobStatus)
	e.str(s.ID)
	e.u8(s.State)
	e.u32(uint32(s.TotalOps))
	e.u32(uint32(s.CompletedOps))
	e.u64(uint64(s.QueuePos))
	e.u32(uint32(s.RetryAfterSeconds))
	e.str(s.Error)
	return e.buf
}

// DecodeJobStatus parses a job status report.
func DecodeJobStatus(b []byte) (*JobStatus, error) {
	return decode(b, TagJobStatus, func(d *dec) *JobStatus {
		s := &JobStatus{}
		s.ID = d.str("job ID")
		s.State = d.u8max("job state", maxJobState)
		if (s.ID == "") != (s.State == JobRejected) {
			d.fail("job state %d and ID %q disagree: exactly the rejected jobs have no ID", s.State, s.ID)
		}
		s.TotalOps = d.u32max("job total ops", maxTraceOps)
		s.CompletedOps = d.u32max("job completed ops", maxTraceOps)
		if s.CompletedOps > s.TotalOps {
			d.fail("%d completed ops exceed %d total", s.CompletedOps, s.TotalOps)
		}
		s.QueuePos = d.u64max("queue position", maxStatInt)
		s.RetryAfterSeconds = d.u32max("retry-after seconds", maxRetryAfterSeconds)
		s.Error = d.str("job error")
		return s
	})
}

// Journal record kinds. A job's journal is, in order: one manifest
// record (kind 0, payload an encoded JobManifest), one stream-header
// record (kind 1, payload an encoded ModelStreamHeader), one op record
// per proved op in completion order (kind 2, payload an encoded OpProof),
// and — only if the job ended early — one terminal error record (kind 3,
// payload an encoded ModelStreamError). Records 1..n are exactly the
// frames of the model stream, so "resume from frame k" is "replay journal
// records k+1 onward".
const (
	JournalManifest byte = 0
	JournalHeader   byte = 1
	JournalOp       byte = 2
	JournalError    byte = 3
)

const maxJournalKind = JournalError

// JournalRecord is one entry of a job's write-ahead journal. Prev is the
// hash chain up to the previous record (sha256 over the job ID for the
// first record), so a journal read back from disk proves its own
// integrity and any torn or tampered suffix is detected instead of
// replayed; see the server's chainlog (internal/server/chainlog.go) for
// the exact chaining rule.
type JournalRecord struct {
	Seq     int
	Kind    byte
	Prev    [32]byte
	Payload []byte
}

// EncodeJournalRecord serializes one journal entry.
func EncodeJournalRecord(r *JournalRecord) []byte {
	e := newEnc(TagJournalRecord)
	e.u32(uint32(r.Seq))
	e.u8(r.Kind)
	e.hash32(&r.Prev)
	e.bytes(r.Payload)
	return e.buf
}

// DecodeJournalRecord parses one journal entry. The payload is opaque at
// this layer (its own decoder validates it by kind); only its size is
// bounded here.
func DecodeJournalRecord(b []byte) (*JournalRecord, error) {
	return decode(b, TagJournalRecord, func(d *dec) *JournalRecord {
		r := &JournalRecord{}
		r.Seq = d.u32max("journal sequence", maxJournalSeq)
		r.Kind = d.u8max("journal record kind", maxJournalKind)
		r.Prev = d.hash32()
		r.Payload = d.blob("journal payload", maxJournalPayload)
		return r
	})
}

// JobManifest is the payload of a journal's first record: the identity
// and retention policy of the job, so a journal directory recovered
// after a restart knows whose work each file holds, which tenant may
// read it, and when the reaper should delete it. DeadlineUnix of 0 means
// no expiry (retained until explicitly canceled).
type JobManifest struct {
	ID           string
	Tenant       string
	CreatedUnix  int64
	DeadlineUnix int64
}

// EncodeJobManifest serializes a journal manifest.
func EncodeJobManifest(m *JobManifest) []byte {
	e := newEnc(TagJobManifest)
	e.str(m.ID)
	e.str(m.Tenant)
	e.u64(uint64(m.CreatedUnix))
	e.u64(uint64(m.DeadlineUnix))
	return e.buf
}

// DecodeJobManifest parses a journal manifest.
func DecodeJobManifest(b []byte) (*JobManifest, error) {
	return decode(b, TagJobManifest, func(d *dec) *JobManifest {
		m := &JobManifest{}
		m.ID = d.strNonEmpty("job ID")
		m.Tenant = d.str("job tenant")
		m.CreatedUnix = d.u64max("creation time", maxStatInt)
		m.DeadlineUnix = d.u64max("deadline", maxStatInt)
		return m
	})
}
