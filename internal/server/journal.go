package server

// The per-job write-ahead journal every model job proves into and every
// stream of the job is served from. A journal is an append-only
// sequence of hash-chained records: one manifest (job identity +
// retention policy), one model-stream header, one record per proved op
// in completion order, and — only if the job ended early — one terminal
// error record. Records 1..n are byte-for-byte the frames of the job's
// model stream, so resuming a client from frame k is replaying journal
// records k+1 onward; nothing is re-proved and nothing already acked is
// re-sent. The append that completes the journal also attests its
// report, before any reader can see that record. With a JournalDir
// configured a submitted job's journal is also a chainlog (chainlog.go)
// of framed wire.JournalRecord messages, fsynced per append, and a
// restarted server recovers every journal it finds: the hash chain is
// recomputed from the job ID, a torn or tampered suffix is truncated
// (and the job honestly failed), and a complete journal's report is
// re-attested so /v1/verify/model keeps vouching for it.

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"zkvc/internal/wire"
)

// journalExt names journal files inside Config.JournalDir.
const journalExt = ".journal"

// errJournalDone reports an append to a journal that already reached a
// terminal record (the reaper or a cancel got there first). It is
// routine teardown racing, not a persistence failure.
var errJournalDone = errors.New("server: journal already terminal")

// journalRec is one journal entry: the record kind, its payload (an
// encoded JobManifest, ModelStreamHeader, OpProof or ModelStreamError,
// by kind) and, for an op record, the op's position in the report.
type journalRec struct {
	kind    byte
	payload []byte
	opSeq   int
}

// link chains the payload only: the grammar and the record's position
// fix its kind.
func (r journalRec) link() []byte { return r.payload }

func (r journalRec) frame(seq int64, prev [32]byte) []byte {
	return wire.EncodeJournalRecord(&wire.JournalRecord{Seq: int(seq), Kind: r.kind, Prev: prev, Payload: r.payload})
}

// journal is one job's write-ahead log plus the subscription machinery
// stream handlers block on. It outlives its job in the store: a reaped
// or canceled job's in-flight readers keep their pointer and drain to a
// terminal record, they just cannot reconnect.
type journal struct {
	id       string
	tenant   string
	created  time.Time
	deadline time.Time // zero value = no expiry
	// attest is called by the append that completes the journal, under
	// mu and before readers are woken, with the report's digest; holding
	// mu is what makes "visible" and "attested" one step, so attest must
	// not call back into the journal. It may block: an attached job's
	// hook fsyncs the issued log, which holds up only this journal.
	attest func(d [sha256.Size]byte)

	mu       sync.Mutex
	log      *chainlog         // nil = memory-only journal
	updated  chan struct{}     // closed and replaced on every append
	recs     []journalRec      // index = record seq; recs[0] is the manifest
	opHashes [][32]byte        // op frame digests at their report positions
	ops      int               // op records appended so far
	totalOps int               // announced op count (from the header record)
	done     bool              // terminal: complete, failed or canceled
	errMsg   string            // message of the terminal error record, if any
	digest   [sha256.Size]byte // the report's attestation, once complete
}

// newJournal creates a journal for a freshly admitted job and writes its
// first two records (manifest, stream header). With dir non-empty the
// journal is also persisted to <dir>/<id>.journal.
func newJournal(id, tenant string, created, deadline time.Time, dir string, header []byte, totalOps int, attest func([sha256.Size]byte)) (*journal, error) {
	jl := &journal{
		id:       id,
		tenant:   tenant,
		created:  created,
		deadline: deadline,
		attest:   attest,
		updated:  make(chan struct{}),
		opHashes: make([][32]byte, totalOps),
		totalOps: totalOps,
	}
	if dir != "" {
		log, err := createChainlog(filepath.Join(dir, id+journalExt), chainSeed(id))
		if err != nil {
			return nil, fmt.Errorf("server: creating journal: %w", err)
		}
		jl.log = log
	}
	manifest := &wire.JobManifest{ID: id, Tenant: tenant, CreatedUnix: created.Unix()}
	if !deadline.IsZero() {
		manifest.DeadlineUnix = deadline.Unix()
	}
	for _, rec := range []journalRec{{kind: wire.JournalManifest, payload: wire.EncodeJobManifest(manifest)}, {kind: wire.JournalHeader, payload: header}} {
		if err := jl.append(rec); err != nil {
			jl.removeFile()
			return nil, err
		}
	}
	return jl, nil
}

// append writes one record: persist it (fsynced, so an acked frame
// survives a crash), fold it into the journal's state — the completing
// op attests the report there — and only then publish it to blocked
// readers.
func (jl *journal) append(rec journalRec) error {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if jl.done {
		return errJournalDone
	}
	if jl.log != nil {
		if err := jl.log.append(rec); err != nil {
			return fmt.Errorf("server: journal append: %w", err)
		}
	}
	jl.apply(rec)
	close(jl.updated)
	jl.updated = make(chan struct{})
	return nil
}

// apply folds one record into the journal's state. It is the one home
// of the terminal transitions, shared by live appends and replay: the
// totalOps'th op record completes the journal and attests its report,
// an error record fails it.
func (jl *journal) apply(rec journalRec) {
	jl.recs = append(jl.recs, rec)
	switch rec.kind {
	case wire.JournalOp:
		jl.opHashes[rec.opSeq] = sha256.Sum256(rec.payload)
		if jl.ops++; jl.ops == jl.totalOps {
			jl.done = true
			jl.digest = modelReportDigest(jl.recs[1].payload, jl.opHashes, jl.tenant)
			if jl.attest != nil {
				jl.attest(jl.digest)
			}
		}
	case wire.JournalError:
		jl.done = true
		jl.errMsg, _ = wire.DecodeModelStreamError(rec.payload)
	}
}

// fail records a terminal error unless the journal already ended; it is
// how cancellation, reaping and crash recovery keep the never-silent-
// truncation promise — a reader always drains to either the announced
// op count or an explicit error frame.
func (jl *journal) fail(msg string) {
	jl.mu.Lock()
	if jl.done {
		jl.mu.Unlock()
		return
	}
	jl.mu.Unlock()
	// Encode outside the lock; append re-checks done under it.
	jl.append(journalRec{kind: wire.JournalError, payload: wire.EncodeModelStreamError(msg)})
}

// frame returns stream frame k (journal record k+1), blocking until it
// exists, the stream ends before it, or ctx is done. ok=false means "no
// such frame will ever exist": the journal is terminal and fully
// replayed past k, or the caller gave up.
func (jl *journal) frame(ctx context.Context, k int) (payload []byte, ok bool) {
	for {
		jl.mu.Lock()
		if k+1 < len(jl.recs) {
			p := jl.recs[k+1].payload
			jl.mu.Unlock()
			return p, true
		}
		if jl.done {
			jl.mu.Unlock()
			return nil, false
		}
		ch := jl.updated
		jl.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return nil, false
		}
	}
}

// forget drops stream frame k's payload if it is an op frame, and
// reports whether it was. Only an attached job's frame loop calls it:
// nothing replays that journal. The header record stays, because the
// report digest reads it.
func (jl *journal) forget(k int) bool {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	rec := &jl.recs[k+1]
	if rec.kind != wire.JournalOp {
		return false
	}
	rec.payload = nil
	return true
}

// frames reports how many stream frames exist right now (the manifest
// record is not a frame) and whether the journal is terminal — i.e.
// whether that count is final.
func (jl *journal) frames() (n int, done bool) {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	return len(jl.recs) - 1, jl.done
}

// snapshot reports the journal's progress for job status responses.
func (jl *journal) snapshot() (ops, totalOps int, errMsg string) {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	return jl.ops, jl.totalOps, jl.errMsg
}

// attestation returns the report digest the journal attested, and
// whether it did: exactly when every announced op is journaled.
func (jl *journal) attestation() (d [sha256.Size]byte, ok bool) {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	return jl.digest, jl.ops == jl.totalOps
}

// closeFile releases the file handle (the records stay on disk).
func (jl *journal) closeFile() {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if jl.log != nil {
		jl.log.close()
		jl.log = nil
	}
}

// removeFile deletes the on-disk journal (reaper and cancel path).
func (jl *journal) removeFile() {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if jl.log != nil {
		jl.log.remove()
		jl.log = nil
	}
}

// loadJournal reads one journal file back, replaying the records that
// fit the grammar (manifest, header, ops, optional trailing error) into
// a fresh journal. Whatever does not fit — a record that fails to
// decode, breaks the chain or violates the grammar, and everything after
// it — is a torn tail the chainlog cuts off, because a record that
// cannot be proven to belong to this journal must not be replayed as if
// the client's acked prefix included it. A file without a valid
// manifest+header prefix is not a journal at all and returns an error.
func loadJournal(path string) (*journal, error) {
	id := strings.TrimSuffix(filepath.Base(path), journalExt)
	jl := &journal{id: id, updated: make(chan struct{})}
	seen := map[int]bool{}
	decode := func(frame []byte) (journalRec, int64, [32]byte, error) {
		rec, err := wire.DecodeJournalRecord(frame)
		if err != nil {
			return journalRec{}, 0, [32]byte{}, err
		}
		return journalRec{kind: rec.Kind, payload: rec.Payload}, int64(rec.Seq), rec.Prev, nil
	}
	log, err := openChainlog(path, chainSeed(id), decode, func(rec journalRec) bool {
		if !jl.fits(&rec, seen) {
			return false
		}
		jl.apply(rec)
		return true
	})
	if err != nil {
		return nil, err
	}
	jl.log = log
	if len(jl.recs) < 2 {
		log.close()
		return nil, fmt.Errorf("server: %s holds no valid journal prefix", filepath.Base(path))
	}
	return jl, nil
}

// fits checks one replayed record against the journal grammar and reads
// what apply needs out of it: the manifest's identity and retention, the
// header's op count, an op's report position (each distinct and below
// the count). An error record must carry a decodable message, and
// nothing may follow a terminal record.
func (jl *journal) fits(rec *journalRec, seen map[int]bool) bool {
	switch seq := len(jl.recs); {
	case jl.done:
		return false
	case seq == 0:
		m, err := wire.DecodeJobManifest(rec.payload)
		if rec.kind != wire.JournalManifest || err != nil || m.ID != jl.id {
			return false
		}
		jl.tenant = m.Tenant
		jl.created = time.Unix(m.CreatedUnix, 0)
		if m.DeadlineUnix != 0 {
			jl.deadline = time.Unix(m.DeadlineUnix, 0)
		}
	case seq == 1:
		hdr, err := wire.DecodeModelStreamHeader(rec.payload)
		if rec.kind != wire.JournalHeader || err != nil || hdr.TotalOps < 1 {
			return false
		}
		jl.totalOps = hdr.TotalOps
		jl.opHashes = make([][32]byte, hdr.TotalOps)
	case rec.kind == wire.JournalOp:
		op, err := wire.DecodeOpProof(rec.payload)
		if err != nil || op.Seq >= jl.totalOps || seen[op.Seq] {
			return false
		}
		seen[op.Seq] = true
		rec.opSeq = op.Seq
	case rec.kind == wire.JournalError:
		_, err := wire.DecodeModelStreamError(rec.payload)
		return err == nil
	default:
		return false
	}
	return true
}
