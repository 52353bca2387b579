package server

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"log"
	"path/filepath"
	"sync"
	"sync/atomic"

	"zkvc"
	"zkvc/internal/wire"
)

// issuedLogCap bounds the issued-proof log: 64k digests of 32 bytes is
// ~2 MiB in the FIFO plus comparable map overhead — a few MiB for a
// server, cheap next to one cached Groth16 CRS. Once it fills, the oldest
// attestations expire first, so /v1/verify stops vouching for the
// service's oldest proofs rather than growing without bound.
const issuedLogCap = 1 << 16

// issuedLogFile names the durable issued log inside Config.JournalDir.
const issuedLogFile = "issued.log"

// issuedCompactSlack is how many garbage records (tombstones, superseded
// or evicted adds) the on-disk log tolerates beyond the live count before
// it is compacted. The slack keeps compaction amortized: a log is only
// rewritten once the dead weight exceeds the live set by a fixed margin.
// A variable only so tests can trigger compaction without thousands of
// fsynced appends.
var issuedCompactSlack int64 = 4096

// IssuedDigest fingerprints an issued (statement, proof) pair by its
// canonical wire encoding. The wire format is injective (strict decoding,
// re-encode yields identical bytes), so a client posting back the exact
// proof it was handed — and nothing else — reproduces the digest.
//
// The eight zero bytes after the encoding are the CRS tag that epoch
// proofs once bound their digests to. No proof carries a tag any more,
// but the suffix stays so the digests in issued.log files written by
// earlier versions keep matching after an upgrade. It is exported for
// the cluster router, which picks a proof's replica set for verify
// failover by it.
func IssuedDigest(x *zkvc.Matrix, proof *zkvc.MatMulProof) [sha256.Size]byte {
	h := sha256.New()
	h.Write(wire.EncodeVerifyRequest(&wire.VerifyRequest{X: x, Proof: proof}))
	var crsTag [8]byte
	h.Write(crsTag[:])
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

// IssuedBatchDigest is the batch-response analogue: the digest of the
// exact coalesced response a /v1/prove client was handed, which
// /v1/verify/batch requires for Groth16 batches (their verifying key is
// only meaningful when this service ran the setup). Exported for the
// cluster router, like IssuedDigest.
func IssuedBatchDigest(resp *wire.ProveResponse) [sha256.Size]byte {
	return sha256.Sum256(wire.EncodeProveResponse(resp))
}

// issuedBatchDigests computes IssuedBatchDigest for every recipient index
// 0..n-1 of one coalesced batch. The n encodings differ only in the Index
// u32 right after the wire header, so the batch — which can be megabytes
// across the Xs and proof — is encoded once and the four index bytes are
// patched per recipient instead of re-encoding n times.
func issuedBatchDigests(xs []*zkvc.Matrix, batch *zkvc.BatchProof, n int) [][sha256.Size]byte {
	encoded := wire.EncodeProveResponse(&wire.ProveResponse{Xs: xs, Batch: batch})
	out := make([][sha256.Size]byte, n)
	for i := range out {
		binary.BigEndian.PutUint32(encoded[wire.HeaderLen:], uint32(i))
		out[i] = sha256.Sum256(encoded)
	}
	return out
}

// issuedChainSeed starts the issued log's hash chain. Unlike job
// journals the log has exactly one chain per node, so the seed is a
// fixed label rather than a per-file identity.
var issuedChainSeed = chainSeed("zkvc issued log v1")

// issuedRec is one issued-log record: an add attests a digest, a
// tombstone withdraws it. This version writes tag 0 only; replay still
// reads the tag, because records written by earlier versions carry the
// CRS tag of the epoch proof they attested and chain over it.
type issuedRec struct {
	kind   byte
	digest [sha256.Size]byte
	tag    uint64
}

// link is the canonical bytes a record contributes to the hash chain:
// the attested digest, the record kind and the CRS tag — everything
// except Seq and Prev, which the chain itself fixes.
func (r issuedRec) link() []byte {
	p := make([]byte, 0, sha256.Size+1+8)
	p = append(p, r.digest[:]...)
	p = append(p, r.kind)
	return binary.BigEndian.AppendUint64(p, r.tag)
}

func (r issuedRec) frame(seq int64, prev [32]byte) []byte {
	return wire.EncodeIssuedRecord(&wire.IssuedRecord{Seq: seq, Kind: r.kind, Prev: prev, Digest: r.digest, CRSTag: r.tag})
}

// issuedLog is a bounded FIFO set of digests of the proofs this service
// issued: the attestation /v1/verify needs before re-checking a proof
// against the verifying key it carries, and /v1/verify/model before
// vouching for a report. The set maps each
// digest to its FIFO slot so remove (the job reaper withdrawing a
// deleted report's attestation) is O(1): the slot keeps a tombstone
// until eviction reaches it, and eviction double-checks the slot still
// owns its digest so a removed-then-readded digest is never evicted by
// its stale slot.
//
// With a path configured the log is also durable: a chainlog
// (chainlog.go) of wire.IssuedRecord frames, fsynced per logical append
// and cut back to its intact prefix on load, so a node restart keeps
// every attestation — PR 1's issued-only policy survives the process.
// Removals append tombstone records rather than deleting in place; once
// the dead records outgrow the live set by issuedCompactSlack the file
// is compacted by rewriting the live digests under a fresh chain.
type issuedLog struct {
	mu   sync.Mutex
	set  map[[sha256.Size]byte]int // digest → FIFO slot
	fifo [][sha256.Size]byte
	next int // next fifo slot to overwrite once full
	cap  int

	// log == nil means memory-only (no JournalDir, or the replicated-
	// attestation set, which is rebuilt by its peers).
	log     *chainlog
	errs    atomic.Int64
	logOnce sync.Once
}

func newIssuedLog(cap int) *issuedLog {
	return &issuedLog{set: make(map[[sha256.Size]byte]int), cap: cap}
}

// openIssuedLog opens (or creates) the durable issued log in dir,
// replaying every intact record into the in-memory set. The replay
// applies the same add/remove logic appends use, so the recovered state
// is exactly what the sequence of surviving records produces.
func openIssuedLog(cap int, dir string) (*issuedLog, error) {
	l := newIssuedLog(cap)
	decode := func(frame []byte) (issuedRec, int64, [32]byte, error) {
		rec, err := wire.DecodeIssuedRecord(frame)
		if err != nil {
			return issuedRec{}, 0, [32]byte{}, err
		}
		return issuedRec{kind: rec.Kind, digest: rec.Digest, tag: rec.CRSTag}, rec.Seq, rec.Prev, nil
	}
	log, err := openChainlog(filepath.Join(dir, issuedLogFile), issuedChainSeed, decode, func(rec issuedRec) bool {
		if rec.kind == wire.IssuedAdd {
			l.applyAdd(rec.digest)
		} else {
			delete(l.set, rec.digest)
		}
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("server: opening issued log: %w", err)
	}
	l.log = log
	return l, nil
}

// applyAdd inserts a digest into the in-memory set (dedup + bounded FIFO
// eviction). It is the shared core of live adds and replay. Returns
// false if the digest was already present.
func (l *issuedLog) applyAdd(d [sha256.Size]byte) bool {
	if _, ok := l.set[d]; ok {
		return false
	}
	if len(l.fifo) < l.cap {
		l.set[d] = len(l.fifo)
		l.fifo = append(l.fifo, d)
	} else {
		if slot, ok := l.set[l.fifo[l.next]]; ok && slot == l.next {
			delete(l.set, l.fifo[l.next])
		}
		l.fifo[l.next] = d
		l.set[d] = l.next
		l.next = (l.next + 1) % l.cap
	}
	return true
}

// persist appends records to the durable file with one fsync. A
// persistence failure is counted and logged once, and the in-memory
// attestation stands — the service keeps honoring proofs it issued this
// run; what degrades is restart survival, which the error counter makes
// visible.
func (l *issuedLog) persist(recs ...chainRecord) {
	if l.log == nil || len(recs) == 0 {
		return
	}
	if err := l.log.append(recs...); err != nil {
		l.countError(err)
		return
	}
	l.maybeCompact()
}

func (l *issuedLog) countError(err error) {
	l.errs.Add(1)
	l.logOnce.Do(func() {
		log.Printf("server: issued log write failed (will keep serving, restart survival degraded): %v", err)
	})
}

// add attests one digest, durably when the log has a file. The record
// hits disk (fsynced) before add returns, and every caller adds before
// writing its response — so an attestation a client holds is one the
// log survives a crash with. Returns whether the digest was new (the
// signal to replicate it).
func (l *issuedLog) add(d [sha256.Size]byte) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.applyAdd(d) {
		return false
	}
	l.persist(issuedRec{kind: wire.IssuedAdd, digest: d})
	return true
}

// addMem attests a digest in memory only, even when the log is durable.
// It is for attestations whose durable record is a job journal: the
// journal already survives restarts (recovery re-attests complete
// journals and only those), and writing a second durable copy here
// would outlive the journal it depends on — a torn or reaped journal
// cannot reach back and tombstone a digest it can no longer compute.
// Returns whether the digest was new.
func (l *issuedLog) addMem(d [sha256.Size]byte) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.applyAdd(d)
}

// removeMem withdraws a journal-backed attestation; see addMem. Returns
// whether the digest was present.
func (l *issuedLog) removeMem(d [sha256.Size]byte) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.set[d]; !ok {
		return false
	}
	delete(l.set, d)
	return true
}

// addAll attests a batch of digests with one fsync: n frames, one
// barrier — the coalesced-batch counterpart of add. Returns the digests
// that were actually new.
func (l *issuedLog) addAll(ds [][sha256.Size]byte) [][sha256.Size]byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	var fresh [][sha256.Size]byte
	var recs []chainRecord
	for _, d := range ds {
		if l.applyAdd(d) {
			fresh = append(fresh, d)
			recs = append(recs, issuedRec{kind: wire.IssuedAdd, digest: d})
		}
	}
	l.persist(recs...)
	return fresh
}

func (l *issuedLog) has(d [sha256.Size]byte) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, ok := l.set[d]
	return ok
}

// remove withdraws an attestation (a reaped job's report must stop
// verifying). In memory the FIFO slot keeps the stale digest as a
// tombstone — add's eviction check makes that harmless; on disk the
// withdrawal is itself an append, a tombstone record, so a restart
// replays the removal instead of resurrecting the attestation. Returns
// whether the digest was present (the signal to replicate the removal).
func (l *issuedLog) remove(d [sha256.Size]byte) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.set[d]; !ok {
		return false
	}
	delete(l.set, d)
	l.persist(issuedRec{kind: wire.IssuedTombstone, digest: d})
	return true
}

// maybeCompact rewrites the file once dead records (tombstones, their
// withdrawn adds, cap-evicted adds) outgrow the live set by the slack:
// the live digests are re-emitted in FIFO order under a fresh chain.
// Called with mu held, after the triggering append has synced. A
// compaction failure keeps the old (larger but valid) file.
func (l *issuedLog) maybeCompact() {
	live := int64(len(l.set))
	if l.log.seq-live <= live+issuedCompactSlack {
		return
	}
	// FIFO order: once the ring is full the oldest slot is next; before
	// that, slot 0 is. A slot is live only while its digest still maps
	// back to it (tombstoned and re-added digests live in a later slot).
	start := 0
	if len(l.fifo) == l.cap {
		start = l.next
	}
	recs := make([]chainRecord, 0, live)
	for i := range l.fifo {
		slot := (start + i) % len(l.fifo)
		if owner, ok := l.set[l.fifo[slot]]; ok && owner == slot {
			recs = append(recs, issuedRec{kind: wire.IssuedAdd, digest: l.fifo[slot]})
		}
	}
	if err := l.log.rewrite(recs); err != nil {
		l.countError(err)
	}
}

// stats reports the log's gauges for /metrics: live attestations,
// on-disk records and bytes, and write errors.
func (l *issuedLog) stats() (live int64, records, bytes, errs int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.log != nil {
		records, bytes = l.log.seq, l.log.bytes
	}
	return int64(len(l.set)), records, bytes, l.errs.Load()
}

// close releases the file handle; the records stay on disk for the next
// process.
func (l *issuedLog) close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.log != nil {
		l.log.close()
		l.log = nil
	}
}
