package server

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"log"
	"os"
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

// issuedDigest fingerprints an issued (statement, proof) pair by its
// canonical wire encoding. The wire format is injective (strict decoding,
// re-encode yields identical bytes), so a client posting back the exact
// proof it was handed — and nothing else — reproduces the digest.
//
// The eight zero bytes after the encoding are the CRS tag that epoch
// proofs once bound their digests to. No proof carries a tag any more,
// but the suffix stays so the digests in issued.log files written by
// earlier versions keep matching after an upgrade.
func issuedDigest(x *zkvc.Matrix, proof *zkvc.MatMulProof) [sha256.Size]byte {
	h := sha256.New()
	h.Write(wire.EncodeVerifyRequest(&wire.VerifyRequest{X: x, Proof: proof}))
	var crsTag [8]byte
	h.Write(crsTag[:])
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

// issuedBatchDigest is the batch-response analogue: the digest of the
// exact coalesced response a /v1/prove client was handed, which
// /v1/verify/batch requires for Groth16 batches (their verifying key is
// only meaningful when this service ran the setup).
func issuedBatchDigest(resp *wire.ProveResponse) [sha256.Size]byte {
	return sha256.Sum256(wire.EncodeProveResponse(resp))
}

// issuedBatchDigests computes issuedBatchDigest for every recipient index
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

// IssuedDigest exposes the per-statement attestation digest for the
// cluster router, which needs it to pick a proof's replica set for
// verify failover.
func IssuedDigest(x *zkvc.Matrix, proof *zkvc.MatMulProof) [sha256.Size]byte {
	return issuedDigest(x, proof)
}

// IssuedBatchDigest exposes the batch attestation digest for the
// cluster router.
func IssuedBatchDigest(resp *wire.ProveResponse) [sha256.Size]byte {
	return issuedBatchDigest(resp)
}

// issuedChainSeed starts the issued log's hash chain. Unlike job
// journals the log has exactly one chain per node, so the seed is a
// fixed label rather than a per-file identity.
var issuedChainSeed = sha256.Sum256([]byte("zkvc issued log v1"))

// issuedChainPayload is the canonical bytes a record contributes to the
// hash chain: the attested digest, the record kind and the record's CRS
// tag — everything except Seq and Prev, which the chain itself fixes.
// This version writes tag 0 only; replay still reads the tag, because
// records written by earlier versions chain over theirs.
func issuedChainPayload(kind byte, d [sha256.Size]byte, tag uint64) []byte {
	p := make([]byte, 0, sha256.Size+1+8)
	p = append(p, d[:]...)
	p = append(p, kind)
	var t [8]byte
	binary.BigEndian.PutUint64(t[:], tag)
	return append(p, t[:]...)
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
// With a path configured the log is also durable: an append-only file of
// hash-chained wire.IssuedRecord frames (journal framing, fsync per
// logical append, torn-tail truncation on load), so a node restart keeps
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

	// Durable state; file == nil means memory-only (no JournalDir, or
	// the replicated-attestation set, which is rebuilt by its peers).
	path    string
	file    *os.File
	seq     int64
	chain   [sha256.Size]byte
	records int64 // records currently in the file
	bytes   int64 // file size
	errs    atomic.Int64
	logOnce sync.Once
}

func newIssuedLog(cap int) *issuedLog {
	return &issuedLog{
		set:   make(map[[sha256.Size]byte]int),
		cap:   cap,
		chain: issuedChainSeed,
	}
}

// openIssuedLog opens (or creates) the durable issued log in dir,
// replaying every intact record into the in-memory set. The replay
// applies the same add/remove logic appends use, so the recovered state
// is exactly what the sequence of surviving records produces; the first
// record that fails to decode, breaks the chain or jumps the sequence —
// and everything after it — is a torn tail and is truncated off, exactly
// like a job journal's.
func openIssuedLog(cap int, dir string) (*issuedLog, error) {
	l := newIssuedLog(cap)
	l.path = filepath.Join(dir, issuedLogFile)
	f, err := os.OpenFile(l.path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("server: opening issued log: %w", err)
	}
	var goodOffset int64
	for {
		frame, err := wire.ReadFrame(f)
		if err != nil {
			break // io.EOF: clean end; anything else: torn tail
		}
		rec, err := wire.DecodeIssuedRecord(frame)
		if err != nil || rec.Seq != l.seq || rec.Prev != l.chain {
			break
		}
		switch rec.Kind {
		case wire.IssuedAdd:
			l.applyAdd(rec.Digest)
		case wire.IssuedTombstone:
			delete(l.set, rec.Digest)
		}
		l.chain = chainNext(l.chain, issuedChainPayload(rec.Kind, rec.Digest, rec.CRSTag))
		l.seq++
		l.records++
		pos, err := f.Seek(0, 1)
		if err != nil {
			f.Close()
			return nil, err
		}
		goodOffset = pos
	}
	// Drop the torn tail on disk too, so the file and the verified
	// in-memory state agree from here on.
	if err := f.Truncate(goodOffset); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(goodOffset, 0); err != nil {
		f.Close()
		return nil, err
	}
	l.file = f
	l.bytes = goodOffset
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

// persist appends one record to the durable file without syncing; the
// caller syncs once per logical operation. A persistence failure is
// counted and logged once, and the in-memory attestation stands — the
// service keeps honoring proofs it issued this run; what degrades is
// restart survival, which the error counter makes visible.
func (l *issuedLog) persist(kind byte, d [sha256.Size]byte) bool {
	if l.file == nil {
		return false
	}
	raw := wire.EncodeIssuedRecord(&wire.IssuedRecord{
		Seq: l.seq, Kind: kind, Prev: l.chain, Digest: d,
	})
	if err := wire.WriteFrame(l.file, raw); err != nil {
		l.countError(err)
		return false
	}
	l.chain = chainNext(l.chain, issuedChainPayload(kind, d, 0))
	l.seq++
	l.records++
	l.bytes += int64(len(raw)) + 4 // frame length prefix
	return true
}

func (l *issuedLog) sync() {
	if l.file == nil {
		return
	}
	if err := l.file.Sync(); err != nil {
		l.countError(err)
	}
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
	if l.persist(wire.IssuedAdd, d) {
		l.sync()
		l.maybeCompact()
	}
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
	wrote := false
	for _, d := range ds {
		if !l.applyAdd(d) {
			continue
		}
		fresh = append(fresh, d)
		wrote = l.persist(wire.IssuedAdd, d) || wrote
	}
	if wrote {
		l.sync()
		l.maybeCompact()
	}
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
	if l.persist(wire.IssuedTombstone, d) {
		l.sync()
		l.maybeCompact()
	}
	return true
}

// maybeCompact rewrites the file once dead records (tombstones, their
// withdrawn adds, cap-evicted adds) outgrow the live set by the slack:
// the live digests are re-emitted in FIFO order under a fresh chain to a
// temp file, synced, and renamed over the log. Called with mu held,
// after the triggering append has synced. A compaction failure keeps the
// old (larger but valid) file.
func (l *issuedLog) maybeCompact() {
	live := int64(len(l.set))
	if l.file == nil || l.records-live <= live+issuedCompactSlack {
		return
	}
	tmp := l.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		l.countError(err)
		return
	}
	var (
		seq     int64
		chain   = issuedChainSeed
		written int64
	)
	emit := func(d [sha256.Size]byte) bool {
		slot, ok := l.set[d]
		if !ok || l.fifo[slot] != d {
			return true // tombstoned slot or stale digest: skip
		}
		raw := wire.EncodeIssuedRecord(&wire.IssuedRecord{
			Seq: seq, Kind: wire.IssuedAdd, Prev: chain, Digest: d,
		})
		if err := wire.WriteFrame(f, raw); err != nil {
			l.countError(err)
			return false
		}
		chain = chainNext(chain, issuedChainPayload(wire.IssuedAdd, d, 0))
		seq++
		written += int64(len(raw)) + 4
		return true
	}
	// FIFO order: once the ring is full the oldest slot is next; before
	// that, slot 0 is.
	ok := true
	if len(l.fifo) == l.cap {
		for i := 0; ok && i < l.cap; i++ {
			ok = emit(l.fifo[(l.next+i)%l.cap])
		}
	} else {
		for i := 0; ok && i < len(l.fifo); i++ {
			ok = emit(l.fifo[i])
		}
	}
	if !ok {
		f.Close()
		os.Remove(tmp)
		return
	}
	if err := f.Sync(); err != nil {
		l.countError(err)
		f.Close()
		os.Remove(tmp)
		return
	}
	if err := os.Rename(tmp, l.path); err != nil {
		l.countError(err)
		f.Close()
		os.Remove(tmp)
		return
	}
	// The temp handle now names the log file (rename moves the inode, not
	// the descriptor) and its write position is already at the end.
	l.file.Close()
	l.file = f
	l.seq = seq
	l.chain = chain
	l.records = seq
	l.bytes = written
}

// stats reports the log's gauges for /metrics: live attestations,
// on-disk records and bytes, and write errors.
func (l *issuedLog) stats() (live int64, records, bytes, errs int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int64(len(l.set)), l.records, l.bytes, l.errs.Load()
}

// close releases the file handle; the records stay on disk for the next
// process.
func (l *issuedLog) close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.file != nil {
		l.file.Close()
		l.file = nil
	}
}
