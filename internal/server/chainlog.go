package server

// The one durable-file primitive under both of the service's logs, the
// per-job journal (journal.go) and the issued-proof log (issued.go). A
// chainlog is an append-only file of length-prefixed wire frames, each
// record carrying its sequence number and the SHA-256 chain value of
// everything before it, so a file read back after a crash proves its own
// integrity: replay keeps the longest prefix whose records decode, sit at
// the right position in the chain and fit their log's grammar, and cuts
// the rest off the file. Each log defines its records (frame encoding,
// chain contribution, grammar); framing, fsync, replay, truncation,
// atomic rewrite and directory durability live here once.

import (
	"bufio"
	"crypto/sha256"
	"os"
	"path/filepath"

	"zkvc/internal/wire"
)

// chainRecord is one record of a chainlog, as its log defines it.
type chainRecord interface {
	// frame encodes the record at chain position seq, after chain value
	// prev.
	frame(seq int64, prev [32]byte) []byte
	// link is what the record folds into the chain.
	link() []byte
}

// chainlog is one open log file and its running chain state.
type chainlog struct {
	path  string
	seed  [32]byte // chain value before the first record
	file  *os.File
	seq   int64    // records in the file; the next record's sequence number
	chain [32]byte // chain value after the last record
	bytes int64    // file size: the end of the last record
}

// chainSeed starts a chain from a log's identity, such as a job ID: two
// logs with identical records still chain differently, and a file
// renamed to another identity fails replay.
func chainSeed(id string) [32]byte { return sha256.Sum256([]byte(id)) }

// chainNext folds one record's link into the chain.
func chainNext(prev [32]byte, link []byte) [32]byte {
	h := sha256.New()
	h.Write(prev[:])
	h.Write(link)
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// createChainlog creates a new, empty log at path; an existing file is an
// error.
func createChainlog(path string, seed [32]byte) (*chainlog, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syncDir(path); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return &chainlog{path: path, seed: seed, file: f, chain: seed}, nil
}

// openChainlog opens the log at path, creating it if absent, and replays
// it. decode parses one frame into a record and the sequence number and
// chain value the record claims to follow; apply checks the record
// against the log's grammar and, if it fits, folds it into the log's
// state. Replay stops at the first frame that fails to decode, claims
// the wrong position, or breaks the grammar: that record and everything
// after it is a torn tail, cut off the file so the file and the replayed
// state agree, and appends continue from the last good record.
func openChainlog[R chainRecord](path string, seed [32]byte, decode func(frame []byte) (rec R, seq int64, prev [32]byte, err error), apply func(R) bool) (*chainlog, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	c := &chainlog{path: path, seed: seed, file: f, chain: seed}
	r := bufio.NewReader(f)
	for {
		frame, err := wire.ReadFrame(r)
		if err != nil {
			break // io.EOF: clean end; anything else: torn tail
		}
		rec, seq, prev, err := decode(frame)
		if err != nil || seq != c.seq || prev != c.chain || !apply(rec) {
			break
		}
		c.seq++
		c.chain = chainNext(c.chain, rec.link())
		c.bytes += int64(len(frame)) + 4 // frame length prefix
	}
	if err := c.cut(); err != nil {
		f.Close()
		return nil, err
	}
	if err := syncDir(path); err != nil {
		f.Close()
		return nil, err
	}
	return c, nil
}

// cut truncates the file to the last good record and moves the write
// position there.
func (c *chainlog) cut() error {
	if err := c.file.Truncate(c.bytes); err != nil {
		return err
	}
	_, err := c.file.Seek(c.bytes, 0)
	return err
}

// append writes one frame per record, then fsyncs once, so an appended
// record survives a crash once append returns. On failure the file is
// cut back to the last good record and the chain does not advance.
func (c *chainlog) append(recs ...chainRecord) error {
	seq, chain, bytes := c.seq, c.chain, c.bytes
	for _, rec := range recs {
		raw := rec.frame(seq, chain)
		if err := wire.WriteFrame(c.file, raw); err != nil {
			c.cut()
			return err
		}
		seq++
		chain = chainNext(chain, rec.link())
		bytes += int64(len(raw)) + 4
	}
	if err := c.file.Sync(); err != nil {
		c.cut()
		return err
	}
	c.seq, c.chain, c.bytes = seq, chain, bytes
	return nil
}

// rewrite atomically replaces the log with recs under a fresh chain:
// they are written to a temp file, synced, and renamed over the log,
// and the rename is made durable. On failure the old file stays the log.
func (c *chainlog) rewrite(recs []chainRecord) error {
	// A crash mid-rewrite can leave a temp file behind; it was never the
	// log.
	os.Remove(c.path + ".tmp")
	tmp, err := createChainlog(c.path+".tmp", c.seed)
	if err != nil {
		return err
	}
	if err := tmp.append(recs...); err != nil {
		tmp.remove()
		return err
	}
	if err := os.Rename(tmp.path, c.path); err != nil {
		tmp.remove()
		return err
	}
	// The temp handle now names the log file (rename moves the inode, not
	// the descriptor) and its write position is already at the end.
	c.file.Close()
	c.file, c.seq, c.chain, c.bytes = tmp.file, tmp.seq, tmp.chain, tmp.bytes
	return syncDir(c.path)
}

// close releases the file handle; the records stay on disk.
func (c *chainlog) close() { c.file.Close() }

// remove closes and deletes the log, durably: a deleted journal is a
// withdrawn attestation, which a crash must not bring back.
func (c *chainlog) remove() {
	c.file.Close()
	if os.Remove(c.path) == nil {
		syncDir(c.path)
	}
}

// syncDir fsyncs the directory holding path. Fsyncing a file does not
// make its directory entry durable: without this a crash can lose a file
// just created, or undo a rename.
func syncDir(path string) error {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
