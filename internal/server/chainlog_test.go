package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"zkvc"
	"zkvc/internal/wire"
	"zkvc/internal/zkml"
)

// Fixed inputs shared by the known-answer pins, the crash suite and the
// replay fuzzer.
const (
	pinCompleteID = "0123456789abcdef0123456789abcdef"
	pinFailedID   = "fedcba9876543210fedcba9876543210"
)

var (
	pinCreated  = time.Unix(1700000000, 0)
	pinDeadline = time.Unix(1700000900, 0)
)

func pinHeader(totalOps int) []byte {
	return wire.EncodeModelStreamHeader(&wire.ModelStreamHeader{Model: "pin", Backend: zkvc.Spartan, Circuit: zkvc.DefaultOptions(), TotalOps: totalOps})
}

func pinOp(seq int, tag string) journalRec {
	return journalRec{kind: wire.JournalOp, payload: wire.EncodeOpProof(&zkml.OpProof{Seq: seq, Tag: tag, Dims: [3]int{2, 3, 4}}), opSeq: seq}
}

func pinDigest(b byte) [32]byte { return [32]byte{b, 0xa5} }

// writeCompleteJournal journals a two-op job to completion in dir.
func writeCompleteJournal(t testing.TB, dir string) string {
	t.Helper()
	jl, err := newJournal(pinCompleteID, "acme", pinCreated, pinDeadline, dir, pinHeader(2), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []journalRec{pinOp(1, "b"), pinOp(0, "a")} {
		if err := jl.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	jl.closeFile()
	return filepath.Join(dir, pinCompleteID+journalExt)
}

// writeFailedJournal journals ops of a three-op job that then fails;
// with failMsg empty the job is left mid-proving.
func writeFailedJournal(t testing.TB, dir string, ops []journalRec, failMsg string) string {
	t.Helper()
	jl, err := newJournal(pinFailedID, "acme", pinCreated, time.Time{}, dir, pinHeader(3), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range ops {
		if err := jl.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if failMsg != "" {
		jl.fail(failMsg)
	}
	jl.closeFile()
	return filepath.Join(dir, pinFailedID+journalExt)
}

// writeIssuedLog writes adds, a tombstone and a batch to dir's issued log.
func writeIssuedLog(t testing.TB, dir string) string {
	t.Helper()
	l, err := openIssuedLog(issuedLogCap, dir)
	if err != nil {
		t.Fatal(err)
	}
	l.add(pinDigest(1))
	l.add(pinDigest(2))
	l.add(pinDigest(3))
	l.remove(pinDigest(2))
	l.add(pinDigest(4))
	l.addAll([][32]byte{pinDigest(5), pinDigest(6)})
	l.close()
	return filepath.Join(dir, issuedLogFile)
}

// writeCompactedIssuedLog drives the issued log through a compaction and
// appends after it.
func writeCompactedIssuedLog(t testing.TB, dir string) string {
	t.Helper()
	old := issuedCompactSlack
	issuedCompactSlack = 2
	defer func() { issuedCompactSlack = old }()
	l, err := openIssuedLog(issuedLogCap, dir)
	if err != nil {
		t.Fatal(err)
	}
	l.add(pinDigest(1))
	l.add(pinDigest(2))
	for i := byte(10); i < 14; i++ {
		l.add(pinDigest(i))
		l.remove(pinDigest(i))
	}
	if _, records, _, _ := l.stats(); records != 4 {
		t.Fatalf("%d records after the compaction point, want 4", records)
	}
	l.add(pinDigest(3))
	l.close()
	return filepath.Join(dir, issuedLogFile)
}

// TestChainlogKnownAnswers pins the exact bytes both logs write for a
// fixed record sequence: SHA-256 of each file, recorded from the
// implementations the chainlog replaced. Old journals and issued logs
// must keep loading, so a change here is a format break that needs a
// migration, not a new value.
func TestChainlogKnownAnswers(t *testing.T) {
	hash := func(path string) string {
		t.Helper()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.Sum256(raw)
		return hex.EncodeToString(h[:])
	}
	for _, tc := range []struct {
		name  string
		write func(t testing.TB, dir string) string
		want  string
	}{
		{"complete journal", writeCompleteJournal, "17261a07d879a494b5f580d6da92f8e4b179c3ac3791240dc1b5e5c7b35bd26c"},
		{"failed journal", func(t testing.TB, dir string) string {
			return writeFailedJournal(t, dir, []journalRec{pinOp(2, "c")}, "boom")
		}, "8d283213bdc45226faf9378a8ee642a304b5085f7925d9dacfa7e6afc6423ba8"},
		{"issued log", writeIssuedLog, "4124e84040a9365a42d3483afcf1eb84f09aecc03e08f9d85cd5b9435e348afe"},
		{"compacted issued log", writeCompactedIssuedLog, "96276f6cca714938ea4155fd4fceece46d5b95d5fd784638cf07c97f3d1e553f"},
	} {
		if got := hash(tc.write(t, t.TempDir())); got != tc.want {
			t.Errorf("%s: file sha256 %s, want %s", tc.name, got, tc.want)
		}
	}

	// A hand-encoded record as versions with epoch proofs wrote it, with
	// a non-zero CRS tag: replay chains over the stored tag, and appends
	// continue that chain.
	dir := t.TempDir()
	path := filepath.Join(dir, issuedLogFile)
	legacy := &wire.IssuedRecord{Kind: wire.IssuedAdd, Prev: issuedChainSeed, Digest: pinDigest(1), CRSTag: 7}
	var buf bytes.Buffer
	if err := wire.WriteFrame(&buf, wire.EncodeIssuedRecord(legacy)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := openIssuedLog(issuedLogCap, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !l.has(pinDigest(1)) {
		t.Error("legacy tagged record not replayed")
	}
	l.add(pinDigest(2))
	l.close()
	if got, want := hash(path), "f91f8a4b3ae7d4d7728fd015ee70753c273f817187d3f0ebbd62fa860310cbb9"; got != want {
		t.Errorf("legacy issued log + append: file sha256 %s, want %s", got, want)
	}
}

// frameEnds parses a log file into frames without any chain or grammar
// check, returning each frame and the offset where it ends.
func frameEnds(raw []byte) (frames [][]byte, ends []int) {
	r := bytes.NewReader(raw)
	for {
		frame, err := wire.ReadFrame(r)
		if err != nil {
			return frames, ends
		}
		frames = append(frames, frame)
		ends = append(ends, len(raw)-r.Len())
	}
}

// chainValid recomputes a file's hash chain independently of chainlog:
// every frame must claim its index and the SHA-256 chain of the links
// before it.
func chainValid(t *testing.T, frames [][]byte, seed [32]byte, journalLog bool) {
	t.Helper()
	chain := seed
	for i, frame := range frames {
		var seq int64
		var prev [32]byte
		var link []byte
		if journalLog {
			rec, err := wire.DecodeJournalRecord(frame)
			if err != nil {
				t.Fatalf("kept record %d does not decode: %v", i, err)
			}
			seq, prev, link = int64(rec.Seq), rec.Prev, rec.Payload
		} else {
			rec, err := wire.DecodeIssuedRecord(frame)
			if err != nil {
				t.Fatalf("kept record %d does not decode: %v", i, err)
			}
			seq, prev = rec.Seq, rec.Prev
			link = append(append(rec.Digest[:], rec.Kind), binary.BigEndian.AppendUint64(nil, rec.CRSTag)...)
		}
		if seq != int64(i) || prev != chain {
			t.Fatalf("kept record %d breaks the chain (seq %d)", i, seq)
		}
		chain = sha256.Sum256(append(chain[:], link...))
	}
}

// checkJournal compares a replayed journal with what its kept frames
// say, decoded here without the journal's own code: the records, the op
// count, the terminal state and, once complete, the attested digest.
func checkJournal(t *testing.T, jl *journal, frames [][]byte) {
	t.Helper()
	if len(jl.recs) != len(frames) {
		t.Fatalf("replayed %d records, %d kept on disk", len(jl.recs), len(frames))
	}
	var header []byte
	var opHashes [][32]byte
	ops, errMsg, failed := 0, "", false
	for i, frame := range frames {
		rec, _ := wire.DecodeJournalRecord(frame)
		if jl.recs[i].kind != rec.Kind || !bytes.Equal(jl.recs[i].payload, rec.Payload) {
			t.Fatalf("record %d replayed as kind %d, kept as kind %d", i, jl.recs[i].kind, rec.Kind)
		}
		switch rec.Kind {
		case wire.JournalHeader:
			hdr, _ := wire.DecodeModelStreamHeader(rec.Payload)
			header, opHashes = rec.Payload, make([][32]byte, hdr.TotalOps)
		case wire.JournalOp:
			op, _ := wire.DecodeOpProof(rec.Payload)
			opHashes[op.Seq] = sha256.Sum256(rec.Payload)
			ops++
		case wire.JournalError:
			errMsg, _ = wire.DecodeModelStreamError(rec.Payload)
			failed = true
		}
	}
	complete := ops == len(opHashes)
	if jl.ops != ops || jl.done != (complete || failed) || jl.errMsg != errMsg {
		t.Fatalf("replayed ops/done/err %d/%v/%q, kept records say %d/%v/%q",
			jl.ops, jl.done, jl.errMsg, ops, complete || failed, errMsg)
	}
	d, ok := jl.attestation()
	if ok != complete || (complete && d != modelReportDigest(header, opHashes, jl.tenant)) {
		t.Fatalf("replayed attestation %x/%v, kept records say complete=%v", d, ok, complete)
	}
}

// checkIssued compares a replayed issued log with its kept frames.
func checkIssued(t *testing.T, l *issuedLog, frames [][]byte, size int) {
	t.Helper()
	want := map[[32]byte]bool{}
	for _, frame := range frames {
		rec, _ := wire.DecodeIssuedRecord(frame)
		if rec.Kind == wire.IssuedAdd {
			want[rec.Digest] = true
		} else {
			delete(want, rec.Digest)
		}
	}
	live, records, bytes, _ := l.stats()
	if live != int64(len(want)) || records != int64(len(frames)) || bytes != int64(size) {
		t.Fatalf("replayed live/records/bytes %d/%d/%d, kept file says %d/%d/%d",
			live, records, bytes, len(want), len(frames), size)
	}
	for d := range want {
		if !l.has(d) {
			t.Fatalf("kept attestation %x not replayed", d[:2])
		}
	}
}

// crashLog adapts one log kind to the crash suite: reopen a damaged
// file, check it against its kept frames, append once more and check the
// append survives another reopen.
type crashLog struct {
	name    string
	journal bool
	seed    [32]byte
	path    string
	// linkBytes reports whether byte off of a frame (after its length
	// prefix) is one the chain covers: the next record's Prev is the
	// only check on it.
	linkBytes func(frame []byte, off int) bool
}

func (c *crashLog) reopenAndCheck(t *testing.T) (size int) {
	t.Helper()
	if c.journal {
		jl, err := loadJournal(c.path)
		raw, _ := os.ReadFile(c.path)
		frames, _ := frameEnds(raw)
		chainValid(t, frames, c.seed, true)
		if err != nil {
			if len(frames) >= 2 {
				t.Fatalf("journal with %d intact records rejected: %v", len(frames), err)
			}
			return len(raw)
		}
		checkJournal(t, jl, frames)
		n := len(jl.recs)
		done := jl.done
		jl.fail("crash suite")
		jl.closeFile()
		again, err := loadJournal(c.path)
		if err != nil {
			t.Fatalf("reload after append: %v", err)
		}
		defer again.closeFile()
		if done && len(again.recs) != n || !done && (len(again.recs) != n+1 || again.errMsg != "crash suite") {
			t.Fatalf("append after recovery did not round-trip: %d records, error %q", len(again.recs), again.errMsg)
		}
		return len(raw)
	}
	l, err := openIssuedLog(issuedLogCap, filepath.Dir(c.path))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(c.path)
	frames, _ := frameEnds(raw)
	chainValid(t, frames, c.seed, false)
	checkIssued(t, l, frames, len(raw))
	l.add(pinDigest(0x77))
	l.close()
	again, err := openIssuedLog(issuedLogCap, filepath.Dir(c.path))
	if err != nil {
		t.Fatal(err)
	}
	defer again.close()
	if _, records, _, _ := again.stats(); records != int64(len(frames))+1 || !again.has(pinDigest(0x77)) {
		t.Fatalf("append after recovery did not round-trip: %d records", records)
	}
	return len(raw)
}

// TestChainlogCrashSuite kills each log at every byte: the file is cut
// to every prefix length, and separately has one byte flipped at every
// offset. Reopening must keep exactly the longest intact record prefix
// and cut the file there, the kept records must match what the log
// replayed, and one further append must survive another reopen.
//
// A flip lands in some record i. Records before i are intact and must
// survive; nothing after i may, because record i+1's Prev no longer
// matches. Record i itself survives only when the flip hit bytes the
// chain covers (op payload, attested digest) and the result still
// decodes and fits the grammar: the format's only check on a record's
// own chained bytes is the next record's Prev, so a flip there in the
// last record is indistinguishable from a record written that way.
func TestChainlogCrashSuite(t *testing.T) {
	journalLink := func(frame []byte, off int) bool {
		rec, err := wire.DecodeJournalRecord(frame)
		return err == nil && off >= len(frame)-len(rec.Payload)
	}
	issuedLink := func(frame []byte, off int) bool {
		kindOff := wire.HeaderLen + 8
		return off == kindOff || off >= kindOff+1+32
	}
	cases := []struct {
		log   crashLog
		write func(t testing.TB, dir string) string
	}{
		{crashLog{name: "failed journal", journal: true, seed: chainSeed(pinFailedID), linkBytes: journalLink},
			func(t testing.TB, dir string) string {
				return writeFailedJournal(t, dir, []journalRec{pinOp(2, "c"), pinOp(0, "a")}, "boom")
			}},
		{crashLog{name: "complete journal", journal: true, seed: chainSeed(pinCompleteID), linkBytes: journalLink}, writeCompleteJournal},
		{crashLog{name: "issued log", seed: issuedChainSeed, linkBytes: issuedLink}, writeIssuedLog},
		{crashLog{name: "compacted issued log", seed: issuedChainSeed, linkBytes: issuedLink}, writeCompactedIssuedLog},
	}
	for _, tc := range cases {
		t.Run(tc.log.name, func(t *testing.T) {
			c := tc.log
			c.path = tc.write(t, t.TempDir())
			orig, err := os.ReadFile(c.path)
			if err != nil {
				t.Fatal(err)
			}
			frames, ends := frameEnds(orig)
			if ends[len(ends)-1] != len(orig) {
				t.Fatal("fixture does not parse into whole frames")
			}
			starts := append([]int{0}, ends[:len(ends)-1]...)
			record := func(off int) int { // index of the record holding byte off
				i, _ := slices.BinarySearch(ends, off+1)
				return i
			}
			for L := 0; L <= len(orig); L++ {
				if err := os.WriteFile(c.path, orig[:L], 0o644); err != nil {
					t.Fatal(err)
				}
				want := 0
				for _, end := range ends {
					if end <= L {
						want = end
					}
				}
				if got := c.reopenAndCheck(t); got != want {
					t.Fatalf("cut to %d bytes: file kept %d, want the record boundary %d", L, got, want)
				}
			}
			for off := range orig {
				for _, mask := range []byte{0x01, 0xff} {
					raw := slices.Clone(orig)
					raw[off] ^= mask
					if err := os.WriteFile(c.path, raw, 0o644); err != nil {
						t.Fatal(err)
					}
					i := record(off)
					got := c.reopenAndCheck(t)
					switch {
					case got == starts[i]:
					case got == ends[i] && c.linkBytes(frames[i], off-starts[i]-4):
					default:
						t.Fatalf("flip %#x at %d (record %d, bytes %d..%d): file kept %d bytes",
							mask, off, i, starts[i], ends[i], got)
					}
				}
			}
		})
	}
}

// FuzzChainlogReplay appends arbitrary bytes after a valid log — a
// mid-proving journal when the first byte is even, the issued log when
// it is odd — and reopens it. Replay must not panic, must keep the whole
// valid prefix, must cut the file at a record boundary, and may keep an
// appended record only if it continues the chain and the log's grammar.
func FuzzChainlogReplay(f *testing.F) {
	journalPath := writeFailedJournal(f, f.TempDir(), []journalRec{pinOp(2, "c")}, "")
	issuedPath := writeIssuedLog(f, f.TempDir())
	journalPrefix, err := os.ReadFile(journalPath)
	if err != nil {
		f.Fatal(err)
	}
	issuedPrefix, err := os.ReadFile(issuedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		journalLog := data[0]%2 == 0
		prefix, path := issuedPrefix, filepath.Join(t.TempDir(), issuedLogFile)
		if journalLog {
			prefix, path = journalPrefix, filepath.Join(t.TempDir(), pinFailedID+journalExt)
		}
		if err := os.WriteFile(path, append(slices.Clone(prefix), data[1:]...), 0o644); err != nil {
			t.Fatal(err)
		}
		var check func(frames [][]byte, size int)
		if journalLog {
			jl, err := loadJournal(path)
			if err != nil {
				t.Fatalf("valid journal prefix rejected: %v", err)
			}
			defer jl.closeFile()
			check = func(frames [][]byte, _ int) { checkJournal(t, jl, frames) }
		} else {
			l, err := openIssuedLog(issuedLogCap, filepath.Dir(path))
			if err != nil {
				t.Fatal(err)
			}
			defer l.close()
			check = func(frames [][]byte, size int) { checkIssued(t, l, frames, size) }
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		frames, ends := frameEnds(raw)
		if !bytes.HasPrefix(raw, prefix) || len(ends) == 0 || ends[len(ends)-1] != len(raw) {
			t.Fatalf("replay kept %d bytes of a %d-byte valid prefix, or cut mid-record", len(raw), len(prefix))
		}
		seed := issuedChainSeed
		if journalLog {
			seed = chainSeed(pinFailedID)
		}
		chainValid(t, frames, seed, journalLog)
		check(frames, len(raw))
	})
}
