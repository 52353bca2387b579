package server

import (
	"context"
	mrand "math/rand"
	"os"
	"path/filepath"
	"testing"

	"zkvc"
	"zkvc/internal/wire"
)

// TestIssuedLogEviction checks the FIFO bound: once the log is full, the
// oldest attestation expires first and duplicates do not consume slots.
func TestIssuedLogEviction(t *testing.T) {
	l := newIssuedLog(3)
	d := func(b byte) [32]byte { return [32]byte{b} }

	l.add(d(1))
	l.add(d(2))
	if l.add(d(1)) { // duplicate, must not evict anything
		t.Error("duplicate add reported an insertion")
	}
	l.add(d(3))
	for _, b := range []byte{1, 2, 3} {
		if !l.has(d(b)) {
			t.Fatalf("digest %d missing before eviction", b)
		}
	}

	if !l.add(d(4)) { // evicts 1
		t.Error("fresh add did not report an insertion")
	}
	if l.has(d(1)) {
		t.Error("oldest digest survived eviction")
	}
	l.add(d(5)) // evicts 2
	if l.has(d(2)) {
		t.Error("second digest survived eviction")
	}
	for _, b := range []byte{3, 4, 5} {
		if !l.has(d(b)) {
			t.Errorf("digest %d missing after eviction", b)
		}
	}
}

// TestIssuedLogDurability: adds and tombstones replay across a
// close/reopen cycle — the restart-amnesia fix at the unit level. The
// log opens on a record with a non-zero CRS tag, as earlier versions
// wrote for epoch proofs: replay must chain over the stored tag, or that
// record and everything after it would read as a torn tail.
func TestIssuedLogDurability(t *testing.T) {
	dir := t.TempDir()
	d := func(b byte) [32]byte { return [32]byte{b} }

	f, err := os.Create(filepath.Join(dir, issuedLogFile))
	if err != nil {
		t.Fatal(err)
	}
	tagged := &wire.IssuedRecord{Kind: wire.IssuedAdd, Prev: issuedChainSeed, Digest: d(1), CRSTag: 7}
	if err := wire.WriteFrame(f, wire.EncodeIssuedRecord(tagged)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l, err := openIssuedLog(issuedLogCap, dir)
	if err != nil {
		t.Fatal(err)
	}
	l.add(d(2))
	l.add(d(3))
	if !l.remove(d(2)) {
		t.Fatal("remove of a present digest reported absent")
	}
	l.close()

	l2, err := openIssuedLog(issuedLogCap, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.close()
	if !l2.has(d(1)) || !l2.has(d(3)) {
		t.Error("attestations lost across reopen")
	}
	if l2.has(d(2)) {
		t.Error("tombstoned attestation resurrected by reopen")
	}
	live, records, bytes, errs := l2.stats()
	if live != 2 || records != 4 || bytes == 0 || errs != 0 {
		t.Errorf("stats after reopen: live=%d records=%d bytes=%d errs=%d, want 2/4/>0/0",
			live, records, bytes, errs)
	}
	// The log keeps accepting appends after a reopen (the chain resumed
	// where the file left off).
	l2.add(d(4))
	l2.close()
	l3, err := openIssuedLog(issuedLogCap, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.close()
	if !l3.has(d(4)) {
		t.Error("post-reopen append lost on the next reopen")
	}
}

// TestIssuedLogCompaction: once dead records outgrow the live set by the
// slack, the file is rewritten to just the live adds — and the rewritten
// log still replays correctly.
func TestIssuedLogCompaction(t *testing.T) {
	old := issuedCompactSlack
	issuedCompactSlack = 4
	defer func() { issuedCompactSlack = old }()

	dir := t.TempDir()
	d := func(b byte) [32]byte { return [32]byte{b} }
	l, err := openIssuedLog(issuedLogCap, dir)
	if err != nil {
		t.Fatal(err)
	}
	l.add(d(1))
	l.add(d(2))
	// Each add+remove pair leaves two dead records; with 2 live, the
	// trigger is records-live > live+4, i.e. more than 6 dead.
	for i := byte(10); i < 18; i++ {
		l.add(d(i))
		l.remove(d(i))
	}
	_, records, _, _ := l.stats()
	if records != 2 {
		t.Errorf("log not compacted: %d records on disk, want 2", records)
	}
	// Compaction still appends-after: new adds land in the rewritten file.
	l.add(d(3))
	l.close()

	l2, err := openIssuedLog(issuedLogCap, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.close()
	for _, b := range []byte{1, 2, 3} {
		if !l2.has(d(b)) {
			t.Errorf("digest %d missing after compaction + reopen", b)
		}
	}
	if live, records, _, _ := l2.stats(); live != 3 || records != 3 {
		t.Errorf("after compaction + reopen: live=%d records=%d, want 3/3", live, records)
	}
}

// TestIssuedBatchDigestsMatchPerResponse pins the encode-once-patch-index
// optimization to the definition: the digest of index i must equal the
// digest of the fully re-encoded ProveResponse with Index = i.
func TestIssuedBatchDigestsMatchPerResponse(t *testing.T) {
	rng := mrand.New(mrand.NewSource(700))
	var pairs [][2]*zkvc.Matrix
	var xs []*zkvc.Matrix
	for i := 0; i < 3; i++ {
		x := zkvc.RandomMatrix(rng, 2, 3, 16)
		w := zkvc.RandomMatrix(rng, 3, 2, 16)
		pairs = append(pairs, [2]*zkvc.Matrix{x, w})
		xs = append(xs, x)
	}
	prover := zkvc.NewMatMulProver(zkvc.Spartan, zkvc.DefaultOptions())
	prover.Reseed(1)
	batch, err := prover.ProveBatchContext(context.Background(), pairs...)
	if err != nil {
		t.Fatal(err)
	}

	got := issuedBatchDigests(xs, batch, len(xs))
	for i := range xs {
		want := IssuedBatchDigest(&wire.ProveResponse{Index: i, Xs: xs, Batch: batch})
		if got[i] != want {
			t.Errorf("digest %d: patched-index digest differs from re-encoded digest", i)
		}
	}
}
