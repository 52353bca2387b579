package wire_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	mrand "math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"zkvc"
	"zkvc/internal/wire"
	"zkvc/internal/zkml"
)

// codec is one top-level message type seen through its two exported
// functions: roundTrip decodes and, if the decoder accepted, re-encodes.
type codec struct {
	name      string
	roundTrip func([]byte) ([]byte, error)
}

func newCodec[T any](name string, dec func([]byte) (T, error), enc func(T) []byte) codec {
	return codec{name, func(b []byte) ([]byte, error) {
		v, err := dec(b)
		if err != nil {
			return nil, err
		}
		return enc(v), nil
	}}
}

// codecs lists every top-level message type once. FuzzWireDecodeProof
// feeds every input to all of them; TestStrictDecode drives each from its
// valid encodings.
var codecs = []codec{
	newCodec("Matrix", wire.DecodeMatrix, wire.EncodeMatrix),
	newCodec("MatMulProof", wire.DecodeMatMulProof, wire.EncodeMatMulProof),
	newCodec("BatchProof", wire.DecodeBatchProof, wire.EncodeBatchProof),
	newCodec("ProveRequest", wire.DecodeProveRequest, wire.EncodeProveRequest),
	newCodec("ProveResponse", wire.DecodeProveResponse, wire.EncodeProveResponse),
	newCodec("VerifyRequest", wire.DecodeVerifyRequest, wire.EncodeVerifyRequest),
	newCodec("ProveBatchRequest", wire.DecodeProveBatchRequest, wire.EncodeProveBatchRequest),
	newCodec("ProveModelRequest", wire.DecodeProveModelRequest, wire.EncodeProveModelRequest),
	newCodec("OpProof", wire.DecodeOpProof, wire.EncodeOpProof),
	newCodec("Report", wire.DecodeReport, wire.EncodeReport),
	newCodec("ModelStreamHeader", wire.DecodeModelStreamHeader, wire.EncodeModelStreamHeader),
	newCodec("ModelStreamError", wire.DecodeModelStreamError, wire.EncodeModelStreamError),
	newCodec("NodeAnnounce", wire.DecodeNodeAnnounce, wire.EncodeNodeAnnounce),
	newCodec("JobSubmitRequest", wire.DecodeJobSubmitRequest, wire.EncodeJobSubmitRequest),
	newCodec("JobStatus", wire.DecodeJobStatus, wire.EncodeJobStatus),
	newCodec("JournalRecord", wire.DecodeJournalRecord, wire.EncodeJournalRecord),
	newCodec("JobManifest", wire.DecodeJobManifest, wire.EncodeJobManifest),
	newCodec("IssuedRecord", wire.DecodeIssuedRecord, wire.EncodeIssuedRecord),
	newCodec("AttestationUpdate", wire.DecodeAttestationUpdate, wire.EncodeAttestationUpdate),
}

// strictRows returns valid encodings of every message type, keyed by
// "Codec" or "Codec/variant" (both backends, the CNN geometry, both job
// states). The proofs are over the smallest shapes the provers
// accept so the exhaustive sweeps below stay affordable.
func strictRows(t *testing.T) map[string][]byte {
	t.Helper()
	rng := mrand.New(mrand.NewSource(51))
	x := zkvc.RandomMatrix(rng, 2, 3, 64)
	w := zkvc.RandomMatrix(rng, 3, 2, 64)
	rows := map[string][]byte{
		"Matrix":            wire.EncodeMatrix(x),
		"ProveRequest":      wire.EncodeProveRequest(&wire.ProveRequest{X: x, W: w}),
		"ProveBatchRequest": wire.EncodeProveBatchRequest(&wire.ProveBatchRequest{Pairs: [][2]*zkvc.Matrix{{x, w}, {w, x}}}),
	}
	// Both backends where a message embeds the proof payload its own way
	// (MatMulProof's tail, OpProof's flagged section); the messages that
	// merely wrap one of those ride on Spartan alone, because every intact
	// Groth16 decode pays four G2 subgroup checks.
	for _, backend := range []zkvc.Backend{zkvc.Spartan, zkvc.Groth16} {
		prover := zkvc.NewMatMulProver(backend, zkvc.DefaultOptions())
		prover.Reseed(51)
		proof, err := prover.ProveContext(context.Background(), x, w)
		if err != nil {
			t.Fatal(err)
		}
		_, _, rep := modelFixture(t, backend, 53)
		rows["MatMulProof/"+backend.String()] = wire.EncodeMatMulProof(proof)
		rows["OpProof/"+backend.String()] = wire.EncodeOpProof(&rep.Ops[1])
		if backend == zkvc.Groth16 {
			continue
		}
		batch, err := prover.ProveBatchContext(context.Background(), [2]*zkvc.Matrix{x, w}, [2]*zkvc.Matrix{w, x})
		if err != nil {
			t.Fatal(err)
		}
		rep.Ops = rep.Ops[:2]
		rows["BatchProof"] = wire.EncodeBatchProof(batch)
		rows["VerifyRequest"] = wire.EncodeVerifyRequest(&wire.VerifyRequest{X: x, Proof: proof})
		rows["ProveResponse"] = wire.EncodeProveResponse(&wire.ProveResponse{Index: 1, Xs: []*zkvc.Matrix{x, w}, Batch: batch})
		rows["Report"] = wire.EncodeReport(rep)
	}
	cfg, trace, rep := modelFixture(t, zkml.Spartan, 55)
	cnnCfg, cnnTrace, _ := cnnFixture(t, zkml.Spartan, 57)
	model := &wire.ProveModelRequest{Backend: zkvc.Spartan, ProveNonlinear: true, Cfg: cfg, Trace: trace}
	rows["ProveModelRequest"] = wire.EncodeProveModelRequest(model)
	rows["ProveModelRequest/cnn"] = wire.EncodeProveModelRequest(&wire.ProveModelRequest{Backend: zkvc.Groth16, Cfg: cnnCfg, Trace: cnnTrace})
	rows["JobSubmitRequest"] = wire.EncodeJobSubmitRequest(&wire.JobSubmitRequest{TTLSeconds: 60, Model: model})
	rows["ModelStreamHeader"] = wire.EncodeModelStreamHeader(&wire.ModelStreamHeader{
		Model: cfg.Name, Backend: rep.Backend, Circuit: rep.Circuit, TotalOps: len(rep.Ops)})
	rows["ModelStreamError"] = wire.EncodeModelStreamError("prove failed")
	rows["NodeAnnounce"] = wire.EncodeNodeAnnounce(&wire.NodeAnnounce{Name: "n", URL: "http://x", Workers: 1})
	rows["JobStatus/running"] = wire.EncodeJobStatus(&wire.JobStatus{ID: "a", State: wire.JobRunning, TotalOps: 5, CompletedOps: 2})
	rows["JobStatus/rejected"] = wire.EncodeJobStatus(&wire.JobStatus{State: wire.JobRejected, QueuePos: 12, RetryAfterSeconds: 2, Error: "queue full"})
	rows["JournalRecord"] = wire.EncodeJournalRecord(&wire.JournalRecord{Seq: 1, Kind: wire.JournalHeader, Prev: [32]byte{7}, Payload: []byte("frame")})
	rows["JobManifest"] = wire.EncodeJobManifest(&wire.JobManifest{ID: "a", Tenant: "t", CreatedUnix: 10, DeadlineUnix: 20})
	rows["IssuedRecord"] = wire.EncodeIssuedRecord(&wire.IssuedRecord{Seq: 1, Kind: wire.IssuedAdd, Prev: [32]byte{8}, Digest: [32]byte{9}, CRSTag: 2})
	rows["AttestationUpdate"] = wire.EncodeAttestationUpdate(&wire.AttestationUpdate{Node: "n", Added: [][32]byte{{1}, {2}}, Removed: [][32]byte{{3}}})
	return rows
}

// probeOffsets returns the byte offsets a sweep over an n-byte message
// visits: all of them up to the exhaustive limit; past it (sweeps are
// quadratic in the length, and every Groth16 decode pays four G2 subgroup
// checks) both ends plus a stride through the middle whose odd step hits
// every alignment.
func probeOffsets(n, exhaustive int) []int {
	const ends, middle = 48, 96
	var offs []int
	for i := 0; i < n; i++ {
		if n > exhaustive && i == ends {
			for ; i < n-ends; i += (n-2*ends)/middle | 1 {
				offs = append(offs, i)
			}
			i = n - ends
		}
		offs = append(offs, i)
	}
	return offs
}

// allocatedBy reports the heap bytes f allocates.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// The decode-bomb budget: decoding b may allocate at most bombFixed +
// bombPerByte·len(b) bytes however hostile its count headers are. The
// steepest ratio the format allows is a verifying key's IC, pre-sized to
// min(count, 1024) 72-byte points for a count of 1-byte entries; measured
// ratios on these rows stay under 15 (about 50 on 12-byte messages, which
// is what the fixed part is for).
const (
	bombFixed   = 4 << 10
	bombPerByte = 96
)

// TestStrictDecode is the strictness table: for a valid encoding of every
// top-level message type it asserts that
//   - the encoding round-trips canonically and no other codec accepts it
//     (the type tag distinguishes top-level messages),
//   - every strict prefix and one appended byte are rejected,
//   - every single-byte mutation either fails with ErrDecode or decodes
//     to a message that re-encodes to exactly the mutated bytes,
//   - overwriting any four bytes with a hostile count stays inside the
//     decode-bomb budget,
//
// and that no input of any of these shapes panics a decoder — which is
// how the codec's check-d.err-before-divide/index/allocate rule is held.
func TestStrictDecode(t *testing.T) {
	byName := map[string]codec{}
	for _, c := range codecs {
		byName[c.name] = c
	}
	covered := map[string]bool{}
	for name, raw := range strictRows(t) {
		codecName, _, _ := strings.Cut(name, "/")
		c, ok := byName[codecName]
		if !ok {
			t.Fatalf("row %s names no codec", name)
		}
		covered[c.name] = true
		t.Run(name, func(t *testing.T) {
			// rejected asserts b fails to decode, with ErrDecode.
			rejected := func(what string, b []byte) {
				t.Helper()
				if _, err := c.roundTrip(b); err == nil {
					t.Fatalf("%s decoded successfully", what)
				} else if !errors.Is(err, wire.ErrDecode) {
					t.Fatalf("%s: error %v does not wrap ErrDecode", what, err)
				}
			}

			if again, err := c.roundTrip(raw); err != nil {
				t.Fatalf("valid encoding rejected: %v", err)
			} else if !bytes.Equal(again, raw) {
				t.Fatal("re-encoding is not canonical")
			}
			for _, other := range codecs {
				if _, err := other.roundTrip(raw); other.name != c.name && !errors.Is(err, wire.ErrDecode) {
					t.Fatalf("decoded as %s: %v", other.name, err)
				}
			}
			rejected("one appended byte", append(bytes.Clone(raw), 0))

			// Prefixes are cheap to try exhaustively (the parent's
			// every-truncation test did, on a Spartan proof) except on the
			// Groth16 rows, where most prefixes still pay the G2 checks.
			offsets := probeOffsets(len(raw), 1<<10)
			prefixes := probeOffsets(len(raw), 16<<10)
			if strings.HasSuffix(name, zkvc.Groth16.String()) {
				prefixes = offsets
			}
			for _, n := range prefixes {
				rejected("strict prefix", raw[:n])
			}
			mutated := bytes.Clone(raw)
			for _, i := range offsets {
				for _, flip := range []byte{0x01, 0xff} {
					mutated[i] = raw[i] ^ flip
					if again, err := c.roundTrip(mutated); err != nil {
						if !errors.Is(err, wire.ErrDecode) {
							t.Fatalf("byte %d ^ %#x: error %v does not wrap ErrDecode", i, flip, err)
						}
					} else if !bytes.Equal(again, mutated) {
						t.Fatalf("byte %d ^ %#x: accepted, but re-encodes differently", i, flip)
					}
				}
				mutated[i] = raw[i]
			}

			budget := uint64(bombFixed + bombPerByte*len(raw))
			for _, i := range offsets {
				if i+4 > len(raw) {
					break
				}
				rest := uint32(len(raw) - i - 4)
				for _, count := range []uint32{1<<22 - 1, 1<<16 - 1, rest, rest / 12} {
					binary.BigEndian.PutUint32(mutated[i:], count)
					if got := allocatedBy(func() { c.roundTrip(mutated) }); got > budget {
						t.Fatalf("count %d at byte %d: decoding %d bytes allocated %d, budget %d",
							count, i, len(raw), got, budget)
					}
				}
				copy(mutated[i:], raw[i:i+4])
			}
		})
	}
	for _, c := range codecs {
		if !covered[c.name] {
			t.Errorf("no strictness row for %s", c.name)
		}
	}
}

// TestVerifyModelMessagesStrictDecode: the retired mode-carrying
// VerifyModelRequest and VerifyModelResponse (tags 0x16, 0x17) — and the
// retired JobStreamRequest (0x12) — stay in the fuzz corpus as
// checked-in inputs, and every strict decoder must reject each of them.
// A message that reuses one of those tags would be accepted here.
func TestVerifyModelMessagesStrictDecode(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzWireDecodeProof")
	files, err := filepath.Glob(filepath.Join(dir, "verify-model-*"))
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, filepath.Join(dir, "job-stream-request"))
	if len(files) != 8 {
		t.Fatalf("found %d retired-tag corpus files, want 8", len(files))
	}
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		quoted, ok := strings.CutPrefix(string(raw), "go test fuzz v1\n[]byte(")
		if !ok {
			t.Fatalf("%s: not a fuzz corpus entry", name)
		}
		data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimSpace(quoted), ")"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tag := data[wire.HeaderLen-1]; tag != 0x12 && tag != 0x16 && tag != 0x17 {
			t.Fatalf("%s carries tag %#x, not a retired one", name, tag)
		}
		for _, c := range codecs {
			if _, err := c.roundTrip([]byte(data)); !errors.Is(err, wire.ErrDecode) {
				t.Errorf("%s: %s decoder: %v, want ErrDecode", filepath.Base(name), c.name, err)
			}
		}
	}
}
