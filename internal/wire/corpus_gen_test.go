package wire_test

import (
	mrand "math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"zkvc"
	"zkvc/internal/nn"
	"zkvc/internal/wire"
)

// TestWriteVerifyCorpus regenerates the checked-in fuzz inputs of the
// conv trace, issued-log and attestation encodings. It is a tool, not a
// test: set WIRE_WRITE_CORPUS=1 to rewrite those files of
// testdata/fuzz/FuzzWireDecodeProof in place. The job-stream-request and
// verify-model-* files there carry retired tags and are never rewritten;
// TestVerifyModelMessagesStrictDecode requires every decoder to reject
// them.
func TestWriteVerifyCorpus(t *testing.T) {
	if os.Getenv("WIRE_WRITE_CORPUS") == "" {
		t.Skip("set WIRE_WRITE_CORPUS=1 to regenerate corpus files")
	}
	issuedAdd := wire.EncodeIssuedRecord(&wire.IssuedRecord{
		Seq: 1, Kind: wire.IssuedAdd, Digest: [32]byte{0xd1}, CRSTag: 42,
	})
	issuedTomb := wire.EncodeIssuedRecord(&wire.IssuedRecord{
		Seq: 2, Kind: wire.IssuedTombstone, Prev: [32]byte{0xc4}, Digest: [32]byte{0xd1},
	})
	attest := wire.EncodeAttestationUpdate(&wire.AttestationUpdate{
		Node: "prover-1", Added: [][32]byte{{0xd1}, {0xd2}}, Removed: [][32]byte{{0xd3}},
	})

	// The OpConv2D trace encoding: a valid CNN prove-model request plus
	// its truncation, a trailing-byte variant, and one whose conv
	// geometry disagrees with the lowered A/N/B product (the decoder's
	// kernel-dims cross-check must reject it).
	cnnCfg := nn.TinyCNNConfig("fuzz-cnn")
	cnnModel, err := nn.NewModel(cnnCfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	cnnTrace := nn.Trace{Capture: true}
	cnnModel.Forward(cnnModel.RandomInput(mrand.New(mrand.NewSource(4))), &cnnTrace)
	cnnReq := wire.EncodeProveModelRequest(&wire.ProveModelRequest{
		Backend: zkvc.Spartan, Cfg: cnnCfg, Trace: &cnnTrace,
	})
	badKernel := nn.Trace{Capture: true, Ops: append([]nn.Op(nil), cnnTrace.Ops...)}
	for i := range badKernel.Ops {
		if badKernel.Ops[i].Kind == nn.OpConv2D {
			badKernel.Ops[i].KH++
		}
	}
	cnnBadKernel := wire.EncodeProveModelRequest(&wire.ProveModelRequest{
		Backend: zkvc.Spartan, Cfg: cnnCfg, Trace: &badKernel,
	})

	dir := filepath.Join("testdata", "fuzz", "FuzzWireDecodeProof")
	for name, data := range map[string][]byte{
		"conv-prove-model-request":                 cnnReq,
		"conv-prove-model-request-truncated":       cnnReq[:len(cnnReq)*2/3],
		"conv-prove-model-request-trailing":        append(append([]byte(nil), cnnReq...), 0x00),
		"conv-prove-model-request-bad-kernel-dims": cnnBadKernel,
		"issued-record-add":                        issuedAdd,
		"issued-record-tombstone":                  issuedTomb,
		"issued-record-truncated":                  issuedAdd[:len(issuedAdd)-5],
		"attestation-update":                       attest,
		"attestation-update-truncated":             attest[:len(attest)/2],
	} {
		entry := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(entry), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
