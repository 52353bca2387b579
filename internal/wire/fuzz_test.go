package wire_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	mrand "math/rand"
	"testing"

	"zkvc"
	"zkvc/internal/nn"
	"zkvc/internal/wire"
	"zkvc/internal/zkml"
)

// fuzzSeeds builds the in-code seed corpus: valid encodings of every
// message type plus characteristic corruptions. testdata/fuzz holds
// additional checked-in inputs.
func fuzzSeeds(f *testing.F) [][]byte {
	f.Helper()
	rng := mrand.New(mrand.NewSource(42))
	x := zkvc.RandomMatrix(rng, 3, 4, 32)
	w := zkvc.RandomMatrix(rng, 4, 2, 32)

	var seeds [][]byte
	for _, backend := range []zkvc.Backend{zkvc.Spartan, zkvc.Groth16} {
		prover := zkvc.NewMatMulProver(backend, zkvc.DefaultOptions())
		prover.Reseed(42)
		proof, err := prover.ProveContext(context.Background(), x, w)
		if err != nil {
			f.Fatal(err)
		}
		raw := wire.EncodeMatMulProof(proof)
		seeds = append(seeds, raw, raw[:len(raw)/2], raw[:7])

		batch, err := prover.ProveBatchContext(context.Background(), [2]*zkvc.Matrix{x, w}, [2]*zkvc.Matrix{x, w})
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, wire.EncodeBatchProof(batch))
	}
	seeds = append(seeds,
		wire.EncodeMatrix(x),
		wire.EncodeProveRequest(&wire.ProveRequest{X: x, W: w}),
		wire.EncodeProveBatchRequest(&wire.ProveBatchRequest{
			Pairs: [][2]*zkvc.Matrix{{x, w}, {x, w}},
		}),
		wire.EncodeNodeAnnounce(&wire.NodeAnnounce{Name: "prover-1", URL: "http://10.0.0.7:8799", Workers: 4}),
		wire.EncodeIssuedRecord(&wire.IssuedRecord{Seq: 3, Kind: wire.IssuedAdd, Digest: [32]byte{1, 2, 3}, CRSTag: 7}),
		wire.EncodeIssuedRecord(&wire.IssuedRecord{Seq: 4, Kind: wire.IssuedTombstone, Prev: [32]byte{9}, Digest: [32]byte{1, 2, 3}}),
		wire.EncodeAttestationUpdate(&wire.AttestationUpdate{Node: "prover-1", Added: [][32]byte{{4, 5}}, Removed: [][32]byte{{6}}}),
		wire.EncodeJobStatus(&wire.JobStatus{ID: "job-1", State: wire.JobRunning, TotalOps: 9, CompletedOps: 4}),
		wire.EncodeJobStatus(&wire.JobStatus{State: wire.JobRejected, QueuePos: 12, RetryAfterSeconds: 2, Error: "queue full"}),
		wire.EncodeJournalRecord(&wire.JournalRecord{Seq: 2, Kind: wire.JournalOp, Payload: []byte("frame")}),
		wire.EncodeJobManifest(&wire.JobManifest{ID: "job-1", Tenant: "acme", CreatedUnix: 1700000000, DeadlineUnix: 1700003600}),
		[]byte("ZKVC"),
		[]byte{},
		bytes.Repeat([]byte{0xff}, 64),
	)
	seeds = append(seeds, modelSeeds(f)...)
	seeds = append(seeds, cnnSeeds(f)...)
	return seeds
}

// cnnSeeds covers the OpConv2D encoding family: a CNN prove-model
// request (conv config section + conv op geometry), its report, and
// characteristic corruptions of the conv geometry.
func cnnSeeds(f *testing.F) [][]byte {
	f.Helper()
	cfg := nn.TinyCNNConfig("fuzz-cnn")
	model, err := nn.NewModel(cfg, 3)
	if err != nil {
		f.Fatal(err)
	}
	trace := nn.Trace{Capture: true}
	model.Forward(model.RandomInput(mrand.New(mrand.NewSource(4))), &trace)

	req := wire.EncodeProveModelRequest(&wire.ProveModelRequest{
		Backend: zkvc.Spartan, Cfg: cfg, Trace: &trace,
	})
	// Bad kernel dims: geometry that disagrees with the lowered product.
	badKernel := nn.Trace{Capture: true, Ops: append([]nn.Op(nil), trace.Ops...)}
	for i := range badKernel.Ops {
		if badKernel.Ops[i].Kind == nn.OpConv2D {
			badKernel.Ops[i].KH++
		}
	}
	badReq := wire.EncodeProveModelRequest(&wire.ProveModelRequest{
		Backend: zkvc.Spartan, Cfg: cfg, Trace: &badKernel,
	})

	opts := zkml.DefaultOptions()
	opts.Seed = 5
	rep, err := zkml.ProveTrace(cfg, &trace, opts)
	if err != nil {
		f.Fatal(err)
	}
	encodedRep := wire.EncodeReport(rep)
	return [][]byte{
		req, req[:len(req)/2], append(append([]byte(nil), req...), 0x00),
		badReq,
		encodedRep, encodedRep[:len(encodedRep)*2/3],
	}
}

// modelSeeds covers the model-proving message family: a prove-model
// request (config + captured trace), a streamed OpProof with a Spartan
// payload (the one that embeds a whole R1CS system), a full report, the
// stream header/error frames, and characteristic corruptions.
func modelSeeds(f *testing.F) [][]byte {
	f.Helper()
	cfg := tinyFuzzConfig()
	model, err := nn.NewModel(cfg, 3)
	if err != nil {
		f.Fatal(err)
	}
	trace := nn.Trace{Capture: true}
	model.Forward(model.RandomInput(mrand.New(mrand.NewSource(4))), &trace)

	req := wire.EncodeProveModelRequest(&wire.ProveModelRequest{
		Backend: zkvc.Spartan, ProveNonlinear: true, Cfg: cfg, Trace: &trace,
	})
	opts := zkml.DefaultOptions()
	opts.Seed = 5
	rep, err := zkml.ProveTrace(cfg, &trace, opts)
	if err != nil {
		f.Fatal(err)
	}
	encodedRep := wire.EncodeReport(rep)
	opFrame := wire.EncodeOpProof(&rep.Ops[len(rep.Ops)-1])

	corrupted := append([]byte(nil), opFrame...)
	corrupted[len(corrupted)/2] ^= 0xff

	// The retired mode-carrying verify exchange (tags 0x16 and 0x17),
	// rebuilt byte for byte: an aggregate request plus its truncation and
	// a trailing-byte variant, and the three verdict shapes. Every
	// decoder must reject them all.
	verifyReq := retiredVerifyModelRequest(rep, 1)
	verifyReqTrailing := append(append([]byte(nil), verifyReq...), 0x00)
	verifyOK := retiredVerifyModelResponse(true, 1, "")
	verifyFail := retiredVerifyModelResponse(false, 0, "verification failed: batched R1CS identity check fails")
	verifyFailTruncated := verifyFail[:len(verifyFail)-3]

	jobReq := wire.EncodeJobSubmitRequest(&wire.JobSubmitRequest{
		TTLSeconds: 60,
		Model: &wire.ProveModelRequest{
			Backend: zkvc.Spartan, ProveNonlinear: true, Cfg: cfg, Trace: &trace,
		},
	})
	return [][]byte{
		req, req[:len(req)/2],
		jobReq, jobReq[:len(jobReq)*2/3],
		opFrame, corrupted,
		encodedRep, encodedRep[:len(encodedRep)/3],
		verifyReq, verifyReq[:len(verifyReq)/2], verifyReqTrailing,
		verifyOK, verifyFail, verifyFailTruncated,
		wire.EncodeModelStreamHeader(&wire.ModelStreamHeader{
			Model: cfg.Name, Backend: zkvc.Spartan, Circuit: zkvc.DefaultOptions(), TotalOps: len(rep.Ops),
		}),
		wire.EncodeModelStreamError("prove failed"),
	}
}

// retiredVerifyModelRequest rebuilds a request of the retired
// mode-carrying verify exchange: a Report body under tag 0x16, after a
// mode byte (0 per-op, 1 aggregate).
func retiredVerifyModelRequest(rep *zkml.Report, mode byte) []byte {
	raw := wire.EncodeReport(rep)
	out := append([]byte(nil), raw[:wire.HeaderLen]...)
	out[wire.HeaderLen-1] = 0x16
	return append(append(out, mode), raw[wire.HeaderLen:]...)
}

// retiredVerifyModelResponse rebuilds its verdict under tag 0x17: an OK
// flag, the mode byte and a length-prefixed error text.
func retiredVerifyModelResponse(ok bool, mode byte, msg string) []byte {
	out := append([]byte(wire.Magic), wire.Version, 0x17, 0, mode)
	if ok {
		out[wire.HeaderLen] = 1
	}
	out = binary.BigEndian.AppendUint32(out, uint32(len(msg)))
	return append(out, msg...)
}

// tinyFuzzConfig is the smallest valid transformer the decoders accept.
func tinyFuzzConfig() nn.Config {
	return nn.TinyConfig("fuzz-tiny", nn.MixerPooling)
}

// FuzzWireDecodeProof feeds arbitrary bytes to every decoder. Corrupted or
// truncated input must produce an error wrapping ErrDecode, never a panic
// (a decoder that divides by, indexes with or allocates from a value read
// after a latched failure panics here) — and anything a decoder accepts
// must re-encode to the identical bytes (the format is canonical), so two
// distinct byte strings can never decode to the same message.
func FuzzWireDecodeProof(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range codecs {
			if again, err := c.roundTrip(data); err != nil {
				if !errors.Is(err, wire.ErrDecode) {
					t.Fatalf("%s: error %v does not wrap ErrDecode", c.name, err)
				}
			} else if !bytes.Equal(data, again) {
				t.Fatalf("accepted %s is not canonical", c.name)
			}
		}
	})
}
