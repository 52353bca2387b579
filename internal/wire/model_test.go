package wire_test

import (
	"bytes"
	"errors"
	"io"
	mrand "math/rand"
	"testing"
	"testing/iotest"

	"zkvc/internal/nn"
	"zkvc/internal/wire"
	"zkvc/internal/zkml"
)

// modelFixture builds one captured tiny trace plus its proved report.
func modelFixture(t *testing.T, backend zkml.Backend, seed int64) (nn.Config, *nn.Trace, *zkml.Report) {
	t.Helper()
	cfg := tinyFuzzConfigT(t)
	model, err := nn.NewModel(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	trace := nn.Trace{Capture: true}
	model.Forward(model.RandomInput(mrand.New(mrand.NewSource(seed+1))), &trace)
	opts := zkml.DefaultOptions()
	opts.Backend = backend
	opts.Seed = seed
	rep, err := zkml.ProveTrace(cfg, &trace, opts)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, &trace, rep
}

func tinyFuzzConfigT(t *testing.T) nn.Config {
	t.Helper()
	cfg := tinyFuzzConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestProveModelRequestRoundTrip pins the request format: a captured
// trace round-trips with every operand tensor intact, and the encoding
// is canonical.
func TestProveModelRequestRoundTrip(t *testing.T) {
	cfg, trace, _ := modelFixture(t, zkml.Spartan, 21)
	req := &wire.ProveModelRequest{Backend: zkml.Groth16, ProveNonlinear: true, Cfg: cfg, Trace: trace}
	raw := wire.EncodeProveModelRequest(req)
	back, err := wire.DecodeProveModelRequest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if back.Backend != req.Backend || back.ProveNonlinear != req.ProveNonlinear {
		t.Fatal("request header changed across round trip")
	}
	if back.Cfg.Name != cfg.Name || len(back.Trace.Ops) != len(trace.Ops) {
		t.Fatal("config or trace changed across round trip")
	}
	for i, op := range back.Trace.Ops {
		want := trace.Ops[i]
		if op.Kind != want.Kind || op.Tag != want.Tag || op.Layer != want.Layer {
			t.Fatalf("op %d metadata changed", i)
		}
		if (op.X == nil) != (want.X == nil) || (op.In == nil) != (want.In == nil) {
			t.Fatalf("op %d operand presence changed", i)
		}
	}
	if again := wire.EncodeProveModelRequest(back); !bytes.Equal(raw, again) {
		t.Fatal("re-encoding is not canonical")
	}
	// The decoded trace must actually prove — operands survived intact.
	opts := zkml.DefaultOptions()
	opts.Seed = 21
	if _, err := zkml.ProveTrace(back.Cfg, back.Trace, opts); err != nil {
		t.Fatalf("decoded trace does not prove: %v", err)
	}
}

// TestReportRoundTrip pins the report format on both backends: every op
// payload survives, the decoded report still verifies, and re-encoding
// reproduces the exact bytes. The streamed OpProof frames must match the
// per-op slices of the report encoding — that equality is what lets the
// issued-proof log attest frames and recognize reports.
func TestReportRoundTrip(t *testing.T) {
	for _, backend := range []zkml.Backend{zkml.Spartan, zkml.Groth16} {
		_, _, rep := modelFixture(t, backend, 23)
		raw := wire.EncodeReport(rep)
		back, err := wire.DecodeReport(raw)
		if err != nil {
			t.Fatalf("%v: decode: %v", backend, err)
		}
		if err := zkml.VerifyReport(back, zkml.DefaultOptions()); err != nil {
			t.Fatalf("%v: decoded report does not verify: %v", backend, err)
		}
		if again := wire.EncodeReport(back); !bytes.Equal(raw, again) {
			t.Fatalf("%v: re-encoding is not canonical", backend)
		}
		for i := range rep.Ops {
			frame := wire.EncodeOpProof(&rep.Ops[i])
			op, err := wire.DecodeOpProof(frame)
			if err != nil {
				t.Fatalf("%v: op %d frame: %v", backend, i, err)
			}
			if again := wire.EncodeOpProof(op); !bytes.Equal(frame, again) {
				t.Fatalf("%v: op %d frame is not canonical", backend, i)
			}
		}
	}
}

// TestModelStreamRoundTrip drives the framing helpers end to end,
// including out-of-order delivery (ops stream in completion order).
func TestModelStreamRoundTrip(t *testing.T) {
	cfg, _, rep := modelFixture(t, zkml.Spartan, 25)
	var buf bytes.Buffer
	if err := wire.WriteFrame(&buf, wire.EncodeModelStreamHeader(&wire.ModelStreamHeader{
		Model: cfg.Name, Backend: rep.Backend, Circuit: rep.Circuit, TotalOps: len(rep.Ops),
	})); err != nil {
		t.Fatal(err)
	}
	for i := len(rep.Ops) - 1; i >= 0; i-- { // reverse order on purpose
		if err := wire.WriteFrame(&buf, wire.EncodeOpProof(&rep.Ops[i])); err != nil {
			t.Fatal(err)
		}
	}
	streamed, err := wire.DecodeModelStream(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wire.EncodeReport(streamed), wire.EncodeReport(rep)) {
		t.Fatal("reassembled report differs from the original")
	}

	// A short stream must be an error, not a partial report.
	buf.Reset()
	wire.WriteFrame(&buf, wire.EncodeModelStreamHeader(&wire.ModelStreamHeader{
		Model: cfg.Name, Backend: rep.Backend, Circuit: rep.Circuit, TotalOps: len(rep.Ops),
	}))
	wire.WriteFrame(&buf, wire.EncodeOpProof(&rep.Ops[0]))
	if _, err := wire.DecodeModelStream(&buf, nil); err == nil {
		t.Fatal("truncated stream reassembled successfully")
	}

	// An error frame aborts with the server's message.
	buf.Reset()
	wire.WriteFrame(&buf, wire.EncodeModelStreamError("boom"))
	if _, err := wire.DecodeModelStream(&buf, nil); err == nil {
		t.Fatal("error frame did not abort the stream")
	}

	// A zero-op header is an empty report in disguise; DecodeReport and
	// the service reject empty reports, so the stream decoder must too —
	// a malicious server must not be able to hand out a vacuous success.
	zero := wire.EncodeModelStreamHeader(&wire.ModelStreamHeader{
		Model: cfg.Name, Backend: rep.Backend, Circuit: rep.Circuit, TotalOps: 0,
	})
	if _, err := wire.DecodeModelStreamHeader(zero); !errors.Is(err, wire.ErrDecode) {
		t.Fatalf("zero-op stream header accepted: %v", err)
	}
	buf.Reset()
	wire.WriteFrame(&buf, zero)
	if _, err := wire.DecodeModelStream(&buf, nil); err == nil {
		t.Fatal("zero-op stream reassembled into an empty report")
	}
}

// TestWriteFrameRejectsOversize: a frame over the stream bound fails
// with the ErrFrameTooLarge sentinel (the server relies on it to tell a
// local encoding failure from a client disconnect), before any bytes
// reach the writer.
func TestWriteFrameRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	err := wire.WriteFrame(&buf, make([]byte, 1<<30+1))
	if !errors.Is(err, wire.ErrFrameTooLarge) {
		t.Fatalf("oversize frame error = %v, want ErrFrameTooLarge", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("%d bytes written for a rejected frame", buf.Len())
	}
}

// TestReadFrameAllocatesForBytesReceived: the length prefix is a claim,
// not a fact. A stream that announces the 1 GiB maximum and then ends —
// a 4-byte message from a hostile node or server — must cost the reader a
// small fixed budget, a partial frame a small multiple of what arrived (the
// buffer doubles, so under four times),
// and a frame that does arrive in full must still come back intact through
// the growing buffer. A read error that is not the stream ending stays
// visible in the chain (a canceled request must read as canceled).
func TestReadFrameAllocatesForBytesReceived(t *testing.T) {
	maxFrame := []byte{0x40, 0, 0, 0} // 1<<30
	var err error
	headerOnly := allocatedBy(func() { _, err = wire.ReadFrame(bytes.NewReader(maxFrame)) })
	if !errors.Is(err, wire.ErrDecode) {
		t.Fatalf("header-only stream: %v, want ErrDecode", err)
	}
	if headerOnly > 128<<10 {
		t.Fatalf("header-only stream allocated %d bytes, want ≤ 128 KiB", headerOnly)
	}

	const sent = 300 << 10
	partial := append(bytes.Clone(maxFrame), make([]byte, sent)...)
	got := allocatedBy(func() { _, err = wire.ReadFrame(bytes.NewReader(partial)) })
	if !errors.Is(err, wire.ErrDecode) {
		t.Fatalf("partial frame: %v, want ErrDecode", err)
	}
	if got > 4*sent+128<<10 {
		t.Fatalf("partial frame of %d bytes allocated %d", sent, got)
	}

	msg := make([]byte, 200<<10+7)
	mrand.New(mrand.NewSource(29)).Read(msg)
	var buf bytes.Buffer
	if err := wire.WriteFrame(&buf, msg); err != nil {
		t.Fatal(err)
	}
	back, err := wire.ReadFrame(iotest.HalfReader(&buf))
	if err != nil || !bytes.Equal(back, msg) {
		t.Fatalf("large frame did not round-trip: %v", err)
	}
	if _, err := wire.ReadFrame(&buf); err != io.EOF {
		t.Fatalf("end of stream: %v, want io.EOF", err)
	}

	cause := errors.New("connection reset")
	broken := io.MultiReader(bytes.NewReader(partial[:100]), iotest.ErrReader(cause))
	if _, err := wire.ReadFrame(broken); !errors.Is(err, cause) || !errors.Is(err, wire.ErrDecode) {
		t.Fatalf("broken read: %v, want ErrDecode wrapping the cause", err)
	}
}
