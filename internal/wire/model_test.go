package wire_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/big"
	mrand "math/rand"
	"testing"
	"testing/iotest"

	"zkvc/internal/ff"
	"zkvc/internal/nn"
	"zkvc/internal/r1cs"
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

// TestLCCoefficientFastPaths pins the R1CS codec around its shortcuts:
// the ±1 coefficients that skip arithmetic in ff and the LCs carved from
// one pre-scanned term slice. A Spartan op frame carries a hand-built
// system; a marker coefficient, unique in the frame, locates the bytes
// the test rewrites.
func TestLCCoefficientFastPaths(t *testing.T) {
	_, _, rep := modelFixture(t, zkml.Spartan, 27)
	rng := mrand.New(mrand.NewSource(27))
	var one, minusOne, two, rMinus2, marker ff.Fr
	one.SetOne()
	minusOne.Neg(&one)
	two.SetUint64(2)
	rMinus2.Neg(&two)
	marker.SetPseudoRandom(rng)
	coeffs := []ff.Fr{{}, one, minusOne, two, rMinus2}
	for i := 0; i < 8; i++ {
		var c ff.Fr
		coeffs = append(coeffs, *c.SetPseudoRandom(rng))
	}
	op := rep.Ops[0]
	sys := &r1cs.System{NumPublic: len(op.Public), NumVars: len(op.Public) + 2}
	lc := r1cs.LC{{Coeff: marker, V: 1}}
	for i, c := range coeffs {
		lc = append(lc, r1cs.Term{Coeff: c, V: r1cs.Var(i % sys.NumVars)})
		sys.Constraints = append(sys.Constraints, r1cs.Constraint{
			A: r1cs.LC{{Coeff: c, V: 0}}, B: r1cs.LC{{Coeff: one, V: r1cs.Var(sys.NumVars - 1)}}, C: nil})
	}
	sys.Constraints = append(sys.Constraints, r1cs.Constraint{A: lc, B: r1cs.LC{{Coeff: minusOne, V: 0}}, C: lc[1:]})
	op.Sys = sys

	frame := wire.EncodeOpProof(&op)
	back, err := wire.DecodeOpProof(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wire.EncodeOpProof(back), frame) {
		t.Fatal("op frame does not re-encode to the same bytes")
	}
	for q, c := range sys.Constraints {
		d := back.Sys.Constraints[q]
		for k, pair := range [][2]r1cs.LC{{c.A, d.A}, {c.B, d.B}, {c.C, d.C}} {
			if len(pair[0]) != len(pair[1]) {
				t.Fatalf("constraint %d LC %d: %d terms back, want %d", q, k, len(pair[1]), len(pair[0]))
			}
			for i := range pair[0] {
				if pair[0][i] != pair[1][i] {
					t.Fatalf("constraint %d LC %d term %d changed across the round trip", q, k, i)
				}
			}
		}
	}

	markerBytes := marker.Bytes()
	at := bytes.Index(frame, markerBytes[:])
	if at < 0 || bytes.Index(frame[at+1:], markerBytes[:]) >= 0 {
		t.Fatal("marker coefficient is not unique in the frame")
	}
	// Each candidate replaces the marker: a value below r decodes to
	// exactly that element and re-encodes to the same frame; anything
	// else is an ErrDecode.
	r := ff.RModulus()
	try := func(enc [32]byte) {
		t.Helper()
		f := bytes.Clone(frame)
		copy(f[at:], enc[:])
		got, err := wire.DecodeOpProof(f)
		v := new(big.Int).SetBytes(enc[:])
		if v.Cmp(r) >= 0 {
			if !errors.Is(err, wire.ErrDecode) {
				t.Fatalf("coefficient %x ≥ r: %v, want ErrDecode", enc, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("coefficient %x < r rejected: %v", enc, err)
		}
		last := got.Sys.Constraints[len(got.Sys.Constraints)-1]
		if c := last.A[0].Coeff; c.Big().Cmp(v) != 0 {
			t.Fatalf("coefficient %x decoded as %v", enc, c.Big())
		}
		if !bytes.Equal(wire.EncodeOpProof(got), f) {
			t.Fatalf("coefficient %x does not re-encode to the same bytes", enc)
		}
	}
	for _, c := range []ff.Fr{one, minusOne} {
		enc := c.Bytes()
		try(enc)
		for bit := 0; bit < 256; bit++ {
			flipped := enc
			flipped[bit/8] ^= 1 << (bit % 8)
			try(flipped)
		}
	}
	var rPlus1, all [32]byte
	new(big.Int).Add(r, big.NewInt(1)).FillBytes(rPlus1[:])
	for i := range all {
		all[i] = 0xff
	}
	try(rPlus1)
	try(all)

	// LC counts that claim more terms than the frame holds: the marker
	// LC's count sits 8 bytes before its first coefficient (count, wire).
	countAt := at - 8
	if n := binary.BigEndian.Uint32(frame[countAt:]); n != uint32(len(lc)) {
		t.Fatalf("marker LC count reads %d, want %d", n, len(lc))
	}
	for _, n := range []uint32{uint32(len(lc) + 1), uint32(len(frame) / 36), 1 << 22, 1<<32 - 1} {
		f := bytes.Clone(frame)
		binary.BigEndian.PutUint32(f[countAt:], n)
		var err error
		allocated := allocatedBy(func() { _, err = wire.DecodeOpProof(f) })
		if !errors.Is(err, wire.ErrDecode) {
			t.Fatalf("LC count %d: %v, want ErrDecode", n, err)
		}
		if allocated > 8*uint64(len(frame))+1<<20 {
			t.Fatalf("LC count %d: a %d-byte frame allocated %d bytes", n, len(frame), allocated)
		}
	}
}
