package wire

// Model proving on the wire: canonical encodings for quantized tensors,
// model configurations, captured forward-pass traces (the body of a
// /v1/prove/model request) and per-operation proofs / reports (its
// streamed response). The same strict-decode discipline as the matmul
// messages applies — bounded lengths, canonical field elements, no
// trailing bytes — plus model-level validation: a decoded config must
// Validate, a decoded trace's captured operands must match their
// declared dimensions, and a decoded R1CS payload may only reference
// wires it declares. Before these types existed, an end-to-end model
// proof simply could not leave the process.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"zkvc"
	"zkvc/internal/nn"
	"zkvc/internal/r1cs"
	"zkvc/internal/tensor"
	"zkvc/internal/zkml"
)

// ProveModelRequest asks the proving service to prove a captured
// forward-pass trace. The service chooses the circuit options (CRPC/PSQ)
// and the proving seed; the client chooses backend and whether the
// nonlinear gadget circuits are included.
type ProveModelRequest struct {
	Backend        zkml.Backend
	ProveNonlinear bool
	Cfg            nn.Config
	Trace          *nn.Trace
}

// ModelStreamHeader opens a /v1/prove/model response stream: it names
// the report being built and how many operation proofs will follow.
type ModelStreamHeader struct {
	Model    string
	Backend  zkml.Backend
	Circuit  zkvc.Options
	TotalOps int
}

// ---- tensors ----

func encodeTensorBody(e *enc, m *tensor.Mat) {
	e.u32(uint32(m.Rows))
	e.u32(uint32(m.Cols))
	for _, v := range m.Data {
		e.u64(uint64(v))
	}
}

func decodeTensorBody(d *dec) *tensor.Mat {
	m := tensor.New(d.dims("tensor", 8))
	for i := range m.Data {
		m.Data[i] = d.i64()
	}
	return m
}

// ---- small scalar helpers ----

// i64 encodes a signed integer as its two's-complement u64 (injective,
// hence canonical).
func (e *enc) i64(v int64) { e.u64(uint64(v)) }

func (d *dec) i64() int64 { return int64(d.u64()) }

// layer reads a block index: −1 (embed/head) up to maxLayer.
func (d *dec) layer() int {
	v := d.i64()
	if v < -1 || v > maxLayer {
		d.fail("layer %d out of range", v)
		return 0
	}
	return int(v)
}

func (d *dec) opKind() nn.OpKind { return nn.OpKind(d.u8max("op kind", byte(nn.OpConv2D))) }

// ---- nn.Config ----

func encodeConfigBody(e *enc, cfg *nn.Config) {
	e.str(cfg.Name)
	e.u32(uint32(len(cfg.Stages)))
	for _, s := range cfg.Stages {
		e.u32(uint32(s.Blocks))
		e.u32(uint32(s.Dim))
		e.u32(uint32(s.Tokens))
	}
	e.u32(uint32(cfg.Heads))
	e.u32(uint32(cfg.MLPRatio))
	e.u32(uint32(cfg.PatchDim))
	e.u32(uint32(cfg.NumClasses))
	e.u32(uint32(len(cfg.Mixers)))
	for _, m := range cfg.Mixers {
		e.u8(byte(m))
	}
	e.u32(uint32(cfg.Fixed.FracBits))
	e.i64(cfg.ClipT)
	e.u32(uint32(cfg.SquareIters))
	e.u32(uint32(cfg.PoolWindow))
	// Conv section, always present so the encoding stays canonical:
	// transformer configs encode a zero layer count and zero geometry.
	e.u32(uint32(len(cfg.Convs)))
	for _, s := range cfg.Convs {
		e.u32(uint32(s.Out))
		e.u32(uint32(s.Kernel))
		e.u32(uint32(s.Stride))
		e.u32(uint32(s.Pad))
		e.u32(uint32(s.Pool))
	}
	e.u32(uint32(cfg.InputC))
	e.u32(uint32(cfg.InputH))
	e.u32(uint32(cfg.InputW))
}

func decodeConfigBody(d *dec) nn.Config {
	var cfg nn.Config
	cfg.Name = d.str("model name")
	cfg.Stages = make([]nn.Stage, d.count("stages", maxStages, 12))
	for i := range cfg.Stages {
		s := &cfg.Stages[i]
		s.Blocks = d.u32pos("stage blocks", maxTraceOps)
		s.Dim = d.u32pos("stage dim", maxDim)
		s.Tokens = d.u32pos("stage tokens", maxDim)
	}
	// Heads/MLPRatio/PatchDim are transformer-only; conv configs carry
	// zeros here, so positivity is Validate's per-architecture call.
	cfg.Heads = d.u32max("heads", maxDim)
	cfg.MLPRatio = d.u32max("MLP ratio", maxDim)
	cfg.PatchDim = d.u32max("patch dim", maxDim)
	cfg.NumClasses = d.u32pos("class count", maxDim)
	cfg.Mixers = make([]nn.MixerKind, d.count("mixers", maxTraceOps, 1))
	for i := range cfg.Mixers {
		cfg.Mixers[i] = nn.MixerKind(d.u8max("mixer kind", byte(nn.MixerLinear)))
	}
	cfg.Fixed.FracBits = uint(d.u32max("fixed-point fraction bits", 32))
	cfg.ClipT = d.i64()
	cfg.SquareIters = uint(d.u32max("square iterations", 64))
	cfg.PoolWindow = d.u32max("pool window", maxDim)
	if n := d.count("conv layers", maxStages, 20); n > 0 {
		cfg.Convs = make([]nn.ConvSpec, n)
	}
	for i := range cfg.Convs {
		s := &cfg.Convs[i]
		s.Out = d.u32pos("conv out channels", maxDim)
		s.Kernel = d.u32pos("conv kernel", maxDim)
		s.Stride = d.u32pos("conv stride", maxDim)
		s.Pad = d.u32max("conv padding", maxDim)
		s.Pool = d.u32pos("conv pool window", maxDim)
	}
	cfg.InputC = d.u32max("input channels", maxDim)
	cfg.InputH = d.u32max("input height", maxDim)
	cfg.InputW = d.u32max("input width", maxDim)
	// Validate computes with the fields, so it only sees a complete decode.
	if d.err == nil {
		if err := cfg.Validate(); err != nil {
			d.fail("invalid model config: %v", err)
		}
	}
	return cfg
}

// ---- nn.Trace ----

func encodeTraceBody(e *enc, t *nn.Trace) {
	e.flag(t.Capture)
	e.u32(uint32(len(t.Ops)))
	for i := range t.Ops {
		encodeOpBody(e, &t.Ops[i])
	}
}

func encodeOpBody(e *enc, op *nn.Op) {
	e.u8(byte(op.Kind))
	e.i64(int64(op.Layer))
	e.str(op.Tag)
	e.u32(uint32(op.A))
	e.u32(uint32(op.N))
	e.u32(uint32(op.B))
	e.u32(uint32(op.Rows))
	e.u32(uint32(op.Width))
	if op.Kind == nn.OpConv2D {
		// Conv geometry rides only on conv ops, so every other kind's
		// bytes are unchanged from the pre-conv wire format.
		for _, v := range []int{op.KH, op.KW, op.Stride, op.Pad, op.CIn, op.COut, op.InH, op.InW} {
			e.u32(uint32(v))
		}
	}
	var flags byte
	if op.X != nil {
		flags |= 1
	}
	if op.W != nil {
		flags |= 2
	}
	if op.In != nil {
		flags |= 4
	}
	e.u8(flags)
	if op.X != nil {
		encodeTensorBody(e, op.X)
	}
	if op.W != nil {
		encodeTensorBody(e, op.W)
	}
	if op.In != nil {
		encodeTensorBody(e, op.In)
	}
}

func decodeTraceBody(d *dec) *nn.Trace {
	t := &nn.Trace{Capture: d.flag("capture flag")}
	t.Ops = make([]nn.Op, d.count("trace ops", maxTraceOps, 34))
	for i := range t.Ops {
		decodeOpBody(d, &t.Ops[i])
	}
	return t
}

func decodeOpBody(d *dec, op *nn.Op) {
	op.Kind = d.opKind()
	op.Layer = d.layer()
	op.Tag = d.str("op tag")
	for _, dst := range []*int{&op.A, &op.N, &op.B, &op.Rows, &op.Width} {
		*dst = d.u32max("op dimension", maxDim)
	}
	if op.Kind == nn.OpConv2D {
		op.KH = d.u32pos("conv kernel height", maxDim)
		op.KW = d.u32pos("conv kernel width", maxDim)
		op.Stride = d.u32pos("conv stride", maxDim)
		op.Pad = d.u32max("conv padding", maxDim)
		op.CIn = d.u32pos("conv input channels", maxDim)
		op.COut = d.u32pos("conv output channels", maxDim)
		op.InH = d.u32pos("conv input height", maxDim)
		op.InW = d.u32pos("conv input width", maxDim)
		// The geometry must produce exactly the product shape the op
		// declares — an attacker cannot pair a conv label with a matmul
		// of some other provenance, and the im2col captured below is
		// dimension-checked against the same A/N.
		if op.KH > op.InH+2*op.Pad || op.KW > op.InW+2*op.Pad {
			d.fail("conv kernel %dx%d exceeds padded input %dx%d",
				op.KH, op.KW, op.InH+2*op.Pad, op.InW+2*op.Pad)
		}
		// The output size divides by the decoded stride, which is only
		// known positive on an error-free decode.
		if d.err != nil {
			return
		}
		outH := (op.InH+2*op.Pad-op.KH)/op.Stride + 1
		outW := (op.InW+2*op.Pad-op.KW)/op.Stride + 1
		if op.A != outH*outW || op.N != op.KH*op.KW*op.CIn || op.B != op.COut {
			d.fail("conv geometry yields %dx%dx%d, op declares %dx%dx%d",
				outH*outW, op.KH*op.KW*op.CIn, op.COut, op.A, op.N, op.B)
		}
	}
	flags := d.u8max("operand flags", 7)
	for _, f := range []struct {
		bit  byte
		dst  **tensor.Mat
		what string
		r, c int
	}{
		{1, &op.X, "X", op.A, op.N},
		{2, &op.W, "W", op.N, op.B},
		{4, &op.In, "In", op.Rows, op.Width},
	} {
		if flags&f.bit == 0 {
			continue
		}
		m := decodeTensorBody(d)
		if m.Rows != f.r || m.Cols != f.c {
			d.fail("captured %s is %dx%d, op declares %dx%d", f.what, m.Rows, m.Cols, f.r, f.c)
		}
		*f.dst = m
	}
}

// ---- ProveModelRequest ----

// EncodeProveModelRequest serializes a model proving job.
func EncodeProveModelRequest(r *ProveModelRequest) []byte {
	e := newEnc(TagProveModelRequest)
	encodeProveModelBody(e, r)
	return e.buf
}

// DecodeProveModelRequest parses a model proving job: a valid model
// configuration plus a captured trace whose operand shapes all agree
// with their declared dimensions.
func DecodeProveModelRequest(b []byte) (*ProveModelRequest, error) {
	return decode(b, TagProveModelRequest, decodeProveModelBody)
}

// encodeProveModelBody writes a model proving job — shared between the
// synchronous request and the asynchronous JobSubmitRequest.
func encodeProveModelBody(e *enc, r *ProveModelRequest) {
	encodeBackend(e, r.Backend)
	e.flag(r.ProveNonlinear)
	encodeConfigBody(e, &r.Cfg)
	encodeTraceBody(e, r.Trace)
}

func decodeProveModelBody(d *dec) *ProveModelRequest {
	r := &ProveModelRequest{}
	r.Backend = decodeBackend(d)
	r.ProveNonlinear = d.flag("nonlinear flag")
	r.Cfg = decodeConfigBody(d)
	r.Trace = decodeTraceBody(d)
	return r
}

// ---- R1CS systems ----

func encodeSystemBody(e *enc, sys *r1cs.System) {
	e.u32(uint32(sys.NumPublic))
	e.u32(uint32(sys.NumVars))
	e.u32(uint32(len(sys.Constraints)))
	for q := range sys.Constraints {
		encodeLC(e, sys.Constraints[q].A)
		encodeLC(e, sys.Constraints[q].B)
		encodeLC(e, sys.Constraints[q].C)
	}
}

func encodeLC(e *enc, lc r1cs.LC) {
	e.u32(uint32(len(lc)))
	for i := range lc {
		e.u32(uint32(lc[i].V))
		e.fr(&lc[i].Coeff)
	}
}

// systemSize is the encoded length of sys: three u32 headers, then per
// LC a u32 term count and 36 bytes a term.
func systemSize(sys *r1cs.System) int {
	n := 12
	for q := range sys.Constraints {
		c := &sys.Constraints[q]
		n += 12 + 36*(len(c.A)+len(c.B)+len(c.C))
	}
	return n
}

func decodeSystemBody(d *dec) *r1cs.System {
	sys := &r1cs.System{}
	sys.NumPublic = d.u32pos("public wires", maxWires)
	sys.NumVars = d.u32pos("wires", maxWires)
	if sys.NumVars < sys.NumPublic {
		d.fail("%d wires but %d public", sys.NumVars, sys.NumPublic)
	}
	sys.Constraints = make([]r1cs.Constraint, d.count("constraints", maxConstraints, 12))
	// Every LC is carved from one term slice instead of a make per LC.
	terms := make([]r1cs.Term, d.lcTerms(3*len(sys.Constraints)))
	for q := range sys.Constraints {
		c := &sys.Constraints[q]
		c.A = decodeLC(d, sys.NumVars, &terms)
		c.B = decodeLC(d, sys.NumVars, &terms)
		c.C = decodeLC(d, sys.NumVars, &terms)
	}
	return sys
}

// lcTerms totals the term counts of the next lcs LCs without consuming
// input. It stops at the first count whose terms the remaining bytes
// cannot hold (where decodeLC's count check fails), so the total — an
// allocation size — is bounded by the input, whatever the counts claim.
func (d *dec) lcTerms(lcs int) int {
	if d.err != nil {
		return 0
	}
	total, off := 0, d.off
	for i := 0; i < lcs && len(d.b)-off >= 4; i++ {
		n := int(binary.BigEndian.Uint32(d.b[off:]))
		off += 4
		if n > (len(d.b)-off)/36 {
			break
		}
		off += 36 * n
		total += n
	}
	return total
}

// decodeLC reads one LC into the front of *pool, the term slice
// lcTerms sized.
func decodeLC(d *dec, numVars int, pool *[]r1cs.Term) r1cs.LC {
	n := d.count("LC terms", maxWires, 36)
	if n > len(*pool) {
		d.fail("LC of %d terms overruns the pre-scanned %d", n, len(*pool))
	}
	if n == 0 || d.err != nil {
		return nil
	}
	lc := (*pool)[:n:n]
	*pool = (*pool)[n:]
	for i := range lc {
		v := d.u32()
		if int(v) >= numVars {
			d.fail("LC references wire %d of %d", v, numVars)
		}
		lc[i].V = r1cs.Var(v)
		d.fr(&lc[i].Coeff)
	}
	return lc
}

// opSize bounds the encoded length of op from what it holds — the
// system exactly, the payload by its SizeBytes plus count prefixes — so
// an encoder sizes its buffer once. The declared Stats and ProofBytes
// are not used: on the verify path they are decoder input, and a buffer
// sized from them could be made arbitrarily large.
func opSize(op *zkml.OpProof) int {
	n := 1024 + len(op.Tag) + 32*len(op.Public)
	if op.Sys != nil {
		n += systemSize(op.Sys)
	}
	if op.Spartan != nil {
		n += op.Spartan.SizeBytes() + 4*len(op.Spartan.Opening.Columns)
	}
	if op.G16VK != nil {
		n += 65 * len(op.G16VK.IC)
	}
	return n
}

// ---- OpProof ----

// EncodeOpProof serializes one per-operation proof as a top-level
// message — the unit /v1/prove/model streams.
func EncodeOpProof(op *zkml.OpProof) []byte {
	e := newEnc(TagOpProof)
	e.buf = slices.Grow(e.buf, opSize(op))
	encodeOpProofBody(e, op)
	return e.buf
}

// DecodeOpProof parses a streamed per-operation proof.
func DecodeOpProof(b []byte) (*zkml.OpProof, error) {
	return decode(b, TagOpProof, func(d *dec) *zkml.OpProof {
		op := &zkml.OpProof{}
		decodeOpProofBody(d, op)
		return op
	})
}

func encodeOpProofBody(e *enc, op *zkml.OpProof) {
	e.u32(uint32(op.Seq))
	e.str(op.Tag)
	e.i64(int64(op.Layer))
	e.u8(byte(op.Kind))
	for _, v := range op.Dims {
		e.u32(uint32(v))
	}
	for _, v := range []int{op.Stats.Constraints, op.Stats.Variables, op.Stats.Public,
		op.Stats.ATerms, op.Stats.BTerms, op.Stats.CTerms} {
		e.u64(uint64(v))
	}
	for _, t := range []time.Duration{op.Synthesis, op.Setup, op.Prove, op.Verify} {
		e.u64(uint64(t))
	}
	e.u32(uint32(op.ProofBytes))
	// The payload section opens with the backend byte so no-payload ops
	// (stripped payloads) stay canonical: an op without a payload has no
	// backend of its own — the report header carries it.
	var backend zkml.Backend
	switch {
	case op.G16 != nil:
		backend = zkml.Groth16
	case op.Spartan != nil:
		backend = zkml.Spartan
	default:
		e.flag(false)
		return
	}
	e.flag(true)
	encodeBackend(e, backend)
	e.frVec(op.Public)
	if backend == zkml.Spartan {
		encodeSystemBody(e, op.Sys)
	}
	encodePayload(e, backend, op.G16, op.G16VK, op.Spartan)
}

func decodeOpProofBody(d *dec, op *zkml.OpProof) {
	op.Seq = d.u32max("op sequence", maxTraceOps)
	op.Tag = d.str("op tag")
	op.Layer = d.layer()
	op.Kind = d.opKind()
	for i := range op.Dims {
		op.Dims[i] = d.u32max("op dimension", maxDim)
	}
	for _, dst := range []*int{&op.Stats.Constraints, &op.Stats.Variables, &op.Stats.Public,
		&op.Stats.ATerms, &op.Stats.BTerms, &op.Stats.CTerms} {
		*dst = int(d.u64max("circuit statistic", maxStatInt))
	}
	for _, dst := range []*time.Duration{&op.Synthesis, &op.Setup, &op.Prove, &op.Verify} {
		*dst = d.duration()
	}
	op.ProofBytes = d.u32max("proof size", 1<<30)
	if !d.flag("payload flag") {
		return
	}
	backend := decodeBackend(d)
	op.Public = d.frVec("op publics", maxICLen)
	if backend == zkml.Spartan {
		op.Sys = decodeSystemBody(d)
		// A mismatched instance size would surface deep inside the Spartan
		// verifier; reject it at the trust boundary instead.
		if len(op.Public) != op.Sys.NumPublic {
			d.fail("%d publics for a system with %d instance wires", len(op.Public), op.Sys.NumPublic)
		}
	}
	op.G16, op.G16VK, op.Spartan = decodePayload(d, backend)
}

// ---- Report ----

// EncodeReport serializes a full model report (header plus every
// operation proof, in sequence order) — the body of a /v1/verify/model
// request and the on-disk format of `zkvc prove-model -out`.
func EncodeReport(rep *zkml.Report) []byte {
	e := newEnc(TagReport)
	n := 1024 + len(rep.Model)
	for i := range rep.Ops {
		n += opSize(&rep.Ops[i])
	}
	e.buf = slices.Grow(e.buf, n)
	e.str(rep.Model)
	encodeBackend(e, rep.Backend)
	encodeOptions(e, rep.Circuit)
	e.u32(uint32(len(rep.Ops)))
	for i := range rep.Ops {
		encodeOpProofBody(e, &rep.Ops[i])
	}
	return e.buf
}

// DecodeReport parses a model report, requiring ops in strict sequence
// order (Seq == position), which makes the encoding canonical and lets
// re-encoded ops match the frames the service streamed.
func DecodeReport(b []byte) (*zkml.Report, error) {
	return decode(b, TagReport, func(d *dec) *zkml.Report {
		rep := &zkml.Report{}
		rep.Model = d.str("model name")
		rep.Backend = decodeBackend(d)
		rep.Circuit = decodeOptions(d)
		n := d.count("report ops", maxTraceOps, 64)
		// An empty report proves nothing and can never have been issued
		// (the prove endpoint rejects zero-op traces); reject it like an
		// empty batch, so a vacuous report cannot slide past per-op
		// policy checks.
		if n == 0 {
			d.fail("empty report")
		}
		rep.Ops = make([]zkml.OpProof, n)
		for i := range rep.Ops {
			decodeOpProofBody(d, &rep.Ops[i])
			if rep.Ops[i].Seq != i {
				d.fail("op at position %d carries sequence %d", i, rep.Ops[i].Seq)
			}
		}
		return rep
	})
}

// ---- stream header / error ----

// EncodeModelStreamHeader serializes the first frame of a model stream.
func EncodeModelStreamHeader(h *ModelStreamHeader) []byte {
	e := newEnc(TagModelStreamHeader)
	e.str(h.Model)
	encodeBackend(e, h.Backend)
	encodeOptions(e, h.Circuit)
	e.u32(uint32(h.TotalOps))
	return e.buf
}

// DecodeModelStreamHeader parses a stream-opening frame.
func DecodeModelStreamHeader(b []byte) (*ModelStreamHeader, error) {
	return decode(b, TagModelStreamHeader, func(d *dec) *ModelStreamHeader {
		h := &ModelStreamHeader{}
		h.Model = d.str("model name")
		h.Backend = decodeBackend(d)
		h.Circuit = decodeOptions(d)
		// A zero-op stream would reassemble into an empty report, which
		// DecodeReport (and the service) reject; refuse it here so a buggy
		// or malicious server cannot hand the client a vacuous "success".
		h.TotalOps = d.u32pos("model stream ops", maxTraceOps)
		return h
	})
}

// EncodeModelStreamError serializes a mid-stream failure frame.
func EncodeModelStreamError(msg string) []byte {
	e := newEnc(TagModelStreamError)
	e.str(msg)
	return e.buf
}

// DecodeModelStreamError parses a failure frame.
func DecodeModelStreamError(b []byte) (string, error) {
	return decode(b, TagModelStreamError, func(d *dec) string { return d.str("error message") })
}

// ---- stream framing ----

// maxFrameLen bounds one length-prefixed stream frame (same budget as
// the service's model-endpoint body cap, so any op the service accepts
// for proving can also be framed back).
const maxFrameLen = 1 << 30

// ErrFrameTooLarge reports a message over the stream frame bound. It is
// a local encoding failure, not a connection failure — a writer that
// hits it still has a healthy peer and can (and should) tell the peer
// what happened instead of silently dropping the stream.
var ErrFrameTooLarge = errors.New("wire: frame exceeds limit")

// WriteFrame writes one length-prefixed message to a model stream. It
// enforces the same bound ReadFrame does — a writer must never emit a
// frame its peer's decoder is obligated to reject (and a message beyond
// u32 range would silently wrap the length prefix and desynchronize the
// stream).
func WriteFrame(w io.Writer, msg []byte) error {
	if len(msg) > maxFrameLen {
		return fmt.Errorf("%w: %d bytes > %d", ErrFrameTooLarge, len(msg), maxFrameLen)
	}
	var hdr [4]byte
	hdr[0] = byte(len(msg) >> 24)
	hdr[1] = byte(len(msg) >> 16)
	hdr[2] = byte(len(msg) >> 8)
	hdr[3] = byte(len(msg))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(msg)
	return err
}

// frameAllocStep is the most ReadFrame allocates ahead of the bytes it
// has actually received: smaller frames are allocated whole, larger ones
// in a buffer that doubles as payload arrives.
const frameAllocStep = 1 << 16

// ReadFrame reads one length-prefixed message. io.EOF (clean, at a frame
// boundary) marks the end of the stream. The announced length is only a
// claim — a 4-byte header from a hostile peer may say 1 GiB — so memory
// is committed in proportion to the payload received, never to the header.
// A read that fails for a reason other than the stream ending (a canceled
// request, a reset connection) keeps that cause in the error chain.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: truncated frame header", ErrDecode)
		}
		return nil, err
	}
	n := int(hdr[0])<<24 | int(hdr[1])<<16 | int(hdr[2])<<8 | int(hdr[3])
	if n > maxFrameLen {
		return nil, fmt.Errorf("%w: %d-byte frame exceeds limit %d", ErrDecode, n, maxFrameLen)
	}
	msg := make([]byte, 0, min(n, frameAllocStep))
	for len(msg) < n {
		if len(msg) == cap(msg) {
			msg = append(make([]byte, 0, min(n, 2*cap(msg))), msg...)
		}
		k, err := io.ReadFull(r, msg[len(msg):cap(msg)])
		msg = msg[:len(msg)+k]
		switch err {
		case nil:
		case io.EOF, io.ErrUnexpectedEOF:
			return nil, fmt.Errorf("%w: truncated %d-byte frame", ErrDecode, n)
		default:
			return nil, fmt.Errorf("%w: truncated %d-byte frame: %w", ErrDecode, n, err)
		}
	}
	return msg, nil
}

// ModelStreamReader is the single trust boundary for a /v1/prove/model
// response stream: it decodes the header frame, then hands out one
// validated OpProof per Next call — in-stream error frames become
// errors, sequence numbers are checked in range and seen at most once,
// and a stream ending before every announced op arrived is an error,
// never a silent truncation. Both the buffered reassembly
// (DecodeModelStream) and the Engine client's lazy iterator are built
// on it, so the validation exists exactly once.
type ModelStreamReader struct {
	r    io.Reader
	hdr  *ModelStreamHeader
	seen []bool
	got  int
}

// NewModelStreamReader reads and validates the stream header.
func NewModelStreamReader(r io.Reader) (*ModelStreamReader, error) {
	first, err := ReadFrame(r)
	if err != nil {
		return nil, fmt.Errorf("model stream header: %w", err)
	}
	hdr, err := DecodeModelStreamHeader(first)
	if err != nil {
		if msg, errErr := DecodeModelStreamError(first); errErr == nil {
			return nil, fmt.Errorf("model stream: server error: %s", msg)
		}
		return nil, err
	}
	return &ModelStreamReader{r: r, hdr: hdr, seen: make([]bool, hdr.TotalOps)}, nil
}

// Header returns the validated stream header.
func (sr *ModelStreamReader) Header() *ModelStreamHeader { return sr.hdr }

// Next returns the next validated op proof, in completion order. It
// returns io.EOF once every announced op has been read.
func (sr *ModelStreamReader) Next() (*zkml.OpProof, error) {
	if sr.got >= sr.hdr.TotalOps {
		return nil, io.EOF
	}
	frame, err := ReadFrame(sr.r)
	if err == io.EOF {
		return nil, fmt.Errorf("%w: stream ended after %d of %d ops", ErrDecode, sr.got, sr.hdr.TotalOps)
	}
	if err != nil {
		return nil, err
	}
	if msg, errErr := DecodeModelStreamError(frame); errErr == nil {
		return nil, fmt.Errorf("model stream: server error: %s", msg)
	}
	op, err := DecodeOpProof(frame)
	if err != nil {
		return nil, err
	}
	if op.Seq >= sr.hdr.TotalOps {
		return nil, fmt.Errorf("%w: op sequence %d out of range %d", ErrDecode, op.Seq, sr.hdr.TotalOps)
	}
	if sr.seen[op.Seq] {
		return nil, fmt.Errorf("%w: duplicate op sequence %d", ErrDecode, op.Seq)
	}
	sr.seen[op.Seq] = true
	sr.got++
	return op, nil
}

// DecodeModelStream consumes a /v1/prove/model response stream: a header
// frame, then one OpProof frame per operation in completion (not
// sequence) order, reassembled into a Report in sequence order. onOp,
// when non-nil, observes each proof as its frame arrives — CLI progress
// without a second pass.
func DecodeModelStream(r io.Reader, onOp func(op *zkml.OpProof)) (*zkml.Report, error) {
	sr, err := NewModelStreamReader(r)
	if err != nil {
		return nil, err
	}
	hdr := sr.Header()
	rep := &zkml.Report{Model: hdr.Model, Backend: hdr.Backend, Circuit: hdr.Circuit,
		Ops: make([]zkml.OpProof, hdr.TotalOps)}
	for {
		op, err := sr.Next()
		if err == io.EOF {
			return rep, nil
		}
		if err != nil {
			return nil, err
		}
		rep.Ops[op.Seq] = *op
		if onOp != nil {
			onOp(op)
		}
	}
}
