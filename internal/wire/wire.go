// Package wire defines the canonical, versioned binary encoding for zkVC
// proofs, matrices and service messages. Every message begins with a
// 6-byte header (magic "ZKVC", format version, type tag) and decoding is
// strict: lengths are bounded by the remaining input, field elements must
// be canonical (< modulus), curve points must lie on the curve (G2 points
// additionally in the order-r subgroup), cross-field shapes must agree,
// and trailing bytes are rejected. Whatever a decoder accepts re-encodes
// to the identical bytes, so two byte strings never decode to the same
// message. Malformed input of any kind returns an error wrapping ErrDecode
// and never panics (see FuzzWireDecodeProof and TestStrictDecode).
//
// # The codec
//
// Every Decode* function is decode(b, tag, body): newDec checks the
// header, body reads the fields in wire order, finish rejects trailing
// bytes. The reader, dec, carries a sticky error: the first failure —
// a short read or a d.fail from a bound, canonicality or shape check —
// latches in d.err, always wrapping ErrDecode and naming the byte offset.
// After that every read returns a zero value (u8/u32/u64 → 0, count → 0,
// blob → empty, field elements and points → zero), later d.fail calls are
// ignored, and finish reports the latched error. A body is therefore
// straight-line code — one line per field, each check written once, no
// error threading — and cross-field checks may run on the zero values of
// a failed decode harmlessly.
//
// One rule keeps that safe: code that divides by, indexes with, or
// allocates from a decoded value checks d.err first. count, dims and the
// range readers (u8max, u32max, u32pos, u64max) already return zero on
// failure, so sizing a slice from them is fine; what needs an explicit
// `if d.err != nil` is everything else — the conv-geometry division by
// op.Stride, indexing one decoded slice by another's length, and loops
// that append rather than fill a slice sized by count. The fuzzer and
// the every-byte-mutation sweep in TestStrictDecode enforce it: a missed
// check is a panic there.
//
// # Tags
//
// The type tag distinguishes top-level messages. All tags are declared in
// one table below; tagNames is keyed by the constants, so two messages
// sharing a tag value do not compile.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"zkvc/internal/curve"
	"zkvc/internal/ff"
)

// Magic opens every wire message.
const Magic = "ZKVC"

// Version is the current format version. Decoders reject other versions.
const Version = 1

// HeaderLen is the size of the header (magic, version, type tag) every
// top-level message starts with. ProveResponse encodes its Index as a
// big-endian u32 immediately after the header; the proving service relies
// on that fixed offset to stamp per-recipient digests of a batch without
// re-encoding it (see internal/server's issuedBatchDigests).
const HeaderLen = len(Magic) + 2

// Type tags distinguish top-level messages.
const (
	TagMatrix            byte = 0x01
	TagMatMulProof       byte = 0x02
	TagBatchProof        byte = 0x03
	TagProveRequest      byte = 0x04
	TagProveResponse     byte = 0x05
	TagVerifyRequest     byte = 0x06
	TagProveModelRequest byte = 0x07
	TagOpProof           byte = 0x08
	TagReport            byte = 0x09
	TagModelStreamHeader byte = 0x0a
	TagModelStreamError  byte = 0x0b
	TagNodeAnnounce      byte = 0x0c
	// 0x0d was the retired node heartbeat; the coordinator's probe of
	// GET /metrics replaced it. Never reuse it.
	TagProveBatchRequest byte = 0x0e
	// Durable-job messages (jobs.go). TagJournalRecord and TagJobManifest
	// are stored in job journals on disk.
	TagJobSubmitRequest byte = 0x0f
	TagJobStatus        byte = 0x10
	TagJournalRecord    byte = 0x11
	// 0x12 was JobStreamRequest, the body of the retired
	// POST /v1/jobs/stream. Never reuse it.
	TagJobManifest byte = 0x13
	// Issued-log messages (issued.go). TagIssuedRecord is stored in the
	// durable issued-proof log.
	TagIssuedRecord      byte = 0x14
	TagAttestationUpdate byte = 0x15
	// 0x16 and 0x17 were the request and verdict of the retired
	// mode-carrying /v1/verify/model exchange, which now takes a Report.
	// Never reuse them.
)

// tagNames names every tag for decode errors. It is also the uniqueness
// guard: a duplicate constant key in a map literal is a compile error, so
// two messages can never again share a tag value.
var tagNames = map[byte]string{
	TagMatrix:            "Matrix",
	TagMatMulProof:       "MatMulProof",
	TagBatchProof:        "BatchProof",
	TagProveRequest:      "ProveRequest",
	TagProveResponse:     "ProveResponse",
	TagVerifyRequest:     "VerifyRequest",
	TagProveModelRequest: "ProveModelRequest",
	TagOpProof:           "OpProof",
	TagReport:            "Report",
	TagModelStreamHeader: "ModelStreamHeader",
	TagModelStreamError:  "ModelStreamError",
	TagNodeAnnounce:      "NodeAnnounce",
	TagProveBatchRequest: "ProveBatchRequest",
	TagJobSubmitRequest:  "JobSubmitRequest",
	TagJobStatus:         "JobStatus",
	TagJournalRecord:     "JournalRecord",
	TagJobManifest:       "JobManifest",
	TagIssuedRecord:      "IssuedRecord",
	TagAttestationUpdate: "AttestationUpdate",
}

// ErrDecode is wrapped by every decoding failure.
var ErrDecode = errors.New("wire: malformed message")

// Size limits enforced during decoding. They bound a single dimension;
// element counts are additionally bounded by the remaining input length,
// so a short message can never trigger a large allocation.
const (
	maxDim      = 1 << 16 // matrix rows/cols, batch length
	maxICLen    = 1 << 22 // Groth16 VK public-input points
	maxICInf    = 64      // infinity entries tolerated in one VK's IC
	maxBlobLen  = 1 << 10 // WCommit / epoch labels / tags / model names
	maxNumVars  = 48      // PCS commitment variables
	maxRounds   = 64      // sumcheck rounds
	maxPolyLen  = 16      // sumcheck round-poly evaluations
	maxPathLen  = 64      // Merkle path depth
	maxDuration = int64(1) << 62

	// Model-proving limits (trace, report and R1CS payloads).
	maxTraceOps    = 1 << 14 // operations in one trace or report
	maxStages      = 64      // model stages
	maxLayer       = 1 << 20 // block index (−1 allowed for embed/head)
	maxConstraints = 1 << 22 // R1CS constraints in one op payload
	maxWires       = 1 << 22 // R1CS wires in one op payload
	maxStatInt     = int64(1) << 40
)

// enc is an append-only message writer.
type enc struct {
	buf []byte
}

func newEnc(tag byte) *enc {
	e := &enc{buf: make([]byte, 0, 256)}
	e.buf = append(e.buf, Magic...)
	e.buf = append(e.buf, Version, tag)
	return e
}

func (e *enc) u8(v byte)    { e.buf = append(e.buf, v) }
func (e *enc) u32(v uint32) { e.buf = binary.BigEndian.AppendUint32(e.buf, v) }
func (e *enc) u64(v uint64) { e.buf = binary.BigEndian.AppendUint64(e.buf, v) }

func (e *enc) flag(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

func (e *enc) hash32(h *[32]byte) { e.buf = append(e.buf, h[:]...) }

// hashes writes a counted list of 32-byte digests.
func (e *enc) hashes(hs [][32]byte) {
	e.u32(uint32(len(hs)))
	for i := range hs {
		e.hash32(&hs[i])
	}
}

func (e *enc) bytes(b []byte) {
	e.u32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// fr writes a field element's canonical bytes straight into the buffer.
func (e *enc) fr(x *ff.Fr) {
	n := len(e.buf)
	e.buf = slices.Grow(e.buf, 32)[:n+32]
	x.PutBytes(e.buf[n:])
}

// frs writes field elements back to back, with no count.
func (e *enc) frs(xs []ff.Fr) {
	for i := range xs {
		e.fr(&xs[i])
	}
}

// frVec writes a counted vector of field elements.
func (e *enc) frVec(xs []ff.Fr) {
	e.u32(uint32(len(xs)))
	e.frs(xs)
}

func (e *enc) fp(x *ff.Fp) {
	n := len(e.buf)
	e.buf = slices.Grow(e.buf, 32)[:n+32]
	x.PutBytes(e.buf[n:])
}

func (e *enc) g1(p *curve.G1Affine) {
	if p.Infinity {
		e.u8(0)
		return
	}
	e.u8(1)
	e.fp(&p.X)
	e.fp(&p.Y)
}

func (e *enc) g2(p *curve.G2Affine) {
	if p.Infinity {
		e.u8(0)
		return
	}
	e.u8(1)
	e.fp(&p.X.A0)
	e.fp(&p.X.A1)
	e.fp(&p.Y.A0)
	e.fp(&p.Y.A1)
}

// dec is the strict, sticky-error message reader described in the
// package comment.
type dec struct {
	b   []byte
	off int
	err error // first failure; always wraps ErrDecode
}

// decode runs one top-level decoder: header, body, no trailing bytes. A
// failed decode returns the zero T, never a half-filled message.
func decode[T any](b []byte, tag byte, body func(*dec) T) (T, error) {
	d := newDec(b, tag)
	v := body(d)
	if err := d.finish(); err != nil {
		var zero T
		return zero, err
	}
	return v, nil
}

func newDec(b []byte, tag byte) *dec {
	d := &dec{b: b}
	switch {
	case len(b) < HeaderLen:
		d.fail("%d-byte message is shorter than the header", len(b))
	case string(b[:len(Magic)]) != Magic:
		d.fail("bad magic")
	case b[len(Magic)] != Version:
		d.fail("unsupported version %d", b[len(Magic)])
	case b[len(Magic)+1] != tag:
		got := b[len(Magic)+1]
		d.fail("type tag %#x (%s), want %#x (%s)", got, tagNames[got], tag, tagNames[tag])
	default:
		d.off = HeaderLen
	}
	return d
}

// fail latches the first decoding failure; later ones are ignored.
func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s (at byte %d)", ErrDecode, fmt.Sprintf(format, args...), d.off)
	}
}

func (d *dec) remaining() int { return len(d.b) - d.off }

// finish rejects trailing bytes after a complete top-level message and
// reports the latched error.
func (d *dec) finish() error {
	if d.err == nil && d.remaining() != 0 {
		d.fail("%d trailing bytes", d.remaining())
	}
	return d.err
}

// take returns the next n bytes of input, or nil after a failure.
func (d *dec) take(n int) []byte {
	if d.err == nil && (n < 0 || d.remaining() < n) {
		d.fail("truncated (need %d bytes, have %d)", n, d.remaining())
	}
	if d.err != nil {
		return nil
	}
	out := d.b[d.off : d.off+n]
	d.off += n
	return out
}

func (d *dec) u8() byte {
	if b := d.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (d *dec) u32() uint32 {
	if b := d.take(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

func (d *dec) u64() uint64 {
	if b := d.take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

// u8max reads a byte that must be in [0, max] — an enum or a flag set.
func (d *dec) u8max(what string, max byte) byte {
	v := d.u8()
	if v > max {
		d.fail("bad %s %d", what, v)
		return 0
	}
	return v
}

// flag reads a boolean encoded as exactly 0 or 1.
func (d *dec) flag(what string) bool { return d.u8max(what, 1) == 1 }

// u32max reads a u32 that must be in [0, max].
func (d *dec) u32max(what string, max int) int {
	v := d.u32()
	if int(v) > max {
		d.fail("%s %d exceeds %d", what, v, max)
		return 0
	}
	return int(v)
}

// u32pos reads a u32 that must be in [1, max].
func (d *dec) u32pos(what string, max int) int {
	v := d.u32max(what, max)
	if v == 0 {
		d.fail("%s is zero, want [1, %d]", what, max)
	}
	return v
}

// u64max reads a u64 that must be in [0, max]; max is a non-negative
// int64 bound, so the result fits a signed integer.
func (d *dec) u64max(what string, max int64) int64 {
	v := d.u64()
	if v > uint64(max) {
		d.fail("%s %d out of range", what, v)
		return 0
	}
	return int64(v)
}

// count reads an element count and checks it against both a hard cap and
// the bytes actually remaining (minSize per element), so corrupt headers
// cannot demand huge allocations. It returns 0 after any failure.
func (d *dec) count(what string, cap, minSize int) int {
	n := int(d.u32())
	switch {
	case n > cap:
		d.fail("%s count %d exceeds limit %d", what, n, cap)
	case minSize > 0 && n > d.remaining()/minSize:
		d.fail("%s count %d does not fit in %d remaining bytes", what, n, d.remaining())
	}
	if d.err != nil {
		return 0
	}
	return n
}

// dims reads a rows×cols header: both in [1, maxDim], and rows·cols
// entries of elemSize bytes must fit in the remaining input. It returns
// 0×0 after any failure.
func (d *dec) dims(what string, elemSize int) (rows, cols int) {
	r, c := d.u32(), d.u32()
	if r == 0 || c == 0 || r > maxDim || c > maxDim {
		d.fail("%s dimensions %dx%d out of range", what, r, c)
	} else if int(r)*int(c) > d.remaining()/elemSize {
		d.fail("%dx%d %s does not fit in %d remaining bytes", r, c, what, d.remaining())
	}
	if d.err != nil {
		return 0, 0
	}
	return int(r), int(c)
}

// blob reads a length-prefixed byte string of at most max bytes (a copy:
// decoded messages never alias the input).
func (d *dec) blob(what string, max int) []byte {
	return append([]byte(nil), d.take(d.count(what, max, 1))...)
}

// str reads a length-prefixed string of at most maxBlobLen bytes.
func (d *dec) str(what string) string {
	return string(d.take(d.count(what, maxBlobLen, 1)))
}

// strNonEmpty reads a string that must not be empty — an identity.
func (d *dec) strNonEmpty(what string) string {
	s := d.str(what)
	if s == "" {
		d.fail("empty %s", what)
	}
	return s
}

func (d *dec) hash32() (h [32]byte) {
	copy(h[:], d.take(32))
	return h
}

// hashes reads a counted list of 32-byte digests; nil when empty.
func (d *dec) hashes(what string, max int) [][32]byte {
	n := d.count(what, max, 32)
	if n == 0 {
		return nil
	}
	out := make([][32]byte, n)
	for i := range out {
		out[i] = d.hash32()
	}
	return out
}

// fr reads a canonical scalar-field element, rejecting values ≥ r.
func (d *dec) fr(x *ff.Fr) {
	if !x.SetBytesCanonical(d.take(32)) {
		d.fail("non-canonical Fr element")
	}
}

// frs fills xs with canonical scalar-field elements.
func (d *dec) frs(xs []ff.Fr) {
	for i := range xs {
		d.fr(&xs[i])
	}
}

// frVec reads a counted vector of canonical scalar-field elements.
func (d *dec) frVec(what string, max int) []ff.Fr {
	xs := make([]ff.Fr, d.count(what, max, 32))
	d.frs(xs)
	return xs
}

// fp reads a canonical base-field element, rejecting values ≥ p.
func (d *dec) fp(x *ff.Fp) {
	if !x.SetBytesCanonical(d.take(32)) {
		d.fail("non-canonical Fp element")
	}
}

// g1 reads a finite G1 point. Infinity (flag 0) is rejected here: proof
// elements and key anchors come from nonzero scalars, so an infinity
// encoding is always forged. IC points go through g1Any instead.
func (d *dec) g1(p *curve.G1Affine) { d.g1Point(p, false) }

// g1Any reads a G1 point that may legitimately be infinity — a verifying
// key's IC entry is [(β·u_i+α·v_i+w_i)/γ]₁, which is zero for a public
// wire absent from every constraint (the constant wire under CRPC).
func (d *dec) g1Any(p *curve.G1Affine) { d.g1Point(p, true) }

func (d *dec) g1Point(p *curve.G1Affine, allowInfinity bool) {
	*p = curve.G1Affine{}
	switch flag := d.u8(); {
	case d.err != nil:
	case flag == 0 && allowInfinity:
		p.Infinity = true
	case flag == 0:
		d.fail("G1 point at infinity not allowed here")
	case flag == 1:
		d.fp(&p.X)
		d.fp(&p.Y)
		// BN254's G1 has cofactor 1, so on-curve implies in-subgroup.
		if d.err == nil && !p.IsOnCurve() {
			d.fail("G1 point not on curve")
		}
	default:
		d.fail("bad G1 point flag %d", flag)
	}
}

func (d *dec) g2(p *curve.G2Affine) {
	*p = curve.G2Affine{}
	switch flag := d.u8(); {
	case d.err != nil:
	case flag == 0:
		d.fail("G2 point at infinity not allowed")
	case flag == 1:
		d.fp(&p.X.A0)
		d.fp(&p.X.A1)
		d.fp(&p.Y.A0)
		d.fp(&p.Y.A1)
		switch {
		case d.err != nil:
		case !p.IsOnCurve():
			d.fail("G2 point not on curve")
		case !g2InSubgroup(p):
			d.fail("G2 point not in the order-r subgroup")
		}
	default:
		d.fail("bad G2 point flag %d", flag)
	}
}

// g2InSubgroup checks [r]P = O, as [r−1]P = −P. The twist has cofactor
// > 1, so an on-curve G2 point is not automatically in the pairing
// subgroup; accepting one would let proof B carry a small-order component.
func g2InSubgroup(p *curve.G2Affine) bool {
	var rMinus1 ff.Fr
	rMinus1.SetOne()
	rMinus1.Neg(&rMinus1)
	var base, acc, neg curve.G2Jac
	base.FromAffine(p)
	acc.ScalarMul(&base, &rMinus1)
	return acc.Equal(neg.Neg(&base))
}
