package wire

import (
	"time"

	"zkvc"
	"zkvc/internal/curve"
	"zkvc/internal/ff"
	"zkvc/internal/groth16"
	"zkvc/internal/pcs"
	"zkvc/internal/spartan"
	"zkvc/internal/sumcheck"
)

// ProveRequest asks the proving service for a proof of X·W.
type ProveRequest struct {
	X, W *zkvc.Matrix
}

// ProveResponse answers a coalesced proving request: the request's position
// in the batch, every public input of the batch (in batch order), and the
// single proof covering all of them. VerifyMatMulBatch(Xs, Batch) checks
// the whole batch; Batch.Ys[Index] is this request's product.
//
// Note the whole batch is visible to every recipient — Xs and Batch.Ys
// include the other coalesced requests' inputs and outputs, which the
// batch identity needs as public values. The server therefore only
// coalesces requests of the same tenant (server.TenantHeader).
type ProveResponse struct {
	Index int
	Xs    []*zkvc.Matrix
	Batch *zkvc.BatchProof
}

// ProveBatchRequest asks the proving service to fold the products
// X_m·W_m of every pair into one direct batch proof (POST
// /v1/prove/batch — no coalescing window, no other tenants' statements).
type ProveBatchRequest struct {
	Pairs [][2]*zkvc.Matrix
}

// VerifyRequest asks the service to check a single proof against X.
type VerifyRequest struct {
	X     *zkvc.Matrix
	Proof *zkvc.MatMulProof
}

// ---- Matrix ----

// EncodeMatrix serializes a matrix as a top-level message.
func EncodeMatrix(m *zkvc.Matrix) []byte {
	e := newEnc(TagMatrix)
	encodeMatrixBody(e, m)
	return e.buf
}

// DecodeMatrix parses a top-level matrix message.
func DecodeMatrix(b []byte) (*zkvc.Matrix, error) {
	return decode(b, TagMatrix, decodeMatrixBody)
}

func encodeMatrixBody(e *enc, m *zkvc.Matrix) {
	e.u32(uint32(m.Rows))
	e.u32(uint32(m.Cols))
	e.frs(m.Data)
}

func decodeMatrixBody(d *dec) *zkvc.Matrix {
	m := zkvc.NewMatrix(d.dims("matrix", 32))
	d.frs(m.Data)
	return m
}

// ---- backend payloads ----

func encodeBackend(e *enc, b zkvc.Backend) { e.u8(byte(b)) }

func decodeBackend(d *dec) zkvc.Backend {
	return zkvc.Backend(d.u8max("backend", byte(zkvc.Spartan)))
}

func encodeOptions(e *enc, o zkvc.Options) {
	var bits byte
	if o.CRPC {
		bits |= 1
	}
	if o.PSQ {
		bits |= 2
	}
	e.u8(bits)
}

func decodeOptions(d *dec) zkvc.Options {
	bits := d.u8max("option bits", 3)
	return zkvc.Options{CRPC: bits&1 != 0, PSQ: bits&2 != 0}
}

// encodePayload writes a backend's proof payload — a Groth16 proof with
// its verifying key, or a Spartan proof — the tail shared by MatMulProof,
// BatchProof and OpProof. An unknown backend writes nothing.
func encodePayload(e *enc, b zkvc.Backend, g *groth16.Proof, vk *groth16.VerifyingKey, s *spartan.Proof) {
	switch b {
	case zkvc.Groth16:
		e.g1(&g.A)
		e.g2(&g.B)
		e.g1(&g.C)
		e.g1(&vk.AlphaG1)
		e.g2(&vk.BetaG2)
		e.g2(&vk.GammaG2)
		e.g2(&vk.DeltaG2)
		e.u32(uint32(len(vk.IC)))
		for i := range vk.IC {
			e.g1(&vk.IC[i])
		}
	case zkvc.Spartan:
		encodeSpartanProof(e, s)
	}
}

// decodePayload reads the payload of the (already validated) backend b,
// so a message carries exactly its declared backend's proof.
func decodePayload(d *dec, b zkvc.Backend) (*groth16.Proof, *groth16.VerifyingKey, *spartan.Proof) {
	if b == zkvc.Spartan {
		return nil, nil, decodeSpartanProof(d)
	}
	g, vk := &groth16.Proof{}, &groth16.VerifyingKey{}
	d.g1(&g.A)
	d.g2(&g.B)
	d.g1(&g.C)
	d.g1(&vk.AlphaG1)
	d.g2(&vk.BetaG2)
	d.g2(&vk.GammaG2)
	d.g2(&vk.DeltaG2)
	// Grow the slice as points actually decode (with a modest starting
	// capacity) and tolerate only a handful of 1-byte infinity entries,
	// so the allocation is proportional to the input, not to the header.
	// The loop appends, so it must stop at the first failure.
	n := d.count("vk IC", maxICLen, 1)
	vk.IC = make([]curve.G1Affine, 0, min(n, 1024))
	infinities := 0
	for i := 0; i < n && d.err == nil; i++ {
		var p curve.G1Affine
		d.g1Any(&p)
		if p.Infinity {
			if infinities++; infinities > maxICInf {
				d.fail("vk IC has more than %d points at infinity", maxICInf)
			}
		}
		vk.IC = append(vk.IC, p)
	}
	return g, vk, nil
}

func encodeSumcheck(e *enc, p *sumcheck.Proof) {
	e.u32(uint32(len(p.RoundPolys)))
	for _, poly := range p.RoundPolys {
		e.u8(byte(len(poly)))
		e.frs(poly)
	}
}

func decodeSumcheck(d *dec) *sumcheck.Proof {
	p := &sumcheck.Proof{RoundPolys: make([][]ff.Fr, d.count("sumcheck rounds", maxRounds, 1))}
	for r := range p.RoundPolys {
		n := int(d.u8())
		if n == 0 || n > maxPolyLen {
			d.fail("round polynomial with %d evaluations", n)
			break
		}
		p.RoundPolys[r] = make([]ff.Fr, n)
		d.frs(p.RoundPolys[r])
	}
	return p
}

func encodeSpartanProof(e *enc, p *spartan.Proof) {
	e.hash32(&p.Comm.Root)
	e.u32(uint32(p.Comm.NumVars))
	e.u32(uint32(p.Comm.Rows))
	e.u32(uint32(p.Comm.Cols))
	encodeSumcheck(e, p.Sum1)
	e.fr(&p.VA)
	e.fr(&p.VB)
	e.fr(&p.VC)
	encodeSumcheck(e, p.Sum2)
	e.fr(&p.PrivEval)
	e.frVec(p.Opening.URand)
	e.frVec(p.Opening.UEq)
	e.u32(uint32(len(p.Opening.Columns)))
	for _, c := range p.Opening.Columns {
		e.u32(uint32(c.Index))
		e.frVec(c.Values)
		e.hashes(c.Path)
	}
}

func decodeSpartanProof(d *dec) *spartan.Proof {
	p := &spartan.Proof{Opening: &pcs.Opening{}}
	p.Comm.Root = d.hash32()
	p.Comm.NumVars = d.u32max("commitment variables", maxNumVars)
	p.Comm.Rows = int(d.u32())
	p.Comm.Cols = int(d.u32())
	// pcs.Commit always splits 2^nv into 2^(nv/2) rows; anything else
	// cannot have come from an honest commitment.
	nv := p.Comm.NumVars
	if p.Comm.Rows != 1<<(nv/2) || p.Comm.Cols != 1<<(nv-nv/2) {
		d.fail("commitment layout %dx%d does not match %d variables", p.Comm.Rows, p.Comm.Cols, nv)
	}
	p.Sum1 = decodeSumcheck(d)
	d.fr(&p.VA)
	d.fr(&p.VB)
	d.fr(&p.VC)
	p.Sum2 = decodeSumcheck(d)
	d.fr(&p.PrivEval)
	p.Opening.URand = d.frVec("opening uRand", maxDim)
	p.Opening.UEq = d.frVec("opening uEq", maxDim)
	p.Opening.Columns = make([]pcs.ColumnOpening, d.count("opened columns", maxDim, 12))
	for i := range p.Opening.Columns {
		c := &p.Opening.Columns[i]
		c.Index = int(d.u32())
		c.Values = d.frVec("column values", maxDim)
		c.Path = make([][32]byte, d.count("Merkle path", maxPathLen, 32))
		for j := range c.Path {
			c.Path[j] = d.hash32()
		}
	}
	return p
}

func encodeTimings(e *enc, t zkvc.Timings) {
	e.u64(uint64(t.Synthesis))
	e.u64(uint64(t.Setup))
	e.u64(uint64(t.Prove))
}

func (d *dec) duration() time.Duration { return time.Duration(d.u64max("timing", maxDuration)) }

func decodeTimings(d *dec) zkvc.Timings {
	return zkvc.Timings{Synthesis: d.duration(), Setup: d.duration(), Prove: d.duration()}
}

// ---- MatMulProof ----

// EncodeMatMulProof serializes a single-product proof.
func EncodeMatMulProof(p *zkvc.MatMulProof) []byte {
	e := newEnc(TagMatMulProof)
	encodeMatMulProofBody(e, p)
	return e.buf
}

// DecodeMatMulProof parses a single-product proof, enforcing that the
// declared backend carries exactly its own payload.
func DecodeMatMulProof(b []byte) (*zkvc.MatMulProof, error) {
	return decode(b, TagMatMulProof, decodeMatMulProofBody)
}

func encodeMatMulProofBody(e *enc, p *zkvc.MatMulProof) {
	encodeBackend(e, p.Backend)
	encodeOptions(e, p.Opts)
	encodeMatrixBody(e, p.Y)
	e.bytes(p.WCommit)
	e.bytes(p.Epoch)
	encodeTimings(e, p.Timings)
	encodePayload(e, p.Backend, p.G16Proof, p.G16VK, p.SpartanProof)
}

func decodeMatMulProofBody(d *dec) *zkvc.MatMulProof {
	p := &zkvc.MatMulProof{}
	p.Backend = decodeBackend(d)
	p.Opts = decodeOptions(d)
	p.Y = decodeMatrixBody(d)
	p.WCommit = d.blob("W commitment", maxBlobLen)
	p.Epoch = d.blob("epoch", maxBlobLen)
	p.Timings = decodeTimings(d)
	p.G16Proof, p.G16VK, p.SpartanProof = decodePayload(d, p.Backend)
	return p
}

// ---- BatchProof ----

// EncodeBatchProof serializes a batch proof.
func EncodeBatchProof(p *zkvc.BatchProof) []byte {
	e := newEnc(TagBatchProof)
	encodeBatchProofBody(e, p)
	return e.buf
}

// DecodeBatchProof parses a batch proof, cross-checking every claimed
// output against its declared shape.
func DecodeBatchProof(b []byte) (*zkvc.BatchProof, error) {
	return decode(b, TagBatchProof, decodeBatchProofBody)
}

func encodeBatchProofBody(e *enc, p *zkvc.BatchProof) {
	encodeBackend(e, p.Backend)
	encodeOptions(e, p.Opts)
	e.u32(uint32(len(p.Shapes)))
	for _, sh := range p.Shapes {
		e.u32(uint32(sh[0]))
		e.u32(uint32(sh[1]))
		e.u32(uint32(sh[2]))
	}
	for _, y := range p.Ys {
		encodeMatrixBody(e, y)
	}
	e.bytes(p.Commit)
	encodeTimings(e, p.Timings)
	encodePayload(e, p.Backend, p.G16Proof, p.G16VK, p.SpartanProof)
}

func decodeBatchProofBody(d *dec) *zkvc.BatchProof {
	p := &zkvc.BatchProof{}
	p.Backend = decodeBackend(d)
	p.Opts = decodeOptions(d)
	n := d.count("batch", maxDim, 12)
	if n == 0 {
		d.fail("empty batch")
	}
	p.Shapes = make([][3]int, n)
	for i := range p.Shapes {
		for j := range p.Shapes[i] {
			p.Shapes[i][j] = d.u32pos("batch shape dimension", maxDim)
		}
	}
	p.Ys = make([]*zkvc.Matrix, n)
	for i := range p.Ys {
		y, sh := decodeMatrixBody(d), p.Shapes[i]
		if y.Rows != sh[0] || y.Cols != sh[2] {
			d.fail("Y[%d] is %dx%d, shape says %dx%d", i, y.Rows, y.Cols, sh[0], sh[2])
		}
		p.Ys[i] = y
	}
	p.Commit = d.blob("batch commitment", maxBlobLen)
	p.Timings = decodeTimings(d)
	p.G16Proof, p.G16VK, p.SpartanProof = decodePayload(d, p.Backend)
	return p
}

// ---- service messages ----

// EncodeProveRequest serializes a proving job.
func EncodeProveRequest(r *ProveRequest) []byte {
	e := newEnc(TagProveRequest)
	encodeMatrixBody(e, r.X)
	encodeMatrixBody(e, r.W)
	return e.buf
}

// DecodeProveRequest parses a proving job and checks the product is
// well-formed (inner dimensions agree).
func DecodeProveRequest(b []byte) (*ProveRequest, error) {
	return decode(b, TagProveRequest, func(d *dec) *ProveRequest {
		r := &ProveRequest{}
		r.X, r.W = decodePair(d)
		return r
	})
}

// decodePair reads the two factors of one product X·W and checks their
// inner dimensions agree.
func decodePair(d *dec) (x, w *zkvc.Matrix) {
	x, w = decodeMatrixBody(d), decodeMatrixBody(d)
	if x.Cols != w.Rows {
		d.fail("inner dimensions %d and %d disagree", x.Cols, w.Rows)
	}
	return x, w
}

// EncodeProveResponse serializes a coalesced proving result.
func EncodeProveResponse(r *ProveResponse) []byte {
	e := newEnc(TagProveResponse)
	e.u32(uint32(r.Index))
	e.u32(uint32(len(r.Xs)))
	for _, x := range r.Xs {
		encodeMatrixBody(e, x)
	}
	encodeBatchProofBody(e, r.Batch)
	return e.buf
}

// DecodeProveResponse parses a coalesced proving result, checking the
// index and the inputs against the embedded batch proof.
func DecodeProveResponse(b []byte) (*ProveResponse, error) {
	return decode(b, TagProveResponse, func(d *dec) *ProveResponse {
		r := &ProveResponse{Index: int(d.u32())}
		r.Xs = make([]*zkvc.Matrix, d.count("batch inputs", maxDim, 72))
		for i := range r.Xs {
			r.Xs[i] = decodeMatrixBody(d)
		}
		r.Batch = decodeBatchProofBody(d)
		if len(r.Xs) != len(r.Batch.Shapes) {
			d.fail("%d inputs for a %d-element batch", len(r.Xs), len(r.Batch.Shapes))
		}
		if r.Index < 0 || r.Index >= len(r.Xs) {
			d.fail("batch index %d out of range", r.Index)
		}
		// Xs indexes Shapes below: only once the lengths are known equal.
		for i := 0; i < len(r.Xs) && d.err == nil; i++ {
			x, sh := r.Xs[i], r.Batch.Shapes[i]
			if x.Rows != sh[0] || x.Cols != sh[1] {
				d.fail("X[%d] is %dx%d, shape says %dx%d", i, x.Rows, x.Cols, sh[0], sh[1])
			}
		}
		return r
	})
}

// EncodeProveBatchRequest serializes a direct batch-proving job: the
// (X, W) pairs the caller wants folded into one proof, in batch order.
// Unlike the coalescing endpoint — where each request contributes one
// statement to a window the server assembles — the pair list is the
// whole statement, so the response is a bare BatchProof covering exactly
// these products.
func EncodeProveBatchRequest(r *ProveBatchRequest) []byte {
	e := newEnc(TagProveBatchRequest)
	e.u32(uint32(len(r.Pairs)))
	for _, pair := range r.Pairs {
		encodeMatrixBody(e, pair[0])
		encodeMatrixBody(e, pair[1])
	}
	return e.buf
}

// DecodeProveBatchRequest parses a direct batch-proving job, checking
// every pair's product is well-formed (inner dimensions agree).
func DecodeProveBatchRequest(b []byte) (*ProveBatchRequest, error) {
	return decode(b, TagProveBatchRequest, func(d *dec) *ProveBatchRequest {
		n := d.count("batch pairs", maxDim, 144)
		if n == 0 {
			d.fail("empty batch")
		}
		r := &ProveBatchRequest{Pairs: make([][2]*zkvc.Matrix, n)}
		for i := range r.Pairs {
			r.Pairs[i][0], r.Pairs[i][1] = decodePair(d)
		}
		return r
	})
}

// EncodeVerifyRequest serializes a single-proof verification job.
func EncodeVerifyRequest(r *VerifyRequest) []byte {
	e := newEnc(TagVerifyRequest)
	encodeMatrixBody(e, r.X)
	encodeMatMulProofBody(e, r.Proof)
	return e.buf
}

// DecodeVerifyRequest parses a single-proof verification job.
func DecodeVerifyRequest(b []byte) (*VerifyRequest, error) {
	return decode(b, TagVerifyRequest, func(d *dec) *VerifyRequest {
		return &VerifyRequest{X: decodeMatrixBody(d), Proof: decodeMatMulProofBody(d)}
	})
}
