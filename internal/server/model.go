package server

// Model proving as a service workload: a model job — "prove every
// circuit of this captured forward pass" (asyncJob, jobs.go) — runs like
// any other proving work. It is admitted against the QueueCap ledger (as
// its op count, since that is the work it parks), holds one budget token
// while it runs, and shares the Groth16 key cache (zkml.KeyCache, keyed
// by circuit structure digest and consulted once per op, so a gadget
// circuit is set up once across blocks, requests and tenants and a
// replayed input hits on every op) and the issued-proof log (one
// whole-report, tenant-scoped digest per completed job, so
// /v1/verify/model only vouches for reports this service streamed to
// that tenant, unmodified and complete).

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"net/http"

	"zkvc"
	"zkvc/internal/nn"
	"zkvc/internal/parallel"
	"zkvc/internal/pcs"
	"zkvc/internal/wire"
	"zkvc/internal/zkml"
)

// modelReportDigest fingerprints one issued report: the stream header
// (model name, backend, circuit options, op count), every op frame's
// digest in sequence order, and the tenant the stream was issued to —
// verifying through /v1/verify/model requires presenting the same
// tenant header, extending the per-tenant partitioning of coalescing
// to model reports. (As with coalescing, the header is taken on faith —
// the isolation is real only behind an authenticating proxy; see the
// package comment on tenancy.)
func modelReportDigest(header []byte, opHashes [][32]byte, tenant string) [sha256.Size]byte {
	h := sha256.New()
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(header)))
	h.Write(n[:])
	h.Write(header)
	for i := range opHashes {
		h.Write(opHashes[i][:])
	}
	binary.BigEndian.PutUint32(n[:], uint32(len(tenant)))
	h.Write(n[:])
	h.Write([]byte(tenant))
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

// ReportDigest recomputes the whole-report attestation digest for a
// report as submitted by tenant — the digest the issued log records
// when the report is streamed and /v1/verify/model looks up before
// vouching. Exported for the cluster router, which needs the digest to
// pick a report's replica set for verify failover.
func ReportDigest(rep *zkml.Report, tenant string) [sha256.Size]byte {
	header := wire.EncodeModelStreamHeader(&wire.ModelStreamHeader{
		Model:    rep.Model,
		Backend:  rep.Backend,
		Circuit:  rep.Circuit,
		TotalOps: len(rep.Ops),
	})
	opHashes := make([][32]byte, len(rep.Ops))
	for i := range rep.Ops {
		opHashes[i] = sha256.Sum256(wire.EncodeOpProof(&rep.Ops[i]))
	}
	return modelReportDigest(header, opHashes, tenant)
}

// planModel plans a submitted trace and returns its op count, answering
// 400 for a trace that cannot be planned, has nothing to prove, or could
// never be admitted: one bigger than the whole queue capacity gets that
// said honestly instead of 503 forever.
func (s *Server) planModel(w http.ResponseWriter, trace *nn.Trace, proveNonlinear bool) (int, bool) {
	plan, err := zkml.PlanTrace(trace, zkml.Options{ProveNonlinear: proveNonlinear})
	switch {
	case err != nil:
		http.Error(w, err.Error(), http.StatusBadRequest)
	case len(plan) == 0:
		http.Error(w, "trace has no provable operations", http.StatusBadRequest)
	case len(plan) > s.cfg.QueueCap:
		http.Error(w, fmt.Sprintf("trace has %d provable operations, above this service's queue capacity %d; split the model or raise QueueCap",
			len(plan), s.cfg.QueueCap), http.StatusBadRequest)
	default:
		return len(plan), true
	}
	return 0, false
}

// handleProveModel proves a captured trace as a job attached to the
// request and streams each operation's proof as a length-prefixed frame
// the moment it finishes: header frame (total op count), then OpProof
// frames in completion order (op.Seq positions each in the report),
// then end of body. A mid-stream failure is a ModelStreamError frame.
// wire.DecodeModelStream reassembles the report client-side.
func (s *Server) handleProveModel(w http.ResponseWriter, r *http.Request, in Input) {
	req := in.Msg.(*wire.ProveModelRequest)
	in.Body = nil // the decoded request is all the job keeps
	j := s.startModelJob(w, r, in, req, "", 0)
	if j == nil {
		return
	}
	s.serveFrames(w, r, j, 0)
	// The stream ended — complete, failed, or cut by its reader. Cancel
	// the ops the job has not started, and answer only once the job is
	// accounted.
	j.cancel()
	<-j.finished
}

// errReportNotIssued is the issued-only policy rejection of
// /v1/verify/model.
var errReportNotIssued = fmt.Errorf("%w: report was not issued by this service under this tenant (model reports carry prover-supplied verifying material, so only reports this service streamed — resubmitted unmodified and complete, with the same Zkvc-Tenant header — are accepted; attestations also expire from the bounded issued log)",
	zkvc.ErrVerification)

// handleVerifyModel checks a model report. Every payload in a report is
// prover-supplied — the Groth16 ops carry their verifying keys, the
// Spartan ops carry the very R1CS they claim to satisfy — so a report
// proves nothing unless this service produced it. The handler therefore
// requires the whole-report issued-log attestation (header, ops in
// order, requesting tenant) before re-running cryptographic
// verification; reports from elsewhere — or issued ones relabeled,
// reordered or spliced — are rejected with a policy error, not a bogus
// pass. Verification (zkml.VerifyReport) holds one parallel-budget
// token, like every other unit of proving-stack work on this service,
// and answers with the JSON verdict of /v1/verify.
func (s *Server) handleVerifyModel(w http.ResponseWriter, r *http.Request, in Input) {
	rep := in.Msg.(*zkml.Report)
	s.metrics.verifyRequests.Add(1)
	if !s.attested(ReportDigest(rep, r.Header.Get(TenantHeader))) {
		s.metrics.modelRejects.Add(1)
		writeVerdict(w, errReportNotIssued)
		return
	}
	pool := parallel.Default()
	if err := pool.AcquireCtx(r.Context()); err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	defer pool.Release()
	writeVerdict(w, zkml.VerifyReport(rep, zkml.Options{PCS: pcs.DefaultParams()}))
}
