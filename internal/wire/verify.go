package wire

// Mode-carrying verify exchange: /v1/verify/model?mode=per-op|aggregate
// speaks these two binary messages, so the requested mode travels inside
// the signed-off frame (the query string is routing, the body is the
// statement) and the verdict comes back strict-decoded rather than as
// free-form JSON.

import (
	"zkvc"
	"zkvc/internal/zkml"
)

// VerifyModelRequest asks the service to verify a report in an explicit
// mode. The embedded report is encoded exactly like TagReport, so the
// policy digest a service computes over it is the same in both modes —
// an aggregate accept attests the same report as a per-op one.
type VerifyModelRequest struct {
	Mode   zkvc.VerifyMode
	Report *zkml.Report
}

// VerifyModelResponse is the service's verdict: OK reports whether the
// check passed, Mode echoes the mode that actually ran, and Error
// carries the failure reason when OK is false.
type VerifyModelResponse struct {
	OK    bool
	Mode  zkvc.VerifyMode
	Error string
}

func decodeVerifyMode(d *dec) zkvc.VerifyMode {
	return zkvc.VerifyMode(d.u8max("verify mode", byte(zkvc.VerifyAggregate)))
}

// EncodeVerifyModelRequest serializes a mode-carrying verify request.
func EncodeVerifyModelRequest(r *VerifyModelRequest) []byte {
	e := newEnc(TagVerifyModelRequest)
	e.u8(byte(r.Mode))
	encodeReportBody(e, r.Report)
	return e.buf
}

// DecodeVerifyModelRequest parses a mode-carrying verify request with
// the full report strictness of DecodeReport.
func DecodeVerifyModelRequest(b []byte) (*VerifyModelRequest, error) {
	return decode(b, TagVerifyModelRequest, func(d *dec) *VerifyModelRequest {
		return &VerifyModelRequest{Mode: decodeVerifyMode(d), Report: decodeReportBody(d)}
	})
}

// EncodeVerifyModelResponse serializes a verify verdict.
func EncodeVerifyModelResponse(r *VerifyModelResponse) []byte {
	e := newEnc(TagVerifyModelResponse)
	e.flag(r.OK)
	e.u8(byte(r.Mode))
	e.str(r.Error)
	return e.buf
}

// DecodeVerifyModelResponse parses a verify verdict. The error text is
// bounded by the blob limit and must be empty exactly when OK is set,
// which keeps the encoding canonical.
func DecodeVerifyModelResponse(b []byte) (*VerifyModelResponse, error) {
	return decode(b, TagVerifyModelResponse, func(d *dec) *VerifyModelResponse {
		r := &VerifyModelResponse{}
		r.OK = d.flag("verdict flag")
		r.Mode = decodeVerifyMode(d)
		r.Error = d.str("verdict error")
		if r.OK != (r.Error == "") {
			d.fail("verdict OK=%v and error text %q disagree: exactly the failing verdicts carry one", r.OK, r.Error)
		}
		return r
	})
}
