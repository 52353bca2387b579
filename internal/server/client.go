package server

// Client is the remote zkvc.Engine: one typed, context-first method per
// proving-service endpoint over the canonical wire encodings. The CLI,
// the examples and the cluster coordinator all speak to a service
// through it — the coordinator additionally uses it for health probes,
// and nodes for coordinator registration (Announce). Pointing
// it at a coordinator instead of a node gives the same interface,
// routed (cluster.NewEngine is that spelling).
//
// Beyond the Engine interface the client exposes the service-shape
// extras: the coalescing endpoint (ProveCoalesced/VerifyResponse),
// metrics and the cluster control plane.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"zkvc"
	"zkvc/internal/wire"
)

// Client talks to one proving service (or cluster coordinator — the
// coordinator exposes the same proving surface). The zero value is not
// usable; construct with NewClient.
type Client struct {
	// BaseURL is the service root, e.g. "http://localhost:8799".
	BaseURL string
	// Tenant, when non-empty, is sent as the Zkvc-Tenant header on every
	// request: jobs only coalesce — and issued-proof attestations only
	// match — within one tenant.
	Tenant string
	// HTTP is the underlying client. Leave the default (no timeout) for
	// proving calls: a model stream legitimately lasts as long as the
	// proving does, and per-call deadlines belong on the context.
	HTTP *http.Client
}

// NewClient returns a client for the service at baseURL. It implements
// zkvc.Engine: swap it for zkvc.NewLocal (or cluster.NewEngine) and the
// program moves between in-process, remote and sharded proving.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/"), HTTP: &http.Client{}}
}

var _ zkvc.Engine = (*Client)(nil)

// StatusError is a non-2xx response from the service, with the body the
// service sent (its error message).
type StatusError struct {
	Code int
	Body string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("server returned %d: %s", e.Code, strings.TrimSpace(e.Body))
}

// do issues one request with the tenant header under ctx, carrying body
// as its payload unless body is nil. The caller owns the response body.
func (c *Client) do(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	if c.Tenant != "" {
		req.Header.Set(TenantHeader, c.Tenant)
	}
	return c.HTTP.Do(req)
}

// call issues one buffered request (see do) and returns the body of a
// 2xx response; any other status becomes a *StatusError.
func (c *Client) call(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	resp, err := c.do(ctx, method, path, body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("reading response: %w", err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, &StatusError{Code: resp.StatusCode, Body: string(raw)}
	}
	return raw, nil
}

// verdict posts to a verify endpoint and folds the JSON verdict into an
// error: nil when the service vouches for the proof, otherwise an error
// carrying the service's reason under the zkvc.ErrVerification sentinel
// — the Engine error taxonomy.
func (c *Client) verdict(ctx context.Context, path string, body []byte) error {
	resp, err := c.do(ctx, http.MethodPost, path, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("reading verdict: %w", err)
	}
	var v struct {
		OK    bool   `json:"ok"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(raw, &v); err != nil {
		return &StatusError{Code: resp.StatusCode, Body: string(raw)}
	}
	if !v.OK {
		// The service's message usually already carries the
		// ErrVerification prefix; strip it so wrapping doesn't stutter.
		msg := strings.TrimPrefix(v.Error, zkvc.ErrVerification.Error()+": ")
		return fmt.Errorf("%w: %s", zkvc.ErrVerification, msg)
	}
	return nil
}

// ---- the zkvc.Engine surface ----

// ProveMatMul asks the service for one per-statement proof of X·W
// (POST /v1/prove/matmul) — zkvc.Local's ProveMatMul semantics, remote.
func (c *Client) ProveMatMul(ctx context.Context, x, w *zkvc.Matrix) (*zkvc.MatMulProof, error) {
	raw, err := c.call(ctx, http.MethodPost, "/v1/prove/matmul", wire.EncodeProveRequest(&wire.ProveRequest{X: x, W: w}))
	if err != nil {
		return nil, err
	}
	return wire.DecodeMatMulProof(raw)
}

// ProveBatch asks the service to fold exactly these pairs into one
// direct batch proof (POST /v1/prove/batch) — no coalescing window, no
// other tenants' statements.
func (c *Client) ProveBatch(ctx context.Context, pairs [][2]*zkvc.Matrix) (*zkvc.BatchProof, error) {
	raw, err := c.call(ctx, http.MethodPost, "/v1/prove/batch", wire.EncodeProveBatchRequest(&wire.ProveBatchRequest{Pairs: pairs}))
	if err != nil {
		return nil, err
	}
	return wire.DecodeBatchProof(raw)
}

// ProveModel submits a captured trace to /v1/prove/model and streams the
// per-op proofs back as they finish. Canceling ctx — or breaking out of
// the range — aborts the HTTP stream, which cancels the service-side
// job's unstarted ops.
func (c *Client) ProveModel(ctx context.Context, req *zkvc.ModelRequest) *zkvc.ModelStream {
	return zkvc.NewModelStream(func(info func(zkvc.ModelStreamInfo), yield func(*zkvc.OpProof, error) bool) {
		ctx, cancel := context.WithCancel(ctx)
		defer cancel() // an abandoned stream tears the request down
		resp, err := c.do(ctx, http.MethodPost, "/v1/prove/model", wire.EncodeProveModelRequest(&wire.ProveModelRequest{
			Backend:        req.Backend,
			ProveNonlinear: req.ProveNonlinear,
			Cfg:            req.Cfg,
			Trace:          req.Trace,
		}))
		if err != nil {
			yield(nil, err)
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			raw, _ := io.ReadAll(resp.Body)
			yield(nil, &StatusError{Code: resp.StatusCode, Body: string(raw)})
			return
		}
		readModelStream(resp.Body, info, yield)
	})
}

// readModelStream is the client half of a model stream, shared by the
// sync and async clients: the header goes to info, then every op to
// yield, until the stream ends, fails or the consumer stops. It reports
// whether the stream ended cleanly. wire.ModelStreamReader is the trust
// boundary: it validates the header, folds in-stream error frames into
// errors, and enforces sequence numbers in range, no duplicates and no
// truncation — the same code path DecodeModelStream uses, so a
// misbehaving server can never hand ModelStream.Report a report it
// would mis-assemble.
func readModelStream(body io.Reader, info func(zkvc.ModelStreamInfo), yield func(*zkvc.OpProof, error) bool) bool {
	sr, err := wire.NewModelStreamReader(body)
	if err != nil {
		yield(nil, err)
		return false
	}
	hdr := sr.Header()
	info(zkvc.ModelStreamInfo{Model: hdr.Model, Backend: hdr.Backend, Circuit: hdr.Circuit, TotalOps: hdr.TotalOps})
	for {
		op, err := sr.Next()
		if err == io.EOF {
			return true
		}
		if err != nil {
			yield(nil, err)
			return false
		}
		if !yield(op, nil) {
			return false
		}
	}
}

// VerifyMatMul asks the service to check a single proof against X
// (POST /v1/verify). A nil return means the service vouches for it; the
// error otherwise carries the service's reason (policy rejections
// included) under zkvc.ErrVerification.
func (c *Client) VerifyMatMul(ctx context.Context, x *zkvc.Matrix, proof *zkvc.MatMulProof) error {
	return c.verdict(ctx, "/v1/verify", wire.EncodeVerifyRequest(&wire.VerifyRequest{X: x, Proof: proof}))
}

// VerifyBatch asks the service to check a direct batch proof against its
// public inputs (POST /v1/verify/batch, at the canonical recipient
// index 0 — the index /v1/prove/batch attests).
func (c *Client) VerifyBatch(ctx context.Context, xs []*zkvc.Matrix, proof *zkvc.BatchProof) error {
	return c.verdict(ctx, "/v1/verify/batch",
		wire.EncodeProveResponse(&wire.ProveResponse{Index: 0, Xs: xs, Batch: proof}))
}

// VerifyModel asks the service to check a model report it issued
// (POST /v1/verify/model). opts is ignored.
func (c *Client) VerifyModel(ctx context.Context, rep *zkvc.Report, _ ...zkvc.VerifyOptions) error {
	return c.verdict(ctx, "/v1/verify/model", wire.EncodeReport(rep))
}

// ---- service-shape extras beyond the Engine interface ----

// ProveCoalesced submits one matmul statement to the coalescing endpoint
// (POST /v1/prove) and returns the whole-batch response: the caller's
// statement is at Index, next to whatever same-tenant statements shared
// the window. Use VerifyResponse to have the service re-check it.
func (c *Client) ProveCoalesced(ctx context.Context, x, w *zkvc.Matrix) (*wire.ProveResponse, error) {
	raw, err := c.call(ctx, http.MethodPost, "/v1/prove", wire.EncodeProveRequest(&wire.ProveRequest{X: x, W: w}))
	if err != nil {
		return nil, err
	}
	return wire.DecodeProveResponse(raw)
}

// VerifyResponse asks the service to check a coalesced batch response
// exactly as it was handed out (POST /v1/verify/batch, at the response's
// own recipient index).
func (c *Client) VerifyResponse(ctx context.Context, resp *wire.ProveResponse) error {
	return c.verdict(ctx, "/v1/verify/batch", wire.EncodeProveResponse(resp))
}

// Metrics fetches the service's counters — the coordinator's health
// probe, and an operator's one-liner.
func (c *Client) Metrics(ctx context.Context) (Snapshot, error) {
	var snap Snapshot
	raw, err := c.call(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return snap, err
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		return snap, fmt.Errorf("decoding metrics: %w", err)
	}
	return snap, nil
}

// Healthz checks liveness.
func (c *Client) Healthz(ctx context.Context) error {
	_, err := c.call(ctx, http.MethodGet, "/healthz", nil)
	return err
}

// Announce registers a prover node with the coordinator this client
// points at.
func (c *Client) Announce(ctx context.Context, a *wire.NodeAnnounce) error {
	_, err := c.call(ctx, http.MethodPost, "/v1/cluster/announce", wire.EncodeNodeAnnounce(a))
	return err
}

// Attest pushes an attestation update: to a coordinator (which fans it
// out to the digests' replica nodes) or directly to a peer node (which
// ingests it into its replicated set) — both serve POST
// /v1/cluster/attest.
func (c *Client) Attest(ctx context.Context, u *wire.AttestationUpdate) error {
	_, err := c.call(ctx, http.MethodPost, "/v1/cluster/attest", wire.EncodeAttestationUpdate(u))
	return err
}
