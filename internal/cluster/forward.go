package cluster

// Forwarding: every proving-surface endpoint decodes just enough of its
// body to derive the affinity key, then relays the original bytes to
// the key's home node — bodies are forwarded unmodified, so the node
// sees exactly what the client sent (and issued-proof digests, which
// bind exact bytes, keep working). Decoding at the coordinator doubles
// as an input filter: malformed bodies die here with a 400 instead of
// costing a node a round trip.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"zkvc"
	"zkvc/internal/server"
	"zkvc/internal/wire"
)

// Body bounds, mirroring the node-side limits: what a node would
// reject, the coordinator need not forward.
const (
	maxBodyBytes        = 64 << 20
	maxModelBodyBytes   = 1 << 30
	maxControlBodyBytes = 1 << 16
)

// modelBodySlots mirrors the node-side bound on concurrent buffered
// model bodies.
const modelBodySlots = 4

// acquireModelSlot bounds concurrent model-endpoint body buffering;
// past the bound the coordinator sheds load exactly like a node would.
func (c *Coordinator) acquireModelSlot(w http.ResponseWriter) (func(), bool) {
	select {
	case c.modelSlots <- struct{}{}:
		var once sync.Once
		return func() { once.Do(func() { <-c.modelSlots }) }, true
	default:
		http.Error(w, "too many concurrent model requests", http.StatusServiceUnavailable)
		return nil, false
	}
}

func readBodyN(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		http.Error(w, fmt.Sprintf("reading body: %v", err), http.StatusBadRequest)
		return nil, false
	}
	return raw, true
}

// post relays one request body to this node, with the tenant header
// forwarded verbatim. Forwarding — not re-encoding — is what keeps the
// bytes the node attests identical to the bytes the client holds.
func (n *node) post(r *http.Request, path, tenant string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, n.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if tenant != "" {
		req.Header.Set(server.TenantHeader, tenant)
	}
	return n.forward.Do(req)
}

// retryable reports whether an attempt's failure left the job
// unstarted, making it safe to hand to the next node in hash order: a
// transport error means no response ever arrived, and a 503 means the
// node refused to admit the job (shedding load or shutting down).
func retryable(resp *http.Response, err error) bool {
	return err != nil || resp.StatusCode == http.StatusServiceUnavailable
}

// forwardBuffered routes one buffered request-response exchange by key,
// failing unstarted attempts over to the next node in hash order.
//
// failover503 distinguishes prove semantics from verify semantics. A
// proving job shed with 503 is safe anywhere — any node produces an
// equally valid proof — so it moves on. A verify answer is node-STATE,
// not work: only the issuing node's log can vouch for a proof, so
// failing a shed verify over to another node would turn a transient
// "busy" into a definitive (and wrong) "not issued by this service".
// Verify requests therefore relay the 503 verbatim — honestly
// retryable — and fail over only when the node is unreachable. The
// fallback for verify is the digest's replica set (verifyCandidates):
// a replica holding the replicated attestation vouches in the issuer's
// stead, and only if no candidate holds it is the policy rejection the
// service's answer (same as attestation expiry).
func (c *Coordinator) forwardBuffered(w http.ResponseWriter, r *http.Request, path string, key []byte, body []byte, failover503 bool) {
	c.forwardToCandidates(w, r, path, c.healthyRanked(key), body, failover503)
}

// forwardToCandidates relays one buffered exchange to the first
// candidate node that produces an answer, in the order given. It is
// forwardBuffered with the candidate ordering factored out: prove paths
// pass plain affinity order, verify paths pass verifyCandidates — the
// issuer first, then the digest's attestation replicas.
func (c *Coordinator) forwardToCandidates(w http.ResponseWriter, r *http.Request, path string, nodes []*node, body []byte, failover503 bool) {
	if len(nodes) == 0 {
		c.metrics.unroutable.Add(1)
		http.Error(w, "no healthy prover nodes", http.StatusServiceUnavailable)
		return
	}
	tenant := r.Header.Get(server.TenantHeader)
	var lastErr string
	for i, n := range nodes {
		if i > 0 {
			c.metrics.retried.Add(1)
		}
		resp, err := n.post(r, path, tenant, body)
		if err != nil || (failover503 && resp.StatusCode == http.StatusServiceUnavailable) {
			if err != nil {
				lastErr = fmt.Sprintf("node %s: %v", n.name, err)
			} else {
				raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
				resp.Body.Close()
				lastErr = fmt.Sprintf("node %s: 503: %s", n.name, bytes.TrimSpace(raw))
			}
			n.failedOver.Add(1)
			c.metrics.failedOver.Add(1)
			continue
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			// The node produced a response and died inside it: the job
			// started, so it is not ours to replay.
			http.Error(w, fmt.Sprintf("node %s failed mid-response: %v", n.name, err), http.StatusBadGateway)
			return
		}
		if ct := resp.Header.Get("Content-Type"); ct != "" {
			w.Header().Set("Content-Type", ct)
		}
		w.WriteHeader(resp.StatusCode)
		w.Write(raw)
		n.routed.Add(1)
		c.metrics.routed.Add(1)
		return
	}
	c.metrics.unroutable.Add(1)
	http.Error(w, "every candidate node failed: "+lastErr, http.StatusServiceUnavailable)
}

// handleProve serves both single-statement proving routes — coalescing
// /v1/prove and per-statement /v1/prove/matmul — forwarding to the same
// path on the node. Both route by the (tenant, shape, options) key
// /v1/verify uses, so a proof's later verification finds the node whose
// issued log attests it.
func (c *Coordinator) handleProve(w http.ResponseWriter, r *http.Request) {
	raw, ok := readBodyN(w, r, maxBodyBytes)
	if !ok {
		return
	}
	req, err := wire.DecodeProveRequest(raw)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	key := matmulKey(r.Header.Get(server.TenantHeader), req.X.Rows, req.X.Cols, req.W.Cols, c.cfg.Opts)
	c.forwardBuffered(w, r, r.URL.Path, key, raw, true)
}

// handleProveBatch routes a direct batch job by its first pair's shape —
// the same canonical-member rule /v1/verify/batch uses, so a batch and
// its verification land on one node.
func (c *Coordinator) handleProveBatch(w http.ResponseWriter, r *http.Request) {
	raw, ok := readBodyN(w, r, maxBodyBytes)
	if !ok {
		return
	}
	req, err := wire.DecodeProveBatchRequest(raw)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	x, wm := req.Pairs[0][0], req.Pairs[0][1]
	key := matmulKey(r.Header.Get(server.TenantHeader), x.Rows, x.Cols, wm.Cols, c.cfg.Opts)
	c.forwardBuffered(w, r, "/v1/prove/batch", key, raw, true)
}

// handleVerify routes a verification to the node whose shape slice the
// proof belongs to — for Groth16 proofs, the node whose issued log
// attests it, then the digest's replicas.
func (c *Coordinator) handleVerify(w http.ResponseWriter, r *http.Request) {
	raw, ok := readBodyN(w, r, maxBodyBytes)
	if !ok {
		return
	}
	req, err := wire.DecodeVerifyRequest(raw)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	key := matmulKey(r.Header.Get(server.TenantHeader), req.X.Rows, req.X.Cols, req.Proof.Y.Cols, c.cfg.Opts)
	digest := server.IssuedDigest(req.X, req.Proof)
	c.forwardToCandidates(w, r, "/v1/verify", c.verifyCandidates(key, digest), raw, false)
}

// handleVerifyBatch routes by the first statement's shape: every job in
// a coalesced batch routed to the issuing node by its own (tenant,
// shape) key, so any member's key — the first is canonical — finds the
// node again.
func (c *Coordinator) handleVerifyBatch(w http.ResponseWriter, r *http.Request) {
	raw, ok := readBodyN(w, r, maxBodyBytes)
	if !ok {
		return
	}
	resp, err := wire.DecodeProveResponse(raw)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	x := resp.Xs[0]
	key := matmulKey(r.Header.Get(server.TenantHeader), x.Rows, x.Cols, resp.Batch.Shapes[0][2], c.cfg.Opts)
	digest := server.IssuedBatchDigest(resp)
	c.forwardToCandidates(w, r, "/v1/verify/batch", c.verifyCandidates(key, digest), raw, false)
}

// handleVerifyModel routes a ?mode=per-op|aggregate report verification
// to the node that issued the report, by the same CRS-affinity key the
// prove path used. The mode query survives the forward: it rides on the
// relayed path, and the body's embedded mode must already match it
// (checked here so a disagreeing frame dies at the coordinator, not a
// hop later).
func (c *Coordinator) handleVerifyModel(w http.ResponseWriter, r *http.Request) {
	release, ok := c.acquireModelSlot(w)
	if !ok {
		return
	}
	defer release()
	raw, ok := readBodyN(w, r, maxModelBodyBytes)
	if !ok {
		return
	}
	q := r.URL.Query().Get("mode")
	if q == "" {
		http.Error(w, fmt.Sprintf("missing ?mode= query: /v1/verify/model needs ?mode=%s or ?mode=%s", zkvc.VerifyPerOp, zkvc.VerifyAggregate), http.StatusBadRequest)
		return
	}
	mode, err := zkvc.ParseVerifyMode(q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	req, err := wire.DecodeVerifyModelRequest(raw)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if req.Mode != mode {
		http.Error(w, fmt.Sprintf("request body carries mode %q, query requests %q", req.Mode, mode), http.StatusBadRequest)
		return
	}
	tenant := r.Header.Get(server.TenantHeader)
	key := modelKeyFromReport(tenant, req.Report)
	digest := server.ReportDigest(req.Report, tenant)
	c.forwardToCandidates(w, r, "/v1/verify/model?mode="+mode.String(), c.verifyCandidates(key, digest), raw, false)
}

// errClientGone marks a relay failure on the client side of the stream;
// the node is fine, there is just nobody left to tell.
var errClientGone = errors.New("cluster: client stopped reading the stream")

// handleProveModel forwards a model job and passes the response stream
// through frame by frame, unmodified. Attempts that fail before the
// first frame arrives fail over like any unstarted job; once a frame
// has been forwarded the stream is committed to its node, and a node
// death becomes an in-stream error frame — the client's decoder
// surfaces it as a server error instead of a silent truncation. The
// buffered request body (and its slot) is released the moment the
// stream commits: the relay can run for as long as proving does, and
// holding gigabytes of already-delivered input across it would starve
// the slot pool for nothing.
func (c *Coordinator) handleProveModel(w http.ResponseWriter, r *http.Request) {
	release, ok := c.acquireModelSlot(w)
	if !ok {
		return
	}
	defer release()
	raw, ok := readBodyN(w, r, maxModelBodyBytes)
	if !ok {
		return
	}
	req, err := wire.DecodeProveModelRequest(raw)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	key, err := modelKeyFromRequest(r.Header.Get(server.TenantHeader), req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	req = nil

	nodes := c.healthyRanked(key)
	if len(nodes) == 0 {
		c.metrics.unroutable.Add(1)
		http.Error(w, "no healthy prover nodes", http.StatusServiceUnavailable)
		return
	}
	tenant := r.Header.Get(server.TenantHeader)
	var lastErr string
	for i, n := range nodes {
		if i > 0 {
			c.metrics.retried.Add(1)
		}
		resp, err := n.post(r, "/v1/prove/model", tenant, raw)
		if retryable(resp, err) {
			if err != nil {
				lastErr = fmt.Sprintf("node %s: %v", n.name, err)
			} else {
				msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
				resp.Body.Close()
				lastErr = fmt.Sprintf("node %s: 503: %s", n.name, bytes.TrimSpace(msg))
			}
			n.failedOver.Add(1)
			c.metrics.failedOver.Add(1)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			// A node-side rejection (400 etc.) is the job's real answer;
			// relay it verbatim.
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if ct := resp.Header.Get("Content-Type"); ct != "" {
				w.Header().Set("Content-Type", ct)
			}
			w.WriteHeader(resp.StatusCode)
			w.Write(msg)
			n.routed.Add(1)
			c.metrics.routed.Add(1)
			return
		}
		// Read the first frame before committing to this node: a node
		// that dies this early left nothing with the client, so its job
		// is still unstarted from the client's side and can fail over.
		first, err := wire.ReadFrame(resp.Body)
		if err != nil {
			resp.Body.Close()
			n.failedOver.Add(1)
			c.metrics.failedOver.Add(1)
			lastErr = fmt.Sprintf("node %s: %v", n.name, err)
			continue
		}
		// Committed. The request body has been delivered and no retry can
		// use it again — let it (and the slot bounding it) go before the
		// long relay.
		raw = nil
		release()
		_, relayErr := c.relayFrames(w, first, resp.Body)
		resp.Body.Close()
		switch {
		case relayErr == nil:
			n.routed.Add(1)
			c.metrics.routed.Add(1)
		case errors.Is(relayErr, errClientGone), r.Context().Err() != nil:
			// Nothing to report and nobody to report it to. The second
			// clause matters: the forward to the node runs under the
			// client's request context, so a client that cancels
			// mid-stream surfaces here as a failed READ from the node —
			// without the context check that would be misattributed as a
			// node death and pollute cluster_stream_errors.
		default:
			// Mid-stream death with frames already forwarded: started ops
			// cannot be replayed under this stream, so surface the failure
			// in-stream.
			c.metrics.streamErrors.Add(1)
			n.failedOver.Add(1)
			c.writeStreamError(w, fmt.Sprintf("prover node %s failed mid-stream: %v", n.name, relayErr))
		}
		return
	}
	c.metrics.unroutable.Add(1)
	http.Error(w, "every candidate node failed: "+lastErr, http.StatusServiceUnavailable)
}

// relayFrames pipes length-prefixed frames from the node to the client
// — first (already read by the caller's commit check), then the rest —
// flushing each and applying the per-frame write deadline the nodes
// themselves use. It returns how many frames reached the client and,
// on failure, whether the broken side was the node (its error) or the
// client (errClientGone).
func (c *Coordinator) relayFrames(w http.ResponseWriter, first []byte, from io.Reader) (int, error) {
	w.Header().Set("Content-Type", "application/octet-stream")
	flusher, _ := w.(http.Flusher)
	rc := http.NewResponseController(w)
	forwarded := 0
	write := func(frame []byte) error {
		rc.SetWriteDeadline(time.Now().Add(c.cfg.StreamWriteTimeout))
		if err := wire.WriteFrame(w, frame); err != nil {
			return fmt.Errorf("%w: %v", errClientGone, err)
		}
		if flusher != nil {
			flusher.Flush()
		}
		forwarded++
		return nil
	}
	if err := write(first); err != nil {
		return forwarded, err
	}
	for {
		frame, err := wire.ReadFrame(from)
		if err == io.EOF {
			return forwarded, nil
		}
		if err != nil {
			return forwarded, err
		}
		if err := write(frame); err != nil {
			return forwarded, err
		}
	}
}

// writeStreamError best-effort appends a ModelStreamError frame.
func (c *Coordinator) writeStreamError(w http.ResponseWriter, msg string) {
	rc := http.NewResponseController(w)
	rc.SetWriteDeadline(time.Now().Add(c.cfg.StreamWriteTimeout))
	if wire.WriteFrame(w, wire.EncodeModelStreamError(msg)) == nil {
		if flusher, ok := w.(http.Flusher); ok {
			flusher.Flush()
		}
	}
}
