package cluster

// Forwarding: every endpoint of the node surface the coordinator serves
// is one row of the routes table, and one function, forward, relays them
// all. Bodies reach the node byte for byte with the Zkvc-Tenant header
// verbatim, so the node sees exactly what the client sent (and
// issued-proof digests, which bind exact bytes, keep working). A row is
// the node's own server.Routes row — pattern, body bound, model slot and
// decoder, run by the same prelude as on the node, so a malformed body
// dies here with a 400 instead of costing a node a round trip — plus the
// forwarding policy:
//
//   - find lists the decoded request's candidate nodes in order — the
//     affinity rank for new work, the issuer then the digest's replicas
//     for a verify, the journal's node for a job exchange.
//   - retry lists the answers that mean "unstarted, try the next node";
//     a transport error always does.
//   - stream marks frame-stream replies, which commit to their node on
//     the first frame.
//   - accepted sees every buffered answer before it is relayed.

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"time"

	"zkvc/internal/server"
	"zkvc/internal/wire"
	"zkvc/internal/zkml"
)

// route is one forwarded endpoint: the node's row and its policy.
type route struct {
	*server.Route
	find     finder
	retry    []int
	stream   bool
	accepted func(c *Coordinator, r *http.Request, n *node, code int, body []byte)
}

// finder lists a decoded request's candidate nodes, most preferred
// first. An error is the client's: a *server.StatusError carries its own
// code, anything else is a 400.
type finder func(c *Coordinator, r *http.Request, req any) ([]*node, error)

// Retry policies. A proving job shed with 503 is safe anywhere — any node
// produces an equally valid proof — and a submission refused with 429
// (quota or queue) may be admitted by the next node. A verify answer is
// node state, not work: only the issuer's log (or a replica's) can vouch
// for a proof, so failing a busy verify over would turn a transient 503
// into a definitive, wrong "not issued". Verifies and job exchanges
// therefore move on only when their node is unreachable.
var (
	onShed        = []int{http.StatusServiceUnavailable}
	onShedOrQuota = []int{http.StatusServiceUnavailable, http.StatusTooManyRequests}
)

var routes = []route{
	{Route: &server.Routes.Prove, find: byAffinity(proveKey), retry: onShed},
	{Route: &server.Routes.ProveMatMul, find: byAffinity(proveKey), retry: onShed},
	{Route: &server.Routes.ProveBatch, find: byAffinity(batchKey), retry: onShed},
	{Route: &server.Routes.ProveModel, find: byAffinity(modelProveKey), retry: onShed, stream: true},
	{Route: &server.Routes.SubmitJob, find: byAffinity(submitKey), retry: onShedOrQuota, accepted: recordJobRoute},
	{Route: &server.Routes.JobStatus, find: byJobHome},
	{Route: &server.Routes.JobStream, find: byJobHome, stream: true},
	{Route: &server.Routes.CancelJob, find: byJobHome, accepted: dropJobRoute},
	{Route: &server.Routes.Verify, find: byIssuer(verifyKey)},
	{Route: &server.Routes.VerifyBatch, find: byIssuer(verifyBatchKey)},
	{Route: &server.Routes.VerifyModel, find: byIssuer(verifyModelKey)},
}

// byAffinity places new work: healthy nodes in rendezvous order on the
// request's affinity key.
func byAffinity(key func(c *Coordinator, r *http.Request, req any) ([]byte, error)) finder {
	return func(c *Coordinator, r *http.Request, req any) ([]*node, error) {
		k, err := key(c, r, req)
		if err != nil {
			return nil, err
		}
		return c.healthyRanked(k), nil
	}
}

// byIssuer orders a verification's candidates (verifyCandidates): the
// node prove-time affinity picked, then the attestation digest's
// replicas.
func byIssuer(key func(c *Coordinator, r *http.Request, req any) ([]byte, [sha256.Size]byte)) finder {
	return func(c *Coordinator, r *http.Request, req any) ([]*node, error) {
		k, digest := key(c, r, req)
		return c.verifyCandidates(k, digest), nil
	}
}

func tenantOf(r *http.Request) string { return r.Header.Get(server.TenantHeader) }

// proveKey keys both single-statement proving routes by the (tenant,
// shape, options) key /v1/verify uses, so a proof's verification finds
// the node whose issued log attests it.
func proveKey(c *Coordinator, r *http.Request, req any) ([]byte, error) {
	p := req.(*wire.ProveRequest)
	return matmulKey(tenantOf(r), p.X.Rows, p.X.Cols, p.W.Cols, c.cfg.Opts), nil
}

// batchKey keys a direct batch by its first pair — the canonical-member
// rule /v1/verify/batch uses.
func batchKey(c *Coordinator, r *http.Request, req any) ([]byte, error) {
	pair := req.(*wire.ProveBatchRequest).Pairs[0]
	return matmulKey(tenantOf(r), pair[0].Rows, pair[0].Cols, pair[1].Cols, c.cfg.Opts), nil
}

func modelProveKey(_ *Coordinator, r *http.Request, req any) ([]byte, error) {
	return modelKeyFromRequest(tenantOf(r), req.(*wire.ProveModelRequest))
}

// submitKey routes an async job exactly like a sync model job, so a job
// and its later verification land on one node.
func submitKey(_ *Coordinator, r *http.Request, req any) ([]byte, error) {
	return modelKeyFromRequest(tenantOf(r), req.(*wire.JobSubmitRequest).Model)
}

func verifyKey(c *Coordinator, r *http.Request, req any) ([]byte, [sha256.Size]byte) {
	v := req.(*wire.VerifyRequest)
	return matmulKey(tenantOf(r), v.X.Rows, v.X.Cols, v.Proof.Y.Cols, c.cfg.Opts), server.IssuedDigest(v.X, v.Proof)
}

// verifyBatchKey keys by the first statement: every job of a coalesced
// batch was routed by its own (tenant, shape) key, so the first — the
// canonical member — finds the issuing node again.
func verifyBatchKey(c *Coordinator, r *http.Request, req any) ([]byte, [sha256.Size]byte) {
	resp := req.(*wire.ProveResponse)
	x := resp.Xs[0]
	return matmulKey(tenantOf(r), x.Rows, x.Cols, resp.Batch.Shapes[0][2], c.cfg.Opts), server.IssuedBatchDigest(resp)
}

// verifyModelKey re-derives the prove-time model key from the report.
func verifyModelKey(_ *Coordinator, r *http.Request, req any) ([]byte, [sha256.Size]byte) {
	rep, tenant := req.(*zkml.Report), tenantOf(r)
	return modelKeyFromReport(tenant, rep), server.ReportDigest(rep, tenant)
}

// forward relays one client exchange along its route: the only candidate
// loop in the coordinator. Attempts that leave the exchange unstarted
// move to the next candidate; the first other answer is relayed.
func (c *Coordinator) forward(w http.ResponseWriter, r *http.Request, in server.Input, rt *route) {
	nodes, err := rt.find(c, r, in.Msg)
	in.Msg = nil // routed: only the bytes travel on
	var se *server.StatusError
	switch {
	case errors.As(err, &se):
		http.Error(w, se.Body, se.Code)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if len(nodes) == 0 {
		c.metrics.unroutable.Add(1)
		http.Error(w, "no healthy prover nodes", http.StatusServiceUnavailable)
		return
	}
	var shed *http.Response // the last 429, relayed if no candidate admits the job
	var shedBody []byte
	var lastErr string
	for i, n := range nodes {
		if i > 0 {
			c.metrics.retried.Add(1)
		}
		resp, err := n.send(r, in.Body)
		if err == nil && rt.stream && resp.StatusCode == http.StatusOK {
			// Read the first frame before committing to this node: a node
			// that dies this early left nothing with the client, so the
			// exchange is still unstarted.
			var first []byte
			if first, err = wire.ReadFrame(resp.Body); err == nil {
				// Committed. No retry can use the body again: let it (and
				// the slot bounding it) go before a relay that lasts as
				// long as proving does.
				in.Body = nil
				in.Release()
				c.relayStream(w, r, n, first, resp.Body)
				resp.Body.Close()
				return
			}
			resp.Body.Close()
		}
		if err == nil && !slices.Contains(rt.retry, resp.StatusCode) {
			c.answer(w, r, rt, n, resp)
			return
		}
		if err != nil {
			lastErr = fmt.Sprintf("node %s: %v", n.name, err)
		} else {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, maxControlBodyBytes))
			resp.Body.Close()
			if resp.StatusCode == http.StatusTooManyRequests {
				shed, shedBody = resp, msg
			}
			lastErr = fmt.Sprintf("node %s: %d: %s", n.name, resp.StatusCode, bytes.TrimSpace(msg))
		}
		if r.Context().Err() != nil {
			// The client hung up: not the node's failure, and nobody is
			// left to answer.
			return
		}
		n.failedOver.Add(1)
		c.metrics.failedOver.Add(1)
	}
	c.metrics.unroutable.Add(1)
	if shed != nil {
		// Every candidate shed: the cluster is honestly saturated, and its
		// answer is a node's, Retry-After and queue position included.
		writeAnswer(w, shed, shedBody)
		return
	}
	http.Error(w, "every candidate node failed: "+lastErr, http.StatusServiceUnavailable)
}

// send issues the client's request to this node — same method, path and
// query, the buffered body (nil for a bodyless route) and the tenant
// header. Forwarding, not re-encoding, is what keeps the bytes the node
// attests identical to the bytes the client holds.
func (n *node) send(r *http.Request, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, n.url+r.URL.RequestURI(), rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	if tenant := tenantOf(r); tenant != "" {
		req.Header.Set(server.TenantHeader, tenant)
	}
	return n.forward.Do(req)
}

// answer relays a node's buffered answer and counts the exchange routed.
func (c *Coordinator) answer(w http.ResponseWriter, r *http.Request, rt *route, n *node, resp *http.Response) {
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		// The node produced a response and died inside it: the exchange
		// started, so it is not ours to replay.
		http.Error(w, fmt.Sprintf("node %s failed mid-response: %v", n.name, err), http.StatusBadGateway)
		return
	}
	if rt.accepted != nil {
		rt.accepted(c, r, n, resp.StatusCode, raw)
	}
	writeAnswer(w, resp, raw)
	n.routed.Add(1)
	c.metrics.routed.Add(1)
}

// writeAnswer writes a node's status, body and the headers a client acts
// on, verbatim.
func writeAnswer(w http.ResponseWriter, resp *http.Response, raw []byte) {
	for _, h := range []string{"Content-Type", "Location", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	w.Write(raw)
}

// relayStream pipes a committed frame stream from the node to the client
// unmodified — frame, then the rest — flushing each and applying the
// per-frame write deadline the nodes themselves use. Started ops cannot
// be replayed under a stream the client already holds frames of, so a
// node that dies mid-stream becomes an in-stream ModelStreamError frame,
// never a silent truncation.
func (c *Coordinator) relayStream(w http.ResponseWriter, r *http.Request, n *node, frame []byte, from io.Reader) {
	w.Header().Set("Content-Type", "application/octet-stream")
	flusher, _ := w.(http.Flusher)
	rc := http.NewResponseController(w)
	write := func(frame []byte) bool {
		rc.SetWriteDeadline(time.Now().Add(c.cfg.StreamWriteTimeout))
		if wire.WriteFrame(w, frame) != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	for {
		if !write(frame) {
			return // the client stopped reading; the node is fine
		}
		var err error
		switch frame, err = wire.ReadFrame(from); {
		case err == io.EOF:
			n.routed.Add(1)
			c.metrics.routed.Add(1)
			return
		case err != nil && r.Context().Err() != nil:
			// The forward runs under the client's request context, so a
			// client that cancels mid-stream surfaces here as a failed
			// read from the node — not a node death.
			return
		case err != nil:
			c.metrics.streamErrors.Add(1)
			n.failedOver.Add(1)
			write(wire.EncodeModelStreamError(fmt.Sprintf(
				"prover node %s failed mid-stream: %v; an async job stream resumes from its last acked frame", n.name, err)))
			return
		}
	}
}
