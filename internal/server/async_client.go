package server

// AsyncClient is the durable-job spelling of the remote Engine: the same
// zkvc.Engine surface as Client, but ProveModel goes through the async
// job API — submit, then stream the journaled frames — so the model
// stream survives connection loss. The resumption is invisible at the
// Engine seam: the stream an AsyncClient hands out reconnects with
// `from=<frames it already holds>` and keeps iterating, and because the
// journal replays exactly the frames a synchronous stream would have
// carried, the assembled Report is byte-identical to Client's and
// Local's at equal seeds (the conformance suite pins this).
//
// Honest load-shedding is honored, not papered over: a 429 from
// submission is retried a bounded number of times, waiting out the
// server's Retry-After advice (capped by RetryCap so interactive callers
// stay responsive), and then surfaces as the server's error.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"zkvc"
	"zkvc/internal/wire"
)

// AsyncClient wraps a Client with the async job API. The zero value is
// not usable; construct with NewAsyncClient.
type AsyncClient struct {
	*Client

	// TTL, when positive, asks the server to retain each job's journal
	// only this long (the server clamps to its own cap). 0 accepts the
	// server default.
	TTL time.Duration
	// SubmitRetries bounds how many 429 rejections one submission waits
	// out before giving up. 0 means 5.
	SubmitRetries int
	// StreamRetries bounds consecutive failed reconnect attempts while
	// resuming a stream (the counter resets whenever a frame arrives).
	// 0 means 5.
	StreamRetries int
	// RetryBase is the backoff unit for reconnects and for 429s that
	// carry no Retry-After. 0 means 100ms.
	RetryBase time.Duration
	// RetryCap bounds any single wait, including the server's
	// Retry-After advice. 0 means 2s.
	RetryCap time.Duration
}

// NewAsyncClient returns an async-job Engine for the service at baseURL.
func NewAsyncClient(baseURL string) *AsyncClient {
	return &AsyncClient{Client: NewClient(baseURL)}
}

var _ zkvc.Engine = (*AsyncClient)(nil)

func (c *AsyncClient) submitRetries() int { return intOr(c.SubmitRetries, 5) }
func (c *AsyncClient) streamRetries() int { return intOr(c.StreamRetries, 5) }
func (c *AsyncClient) retryBase() time.Duration {
	if c.RetryBase > 0 {
		return c.RetryBase
	}
	return 100 * time.Millisecond
}
func (c *AsyncClient) retryCap() time.Duration {
	if c.RetryCap > 0 {
		return c.RetryCap
	}
	return 2 * time.Second
}

func intOr(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}

// sleepCtx waits d or until ctx ends, whichever first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// SubmitJob submits one model trace as an async job and returns its
// initial status (carrying the job ID). 429s are waited out per the
// server's Retry-After advice up to SubmitRetries times.
func (c *AsyncClient) SubmitJob(ctx context.Context, req *zkvc.ModelRequest) (*wire.JobStatus, error) {
	body := wire.EncodeJobSubmitRequest(&wire.JobSubmitRequest{
		TTLSeconds: int(c.TTL / time.Second),
		Model: &wire.ProveModelRequest{
			Backend:        req.Backend,
			ProveNonlinear: req.ProveNonlinear,
			Cfg:            req.Cfg,
			Trace:          req.Trace,
		},
	})
	for attempt := 0; ; attempt++ {
		resp, err := c.do(ctx, http.MethodPost, "/v1/jobs", body)
		if err != nil {
			return nil, err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("reading job response: %w", err)
		}
		switch resp.StatusCode {
		case http.StatusAccepted:
			return wire.DecodeJobStatus(raw)
		case http.StatusTooManyRequests:
			if attempt >= c.submitRetries() {
				return nil, rejectionError(resp, raw)
			}
			if err := sleepCtx(ctx, c.rejectionWait(resp, raw)); err != nil {
				return nil, err
			}
		default:
			return nil, &StatusError{Code: resp.StatusCode, Body: string(raw)}
		}
	}
}

// rejectionError folds a 429 body into an error, preferring the typed
// status (queue position and reason) over raw bytes.
func rejectionError(resp *http.Response, raw []byte) error {
	if st, err := wire.DecodeJobStatus(raw); err == nil {
		return &StatusError{Code: resp.StatusCode,
			Body: fmt.Sprintf("%s (queue position %d, retry after %ds)", st.Error, st.QueuePos, st.RetryAfterSeconds)}
	}
	return &StatusError{Code: resp.StatusCode, Body: string(raw)}
}

// rejectionWait extracts the server's Retry-After advice from a 429
// (typed body first, header as fallback), capped by RetryCap. The
// header may legally be either delay-seconds or an HTTP-date (RFC 9110
// §10.2.3); both forms are honored.
func (c *AsyncClient) rejectionWait(resp *http.Response, raw []byte) time.Duration {
	wait := c.retryBase()
	if st, err := wire.DecodeJobStatus(raw); err == nil && st.RetryAfterSeconds > 0 {
		wait = time.Duration(st.RetryAfterSeconds) * time.Second
	} else if hdr := resp.Header.Get("Retry-After"); hdr != "" {
		if v, err := strconv.Atoi(hdr); err == nil && v > 0 {
			wait = time.Duration(v) * time.Second
		} else if at, err := http.ParseTime(hdr); err == nil {
			if until := time.Until(at); until > 0 {
				wait = until
			}
		}
	}
	if cap := c.retryCap(); wait > cap {
		wait = cap
	}
	return wait
}

// JobStatus polls one job.
func (c *AsyncClient) JobStatus(ctx context.Context, id string) (*wire.JobStatus, error) {
	raw, err := c.call(ctx, http.MethodGet, "/v1/jobs/"+id, nil)
	if err != nil {
		return nil, err
	}
	return wire.DecodeJobStatus(raw)
}

// CancelJob cancels a job and deletes its journal.
func (c *AsyncClient) CancelJob(ctx context.Context, id string) error {
	_, err := c.call(ctx, http.MethodDelete, "/v1/jobs/"+id, nil)
	return err
}

// StreamJob opens the job's frame stream at frame `from`
// (GET /v1/jobs/{id}/stream?from=k). The caller owns the body. Most
// callers want ProveModel, which resumes transparently; this is the
// single-connection primitive.
func (c *AsyncClient) StreamJob(ctx context.Context, id string, from int) (io.ReadCloser, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/stream?from="+strconv.Itoa(from), nil)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return nil, &StatusError{Code: resp.StatusCode, Body: string(raw)}
	}
	return resp.Body, nil
}

// ProveModel proves a model through the job API: submit, then iterate
// the journaled frame stream. The stream transparently reconnects and
// resumes from the last frame it received intact, so a dropped
// connection mid-proof costs one round trip, not the proof. Abandoning
// the stream early (breaking out of the range) cancels the server-side
// job best-effort.
func (c *AsyncClient) ProveModel(ctx context.Context, req *zkvc.ModelRequest) *zkvc.ModelStream {
	return zkvc.NewModelStream(func(info func(zkvc.ModelStreamInfo), yield func(*zkvc.OpProof, error) bool) {
		st, err := c.SubmitJob(ctx, req)
		if err != nil {
			yield(nil, err)
			return
		}
		rs := &resumingStream{c: c, ctx: ctx, id: st.ID}
		defer rs.Close()
		if !readModelStream(rs, info, yield) {
			// The consumer walked away mid-stream; free the server-side
			// job and its journal instead of waiting for the reaper.
			c.CancelJob(ctx, st.ID)
		}
	})
}

// resumingStream is an io.Reader over a job's frame stream that survives
// connection loss. It buffers whole frames: a frame is "acked" once its
// bytes arrived intact, and on any transport failure the stream
// reconnects with from=<acked frames> — so the server never replays an
// acked frame and a torn frame is re-fetched whole. Clean EOF at a frame
// boundary ends the stream for real (the journal is terminal there:
// either complete or explicitly failed — the never-silent-truncation
// contract is the server's journal, enforced client-side by
// wire.ModelStreamReader on top of this reader).
type resumingStream struct {
	c   *AsyncClient
	ctx context.Context
	id  string

	body      io.ReadCloser
	buf       []byte // unread bytes of the current frame (with length prefix)
	delivered int    // frames received intact so far
	eof       bool
}

func (rs *resumingStream) Read(p []byte) (int, error) {
	for len(rs.buf) == 0 {
		if rs.eof {
			return 0, io.EOF
		}
		if err := rs.fetchFrame(); err != nil {
			return 0, err
		}
	}
	n := copy(p, rs.buf)
	rs.buf = rs.buf[n:]
	return n, nil
}

// fetchFrame reads the next whole frame into the buffer, reconnecting
// with the current ack count on any failure.
func (rs *resumingStream) fetchFrame() error {
	attempts := 0
	for {
		if rs.body == nil {
			body, err := rs.c.StreamJob(rs.ctx, rs.id, rs.delivered)
			if err != nil {
				// A 4xx (404: reaped; otherwise policy) is final — redialing
				// cannot fix it. Transport errors and 5xx answers (a
				// coordinator whose job node died before the first frame, a
				// node shedding load) get backoff.
				var se *StatusError
				if errors.As(err, &se) && se.Code < 500 {
					return err
				}
				if rs.ctx.Err() != nil {
					return rs.ctx.Err()
				}
				attempts++
				if attempts > rs.c.streamRetries() {
					return fmt.Errorf("resuming job %s after %d attempts: %w", rs.id, attempts-1, err)
				}
				if err := sleepCtx(rs.ctx, rs.backoff(attempts)); err != nil {
					return err
				}
				continue
			}
			rs.body = body
		}
		frame, err := wire.ReadFrame(rs.body)
		if err == io.EOF {
			rs.eof = true
			rs.Close()
			return nil
		}
		if err != nil {
			// Torn frame or dropped connection: throw away the partial
			// read and resume at the ack boundary.
			rs.Close()
			if rs.ctx.Err() != nil {
				return rs.ctx.Err()
			}
			attempts++
			if attempts > rs.c.streamRetries() {
				return fmt.Errorf("stream for job %s failed after %d resume attempts: %w", rs.id, attempts-1, err)
			}
			if err := sleepCtx(rs.ctx, rs.backoff(attempts)); err != nil {
				return err
			}
			continue
		}
		rs.delivered++
		var hdr [4]byte
		hdr[0] = byte(len(frame) >> 24)
		hdr[1] = byte(len(frame) >> 16)
		hdr[2] = byte(len(frame) >> 8)
		hdr[3] = byte(len(frame))
		rs.buf = append(append(rs.buf[:0], hdr[:]...), frame...)
		return nil
	}
}

func (rs *resumingStream) backoff(attempt int) time.Duration {
	d := rs.c.retryBase() << (attempt - 1)
	if cap := rs.c.retryCap(); d > cap {
		d = cap
	}
	return d
}

func (rs *resumingStream) Close() error {
	if rs.body != nil {
		rs.body.Close()
		rs.body = nil
	}
	return nil
}
