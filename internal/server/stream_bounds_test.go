package server_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"zkvc"
	"zkvc/internal/nn"
	"zkvc/internal/server"
	"zkvc/internal/wire"
)

// TestJobStreamFromBeyondTerminalRejected: once a job's journal is
// terminal, a resume point past its final frame count can never be
// satisfied — an empty 200 would be exactly the silent truncation the
// stream contract forbids, telling a client whose ack state is corrupt
// that it already holds everything. from == n (drain zero frames) stays
// legal; from > n is a loud 400.
func TestJobStreamFromBeyondTerminalRejected(t *testing.T) {
	cfg := tinyModelConfig(nn.MixerPooling)
	trace := capturedTrace(t, cfg, 3)
	scfg := server.DefaultConfig()
	scfg.Seed = 7
	_, ts := newTestServer(t, scfg)

	ac := server.NewAsyncClient(ts.URL)
	st, err := ac.SubmitJob(context.Background(), modelRequest(zkvc.Spartan, cfg, trace))
	if err != nil {
		t.Fatal(err)
	}

	// Drain the live stream to EOF — which also means the journal is
	// terminal — counting its frames.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: status %d", resp.StatusCode)
	}
	n := 0
	for {
		if _, err := wire.ReadFrame(resp.Body); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("frame %d: %v", n, err)
		}
		n++
	}
	if n == 0 {
		t.Fatal("terminal stream carried no frames")
	}

	// from == n: the client holds everything; empty 200.
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/stream?from=" + strconv.Itoa(n))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK || len(body) != 0 {
		t.Fatalf("from=n: status %d, %d body bytes, want empty 200", resp2.StatusCode, len(body))
	}

	// from == n+1: beyond anything this journal ever held.
	resp3, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/stream?from=" + strconv.Itoa(n+1))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("from=n+1: status %d, want 400 (body: %s)", resp3.StatusCode, body)
	}
	if !strings.Contains(string(body), "beyond") {
		t.Errorf("400 body does not explain the rejection: %s", body)
	}
}

// gatedWriter is an http.ResponseWriter whose Write blocks, once the
// first frame (the stream header) is complete, until open is closed —
// a client that reads the header and then stops reading. It has no
// write deadline, so the stall lasts exactly as long as the test holds
// it.
type gatedWriter struct {
	hdr     http.Header
	open    chan struct{}
	stalled chan struct{}
	once    sync.Once

	mu  sync.Mutex
	buf bytes.Buffer
}

func newGatedWriter() *gatedWriter {
	return &gatedWriter{hdr: http.Header{}, open: make(chan struct{}), stalled: make(chan struct{})}
}

func (g *gatedWriter) Header() http.Header { return g.hdr }
func (g *gatedWriter) WriteHeader(int)     {}
func (g *gatedWriter) Flush()              {}

func (g *gatedWriter) Write(p []byte) (int, error) {
	g.mu.Lock()
	b := g.buf.Bytes()
	headerDone := len(b) >= 4 && len(b) >= 4+int(binary.BigEndian.Uint32(b))
	g.mu.Unlock()
	if headerDone {
		g.once.Do(func() { close(g.stalled) })
		<-g.open
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.buf.Write(p)
}

// TestSyncStreamBuffersAtMostFiveFrames pins the memory bound of a
// /v1/prove/model stream whose reader stops after the header: one op
// frame being written plus four queued, and then proving waits. With
// a one-token budget the ops prove one at a time, so a
// sixth proved op is the last one that can exist while the write is
// blocked — whatever the job's length. The stall shows in
// stream_stalls, and once the reader resumes the report is the one
// local proving makes.
func TestSyncStreamBuffersAtMostFiveFrames(t *testing.T) {
	const seed = 29
	mcfg := zkvc.ViTCIFAR10().Scaled(16)
	trace := capturedTrace(t, mcfg, seed+1)
	if len(trace.Ops) < 12 {
		t.Fatalf("trace has %d ops, want at least 12 for the bound to bite", len(trace.Ops))
	}
	want := localModelReport(t, zkvc.Spartan, mcfg, trace, seed)

	cfg := server.DefaultConfig()
	cfg.Seed = seed
	cfg.Parallelism = 1
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	body := wire.EncodeProveModelRequest(&wire.ProveModelRequest{Backend: zkvc.Spartan, ProveNonlinear: true, Cfg: mcfg, Trace: trace})
	w := newGatedWriter()
	served := make(chan struct{})
	go func() {
		defer close(served)
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/prove/model", bytes.NewReader(body)))
	}()
	select {
	case <-w.stalled:
	case <-time.After(60 * time.Second):
		close(w.open)
		t.Fatal("the stream never got past its header")
	}
	for deadline := time.Now().Add(60 * time.Second); s.Metrics().StreamStalls == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			close(w.open)
			t.Fatalf("proving never stalled behind the blocked reader: %+v", s.Metrics())
		}
	}
	for held := time.Now().Add(500 * time.Millisecond); time.Now().Before(held); time.Sleep(5 * time.Millisecond) {
		if n := s.Metrics().ModelOpsProved; n > 6 {
			close(w.open)
			t.Fatalf("%d ops proved while the reader was stalled, want at most 6 (1 being written + 4 queued + 1 waiting)", n)
		}
	}
	close(w.open)
	<-served

	w.mu.Lock()
	defer w.mu.Unlock()
	rep, err := wire.DecodeModelStream(&w.buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := wire.EncodeReport(zeroTimings(rep)); !bytes.Equal(got, want) {
		t.Fatalf("report after the stall differs from local ProveTrace (%d vs %d bytes)", len(got), len(want))
	}
}
