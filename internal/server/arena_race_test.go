package server_test

import (
	"bytes"
	"fmt"
	mrand "math/rand"
	"net/http"
	"sync"
	"testing"
	"time"

	"zkvc"
	"zkvc/internal/arena"
	"zkvc/internal/nn"
	"zkvc/internal/parallel"
	"zkvc/internal/server"
	"zkvc/internal/wire"
	"zkvc/internal/zkml"
)

// TestPooledProvingRaceAndCanary hammers one service with concurrent HTTP
// model jobs and matmul batch jobs while every buffer returned to the
// scratch arena is poisoned with a nonzero canary pattern. Run under
// -race this pins that per-chunk pool checkout is race-clean across the
// full HTTP → zkml → spartan → pcs/sumcheck/msm stack; the byte
// comparison against an unpooled reference report pins that poisoned
// pool memory never influences proof bytes (the zero-on-checkout
// contract), and the verifying matmul clients pin tenant isolation of
// recycled buffers under load.
func TestPooledProvingRaceAndCanary(t *testing.T) {
	if !arena.Enabled() {
		t.Skip("pooling disabled via ZKVC_NO_POOL")
	}
	defer zkvc.SetParallelism(0)
	defer arena.SetEnabled(true)
	defer arena.SetPoison(false)

	const seed = 19
	modelCfg := tinyModelConfig(nn.MixerPooling)
	trace := capturedTrace(t, modelCfg, 23)

	// Unpooled reference report, proved before any poisoning starts.
	arena.SetEnabled(false)
	opts := zkml.DefaultOptions()
	opts.Backend = zkvc.Spartan
	opts.Seed = seed
	ref, err := zkml.ProveTrace(modelCfg, trace, opts)
	if err != nil {
		t.Fatalf("unpooled reference proving: %v", err)
	}
	want := wire.EncodeReport(zeroTimings(ref))

	arena.SetEnabled(true)
	arena.SetPoison(true)

	cfg := server.DefaultConfig()
	cfg.Backend = zkvc.Spartan
	cfg.Window = 5 * time.Millisecond
	cfg.MaxBatch = 4
	cfg.Parallelism = 3
	cfg.Seed = seed
	_, ts := newTestServer(t, cfg)

	rng := mrand.New(mrand.NewSource(31))
	x := zkvc.RandomMatrix(rng, 8, 12, 64)
	w := zkvc.RandomMatrix(rng, 12, 8, 64)
	matmulBody := wire.EncodeProveRequest(&wire.ProveRequest{X: x, W: w})

	const modelClients, matmulClients = 3, 4
	var wg sync.WaitGroup
	errs := make(chan error, modelClients+matmulClients)
	fail := func(err error) { errs <- err }
	for c := 0; c < modelClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := proveModelHTTP(t, ts.URL, "", &wire.ProveModelRequest{
				Backend:        zkvc.Spartan,
				ProveNonlinear: true,
				Cfg:            modelCfg,
				Trace:          trace,
			})
			if err != nil {
				fail(err)
				return
			}
			if got := wire.EncodeReport(zeroTimings(rep)); !bytes.Equal(got, want) {
				fail(fmt.Errorf("pooled report differs from unpooled reference (%d vs %d bytes)", len(got), len(want)))
			}
		}()
	}
	for c := 0; c < matmulClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, raw := post(t, ts.URL+"/v1/prove", matmulBody)
			if status != http.StatusOK {
				fail(fmt.Errorf("/v1/prove status %d: %s", status, raw))
				return
			}
			resp, err := wire.DecodeProveResponse(raw)
			if err != nil {
				fail(err)
				return
			}
			if err := zkvc.VerifyMatMulBatch(resp.Xs, resp.Batch); err != nil {
				fail(err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := parallel.Default().InUse(); got != 0 {
		t.Fatalf("%d budget tokens still held after load drained", got)
	}
}
