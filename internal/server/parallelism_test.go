package server_test

import (
	mrand "math/rand"
	"net/http"
	"sync"
	"testing"
	"time"

	"zkvc"
	"zkvc/internal/parallel"
	"zkvc/internal/server"
	"zkvc/internal/wire"
)

// TestConcurrentProvingSharesWorkerBudget hammers the service over real
// HTTP while independent library-level parallel loops run in the same
// process, and checks that (a) every proof still verifies, (b) the
// budget tokens all come back, and (c) /metrics reports the configured
// parallelism. Run under -race this doubles as the budget-sharing data
// race check the pool's design promises.
func TestConcurrentProvingSharesWorkerBudget(t *testing.T) {
	defer zkvc.SetParallelism(0)
	cfg := server.DefaultConfig()
	cfg.Backend = zkvc.Spartan
	cfg.Window = 5 * time.Millisecond
	cfg.MaxBatch = 4
	cfg.Parallelism = 3
	cfg.Seed = 61

	s, ts := newTestServer(t, cfg)

	rng := mrand.New(mrand.NewSource(17))
	x := zkvc.RandomMatrix(rng, 8, 12, 64)
	w := zkvc.RandomMatrix(rng, 12, 8, 64)
	body := wire.EncodeProveRequest(&wire.ProveRequest{X: x, W: w})

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			url := ts.URL + "/v1/prove"
			if c%2 == 1 {
				url += "/matmul"
			}
			status, raw := post(t, url, body)
			if status != http.StatusOK {
				errs <- &http.ProtocolError{ErrorString: string(raw)}
				return
			}
			if c%2 == 1 {
				proof, err := wire.DecodeMatMulProof(raw)
				if err != nil {
					errs <- err
					return
				}
				if err := zkvc.VerifyMatMul(x, proof); err != nil {
					errs <- err
				}
				return
			}
			resp, err := wire.DecodeProveResponse(raw)
			if err != nil {
				errs <- err
				return
			}
			if err := zkvc.VerifyMatMulBatch(resp.Xs, resp.Batch); err != nil {
				errs <- err
			}
		}(c)
	}
	// Library-level parallel work competing for the same budget while
	// the service proves: this is exactly the oversubscription scenario
	// the shared pool exists to prevent.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < 50; k++ {
			sum := zkvc.MatMul(x, w)
			if sum.Rows != x.Rows {
				errs <- &http.ProtocolError{ErrorString: "bad matmul shape"}
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	snap := s.Metrics()
	if snap.Parallelism != 3 {
		t.Fatalf("metrics parallelism = %d, want 3", snap.Parallelism)
	}
	// All proving is done; every borrowed and held token must be back.
	if got := parallel.Default().InUse(); got != 0 {
		t.Fatalf("%d budget tokens still held after load drained", got)
	}
	if snap.ParallelInUse != 0 {
		t.Fatalf("metrics report %d tokens in use after load drained", snap.ParallelInUse)
	}
}
