// Package parallel is the process-wide worker budget shared by every hot
// loop in the prover stack (MLE folding, sumcheck rounds, Merkle hashing,
// MSMs, NTTs, matmul) and by the proving service's admitted proofs.
//
// The design is deliberately work-stealing-free: a Pool is a fixed number
// of tokens, one per hardware thread the process is willing to burn.
// Top-level jobs (a proof the service admitted, a CLI prove) Acquire a token
// for their own goroutine; data-parallel loops inside a job borrow
// whatever tokens are free with TryAcquire and fall back to running
// inline when none are. Because inner loops never block on the budget,
// nesting is deadlock-free by construction, and because the budget is
// shared, per-proof parallelism and cross-request concurrency cannot
// oversubscribe the machine: N concurrent proofs on an N-core box each
// run sequentially, one proof on an idle box fans out across all cores.
//
// Determinism: For bodies write disjoint index ranges and MapReduce
// folds fixed-size chunks in chunk order, so results are independent of
// the number of workers that happened to run — parallelism 1 and N
// produce byte-identical proofs (pinned by TestBatchProveBitIdentical
// in the root package).
//
// The default pool is sized from the ZKVC_PARALLELISM environment
// variable when set, else runtime.GOMAXPROCS. zkvc.SetParallelism,
// server.Config.Parallelism and `zkvc serve -parallelism` resize it.
package parallel

import (
	"context"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// Pool is a fixed budget of worker tokens. The zero value is not usable;
// create pools with NewPool or use the process-wide Default.
type Pool struct {
	tokens chan struct{}
	size   int
}

// NewPool returns a pool of n tokens (n < 1 is clamped to 1).
func NewPool(n int) *Pool {
	if n < 1 {
		n = 1
	}
	return &Pool{tokens: make(chan struct{}, n), size: n}
}

// Size returns the token budget.
func (p *Pool) Size() int { return p.size }

// InUse returns the number of tokens currently held. It is a snapshot
// for metrics, not a synchronization primitive.
func (p *Pool) InUse() int { return len(p.tokens) }

// Acquire blocks until a token is free. It is meant for top-level job
// admission (the proving service's admitted proofs); data-parallel loops must
// use TryAcquire so that nested parallelism degrades to sequential
// execution instead of deadlocking.
func (p *Pool) Acquire() { p.tokens <- struct{}{} }

// AcquireCtx blocks until a token is free or ctx is done, in which case
// it returns ctx's error without holding a token. It is the admission
// path for request-scoped work: a caller whose client has already gone
// away should stop waiting in line, not eventually burn a token proving
// something nobody will read.
func (p *Pool) AcquireCtx(ctx context.Context) error {
	select {
	case p.tokens <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// TryAcquire takes a token if one is free.
func (p *Pool) TryAcquire() bool {
	select {
	case p.tokens <- struct{}{}:
		return true
	default:
		return false
	}
}

// Release returns a token taken by Acquire or TryAcquire.
func (p *Pool) Release() { <-p.tokens }

// For runs body over [0, n) split into chunks of at most grain indices.
// The calling goroutine always participates; additional workers join
// only for tokens that are free right now, so For never blocks on the
// budget and nests safely. body must treat its [start, end) range as
// exclusive property — disjoint writes are what make the parallel and
// sequential schedules indistinguishable.
//
// A panic in any chunk is re-raised on the caller after all chunks
// finish (the first panic value wins).
func (p *Pool) For(n, grain int, body func(start, end int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	chunks := (n + grain - 1) / grain
	if chunks == 1 || p.size == 1 {
		body(0, n)
		return
	}
	extra := 0
	for extra < chunks-1 && extra < p.size-1 && p.TryAcquire() {
		extra++
	}
	if extra == 0 {
		body(0, n)
		return
	}
	p.run(chunks, extra, func(c int) {
		start := c * grain
		end := start + grain
		if end > n {
			end = n
		}
		body(start, end)
	})
}

// run executes chunk indices [0, chunks) across the caller plus extra
// already-acquired workers, releasing the extra tokens before returning.
func (p *Pool) run(chunks, extra int, chunk func(c int)) {
	var next atomic.Int64
	var panicVal atomic.Pointer[any]
	loop := func() {
		defer func() {
			if r := recover(); r != nil {
				panicVal.CompareAndSwap(nil, &r)
			}
		}()
		for {
			c := int(next.Add(1)) - 1
			if c >= chunks {
				return
			}
			chunk(c)
		}
	}
	var wg sync.WaitGroup
	wg.Add(extra)
	for i := 0; i < extra; i++ {
		go func() {
			defer wg.Done()
			loop()
		}()
	}
	loop()
	wg.Wait()
	for i := 0; i < extra; i++ {
		p.Release()
	}
	if r := panicVal.Load(); r != nil {
		panic(*r)
	}
}

// ForCtx is For with cooperative cancellation: once ctx is done, chunks
// that have not started yet are skipped (chunks already running finish —
// bodies own their index ranges and are never interrupted mid-write).
// The caller decides what cancellation means by checking ctx.Err after
// the call; ForCtx itself returns nothing, exactly like For, so the two
// schedules stay drop-in interchangeable. A nil ctx means no
// cancellation.
func (p *Pool) ForCtx(ctx context.Context, n, grain int, body func(start, end int)) {
	if ctx == nil {
		p.For(n, grain, body)
		return
	}
	p.For(n, grain, func(start, end int) {
		if ctx.Err() != nil {
			return
		}
		body(start, end)
	})
}

// MapReduce maps fixed chunks of [0, n) and folds the chunk results in
// chunk-index order: reduce(...reduce(map(0..g), map(g..2g))...). The
// chunk layout depends only on n and grain — never on how many workers
// ran — so the result is identical at every parallelism level even for
// non-commutative reductions. Returns the zero T when n <= 0.
func MapReduce[T any](p *Pool, n, grain int, mapChunk func(start, end int) T, reduce func(acc, next T) T) T {
	var zero T
	if n <= 0 {
		return zero
	}
	if grain < 1 {
		grain = 1
	}
	chunks := (n + grain - 1) / grain
	if chunks == 1 || p.size == 1 {
		return mapSeq(n, grain, chunks, mapChunk, reduce)
	}
	extra := 0
	for extra < chunks-1 && extra < p.size-1 && p.TryAcquire() {
		extra++
	}
	if extra == 0 {
		return mapSeq(n, grain, chunks, mapChunk, reduce)
	}
	results := make([]T, chunks)
	p.run(chunks, extra, func(c int) {
		start := c * grain
		end := start + grain
		if end > n {
			end = n
		}
		results[c] = mapChunk(start, end)
	})
	acc := results[0]
	for c := 1; c < chunks; c++ {
		acc = reduce(acc, results[c])
	}
	return acc
}

// mapSeq is the sequential MapReduce schedule: the same chunk layout and
// fold order as the parallel path, on the calling goroutine.
func mapSeq[T any](n, grain, chunks int, mapChunk func(start, end int) T, reduce func(acc, next T) T) T {
	end := grain
	if end > n {
		end = n
	}
	acc := mapChunk(0, end)
	for c := 1; c < chunks; c++ {
		start := c * grain
		end := start + grain
		if end > n {
			end = n
		}
		acc = reduce(acc, mapChunk(start, end))
	}
	return acc
}

// defaultPool is swapped atomically so resizing races cleanly with loops
// already in flight (they keep their pool; new loops see the new one).
var defaultPool atomic.Pointer[Pool]

func init() {
	defaultPool.Store(NewPool(envSize()))
}

// envSize derives the default budget: ZKVC_PARALLELISM when set to a
// positive integer, else GOMAXPROCS.
func envSize() int {
	if v := os.Getenv("ZKVC_PARALLELISM"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}

// Default returns the process-wide pool.
func Default() *Pool { return defaultPool.Load() }

// DefaultSize returns the process-wide budget.
func DefaultSize() int { return Default().Size() }

// SetDefaultSize replaces the process-wide pool with one of n tokens;
// n <= 0 restores the environment-derived default. Loops already running
// keep the pool they started with.
func SetDefaultSize(n int) {
	if n <= 0 {
		n = envSize()
	}
	defaultPool.Store(NewPool(n))
}

// For runs body over [0, n) on the default pool.
func For(n, grain int, body func(start, end int)) {
	Default().For(n, grain, body)
}

// ForCtx runs body over [0, n) on the default pool with cooperative
// cancellation (see Pool.ForCtx).
func ForCtx(ctx context.Context, n, grain int, body func(start, end int)) {
	Default().ForCtx(ctx, n, grain, body)
}
