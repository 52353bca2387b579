package arena

import (
	"sync"
	"testing"

	"zkvc/internal/ff"
)

// TestGetZeroed pins the central contract: checked-out memory is
// indistinguishable from fresh make() memory, even after a dirty (and
// poisoned) buffer was returned to the same bucket.
func TestGetZeroed(t *testing.T) {
	SetPoison(true)
	defer SetPoison(false)
	s := Frs(100)
	for i := range s {
		s[i].SetUint64(uint64(i + 1))
	}
	PutFrs(s)
	got := Frs(100)
	defer PutFrs(got)
	for i := range got {
		if !got[i].IsZero() {
			t.Fatalf("index %d not zeroed after reuse", i)
		}
	}
}

// TestBucketReuse pins that Put/Get actually recycles storage (same
// backing array back) for power-of-two capacities.
func TestBucketReuse(t *testing.T) {
	if !Enabled() {
		t.Skip("pooling disabled via ZKVC_NO_POOL")
	}
	// Under -race sync.Pool drops a quarter of Puts at random, so one
	// of a few round trips must recycle, not necessarily the first.
	for range 8 {
		s := Frs(1000)
		if cap(s) != 1024 {
			t.Fatalf("cap = %d, want bucket-rounded 1024", cap(s))
		}
		p := &s[0]
		PutFrs(s)
		got := Frs(700) // same bucket
		recycled := &got[0] == p
		PutFrs(got)
		if recycled {
			return
		}
	}
	t.Fatal("bucket did not recycle the returned buffer")
}

// TestPutForeignSliceDropped: slices not born from Get (odd capacity)
// must be dropped, not poison a bucket with a short buffer.
func TestPutForeignSliceDropped(t *testing.T) {
	PutFrs(make([]ff.Fr, 1000)) // cap 1000, not a power of two
	s := Frs(1000)
	defer PutFrs(s)
	if cap(s) != 1024 {
		t.Fatalf("foreign slice entered the pool (cap %d)", cap(s))
	}
}

// TestDisabled pins the kill switch: Get still works (plain make), Put
// drops.
func TestDisabled(t *testing.T) {
	SetEnabled(false)
	defer SetEnabled(true)
	s := Frs(64)
	p := &s[0]
	PutFrs(s)
	got := Frs(64)
	if &got[0] == p {
		t.Fatal("disabled pool recycled a buffer")
	}
}

// TestConcurrentCheckout hammers one pool from many goroutines; run
// under -race this pins that per-chunk checkout is race-clean.
func TestConcurrentCheckout(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				n := 1 + (g*31+i*7)%5000
				s := Frs(n)
				for j := range s {
					if !s[j].IsZero() {
						t.Errorf("dirty checkout at %d", j)
						break
					}
				}
				s[0].SetUint64(uint64(g))
				PutFrs(s)
			}
		}(g)
	}
	wg.Wait()
}

// TestSteadyStateAllocFree pins that a warm Get/Put cycle performs no
// allocations (the header-box recycling).
func TestSteadyStateAllocFree(t *testing.T) {
	if !Enabled() {
		t.Skip("pooling disabled via ZKVC_NO_POOL")
	}
	// Warm the bucket and the header pool.
	PutFrs(Frs(512))
	avg := testing.AllocsPerRun(100, func() {
		s := Frs(512)
		PutFrs(s)
	})
	if avg > 0.5 {
		t.Fatalf("steady-state Get/Put allocates %.1f objects/op, want 0", avg)
	}
}
