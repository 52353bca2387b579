package zkml

import (
	"sync"
	"testing"
	"time"
)

func digestKey(b byte) [32]byte { return [32]byte{b} }

// cached reports whether c holds a completed entry for digest, without
// touching its LRU stamp.
func cached(c *KeyCache, digest [32]byte) bool {
	c.mu.Lock()
	e, ok := c.entries[digest]
	c.mu.Unlock()
	if !ok {
		return false
	}
	select {
	case <-e.ready:
		return e.err == nil
	default:
		return false
	}
}

// TestKeyCacheEvictsLRU: the cache must stay bounded under a stream of
// distinct circuits, dropping the least-recently-used entry first.
func TestKeyCacheEvictsLRU(t *testing.T) {
	c := NewKeyCache(2, 0)
	mk := func() (*Keys, error) { return &Keys{}, nil }

	if _, hit, _ := c.get(digestKey(1), mk); hit {
		t.Fatal("fresh entry reported as hit")
	}
	c.get(digestKey(2), mk)
	if _, hit, _ := c.get(digestKey(1), mk); !hit { // touch 1 so 2 becomes LRU
		t.Fatal("cached entry reported as miss")
	}
	c.get(digestKey(3), mk) // at cap: evicts 2

	if c.Len() != 2 {
		t.Errorf("cache holds %d entries, cap is 2", c.Len())
	}
	if cached(c, digestKey(2)) {
		t.Error("LRU entry survived eviction")
	}
	if !cached(c, digestKey(1)) {
		t.Error("recently used entry was evicted")
	}
	if !cached(c, digestKey(3)) {
		t.Error("newest entry was evicted")
	}
}

// TestKeyCacheDrainsAfterBurst: pending entries cannot be evicted, so a
// concurrent burst of distinct circuits overshoots the cap — but the
// next insert must drain the overshoot back below capacity, not leave
// the high-water mark resident forever.
func TestKeyCacheDrainsAfterBurst(t *testing.T) {
	c := NewKeyCache(2, 0)
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c.get(digestKey(byte(10+i)), func() (*Keys, error) {
				<-release
				return &Keys{}, nil
			})
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.Len() < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("burst never filled the cache: %d entries", c.Len())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	c.get(digestKey(99), func() (*Keys, error) { return &Keys{}, nil })
	if got := c.Len(); got > 2 {
		t.Errorf("cache holds %d entries after burst drained, cap is 2", got)
	}
	if !cached(c, digestKey(99)) {
		t.Error("newest entry missing after drain")
	}
}
