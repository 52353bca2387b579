package server

import (
	"sync"

	"zkvc/internal/groth16"
)

// crsCache memoizes Groth16 proving material with singleflight
// semantics: when many requests for a new entry race, exactly one runs
// the (expensive) trusted setup and the rest block on its result. The
// standard library has no singleflight and the module is dependency-free,
// so this is hand-rolled on a ready channel.
//
// Entries are keyed by the R1CS structure digest of a model-op circuit —
// whatever its shape family — so identical transformer blocks across
// requests and tenants share one setup.
//
// The cache is bounded: proving endpoints are unauthenticated and every
// distinct entry costs a full Groth16 setup plus permanently resident
// keys, so an attacker cycling tiny models through many circuit shapes
// would otherwise grow it without limit. At the cap the
// least-recently-used completed entry is evicted; a later job that needs
// it pays the setup again.
type crsCache struct {
	mu      sync.Mutex
	entries map[[32]byte]*crsEntry
	cap     int
	clock   uint64
}

// circuitCRS is the cached proving material for one gadget circuit.
type circuitCRS struct {
	pk *groth16.ProvingKey
	vk *groth16.VerifyingKey
}

type crsEntry struct {
	ready chan struct{} // closed once val/err are final
	val   *circuitCRS
	err   error
	used  uint64 // LRU stamp, guarded by crsCache.mu
}

func newCRSCache(cap int) *crsCache {
	return &crsCache{entries: make(map[[32]byte]*crsEntry), cap: cap}
}

// get returns the cached value for the circuit digest, running create
// exactly once per digest (failed creations are evicted so a later
// request can retry). hit reports whether this caller found the entry
// already present.
func (c *crsCache) get(digest [32]byte, create func() (*circuitCRS, error)) (val *circuitCRS, hit bool, err error) {
	c.mu.Lock()
	c.clock++
	if e, ok := c.entries[digest]; ok {
		e.used = c.clock
		c.mu.Unlock()
		<-e.ready
		return e.val, true, e.err
	}
	e := &crsEntry{ready: make(chan struct{}), used: c.clock}
	c.evictLocked()
	c.entries[digest] = e
	c.mu.Unlock()

	e.val, e.err = create()
	if e.err != nil {
		c.mu.Lock()
		delete(c.entries, digest)
		c.mu.Unlock()
	}
	close(e.ready)
	return e.val, false, e.err
}

// evictLocked drops least-recently-used completed entries until the
// cache is below capacity. Entries whose setup is still in flight are
// never evicted (their waiters hold the map slot), so a burst of
// concurrent distinct circuits can overshoot the cap — the loop drains
// the overshoot back down on later inserts, once those setups complete.
func (c *crsCache) evictLocked() {
	for len(c.entries) >= c.cap {
		var victim [32]byte
		var found bool
		var oldest uint64
		for k, e := range c.entries {
			select {
			case <-e.ready:
			default:
				continue
			}
			if !found || e.used < oldest {
				victim, oldest, found = k, e.used, true
			}
		}
		if !found {
			return
		}
		delete(c.entries, victim)
	}
}

// Len reports how many entries have a cached CRS.
func (c *crsCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
