package zkml

import (
	"sync"
	"sync/atomic"
	"time"

	"zkvc/internal/r1cs"
	"zkvc/internal/randutil"
)

// KeyCache memoizes Groth16 keys per circuit structure digest with
// singleflight semantics: when many ops race for a new circuit, exactly
// one runs the (expensive) trusted setup and the rest block on its
// result. What hits: a gadget circuit (softmax, GELU) depends only on its
// shape, so its setup is shared across blocks, inputs and tenants, and a
// replayed input finds every op's keys. A matmul circuit is built at a
// Fiat–Shamir challenge over its own operands, so each new input misses
// on every matmul op; a matmul setup shared across inputs is an epoch
// CRS (zkvc.Setup), which this cache does not hold. The standard
// library has no singleflight and the module is dependency-free, so this
// is hand-rolled on a ready channel.
//
// Each setup draws its randomness from (seed, digest), which is what
// makes a trace's proofs independent of op completion order and
// identical between local proving and a service seeded the same way;
// seed 0 draws crypto/rand (the production posture — a reconstructible
// setup stream is the toxic waste). A cache that evicted an entry and
// sets it up again therefore regenerates the same keys under a test
// seed.
//
// ProveTrace makes an unbounded cache per call when Options.Keys is nil.
// The proving service shares one cache across jobs and tenants, bounded:
// its endpoints are unauthenticated and every distinct entry costs a full
// Groth16 setup plus permanently resident keys, so an attacker cycling
// tiny models through many circuit shapes would otherwise grow it
// without limit. At the cap the least-recently-used completed entry is
// evicted; a later op that needs it pays the setup again — even an op of
// the same job, when one job has more distinct circuits than the cap.
type KeyCache struct {
	mu      sync.Mutex
	entries map[[32]byte]*keyEntry
	cap     int // 0: unbounded
	seed    int64
	clock   uint64

	hits, misses atomic.Int64
}

type keyEntry struct {
	ready chan struct{} // closed once val/err are final
	val   *Keys
	err   error
	used  uint64 // LRU stamp, guarded by KeyCache.mu
}

// NewKeyCache returns a cache of at most capacity circuits (0 means
// unbounded) whose setups derive their randomness from seed.
func NewKeyCache(capacity int, seed int64) *KeyCache {
	return &KeyCache{entries: make(map[[32]byte]*keyEntry), cap: capacity, seed: seed}
}

// keysFor looks the circuit up by its structure digest, setting it up on
// a miss. Only the caller that ran the setup is charged its time: a hit,
// or an op that waited on another goroutine's in-flight setup, did no
// setup work, and charging it the wait would inflate the summed setup
// time by up to the parallelism factor.
func (c *KeyCache) keysFor(sys *r1cs.System) (*Keys, time.Duration, error) {
	digest := sys.StructureDigest()
	return c.lookup(digest, func() (*Keys, error) {
		return NewKeys(sys, randutil.Derived(c.seed, []byte("zkml/setup"), digest[:]))
	})
}

// lookup is get with the hit and miss counts and the creator's setup time.
func (c *KeyCache) lookup(digest [32]byte, create func() (*Keys, error)) (*Keys, time.Duration, error) {
	start := time.Now()
	k, hit, err := c.get(digest, create)
	if hit {
		c.hits.Add(1)
		return k, 0, err
	}
	c.misses.Add(1)
	return k, time.Since(start), err
}

// get returns the cached value for the circuit digest, running create
// exactly once per digest (failed creations are evicted so a later
// request can retry). hit reports whether this caller found the entry
// already present.
func (c *KeyCache) get(digest [32]byte, create func() (*Keys, error)) (val *Keys, hit bool, err error) {
	c.mu.Lock()
	c.clock++
	if e, ok := c.entries[digest]; ok {
		e.used = c.clock
		c.mu.Unlock()
		<-e.ready
		return e.val, true, e.err
	}
	e := &keyEntry{ready: make(chan struct{}), used: c.clock}
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
func (c *KeyCache) evictLocked() {
	for c.cap > 0 && len(c.entries) >= c.cap {
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

// Stats reports the lookups that found their circuit cached (or in
// flight) and the ones that ran a setup. Every Groth16 op is one lookup.
func (c *KeyCache) Stats() (hits, misses int64) { return c.hits.Load(), c.misses.Load() }

// Len reports how many circuits the cache holds.
func (c *KeyCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
