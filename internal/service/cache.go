package service

import (
	"net/http"
	"sync"
	"sync/atomic"
)

// queryCache memoizes query results under a size cap. Finalized
// sketches never change, so entries never go stale — the cap exists
// only to stop an adversarial query mix (distinct frequency values,
// say) from growing the map without bound.
//
// The cache owns its locking, sharded so concurrent queries for
// different keys contend only on their shard, and the hit/miss/eviction
// counters are atomics shared across shards. Each shard additionally
// runs per-key singleflight: when N requests miss on the same key at
// once, one computes (a chain estimate scans K·M cells per hop) and the
// other N-1 wait for its result instead of recomputing it N times.
//
// Small caches collapse to a single shard so eviction stays globally
// oldest-first — per-shard ordering only approximates that, which is
// fine at the default capacity (thousands of entries) but would make a
// 3-entry cache evict the wrong keys.
const (
	// maxCacheShards bounds the shard fan-out; 16 single-mutex shards
	// outstrip any realistic query concurrency on one node.
	maxCacheShards = 16
	// minShardEntries is the smallest per-shard capacity worth splitting
	// for: below it, sharding costs eviction quality without relieving
	// any real contention.
	minShardEntries = 64
)

type queryCache struct {
	capacity int    // configured total; <= 0 disables memoization
	mask     uint32 // len(shards) - 1; shard counts are powers of two
	shards   []cacheShard

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	coalesced atomic.Int64 // successful waits on another request's in-flight compute (also counted in hits)
}

type cacheShard struct {
	mu       sync.Mutex
	capacity int
	entries  map[string]any
	order    []string // insertion order; entries[order[head:]] is live
	head     int
	flights  map[string]*flight
}

// flight is one in-progress computation other requests can wait on.
type flight struct {
	done chan struct{} // closed when val/err are set
	val  any
	err  error
}

func newQueryCache(capacity int) *queryCache {
	shards := 1
	for shards < maxCacheShards && capacity >= 2*shards*minShardEntries {
		shards *= 2
	}
	c := &queryCache{capacity: capacity, mask: uint32(shards - 1), shards: make([]cacheShard, shards)}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.capacity = capacity / shards
		if i < capacity%shards {
			//ldpjoinvet:ignore atomiccounter construction: the cache has not been shared yet
			sh.capacity++
		}
		sh.entries = make(map[string]any)
		sh.flights = make(map[string]*flight)
	}
	return c
}

// shard picks the shard owning key (FNV-1a over the key bytes).
func (c *queryCache) shard(key string) *cacheShard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &c.shards[h&c.mask]
}

// errFlightAborted is what waiters see if a compute died without
// delivering (a panicking handler, recovered by net/http, is the only
// way there): a server fault, whichever query was waiting.
var errFlightAborted error = statusError(http.StatusInternalServerError, "service: query computation aborted")

// do returns the memoized result for key, running compute on a miss and
// caching its result. Concurrent callers with the same key coalesce:
// exactly one runs compute, the rest block until it delivers and share
// the value (or the error — compute is deterministic over immutable
// sketches, so recomputing a failure would fail identically). cached
// reports whether the caller's result came from the cache or a shared
// flight rather than its own compute. Errors are never cached. With
// memoization disabled (capacity <= 0) every call computes and counts a
// miss, as before.
func (c *queryCache) do(key string, compute func() (any, error)) (v any, cached bool, err error) {
	if c.capacity <= 0 {
		c.misses.Add(1)
		v, err = compute()
		return v, false, err
	}
	sh := c.shard(key)
	sh.mu.Lock()
	if v, ok := sh.entries[key]; ok {
		sh.mu.Unlock()
		c.hits.Add(1)
		return v, true, nil
	}
	if f, ok := sh.flights[key]; ok {
		sh.mu.Unlock()
		<-f.done
		if f.err != nil {
			// An error result is never cached, so this lookup was a miss
			// — counted so hits+misses stays the total lookup count.
			c.misses.Add(1)
			return nil, false, f.err
		}
		c.hits.Add(1)
		c.coalesced.Add(1)
		return f.val, true, nil
	}
	f := &flight{done: make(chan struct{})}
	sh.flights[key] = f
	sh.mu.Unlock()

	c.misses.Add(1)
	delivered := false
	defer func() {
		sh.mu.Lock()
		delete(sh.flights, key)
		if delivered && f.err == nil {
			sh.put(key, f.val, &c.evictions)
		} else if !delivered {
			f.err = errFlightAborted
		}
		sh.mu.Unlock()
		close(f.done)
	}()
	f.val, f.err = compute()
	delivered = true
	return f.val, false, f.err
}

// put inserts a freshly computed value, evicting the shard's oldest
// entries once its share of the cap is reached. The caller holds sh.mu
// and owns the key's flight, which guarantees the key is absent: a
// flight is only created when the entry was missing, and every
// concurrent request for the key joins that flight instead of
// computing its own insert.
func (sh *cacheShard) put(key string, v any, evictions *atomic.Int64) {
	for len(sh.entries) >= sh.capacity {
		victim := sh.order[sh.head]
		sh.order[sh.head] = ""
		//ldpjoinvet:ignore atomiccounter the caller holds sh.mu, per this method's contract
		sh.head++
		delete(sh.entries, victim)
		evictions.Add(1)
	}
	// Compact the retired prefix once it dominates the slice, so the
	// order log does not grow with evictions.
	if sh.head > 1024 && sh.head > len(sh.order)/2 {
		sh.order = append([]string(nil), sh.order[sh.head:]...)
		sh.head = 0
	}
	sh.entries[key] = v
	sh.order = append(sh.order, key)
}

// cacheStats is a point-in-time snapshot of the counters for /v1/stats.
type cacheStats struct {
	size, capacity, shards             int
	hits, misses, evictions, coalesced int64
}

func (c *queryCache) stats() cacheStats {
	size := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		size += len(sh.entries)
		sh.mu.Unlock()
	}
	return cacheStats{
		size: size, capacity: c.capacity, shards: len(c.shards),
		hits: c.hits.Load(), misses: c.misses.Load(),
		evictions: c.evictions.Load(), coalesced: c.coalesced.Load(),
	}
}
