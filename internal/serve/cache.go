package serve

import (
	"container/list"
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// cacheShards is the shard count; a power of two so the hash maps to a
// shard with a mask. 16 shards keep lock contention negligible at the
// concurrency levels the compute slots allow.
const cacheShards = 16

// Cache is a sharded LRU for prediction responses. Predictions are
// deterministic functions of (backend, NF, competitor multiset, traffic
// profile) given the loaded models, so entries never go stale under a
// fixed model set; capacity is the only eviction pressure. Swapping a
// model evicts exactly the entries computed with it (EvictMatching), and
// PutAt keeps a response computed across that swap from landing behind
// the sweep.
type Cache struct {
	shards [cacheShards]cacheShard
	seed   maphash.Seed
	// epoch counts EvictMatching sweeps; each advances it before taking
	// its first shard lock (see PutAt).
	epoch atomic.Uint64

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

// cacheShard is one independently locked LRU segment.
type cacheShard struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recent
	items map[string]*list.Element
}

// cacheEntry is one resident key/value pair.
type cacheEntry struct {
	key string
	val any
}

// NewCache returns a cache holding up to capacity entries across all
// shards. Non-positive capacities disable caching (every Get misses).
// Capacity is apportioned per shard (capacity/16, minimum 1), so small
// capacities round up to one entry per shard — an effective floor of 16
// — and non-multiples of 16 round down per shard.
func NewCache(capacity int) *Cache {
	c := &Cache{seed: maphash.MakeSeed()}
	per := capacity / cacheShards
	if capacity > 0 && per == 0 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i] = cacheShard{
			cap:   per,
			ll:    list.New(),
			items: map[string]*list.Element{},
		}
	}
	return c
}

// shard maps a key to its shard.
func (c *Cache) shard(key string) *cacheShard {
	return &c.shards[maphash.String(c.seed, key)&(cacheShards-1)]
}

// Get returns the cached value for key, if resident, counting the
// lookup in the hit/miss stats. API entry points use Get; internal
// re-checks behind an already-counted Get use getQuiet so one request
// counts once.
func (c *Cache) Get(key string) (any, bool) {
	return c.lookup(key, true)
}

// getQuiet is Get without stats accounting (recency still refreshes).
func (c *Cache) getQuiet(key string) (any, bool) {
	return c.lookup(key, false)
}

func (c *Cache) lookup(key string, count bool) (any, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	return c.touch(s, s.items[key], count)
}

// getBytes is Get for a key still in its render buffer: maphash.Bytes
// picks the shard maphash.String would, and indexing with string(key)
// in place does not allocate — a hit never builds the key string.
func (c *Cache) getBytes(key []byte) (any, bool) {
	s := &c.shards[maphash.Bytes(c.seed, key)&(cacheShards-1)]
	s.mu.Lock()
	defer s.mu.Unlock()
	return c.touch(s, s.items[string(key)], true)
}

// touch finishes a lookup of el (nil: a miss) under the shard's lock.
func (c *Cache) touch(s *cacheShard, el *list.Element, count bool) (any, bool) {
	if el == nil {
		if count {
			c.misses.Add(1)
		}
		return nil, false
	}
	s.ll.MoveToFront(el)
	if count {
		c.hits.Add(1)
	}
	return el.Value.(*cacheEntry).val, true
}

// Put inserts or refreshes key, evicting the shard's least-recently-used
// entry when over capacity. It is PutAt at the current epoch.
func (c *Cache) Put(key string, val any) { c.PutAt(key, val, c.epoch.Load()) }

// Epoch is the cache's invalidation epoch. A caller about to compute a
// value from state an EvictMatching sweep invalidates — a model — reads
// the epoch first and stores the value with PutAt.
func (c *Cache) Epoch() uint64 { return c.epoch.Load() }

// PutAt is Put for a value computed after Epoch returned epoch. If a
// sweep has begun since, the value may come from the state that sweep
// retired, and it is dropped instead of stored. The check shares the
// shard lock with the insert, and a sweep advances the epoch before it
// locks any shard, so a sweep the check misses reaches this shard after
// the insert and judges the entry itself: a stale value never outlives
// the sweep that retired its state. Dropping a fresh value only costs a
// recomputation.
func (c *Cache) PutAt(key string, val any, epoch uint64) {
	s := c.shard(key)
	if s.cap <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c.epoch.Load() != epoch {
		return
	}
	if el, ok := s.items[key]; ok {
		el.Value.(*cacheEntry).val = val
		s.ll.MoveToFront(el)
		return
	}
	s.items[key] = s.ll.PushFront(&cacheEntry{key, val})
	if s.ll.Len() > s.cap {
		oldest := s.ll.Back()
		s.ll.Remove(oldest)
		delete(s.items, oldest.Value.(*cacheEntry).key)
		c.evictions.Add(1)
	}
}

// EvictMatching removes every resident entry whose key satisfies match
// and reports how many were dropped. Targeted invalidation (a model
// reload touching one backend+NF) uses this instead of Flush so entries
// computed from unrelated models keep serving warm. Dropped entries do
// not count toward the eviction stat — that tracks capacity pressure.
// Every call advances the epoch first (see PutAt).
func (c *Cache) EvictMatching(match func(key string) bool) int {
	c.epoch.Add(1)
	dropped := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for key, el := range s.items {
			if match(key) {
				s.ll.Remove(el)
				delete(s.items, key)
				dropped++
			}
		}
		s.mu.Unlock()
	}
	return dropped
}

// Len is the resident entry count.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}

// Hits, Misses and Evictions read the individual counters without the
// per-shard locking Stats' entry count needs — the /metrics exposition
// funcs read them at every scrape.
func (c *Cache) Hits() uint64      { return c.hits.Load() }
func (c *Cache) Misses() uint64    { return c.misses.Load() }
func (c *Cache) Evictions() uint64 { return c.evictions.Load() }

// CacheStats is a point-in-time counter snapshot.
type CacheStats struct {
	Entries   int    `json:"entries"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Entries:   c.Len(),
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
}
