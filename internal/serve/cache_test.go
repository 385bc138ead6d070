package serve

import (
	"fmt"
	"sync"
	"testing"
)

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(cacheShards) // one entry per shard
	// Find two keys in the same shard so eviction is observable.
	base := "key-0"
	var sibling string
	for i := 1; i < 10000; i++ {
		k := fmt.Sprintf("key-%d", i)
		if c.shard(k) == c.shard(base) {
			sibling = k
			break
		}
	}
	if sibling == "" {
		t.Fatal("no same-shard sibling found")
	}
	c.Put(base, 1)
	c.Put(sibling, 2) // evicts base (shard capacity 1)
	if _, ok := c.Get(base); ok {
		t.Fatal("expected LRU eviction of the older same-shard key")
	}
	if v, ok := c.Get(sibling); !ok || v.(int) != 2 {
		t.Fatalf("expected sibling resident with value 2, got %v %v", v, ok)
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
}

func TestCacheRecencyOrder(t *testing.T) {
	c := NewCache(2 * cacheShards) // capacity 2 per shard
	base := "k0"
	var k1, k2 string
	for i := 1; k2 == ""; i++ {
		k := fmt.Sprintf("k%d", i)
		if c.shard(k) == c.shard(base) {
			if k1 == "" {
				k1 = k
			} else {
				k2 = k
			}
		}
	}
	c.Put(base, 0)
	c.Put(k1, 1)
	c.Get(base)  // refresh base → k1 is now LRU
	c.Put(k2, 2) // evicts k1
	if _, ok := c.Get(k1); ok {
		t.Fatal("expected k1 evicted (least recently used)")
	}
	if _, ok := c.Get(base); !ok {
		t.Fatal("expected refreshed key to survive eviction")
	}
}

// TestCacheEvictMatching checks targeted invalidation drops exactly the
// matching entries, across shards, without touching the eviction stat.
func TestCacheEvictMatching(t *testing.T) {
	c := NewCache(256)
	for i := 0; i < 64; i++ {
		prefix := "keep"
		if i%4 == 0 {
			prefix = "drop"
		}
		c.Put(fmt.Sprintf("%s-%d", prefix, i), i)
	}
	dropped := c.EvictMatching(func(key string) bool {
		return key[:4] == "drop"
	})
	if dropped != 16 {
		t.Fatalf("dropped %d entries, want 16", dropped)
	}
	if c.Len() != 48 {
		t.Fatalf("len = %d after targeted eviction, want 48", c.Len())
	}
	for i := 0; i < 64; i++ {
		_, ok := c.getQuiet(fmt.Sprintf("keep-%d", i))
		if i%4 != 0 && !ok {
			t.Fatalf("keep-%d missing after unrelated eviction", i)
		}
	}
	if _, ok := c.getQuiet("drop-0"); ok {
		t.Fatal("matched entry survived EvictMatching")
	}
	if st := c.Stats(); st.Evictions != 0 {
		t.Fatalf("targeted eviction counted as capacity eviction: %d", st.Evictions)
	}
}

func TestCacheDisabled(t *testing.T) {
	c := NewCache(-1)
	c.Put("k", 1)
	if _, ok := c.Get("k"); ok {
		t.Fatal("disabled cache must not retain entries")
	}
}

// TestCacheConcurrent hammers all shards from many goroutines; run under
// -race to check shard locking.
func TestCacheConcurrent(t *testing.T) {
	c := NewCache(256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				k := fmt.Sprintf("key-%d", (g*7+i)%512)
				if v, ok := c.Get(k); ok {
					if v.(string) != k {
						t.Errorf("cache returned %v for key %s", v, k)
						return
					}
				} else {
					c.Put(k, k)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 256 {
		t.Fatalf("cache over capacity: %d", c.Len())
	}
	st := c.Stats()
	if st.Hits+st.Misses != 8*1000 {
		t.Fatalf("hits+misses = %d, want %d", st.Hits+st.Misses, 8*1000)
	}
}

// TestCachePutAtEpoch: a value computed after Epoch read e is dropped by
// PutAt once a sweep has begun since — even one whose predicate matches
// nothing resident, since the value may come from the state it retired —
// and stored when no sweep intervened.
func TestCachePutAtEpoch(t *testing.T) {
	c := NewCache(256)
	e := c.Epoch()
	c.EvictMatching(func(string) bool { return false })
	c.PutAt("k", 1, e)
	if _, ok := c.getQuiet("k"); ok {
		t.Fatal("a value read before a sweep was stored after it")
	}
	c.PutAt("k", 2, c.Epoch())
	if v, ok := c.getQuiet("k"); !ok || v != 2 {
		t.Fatalf("PutAt at the current epoch: %v, %v", v, ok)
	}
}
