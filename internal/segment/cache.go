package segment

import (
	"container/list"
	"sync"

	"github.com/patternsoflife/pol/internal/inventory"
)

// shardCache is the per-reader LRU of pinned (inflated, parsed) shard
// blocks, the reader's memory bound. Loads are single-flight: concurrent
// queries for the same cold shard decompress it once. Eviction drops the
// least-recently-used pinned shard from the cache; goroutines still
// holding the evicted block keep using it safely (blocks are immutable),
// it just stops being shared.
type shardCache struct {
	mu      sync.Mutex
	max     int
	entries map[int]*cacheEntry
	lru     *list.List // front = most recently used; holds *cacheEntry
	memSum  int64      // bytes across loaded entries
}

type cacheEntry struct {
	shard int
	elem  *list.Element

	once sync.Once
	ps   *inventory.SealedShard
	err  error
	done bool
}

func newShardCache(max int) *shardCache {
	return &shardCache{max: max, entries: make(map[int]*cacheEntry), lru: list.New()}
}

// stats returns the loaded-entry count and their decompressed bytes.
func (c *shardCache) stats() (n int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries {
		if e.done && e.err == nil {
			n++
		}
	}
	return n, c.memSum
}

// get returns the pinned block for a shard, loading it via load on a
// miss and evicting the LRU tail beyond the cap.
func (c *shardCache) get(shard int, m *Metrics, load func() (*inventory.SealedShard, error)) (*inventory.SealedShard, error) {
	c.mu.Lock()
	e, ok := c.entries[shard]
	if ok {
		c.lru.MoveToFront(e.elem)
	} else {
		e = &cacheEntry{shard: shard}
		e.elem = c.lru.PushFront(e)
		c.entries[shard] = e
	}
	c.mu.Unlock()
	if m != nil {
		if ok {
			m.CacheHits.Add(1)
		} else {
			m.CacheMisses.Add(1)
		}
	}

	e.once.Do(func() {
		e.ps, e.err = load()
		c.mu.Lock()
		e.done = true
		if e.err != nil {
			// Failed loads don't occupy a slot; the next query retries.
			c.remove(e)
		} else {
			c.memSum += int64(e.ps.Size())
			if m != nil {
				m.Pinned.Add(1)
				m.PinnedBytes.Add(int64(e.ps.Size()))
			}
			for len(c.entries) > c.max {
				tail := c.lru.Back()
				if tail == nil {
					break
				}
				te := tail.Value.(*cacheEntry)
				if !te.done {
					// Never evict an in-flight load; it will be the
					// freshest entry momentarily anyway.
					break
				}
				c.remove(te)
				if m != nil {
					m.Evictions.Add(1)
					m.Pinned.Add(-1)
					m.PinnedBytes.Add(-int64(te.ps.Size()))
				}
			}
		}
		c.mu.Unlock()
	})
	return e.ps, e.err
}

// peek returns the pinned block if (and only if) it is already loaded.
func (c *shardCache) peek(shard int) (*inventory.SealedShard, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[shard]; ok && e.done {
		return e.ps, e.err
	}
	return nil, nil
}

// remove must run with c.mu held.
func (c *shardCache) remove(e *cacheEntry) {
	if _, ok := c.entries[e.shard]; !ok {
		return
	}
	delete(c.entries, e.shard)
	c.lru.Remove(e.elem)
	if e.done && e.err == nil {
		c.memSum -= int64(e.ps.Size())
	}
}
