package segment

import (
	"container/list"
	"sync"
	"sync/atomic"

	"github.com/patternsoflife/pol/internal/inventory"
)

// shardCache is the per-reader LRU of pinned (inflated, parsed) shard
// blocks, the reader's memory bound. An entry holds a prefix of its block:
// the columns and the summaries up to the furthest one a read has needed.
// A read that needs one past it grows the entry: it inflates the block
// again from its start, into a longer prefix that replaces the entry's.
// Loads are single-flight: concurrent queries for the same cold shard
// decompress it once; grows are not. Eviction drops the least-recently-used
// pinned shard from the cache; goroutines still holding an evicted or
// outgrown prefix keep using it safely (prefixes are immutable), it just
// stops being shared.
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
	ps   atomic.Pointer[inventory.SealedShard] // swapped for a longer prefix under mu
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

// get returns the pinned block of shard that holds key's summary, and
// key's position in it. load inflates the block as far as key needs: on a
// miss into a new entry, evicting the LRU tail beyond the cap; when the
// entry stops short of key's summary, into a prefix that replaces it (a
// grow, and a miss too). The caller keeps the prefix it loaded.
func (c *shardCache) get(shard int, key inventory.GroupKey, m *Metrics, load func() (*inventory.SealedShard, error)) (p *inventory.SealedShard, i int, ok bool, err error) {
	c.mu.Lock()
	e, found := c.entries[shard]
	if found {
		c.lru.MoveToFront(e.elem)
	} else {
		e = &cacheEntry{shard: shard}
		e.elem = c.lru.PushFront(e)
		c.entries[shard] = e
	}
	c.mu.Unlock()

	inflated := false
	e.once.Do(func() {
		inflated = true
		p, err := load()
		c.mu.Lock()
		defer c.mu.Unlock()
		if e.done, e.err = true, err; err != nil {
			c.remove(e, m) // failed loads don't occupy a slot; the next query retries
			return
		}
		e.ps.Store(p)
		c.pin(1, int64(p.Size()), m)
		for tail := c.lru.Back(); len(c.entries) > c.max && tail.Value.(*cacheEntry).done; tail = c.lru.Back() {
			c.remove(tail.Value.(*cacheEntry), m) // never an in-flight load: it is about to be the freshest
			if m != nil {
				m.Evictions.Add(1)
			}
		}
	})
	if err = e.err; err == nil {
		p = e.ps.Load()
		if i, ok = p.Find(key); ok && p.End(i) > p.Size() {
			inflated = true
			if p, err = load(); err == nil {
				c.mu.Lock()
				if old := e.ps.Load(); c.entries[shard] == e && p.Size() > old.Size() {
					e.ps.Store(p)
					c.pin(0, int64(p.Size()-old.Size()), m)
				}
				c.mu.Unlock()
			}
			if m != nil {
				m.Grows.Add(1)
			}
		}
	}
	if m != nil && inflated {
		m.CacheMisses.Add(1)
	} else if m != nil {
		m.CacheHits.Add(1)
	}
	return p, i, ok && err == nil, err
}

// pin adds k entries and n bytes to the pinned ones; it must run with c.mu
// held.
func (c *shardCache) pin(k, n int64, m *Metrics) {
	c.memSum += n
	if m != nil {
		m.Pinned.Add(k)
		m.PinnedBytes.Add(n)
	}
}

// remove drops e and, when it was loaded, its pinned bytes; it must run
// with c.mu held.
func (c *shardCache) remove(e *cacheEntry, m *Metrics) {
	if _, ok := c.entries[e.shard]; !ok {
		return
	}
	delete(c.entries, e.shard)
	c.lru.Remove(e.elem)
	if e.done && e.err == nil {
		c.pin(-1, -int64(e.ps.Load().Size()), m)
	}
}
