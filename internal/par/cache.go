package par

import (
	"container/list"
	"context"
	"sync"
)

// Cache is a keyed single-flight cache with a bounded LRU: the one rule for
// everything the system builds once and shares (compiled binaries, fitted
// models, parsed sources).
//
//   - Each key is built once. Callers that arrive while the build runs join
//     it, and count as hits.
//   - The build runs on its own goroutine, so a caller's ctx bounds only that
//     caller's wait. A build whose callers all left still lands.
//   - A failed build is removed before its waiters wake: each of them gets
//     the error, and the next caller builds again.
//   - Beyond capacity, the least recently used ready entries are evicted.
//     In-flight builds are never evicted, so while more builds than the
//     capacity are in flight the cache runs over it. A value stays valid for
//     whoever holds it.
type Cache[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	m     map[K]*list.Element
	lru   *list.List // of *cacheEntry[K, V], most recently used first
	stats CacheStats
}

// cacheEntry is one key's slot; ready is closed once val and err are final.
type cacheEntry[K comparable, V any] struct {
	key   K
	ready chan struct{}
	done  bool // guarded by Cache.mu; set before ready closes
	val   V
	err   error
}

// CacheStats counts a Cache's traffic.
type CacheStats struct {
	Len       int   // entries resident, in-flight builds included
	Hits      int64 // lookups that found an entry, ready or in flight
	Misses    int64 // lookups that started a build
	Evictions int64
}

// NewCache returns an empty cache that keeps at most capacity ready entries.
func NewCache[K comparable, V any](capacity int) *Cache[K, V] {
	return &Cache[K, V]{cap: capacity, m: map[K]*list.Element{}, lru: list.New()}
}

// Get returns the value for key, starting build on a miss. hit reports
// whether an entry was resident, ready or in flight. If ctx ends first, Get
// returns ctx.Err() and the build carries on.
func (c *Cache[K, V]) Get(ctx context.Context, key K, build func() (V, error)) (v V, hit bool, err error) {
	c.mu.Lock()
	el, hit := c.m[key]
	if hit {
		c.stats.Hits++
		c.lru.MoveToFront(el)
	} else {
		c.stats.Misses++
		el = c.insert(&cacheEntry[K, V]{key: key, ready: make(chan struct{})})
		go c.build(el, build)
	}
	e := el.Value.(*cacheEntry[K, V])
	c.mu.Unlock()
	select {
	case <-e.ready:
		return e.val, hit, e.err
	case <-ctx.Done():
		return v, hit, ctx.Err()
	}
}

func (c *Cache[K, V]) build(el *list.Element, build func() (V, error)) {
	val, err := build()
	c.mu.Lock()
	e := el.Value.(*cacheEntry[K, V])
	e.val, e.err, e.done = val, err, true
	if err != nil && c.m[e.key] == el {
		c.remove(el)
	}
	c.mu.Unlock()
	close(e.ready)
}

// Put installs v as key's ready value. It replaces a ready entry, whose
// holders keep the old value, but never an in-flight one: that build is at
// least as fresh as v.
func (c *Cache[K, V]) Put(key K, v V) {
	e := &cacheEntry[K, V]{key: key, ready: make(chan struct{}), done: true, val: v}
	close(e.ready)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		if !el.Value.(*cacheEntry[K, V]).done {
			return
		}
		c.remove(el)
	}
	c.insert(e)
}

// Stats snapshots the counters.
func (c *Cache[K, V]) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Len = c.lru.Len()
	return st
}

// insert adds e as the most recently used entry and evicts ready entries
// beyond capacity, least recently used first. Caller holds mu.
func (c *Cache[K, V]) insert(e *cacheEntry[K, V]) *list.Element {
	el := c.lru.PushFront(e)
	c.m[e.key] = el
	for back := c.lru.Back(); c.lru.Len() > c.cap && back != nil; {
		prev := back.Prev()
		if back.Value.(*cacheEntry[K, V]).done {
			c.remove(back)
			c.stats.Evictions++
		}
		back = prev
	}
	return el
}

// remove unlinks el. Caller holds mu.
func (c *Cache[K, V]) remove(el *list.Element) {
	delete(c.m, el.Value.(*cacheEntry[K, V]).key)
	c.lru.Remove(el)
}
