package service

import (
	"sync"
	"sync/atomic"
)

// CacheStats is a point-in-time counter snapshot of one cache.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Capacity  int    `json:"capacity"`
}

// lruCache is an LRU map from canonical request keys to values under one
// mutex: a map finds the entry and an intrusive doubly-linked recency
// list orders the entries, so Get and Add are O(1) under the lock and a
// full cache evicts its least recently used entry. Values are stored as
// given — callers share them across goroutines, so they must be
// immutable once inserted (compiled core.Frozen evaluators, optimizer
// results and campaign results all are).
type lruCache[V any] struct {
	mu       sync.Mutex
	entries  map[string]*lruEntry[V]
	head     *lruEntry[V] // most recently used
	tail     *lruEntry[V] // least recently used
	capacity int

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

type lruEntry[V any] struct {
	key        string
	val        V
	prev, next *lruEntry[V]
}

// newLRU returns a cache bounded to capacity entries (at least one).
func newLRU[V any](capacity int) *lruCache[V] {
	return &lruCache[V]{entries: make(map[string]*lruEntry[V]), capacity: max(capacity, 1)}
}

// Get returns the cached value and marks it most recently used.
func (c *lruCache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		c.mu.Unlock()
		c.misses.Add(1)
		var zero V
		return zero, false
	}
	c.moveToFront(e)
	v := e.val
	c.mu.Unlock()
	c.hits.Add(1)
	return v, true
}

// Add inserts (or refreshes) a value, evicting the least recently used
// entry when the cache is full.
func (c *lruCache[V]) Add(key string, v V) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		e.val = v
		c.moveToFront(e)
		c.mu.Unlock()
		return
	}
	e := &lruEntry[V]{key: key, val: v}
	c.entries[key] = e
	c.pushFront(e)
	evicted := len(c.entries) > c.capacity
	if evicted {
		victim := c.tail
		c.unlink(victim)
		delete(c.entries, victim.key)
	}
	c.mu.Unlock()
	if evicted {
		c.evictions.Add(1)
	}
}

// Hot returns up to limit (key, value) pairs in most-recently-used order,
// walking the recency list from its head; reading does not touch
// recency. It is the export side of peer warm-fill: a joining fleet
// replica pulls these entries from its neighbour instead of cold-solving
// them.
func (c *lruCache[V]) Hot(limit int) (keys []string, vals []V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for e := c.head; e != nil && len(keys) < limit; e = e.next {
		keys = append(keys, e.key)
		vals = append(vals, e.val)
	}
	return keys, vals
}

// Stats snapshots the cache counters.
func (c *lruCache[V]) Stats() CacheStats {
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   n,
		Capacity:  c.capacity,
	}
}

// --- intrusive recency list (callers hold c.mu) ---

func (c *lruCache[V]) pushFront(e *lruEntry[V]) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *lruCache[V]) unlink(e *lruEntry[V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *lruCache[V]) moveToFront(e *lruEntry[V]) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}
