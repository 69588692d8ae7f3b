// Package cache implements a transactional in-memory key-value cache
// with CLOCK eviction — the memcached-shaped workload of the paper's
// Section 5.1. It demonstrates the library end to end:
//
//   - the index and eviction state are transactional (lookups, inserts
//     and evictions compose into callers' transactions);
//   - hit/miss statistics are recorded through post-commit hooks, so
//     aborted attempts never double-count;
//   - eviction events can be logged through atomic deferral: the paper's
//     observation is that memcached's transactional ports *delete* their
//     logging to avoid irrevocability, while atomic_defer keeps the
//     logging without serializing — this cache keeps it.
//
// Eviction uses the CLOCK approximation of LRU (as production caches
// do):each slot has a reference bit set on access; the eviction hand sweeps,
// clearing bits, and evicts the first unreferenced slot.
package cache

import (
	"fmt"
	"sync/atomic"

	"deferstm/internal/core"
	"deferstm/internal/stm"
)

// Cache is a fixed-capacity transactional string-keyed cache.
type Cache[V any] struct {
	rt       *stm.Runtime
	capacity int

	slots   []slot[V]
	buckets []stm.Var[*idxNode] // key -> slot index
	hand    stm.Var[int]
	size    stm.Var[int]

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64

	evictLog *EvictionLog // optional
}

type slot[V any] struct {
	key stm.Var[string] // "" = free
	val stm.Var[V]
	ref stm.Var[bool] // CLOCK reference bit
}

type idxNode struct {
	key  string
	slot int
	next *idxNode
}

// EvictionLog is a deferrable sink for eviction records (Listing 3's
// defer_fprintf pattern): writes are atomically deferred on the log.
type EvictionLog struct {
	core.Deferrable
	write func(record string) // invoked post-commit, under the log's lock
}

// NewEvictionLog wraps a writer function (e.g. a simio file append).
func NewEvictionLog(write func(record string)) *EvictionLog {
	return &EvictionLog{write: write}
}

// New creates a cache with the given capacity (minimum 1).
func New[V any](rt *stm.Runtime, capacity int) *Cache[V] {
	if capacity < 1 {
		capacity = 1
	}
	nBuckets := 1
	for nBuckets < capacity*2 {
		nBuckets <<= 1
	}
	return &Cache[V]{
		rt:       rt,
		capacity: capacity,
		slots:    make([]slot[V], capacity),
		buckets:  make([]stm.Var[*idxNode], nBuckets),
	}
}

// WithEvictionLog attaches a deferrable eviction log. Must be called
// before the cache is shared.
func (c *Cache[V]) WithEvictionLog(l *EvictionLog) *Cache[V] {
	c.evictLog = l
	return c
}

func hashKey(k string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(k); i++ {
		h ^= uint64(k[i])
		h *= 1099511628211
	}
	return h
}

func (c *Cache[V]) bucket(k string) *stm.Var[*idxNode] {
	return &c.buckets[hashKey(k)&uint64(len(c.buckets)-1)]
}

// lookup returns the slot index for k, or -1.
func (c *Cache[V]) lookup(tx *stm.Tx, k string) int {
	for n := c.bucket(k).Get(tx); n != nil; n = n.next {
		if n.key == k {
			return n.slot
		}
	}
	return -1
}

func (c *Cache[V]) indexInsert(tx *stm.Tx, k string, slotIdx int) {
	b := c.bucket(k)
	b.Set(tx, &idxNode{key: k, slot: slotIdx, next: b.Get(tx)})
}

func (c *Cache[V]) indexRemove(tx *stm.Tx, k string) {
	b := c.bucket(k)
	head := b.Get(tx)
	var rebuild func(n *idxNode) *idxNode
	rebuild = func(n *idxNode) *idxNode {
		if n == nil {
			return nil
		}
		if n.key == k {
			return n.next
		}
		return &idxNode{key: n.key, slot: n.slot, next: rebuild(n.next)}
	}
	b.Set(tx, rebuild(head))
}

// Get returns the cached value inside tx, recording a hit or miss (the
// statistic is committed with the transaction via a post-commit hook).
func (c *Cache[V]) Get(tx *stm.Tx, k string) (V, bool) {
	if idx := c.lookup(tx, k); idx >= 0 {
		s := &c.slots[idx]
		if !s.ref.Get(tx) {
			s.ref.Set(tx, true)
		}
		tx.AfterCommit(func() { c.hits.Add(1) })
		return s.val.Get(tx), true
	}
	tx.AfterCommit(func() { c.misses.Add(1) })
	var zero V
	return zero, false
}

// Put inserts or updates k inside tx, evicting a victim with the CLOCK
// sweep when full. It returns the evicted key ("" if none).
func (c *Cache[V]) Put(tx *stm.Tx, k string, v V) string {
	if k == "" {
		panic("cache: empty key")
	}
	if idx := c.lookup(tx, k); idx >= 0 {
		s := &c.slots[idx]
		s.val.Set(tx, v)
		s.ref.Set(tx, true)
		return ""
	}
	evicted := ""
	idx := -1
	if c.size.Get(tx) < c.capacity {
		// A free slot exists; find it (free slots have key "").
		for i := range c.slots {
			if c.slots[i].key.Get(tx) == "" {
				idx = i
				break
			}
		}
		c.size.Set(tx, c.size.Get(tx)+1)
	} else {
		idx = c.sweep(tx)
		victim := &c.slots[idx]
		evicted = victim.key.Get(tx)
		c.indexRemove(tx, evicted)
		tx.AfterCommit(func() { c.evictions.Add(1) })
		if c.evictLog != nil {
			rec := fmt.Sprintf("evict key=%q for key=%q\n", evicted, k)
			log := c.evictLog
			core.AtomicDefer(tx, func(ctx *core.OpCtx) {
				log.write(rec)
			}, log)
		}
	}
	s := &c.slots[idx]
	s.key.Set(tx, k)
	s.val.Set(tx, v)
	s.ref.Set(tx, true)
	c.indexInsert(tx, k, idx)
	return evicted
}

// sweep advances the CLOCK hand, clearing reference bits, and returns the
// first unreferenced occupied slot.
func (c *Cache[V]) sweep(tx *stm.Tx) int {
	h := c.hand.Get(tx)
	for i := 0; i < 2*len(c.slots)+1; i++ {
		s := &c.slots[h]
		if s.key.Get(tx) != "" {
			if !s.ref.Get(tx) {
				c.hand.Set(tx, (h+1)%len(c.slots))
				return h
			}
			s.ref.Set(tx, false)
		}
		h = (h + 1) % len(c.slots)
	}
	// All slots referenced twice around: take the current hand position.
	c.hand.Set(tx, (h+1)%len(c.slots))
	return h
}

// Delete removes k inside tx, reporting whether it was present.
func (c *Cache[V]) Delete(tx *stm.Tx, k string) bool {
	idx := c.lookup(tx, k)
	if idx < 0 {
		return false
	}
	s := &c.slots[idx]
	s.key.Set(tx, "")
	var zero V
	s.val.Set(tx, zero)
	s.ref.Set(tx, false)
	c.indexRemove(tx, k)
	c.size.Set(tx, c.size.Get(tx)-1)
	return true
}

// Len returns the number of cached entries inside tx.
func (c *Cache[V]) Len(tx *stm.Tx) int { return c.size.Get(tx) }

// Stats is a snapshot of the cache's counters.
type Stats struct {
	Hits, Misses, Evictions uint64
}

// Stats returns committed hit/miss/eviction counts (aborted transactions
// never count: the increments ride post-commit hooks).
func (c *Cache[V]) Stats() Stats {
	return Stats{Hits: c.hits.Load(), Misses: c.misses.Load(), Evictions: c.evictions.Load()}
}
