// Package mempool provides a size-classed buffer pool.
//
// The paper's Listing 1 delays a transaction's frees until its deferred
// operations have completed. Here a buffer that a transaction or a
// deferred operation can still reach stays alive through the garbage
// collector, and the pool's only user, dedup, releases each buffer inside
// the deferred write that last reads it, so no free list is needed
// (DESIGN §5, "No free list").
package mempool

import (
	"sync"
	"sync/atomic"
)

const (
	minClassShift = 6  // 64 B
	maxClassShift = 22 // 4 MiB
	numClasses    = maxClassShift - minClassShift + 1
)

// Pool is a size-classed []byte allocator. Buffers are recycled through
// per-class free lists. The zero value is ready to use.
type Pool struct {
	mu      sync.Mutex
	classes [numClasses][][]byte

	allocs      atomic.Uint64
	reuses      atomic.Uint64
	frees       atomic.Uint64
	outstanding atomic.Int64
}

// New returns an empty Pool.
func New() *Pool { return &Pool{} }

// classFor returns the smallest size class index whose capacity >= n, and
// that capacity. Requests larger than the largest class are allocated
// exactly and never recycled (class -1).
func classFor(n int) (int, int) {
	if n <= 0 {
		n = 1
	}
	size := 1 << minClassShift
	for c := 0; c < numClasses; c++ {
		if n <= size {
			return c, size
		}
		size <<= 1
	}
	return -1, n
}

// Alloc returns a buffer of length n (capacity possibly larger), reusing a
// previously freed buffer when one is available. The contents are not
// zeroed for recycled buffers — callers own initialization, as with
// malloc.
func (p *Pool) Alloc(n int) []byte {
	p.allocs.Add(1)
	p.outstanding.Add(1)
	c, size := classFor(n)
	if c >= 0 {
		p.mu.Lock()
		if l := len(p.classes[c]); l > 0 {
			buf := p.classes[c][l-1]
			p.classes[c] = p.classes[c][:l-1]
			p.mu.Unlock()
			p.reuses.Add(1)
			return buf[:n]
		}
		p.mu.Unlock()
	}
	return make([]byte, n, size)
}

// Release returns a buffer to the pool immediately. Call it only from
// code that owns the buffer exclusively: never inside a transaction body,
// which may re-execute, and only once no reader of the buffer is left.
func (p *Pool) Release(buf []byte) {
	if buf == nil {
		return
	}
	p.frees.Add(1)
	p.outstanding.Add(-1)
	c, size := classFor(cap(buf))
	if c < 0 || cap(buf) != size {
		// Oversized or odd-capacity buffer: let the GC have it.
		// (cap mismatch happens only for buffers not from this pool.)
		if c >= 0 && cap(buf) >= 1<<minClassShift {
			// Round down to the class that fits entirely within cap.
			for c >= 0 && (1<<(minClassShift+c)) > cap(buf) {
				c--
			}
			if c >= 0 {
				p.mu.Lock()
				p.classes[c] = append(p.classes[c], buf[:1<<(minClassShift+c)])
				p.mu.Unlock()
			}
		}
		return
	}
	p.mu.Lock()
	p.classes[c] = append(p.classes[c], buf[:size])
	p.mu.Unlock()
}

// PoolStats is a snapshot of pool counters.
type PoolStats struct {
	Allocs      uint64
	Reuses      uint64
	Frees       uint64
	Outstanding int64 // allocs - frees; >0 means buffers in flight
}

// Stats returns current counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Allocs:      p.allocs.Load(),
		Reuses:      p.reuses.Load(),
		Frees:       p.frees.Load(),
		Outstanding: p.outstanding.Load(),
	}
}
