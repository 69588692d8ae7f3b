// Package ds provides transactional data structures built on the STM
// runtime: a hash map (the store's map), a bounded FIFO queue (the
// server's ack window), and a red-black tree (the paper's introduction
// motivates TM with exactly such irregular pointer structures — "the
// rebalancing operations of a red-black tree mutation").
package ds

import (
	"context"
	"hash/maphash"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"time"
	"unsafe"

	"deferstm/internal/core"
	"deferstm/internal/obs"
	"deferstm/internal/stm"
)

// HashMap is a transactional hash map built for multicore scaling:
//
//   - Per-bucket chain Vars whose box is the chain's first (immutable)
//     node, so operations on different buckets never conflict and a hit
//     on the head costs one dependent load after the bucket.
//   - The entry count is striped across cache-line-spaced counters
//     (stripe chosen from the key hash), so disjoint-key writers do not
//     serialize on a single size Var; Len sums the stripes
//     transactionally and stays exact.
//   - The bucket array lives behind a table indirection Var and doubles
//     when the entry count passes maxLoad per bucket, so a hit walks one
//     node or a little more. The inserting transaction flips a
//     resizing flag and uses core.AtomicDefer to acquire the map's lock
//     and run the rehash as the deferred operation after it commits (the
//     paper's atomic-deferral idiom: the expensive operation happens
//     post-commit, yet no transaction can observe a half-built table).
//     Migration proceeds in bounded chunks — each chunk is its own
//     deferral unit, so the map is never unavailable for O(n) time.
//
// Every operation subscribes to the map's implicit lock first, which is
// what makes the deferred rehash's direct stores safe: any transaction
// that could observe an intermediate table conflicts with the lock
// acquisition and aborts.
type HashMap[K, V comparable] struct {
	core.Deferrable
	seed     maphash.Seed
	table    stm.Var[*hmTable[K, V]]
	resizing stm.Var[bool] // a resize is triggered or in progress
	stripes  []sizeStripe
	resizes  atomic.Uint64  // completed resizes (diagnostics/tests)
	chunks   *obs.Histogram // migration chunk latency; nil: untimed (TimeResizes)
}

// hmTable is one immutable view of the map's bucket layout. Outside a
// migration old is nil and buckets holds every chain. During a migration
// buckets is the new (larger) array, old is the previous array, and
// old[frontier:] are the chains not yet moved: a key whose old index is
// >= frontier still lives in old, everything else lives in buckets. Each
// migrated chunk installs a fresh hmTable with an advanced frontier.
type hmTable[K, V comparable] struct {
	buckets  []stm.Var[mapNode[K, V]]
	old      []stm.Var[mapNode[K, V]]
	frontier int
}

// sizeStripe pads each counter out to its own pair of cache lines so
// commits to different stripes never false-share.
type sizeStripe struct {
	n stm.Var[int]
	_ [128 - unsafe.Sizeof(stm.Var[int]{})%128]byte // pad to a multiple of 128
}

// mapNode is one immutable chain node. A bucket is a Var[mapNode]: the
// Var's box is the head node itself (nil for an empty bucket), so an insert
// or overwrite allocates the node and nothing else.
type mapNode[K, V comparable] struct {
	key  K
	val  V
	next *mapNode[K, V]
}

const (
	minBuckets = 16
	// maxLoad is the entries-per-bucket ratio past which the map grows,
	// so it runs between maxLoad/2 and maxLoad and a hit walks 1.25–1.5
	// nodes on average. At 2 the benchmark's scan-beside-writes workload
	// paid 13% more CPU per operation (its table held 2 keys per bucket
	// instead of 1), and each doubling moves two nodes per old bucket
	// instead of one.
	maxLoad = 1
	// migrateChunkBuckets bounds the work done under the map lock by one
	// deferral unit; between chunks the lock is free and blocked
	// transactions proceed against the frontier view.
	migrateChunkBuckets = 64
)

// NewHashMap creates a map with nBuckets buckets (minimum 16).
func NewHashMap[K, V comparable](nBuckets int) *HashMap[K, V] {
	if nBuckets < minBuckets {
		nBuckets = minBuckets
	}
	m := &HashMap[K, V]{seed: maphash.MakeSeed(), stripes: make([]sizeStripe, stripeCount())}
	m.table.Init(&hmTable[K, V]{buckets: make([]stm.Var[mapNode[K, V]], nBuckets)})
	return m
}

// TimeResizes makes the map observe the latency of each resize-migration
// chunk on h and run its migrator under a pprof label. Call it before the
// map is shared: the map reads h unsynchronized.
func (m *HashMap[K, V]) TimeResizes(h *obs.Histogram) { m.chunks = h }

// stripeCount sizes the stripe array to the core count (power of two,
// clamped to [8, 64]) so concurrent size movers rarely collide.
func stripeCount() int {
	n := 8
	for n < runtime.GOMAXPROCS(0) && n < 64 {
		n *= 2
	}
	return n
}

func (m *HashMap[K, V]) hash(k K) uint64 { return maphash.Comparable(m.seed, k) }

// stripeFor picks a size stripe from high hash bits, decorrelated from
// the bucket index (low bits) so same-stripe and same-bucket conflicts
// are independent.
func (m *HashMap[K, V]) stripeFor(h uint64) *stm.Var[int] {
	return &m.stripes[(h>>32)%uint64(len(m.stripes))].n
}

// view subscribes to the map's lock and returns the current table. The
// subscription is mandatory before any table access: it orders the
// transaction against deferred rehash operations.
func (m *HashMap[K, V]) view(tx *stm.Tx) *hmTable[K, V] {
	m.Subscribe(tx)
	return m.table.Get(tx)
}

// bucketFor returns the chain Var holding key hash h under table t.
func (t *hmTable[K, V]) bucketFor(h uint64) *stm.Var[mapNode[K, V]] {
	if t.old != nil {
		if oi := int(h % uint64(len(t.old))); oi >= t.frontier {
			return &t.old[oi]
		}
	}
	return &t.buckets[h%uint64(len(t.buckets))]
}

// Get returns the value for k and whether it was present.
func (m *HashMap[K, V]) Get(tx *stm.Tx, k K) (V, bool) {
	h := m.hash(k)
	for n := m.view(tx).bucketFor(h).GetPtr(tx); n != nil; n = n.next {
		if n.key == k {
			return n.val, true
		}
	}
	var zero V
	return zero, false
}

// Put inserts or replaces k's value in a single chain pass, returning true
// if the key was new. Chains are immutable nodes: updates rebuild the chain
// prefix, so readers of other keys in the same bucket conflict only via the
// bucket head Var. Overwriting a key with an equal value is a no-op: the
// bucket is left untouched, so the transaction stays read-only on that
// bucket, its version does not move, and concurrent readers of the chain
// are not invalidated.
func (m *HashMap[K, V]) Put(tx *stm.Tx, k K, v V) bool {
	t := m.view(tx)
	h := m.hash(k)
	b := t.bucketFor(h)
	head := b.GetPtr(tx)
	for n := head; n != nil; n = n.next {
		if n.key == k {
			if n.val != v {
				b.SetPtr(tx, replaceNode(head, k, v))
			}
			return false
		}
	}
	b.SetPtr(tx, &mapNode[K, V]{key: k, val: v, next: head})
	s := m.stripeFor(h)
	n := s.Get(tx) + 1
	s.Set(tx, n)
	m.maybeGrow(tx, t, n)
	return true
}

// replaceNode rebuilds chain head..k with k's value replaced.
func replaceNode[K, V comparable](head *mapNode[K, V], k K, v V) *mapNode[K, V] {
	if head.key == k {
		return &mapNode[K, V]{key: k, val: v, next: head.next}
	}
	return &mapNode[K, V]{key: head.key, val: head.val, next: replaceNode(head.next, k, v)}
}

// Delete removes k, returning whether it was present. One pass: removeNode
// walks the chain once, rebuilding the prefix only if the key exists.
func (m *HashMap[K, V]) Delete(tx *stm.Tx, k K) bool {
	t := m.view(tx)
	h := m.hash(k)
	b := t.bucketFor(h)
	nh, ok := removeNode(b.GetPtr(tx), k)
	if !ok {
		return false
	}
	b.SetPtr(tx, nh)
	s := m.stripeFor(h)
	s.Set(tx, s.Get(tx)-1)
	return true
}

// removeNode returns the chain with k removed and whether k was found,
// copying only the prefix before k and only when k is present.
func removeNode[K, V comparable](head *mapNode[K, V], k K) (*mapNode[K, V], bool) {
	if head == nil {
		return nil, false
	}
	if head.key == k {
		return head.next, true
	}
	rest, ok := removeNode(head.next, k)
	if !ok {
		return head, false
	}
	return &mapNode[K, V]{key: head.key, val: head.val, next: rest}, true
}

// Len returns the number of entries: the transactional sum of the size
// stripes, exact under serializability.
func (m *HashMap[K, V]) Len(tx *stm.Tx) int {
	m.Subscribe(tx)
	total := 0
	for i := range m.stripes {
		total += m.stripes[i].n.Get(tx)
	}
	return total
}

// Range calls fn for each entry (inside tx) until fn returns false.
//
// During a migration it walks only the new buckets whose old index is
// below the frontier: the others are the targets of chunks not yet
// published, which migrateChunk fills with unversioned stores, so a
// reader holding an older table must never look at them.
func (m *HashMap[K, V]) Range(tx *stm.Tx, fn func(k K, v V) bool) {
	t := m.view(tx)
	stride, live := len(t.buckets), len(t.buckets)
	if t.old != nil {
		// New index i came from old index i % len(old): the migrated
		// buckets are the first frontier of every len(old)-long block.
		stride, live = len(t.old), t.frontier
	}
	for base := 0; base < len(t.buckets); base += stride {
		for i := base; i < base+live; i++ {
			for n := t.buckets[i].GetPtr(tx); n != nil; n = n.next {
				if !fn(n.key, n.val) {
					return
				}
			}
		}
	}
	if t.old == nil {
		return
	}
	for i := t.frontier; i < len(t.old); i++ {
		for n := t.old[i].GetPtr(tx); n != nil; n = n.next {
			if !fn(n.key, n.val) {
				return
			}
		}
	}
}

// Resizes reports how many resizes have completed (snapshot).
func (m *HashMap[K, V]) Resizes() uint64 { return m.resizes.Load() }

// Migrating reports whether a migration is in progress (snapshot).
func (m *HashMap[K, V]) Migrating() bool { return m.table.Load().old != nil }

// BucketCount reports the current bucket array length (snapshot).
func (m *HashMap[K, V]) BucketCount() int { return len(m.table.Load().buckets) }

// maybeGrow decides, after an insert, whether this transaction should
// trigger a resize: once the map holds more than maxLoad entries per
// bucket. A cheap gate comes first: stripeLen, the one stripe the insert
// has just written, times the number of stripes — stripes split the keys
// evenly, by hash bits the bucket index does not use — so almost every
// insert decides from nothing it had not read already (summing the stripes
// on each one would put every stripe in its read set and recreate the
// single-counter hotspot). The estimate scatters around the count, so only
// an insert it lets through sums the stripes (Len), and only the exact
// count triggers: a map sized to fit its keys never resizes. The trigger
// transaction flips the resizing flag (so exactly one committed
// transaction triggers) and defers beginResize under the map lock — the
// paper's pattern of moving a long operation out of the transaction while
// keeping it atomic.
func (m *HashMap[K, V]) maybeGrow(tx *stm.Tx, t *hmTable[K, V], stripeLen int) {
	if stripeLen*len(m.stripes) <= maxLoad*len(t.buckets) || t.old != nil {
		return
	}
	if m.resizing.Get(tx) || m.Len(tx) <= maxLoad*len(t.buckets) {
		return
	}
	m.resizing.Set(tx, true)
	core.AtomicDefer(tx, func(ctx *core.OpCtx) { m.beginResize(ctx) }, m)
}

// beginResize runs as a deferred operation holding the map lock: it
// installs the migrating table (new empty buckets, old array, frontier 0),
// migrates the first chunk, and — if chains remain — hands the rest to a
// background migrator. Direct stores are safe here because every map
// operation subscribes to the lock this operation holds. The table is
// sized for the count, which the trigger saw exceed maxLoad × buckets and
// no insert has moved since (the lock was taken at the trigger's commit):
// it at least doubles, and grows further when a bulk insert needs it.
func (m *HashMap[K, V]) beginResize(ctx *core.OpCtx) {
	t := core.Load(ctx, &m.table)
	if t.old != nil {
		return // already migrating (defensive; the resizing flag gates)
	}
	nt := &hmTable[K, V]{buckets: make([]stm.Var[mapNode[K, V]], m.fitLen(ctx, len(t.buckets))), old: t.buckets}
	if m.migrateChunk(ctx, nt) {
		// The migrator gets the runtime, not ctx: ctx is valid only until
		// this operation returns (core.OpCtx).
		go m.migrateLoop(ctx.Runtime())
	}
}

// fitLen doubles n until the map's entries fit n buckets at maxLoad. Must
// run holding the map lock: no insert can commit under it, so the stripes
// sum to the exact count, and one resize covers it however many keys
// arrived since the last.
func (m *HashMap[K, V]) fitLen(ctx *core.OpCtx, n int) int {
	entries := 0
	for i := range m.stripes {
		entries += core.Load(ctx, &m.stripes[i].n)
	}
	for entries > maxLoad*n {
		n *= 2
	}
	return n
}

// migrateChunk moves up to migrateChunkBuckets old chains into the new
// bucket array and installs the advanced-frontier table (or the final
// table, ending the migration). Must run holding the map lock. Reports
// whether chains remain.
//
// The chunk's target buckets are private until that one table store: no
// operation reaches a new bucket whose old index is >= frontier (bucketFor
// routes it to old, Range skips it), and no transaction has written one.
// So they are filled with Init, which takes no lock, ticks no clock and
// wakes no one, and a reader sees them at version 0 once the table store
// that follows — a versioned direct store, ordered after every Init —
// publishes the frontier that covers them.
func (m *HashMap[K, V]) migrateChunk(ctx *core.OpCtx, t *hmTable[K, V]) bool {
	if h := m.chunks; h != nil {
		defer func(t0 time.Time) { h.Observe(time.Since(t0)) }(time.Now())
	}
	end := t.frontier + migrateChunkBuckets
	if end > len(t.old) {
		end = len(t.old)
	}
	for i := t.frontier; i < end; i++ {
		for n := t.old[i].LoadPtr(); n != nil; n = n.next {
			// Rehash into the new array. Its length is the old one's
			// times a power of two, so the target bucket's nodes all
			// come from this chain; prepend each as it is moved.
			b := &t.buckets[m.hash(n.key)%uint64(len(t.buckets))]
			b.Init(mapNode[K, V]{key: n.key, val: n.val, next: b.LoadPtr()})
		}
	}
	if end == len(t.old) {
		m.resizes.Add(1)
		if n := m.fitLen(ctx, len(t.buckets)); n > len(t.buckets) {
			// Inserts outran the migration (they trigger nothing while one
			// is in flight): go straight on to the table they need, so a
			// settled map is never over its load.
			core.Store(ctx, &m.table, &hmTable[K, V]{buckets: make([]stm.Var[mapNode[K, V]], n), old: t.buckets})
			return true
		}
		core.Store(ctx, &m.table, &hmTable[K, V]{buckets: t.buckets})
		core.Store(ctx, &m.resizing, false)
		return false
	}
	core.Store(ctx, &m.table, &hmTable[K, V]{buckets: t.buckets, old: t.old, frontier: end})
	return true
}

// migrateLoop drives the remaining chunks from a plain goroutine under a
// fresh owner identity. Each chunk is one transaction deferring one
// operation — its own two-phase-locking unit — so the lock is released
// between chunks and map operations interleave with the migration. A
// failed TryAcquireAs means another owner holds the lock (a user-visible
// Lock() holder, or a second migrator after back-to-back resizes); we
// yield and retry, and stop as soon as a table with old == nil is seen.
func (m *HashMap[K, V]) migrateLoop(rt *stm.Runtime) {
	if m.chunks != nil {
		// Label the migrator so goroutine/CPU profiles from the debug
		// endpoint separate background rehashing from foreground work.
		pprof.Do(context.Background(), pprof.Labels("deferstm", "map-migrator"),
			func(context.Context) { m.migrateChunks(rt) })
		return
	}
	m.migrateChunks(rt)
}

func (m *HashMap[K, V]) migrateChunks(rt *stm.Runtime) {
	me := rt.NewOwner()
	for {
		migrating := false
		_ = rt.AtomicAs(me, func(tx *stm.Tx) error {
			migrating = false
			m.Subscribe(tx)
			t := m.table.Get(tx)
			if t.old == nil {
				return nil
			}
			migrating = true
			core.AtomicDeferTry(tx, func(ctx *core.OpCtx) {
				if nt := core.Load(ctx, &m.table); nt.old != nil {
					m.migrateChunk(ctx, nt)
				}
			}, m)
			return nil
		})
		if !migrating {
			return
		}
		runtime.Gosched()
	}
}
