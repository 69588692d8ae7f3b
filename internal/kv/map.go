package kv

import (
	"context"
	"hash/maphash"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"time"
	"unsafe"

	"deferstm/internal/core"
	"deferstm/internal/stm"
)

// smap is a string-keyed transactional hash map, same construction as
// ds.HashMap but keyed for the store's API: per-bucket chain Vars whose
// box is the chain's first (immutable) node, striped size counters (so
// disjoint-key writers do not serialize on one size Var), and a resize,
// triggered by the entry count, whose rehash runs as a deferred operation
// under the map's implicit lock.
// Every operation subscribes to that lock first, which orders it against
// the deferred rehash's direct stores.
type smap struct {
	core.Deferrable
	seed     maphash.Seed
	table    stm.Var[*stable]
	resizing stm.Var[bool]
	stripes  []countStripe
	resizes  atomic.Uint64
}

// stable is one immutable view of the bucket layout; see ds.hmTable.
// Outside a migration old is nil; during one, old[frontier:] holds the
// chains not yet moved into buckets.
type stable struct {
	buckets  []stm.Var[snode]
	old      []stm.Var[snode]
	frontier int
}

// countStripe pads each size counter to its own pair of cache lines.
type countStripe struct {
	n stm.Var[int]
	_ [128 - unsafe.Sizeof(stm.Var[int]{})%128]byte // pad to a multiple of 128
}

// snode is one immutable chain node. A bucket is a Var[snode]: the Var's
// box is the head node itself (nil for an empty bucket), so a lookup that
// hits the head costs one dependent load after the bucket, and an insert
// or overwrite allocates the node and nothing else.
type snode struct {
	key  string
	val  string
	next *snode
}

const (
	smapMinBuckets = 16
	// smapMaxLoad is the entries-per-bucket ratio past which the map
	// doubles, so it runs between smapMaxLoad/2 and smapMaxLoad and a hit
	// walks one or two nodes. At 1 the benchmark's point and scan
	// workloads measured no faster (buckets are 32 bytes each, and a scan
	// reads every one), for 32 bytes more per key.
	smapMaxLoad      = 2
	smapMigrateChunk = 64
)

func newSmap(nBuckets int) *smap {
	if nBuckets < smapMinBuckets {
		nBuckets = smapMinBuckets
	}
	m := &smap{seed: maphash.MakeSeed(), stripes: make([]countStripe, smapStripes())}
	m.table.Init(&stable{buckets: make([]stm.Var[snode], nBuckets)})
	return m
}

func smapStripes() int {
	n := 8
	for n < runtime.GOMAXPROCS(0) && n < 64 {
		n *= 2
	}
	return n
}

func (m *smap) hash(k string) uint64 { return maphash.String(m.seed, k) }

// stripeFor picks a size stripe from high hash bits, decorrelated from
// the bucket index (low bits).
func (m *smap) stripeFor(h uint64) *stm.Var[int] {
	return &m.stripes[(h>>32)%uint64(len(m.stripes))].n
}

// view subscribes to the map's lock and returns the current table.
func (m *smap) view(tx *stm.Tx) *stable {
	m.Subscribe(tx)
	return m.table.Get(tx)
}

func (t *stable) bucketFor(h uint64) *stm.Var[snode] {
	if t.old != nil {
		if oi := int(h % uint64(len(t.old))); oi >= t.frontier {
			return &t.old[oi]
		}
	}
	return &t.buckets[h%uint64(len(t.buckets))]
}

func (m *smap) get(tx *stm.Tx, k string) (string, bool) {
	h := m.hash(k)
	for n := m.view(tx).bucketFor(h).GetPtr(tx); n != nil; n = n.next {
		if n.key == k {
			return n.val, true
		}
	}
	return "", false
}

// put inserts or replaces k's value in a single chain pass. Overwriting a
// key with a byte-equal value is a no-op: the bucket is left untouched, so
// the transaction stays read-only on that bucket, its version does not
// move, and concurrent readers of the chain are not invalidated.
func (m *smap) put(tx *stm.Tx, k, v string) {
	t := m.view(tx)
	h := m.hash(k)
	b := t.bucketFor(h)
	head := b.GetPtr(tx)
	for n := head; n != nil; n = n.next {
		if n.key == k {
			if n.val == v {
				return
			}
			b.SetPtr(tx, replaceSnode(head, k, v))
			return
		}
	}
	b.SetPtr(tx, &snode{key: k, val: v, next: head})
	s := m.stripeFor(h)
	n := s.Get(tx) + 1
	s.Set(tx, n)
	m.maybeGrow(tx, t, n)
}

func replaceSnode(head *snode, k, v string) *snode {
	if head.key == k {
		return &snode{key: k, val: v, next: head.next}
	}
	return &snode{key: head.key, val: head.val, next: replaceSnode(head.next, k, v)}
}

// delete removes k in a single chain pass (removeSnode both searches and
// rebuilds, copying the prefix only when the key exists).
func (m *smap) delete(tx *stm.Tx, k string) bool {
	t := m.view(tx)
	h := m.hash(k)
	b := t.bucketFor(h)
	nh, ok := removeSnode(b.GetPtr(tx), k)
	if !ok {
		return false
	}
	b.SetPtr(tx, nh)
	s := m.stripeFor(h)
	s.Set(tx, s.Get(tx)-1)
	return true
}

func removeSnode(head *snode, k string) (*snode, bool) {
	if head == nil {
		return nil, false
	}
	if head.key == k {
		return head.next, true
	}
	rest, ok := removeSnode(head.next, k)
	if !ok {
		return head, false
	}
	return &snode{key: head.key, val: head.val, next: rest}, true
}

// length is the transactional sum of the size stripes (exact).
func (m *smap) length(tx *stm.Tx) int {
	m.Subscribe(tx)
	total := 0
	for i := range m.stripes {
		total += m.stripes[i].n.Get(tx)
	}
	return total
}

func (m *smap) rangeAll(tx *stm.Tx, fn func(k, v string) bool) {
	t := m.view(tx)
	for i := range t.buckets {
		for n := t.buckets[i].GetPtr(tx); n != nil; n = n.next {
			if !fn(n.key, n.val) {
				return
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

// maybeGrow triggers a resize once the map holds more than smapMaxLoad
// entries per bucket: the inserting transaction flips the resizing flag
// and defers the rehash under the map lock (see ds.HashMap.maybeGrow).
// The entry count is estimated from stripeLen, the one stripe the insert
// has just written, times the number of stripes — stripes split the keys
// evenly, by hash bits the bucket index does not use — so the decision
// reads nothing the insert had not read already. (On a map of a few dozen
// keys the estimate is coarse and may double it early; it is beginResize,
// with the exact count, that sizes the table.)
func (m *smap) maybeGrow(tx *stm.Tx, t *stable, stripeLen int) {
	if stripeLen*len(m.stripes) <= smapMaxLoad*len(t.buckets) || t.old != nil {
		return
	}
	if m.resizing.Get(tx) {
		return
	}
	m.resizing.Set(tx, true)
	core.AtomicDefer(tx, func(ctx *core.OpCtx) { m.beginResize(ctx) }, m)
}

// beginResize runs as a deferred operation holding the map lock; it
// installs the migrating table, moves the first chunk, and hands the rest
// to a background migrator goroutine. The trigger was an estimate, so the
// table at least doubles whatever the exact count says.
func (m *smap) beginResize(ctx *core.OpCtx) {
	t := core.Load(ctx, &m.table)
	if t.old != nil {
		return
	}
	nt := &stable{buckets: make([]stm.Var[snode], m.fitLen(ctx, 2*len(t.buckets))), old: t.buckets}
	if m.migrateChunk(ctx, nt) {
		go m.migrateLoop(ctx.Runtime())
	}
}

// fitLen doubles n until the map's entries fit n buckets at smapMaxLoad.
// Must run holding the map lock: no insert can commit under it, so the
// stripes sum to the exact count, and one resize covers it however many
// keys arrived since the last.
func (m *smap) fitLen(ctx *core.OpCtx, n int) int {
	entries := 0
	for i := range m.stripes {
		entries += core.Load(ctx, &m.stripes[i].n)
	}
	for entries > smapMaxLoad*n {
		n *= 2
	}
	return n
}

// migrateChunk moves up to smapMigrateChunk old chains and installs the
// advanced-frontier (or final) table. Must run holding the map lock.
// Reports whether chains remain.
func (m *smap) migrateChunk(ctx *core.OpCtx, t *stable) bool {
	rt := ctx.Runtime()
	if met := rt.Metrics(); met != nil {
		defer func(t0 time.Time) { met.ResizeChunk.Observe(time.Since(t0)) }(time.Now())
	}
	end := t.frontier + smapMigrateChunk
	if end > len(t.old) {
		end = len(t.old)
	}
	for i := t.frontier; i < end; i++ {
		for n := t.old[i].LoadPtr(); n != nil; n = n.next {
			b := &t.buckets[m.hash(n.key)%uint64(len(t.buckets))]
			b.StoreDirectPtr(rt, &snode{key: n.key, val: n.val, next: b.LoadPtr()})
		}
	}
	if end == len(t.old) {
		m.resizes.Add(1)
		if n := m.fitLen(ctx, len(t.buckets)); n > len(t.buckets) {
			// Inserts outran the migration (they trigger nothing while one
			// is in flight): go straight on to the table they need, so a
			// settled map is never over its load.
			core.Store(ctx, &m.table, &stable{buckets: make([]stm.Var[snode], n), old: t.buckets})
			return true
		}
		core.Store(ctx, &m.table, &stable{buckets: t.buckets})
		core.Store(ctx, &m.resizing, false)
		return false
	}
	core.Store(ctx, &m.table, &stable{buckets: t.buckets, old: t.old, frontier: end})
	return true
}

// migrateLoop drives the remaining chunks under a fresh owner identity;
// each chunk is its own transaction + deferral unit, so the map lock is
// free between chunks. See ds.HashMap.migrateLoop.
func (m *smap) migrateLoop(rt *stm.Runtime) {
	if rt.Metrics() != nil {
		pprof.Do(context.Background(), pprof.Labels("deferstm", "map-migrator"),
			func(context.Context) { m.migrateChunks(rt) })
		return
	}
	m.migrateChunks(rt)
}

func (m *smap) migrateChunks(rt *stm.Runtime) {
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
