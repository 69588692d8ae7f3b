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
// ds.HashMap but keyed for the store's API: per-bucket chain Vars with
// immutable nodes, striped size counters (so disjoint-key writers do not
// serialize on one size Var), and a load-factor-triggered resize whose
// rehash runs as a deferred operation under the map's implicit lock.
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
	buckets  []stm.Var[*snode]
	old      []stm.Var[*snode]
	frontier int
}

// countStripe pads each size counter to its own pair of cache lines.
type countStripe struct {
	n stm.Var[int]
	_ [128 - unsafe.Sizeof(stm.Var[int]{})%128]byte // pad to a multiple of 128
}

type snode struct {
	key  string
	val  string
	next *snode
}

const (
	smapMinBuckets   = 16
	smapMaxChain     = 8
	smapGrowFactor   = 4
	smapMigrateChunk = 64
)

func newSmap(nBuckets int) *smap {
	if nBuckets < smapMinBuckets {
		nBuckets = smapMinBuckets
	}
	m := &smap{seed: maphash.MakeSeed(), stripes: make([]countStripe, smapStripes())}
	m.table.Init(&stable{buckets: make([]stm.Var[*snode], nBuckets)})
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

func (t *stable) bucketFor(h uint64) *stm.Var[*snode] {
	if t.old != nil {
		if oi := int(h % uint64(len(t.old))); oi >= t.frontier {
			return &t.old[oi]
		}
	}
	return &t.buckets[h%uint64(len(t.buckets))]
}

func (m *smap) get(tx *stm.Tx, k string) (string, bool) {
	h := m.hash(k)
	for n := m.view(tx).bucketFor(h).Get(tx); n != nil; n = n.next {
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
	head := b.Get(tx)
	chain := 0
	for n := head; n != nil; n = n.next {
		chain++
		if n.key == k {
			if n.val == v {
				return
			}
			b.Set(tx, replaceSnode(head, k, v))
			return
		}
	}
	b.Set(tx, &snode{key: k, val: v, next: head})
	s := m.stripeFor(h)
	s.Set(tx, s.Get(tx)+1)
	m.maybeGrow(tx, t, chain+1)
	return
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
	nh, ok := removeSnode(b.Get(tx), k)
	if !ok {
		return false
	}
	b.Set(tx, nh)
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
		for n := t.buckets[i].Get(tx); n != nil; n = n.next {
			if !fn(n.key, n.val) {
				return
			}
		}
	}
	if t.old == nil {
		return
	}
	for i := t.frontier; i < len(t.old); i++ {
		for n := t.old[i].Get(tx); n != nil; n = n.next {
			if !fn(n.key, n.val) {
				return
			}
		}
	}
}

// approxLen sums the stripes non-transactionally: a trigger heuristic.
// Reading the stripes with Get here would put every stripe in the read
// set and recreate the single-counter hotspot.
func (m *smap) approxLen() int {
	total := 0
	for i := range m.stripes {
		total += m.stripes[i].n.Load()
	}
	return total
}

// maybeGrow triggers a resize after an insert left a chain of chainLen:
// the inserting transaction flips the resizing flag and defers the rehash
// under the map lock (see ds.HashMap.maybeGrow).
func (m *smap) maybeGrow(tx *stm.Tx, t *stable, chainLen int) {
	if chainLen <= smapMaxChain || t.old != nil {
		return
	}
	if m.approxLen() <= smapGrowFactor*len(t.buckets) {
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
// to a background migrator goroutine.
func (m *smap) beginResize(ctx *core.OpCtx) {
	t := core.Load(ctx, &m.table)
	if t.old != nil {
		return
	}
	newLen := 2 * len(t.buckets)
	for m.approxLen() > smapGrowFactor*newLen {
		newLen *= 2
	}
	nt := &stable{buckets: make([]stm.Var[*snode], newLen), old: t.buckets}
	if m.migrateChunk(ctx, nt) {
		go m.migrateLoop(ctx.Runtime())
	}
}

// migrateChunk moves up to smapMigrateChunk old chains and installs the
// advanced-frontier (or final) table. Must run holding the map lock.
// Reports whether chains remain.
func (m *smap) migrateChunk(ctx *core.OpCtx, t *stable) bool {
	if met := ctx.Runtime().Metrics(); met != nil {
		defer func(t0 time.Time) { met.ResizeChunk.Observe(time.Since(t0)) }(time.Now())
	}
	end := t.frontier + smapMigrateChunk
	if end > len(t.old) {
		end = len(t.old)
	}
	for i := t.frontier; i < end; i++ {
		for n := core.Load(ctx, &t.old[i]); n != nil; n = n.next {
			j := m.hash(n.key) % uint64(len(t.buckets))
			core.Store(ctx, &t.buckets[j],
				&snode{key: n.key, val: n.val, next: core.Load(ctx, &t.buckets[j])})
		}
	}
	if end == len(t.old) {
		core.Store(ctx, &m.table, &stable{buckets: t.buckets})
		core.Store(ctx, &m.resizing, false)
		m.resizes.Add(1)
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
