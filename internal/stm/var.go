package stm

import (
	"sync/atomic"
)

// A Var's lock word packs a version number and a lock bit:
//
//	word = version<<1 | locked
//
// While locked, the version bits still hold the pre-lock version; the
// holder is a committing transaction with the var in its write set, or a
// StoreDirect. Versions are drawn from the runtime's global clock.
const lockedBit uint64 = 1

func wordLocked(w uint64) bool    { return w&lockedBit != 0 }
func wordVersion(w uint64) uint64 { return w >> 1 }
func packVersion(v uint64) uint64 { return v << 1 }

var varIDCtr atomic.Uint64

// varMeta is the type-erased portion of a Var: its identity, the versioned
// lock, and the way to what few Vars need. It is what read sets, write
// sets and lock-ordering operate on. With the value pointer a Var is 32
// bytes — two to a cache line in a bucket array — and TestVarLayout keeps
// it there.
type varMeta struct {
	id   uint64 // unique, allocation-ordered; used to sort write sets
	lock atomic.Uint64
	// side is nil until a retry first parks on the var or a commit first
	// supersedes its value under a live snapshot, and then stays for the
	// var's lifetime (the watcher protocol needs a stable set).
	side atomic.Pointer[varSide]
}

// varSide is the cold part of a Var, allocated on first need.
type varSide struct {
	// hist is the var's version chain: superseded values kept for active
	// snapshot readers, newest first (nil while no snapshot needs them;
	// see snapshot.go). Only publishers holding the var's lock bit link
	// or cut nodes; snapshot readers walk it lock-free.
	hist atomic.Pointer[histNode]
	// watch is the retry-watcher set (see watch.go).
	watch watchSet
}

// ensureSide returns the var's side struct, installing one on first use.
func (m *varMeta) ensureSide() *varSide {
	if s := m.side.Load(); s != nil {
		return s
	}
	m.side.CompareAndSwap(nil, new(varSide))
	return m.side.Load()
}

// histHead returns the newest node of the var's version chain, or nil.
func (m *varMeta) histHead() *histNode {
	if s := m.side.Load(); s != nil {
		return s.hist.Load()
	}
	return nil
}

// txVar is the type-erased interface a Var presents to the commit path.
type txVar interface {
	meta() *varMeta
	// publish stores a pending boxed value (a *T produced by Set) as the
	// committed snapshot, first linking the superseded value onto the
	// version chain when an active snapshot (horizon) may need it. It is
	// only called while the var's lock bit is held by the committing
	// transaction. wv is the commit version, horizon the runtime's
	// snapshot truncation horizon and depth the chain bound, both loaded
	// once per commit; the return value is the number of chain nodes the
	// depth bound truncated away from still-registered snapshots.
	publish(pending any, wv, horizon uint64, depth int) int
}

// Var is a transactional variable holding a value of type T. The committed
// value is an immutable boxed snapshot: transactional writes buffer a new
// box in the transaction's redo log and commit publishes it. All access
// paths are race-free under the Go memory model.
//
// The zero Var is valid and holds the zero value of T.
type Var[T any] struct {
	m   varMeta
	val atomic.Pointer[T]
}

// NewVar creates a Var holding init.
func NewVar[T any](init T) *Var[T] {
	v := &Var[T]{}
	v.m.id = varIDCtr.Add(1)
	v.val.Store(&init)
	return v
}

func (v *Var[T]) meta() *varMeta { return &v.m }

func (v *Var[T]) publish(pending any, wv, horizon uint64, depth int) int {
	dropped := v.pushHist(wv, horizon, depth)
	v.val.Store(pending.(*T))
	return dropped
}

// pushHist links the currently committed value (about to be superseded
// at version wv) onto the version chain, then enforces the horizon and
// depth bounds. Must be called with the var's lock bit held — the
// version bits beneath it still carry the superseded value's commit
// version, and holding it serializes all chain mutation.
func (v *Var[T]) pushHist(wv, horizon uint64, depth int) int {
	if horizon == noSnapshotHorizon || depth <= 0 {
		// No active snapshot anywhere: nobody can ever read the old
		// value again, and any retained chain is garbage — drop it so
		// idle memory is one value per var (and the side struct, on a
		// var that ever needed one).
		if s := v.m.side.Load(); s != nil && s.hist.Load() != nil {
			s.hist.Store(nil)
		}
		return 0
	}
	if horizon >= wv {
		// Every active snapshot pinned at or after this commit draws
		// its timestamp ≥ wv, so all of them want the NEW value; the
		// superseded one needs no node. (Existing nodes, if any, all
		// have until ≤ wv ≤ horizon and are unreachable, but cutting
		// them here would cost a load on every commit — the next push
		// with horizon < wv trims them.)
		return 0
	}
	s := v.m.ensureSide()
	n := &histNode{val: v.val.Load(), ver: wordVersion(v.m.lock.Load()), until: wv}
	n.next.Store(s.hist.Load())
	s.hist.Store(n)
	return trimHist(n, horizon, depth)
}

// trimHist cuts the chain after the last node some active snapshot can
// still need (until > horizon), bounded at depth nodes total. It
// returns how many still-needed nodes the depth bound discarded —
// snapshots old enough to want those will miss and fall back. Cutting
// mutates only a kept node's next pointer (atomically, to nil); a
// reader that already walked past the cut sees immutable, still-correct
// nodes.
func trimHist(head *histNode, horizon uint64, depth int) int {
	kept := 1 // head
	n := head
	for {
		next := n.next.Load()
		if next == nil {
			return 0
		}
		if kept >= depth || next.until <= horizon {
			dropped := 0
			for m := next; m != nil && m.until > horizon; m = m.next.Load() {
				dropped++
			}
			n.next.Store(nil)
			return dropped
		}
		kept++
		n = next
	}
}

// ensureID lazily assigns an ID to zero-value Vars (those not built with
// NewVar). IDs order write-set lock acquisition; a stable nonzero ID is
// required once the var participates in a commit — or in a watcher
// registration, whose recorded event must name the same var a later
// write names (see parkOnReadSet).
func (m *varMeta) ensureID() {
	if atomic.LoadUint64(&m.id) == 0 {
		atomic.CompareAndSwapUint64(&m.id, 0, varIDCtr.Add(1))
	}
}

func (v *Var[T]) ensureID() { v.m.ensureID() }

// idLoad reads the ID with the atomicity ensureID's CAS requires: a
// var shared before its first commit can have its ID assigned by one
// goroutine while another records an event naming it — a plain read
// here is a data race against the (possibly failing) CAS.
func (m *varMeta) idLoad() uint64 { return atomic.LoadUint64(&m.id) }

// ID returns the Var's unique identifier, as used in recorded history
// events (Event.Var), assigning one if the Var has never been written.
func (v *Var[T]) ID() uint64 {
	v.ensureID()
	return atomic.LoadUint64(&v.m.id)
}

// Init sets a Var's value before the Var is shared with other goroutines
// (e.g. in a constructor). It performs no synchronization or version bump;
// using it on a Var concurrently accessed by transactions is a data race —
// use Set or StoreDirect instead.
func (v *Var[T]) Init(x T) { v.val.Store(&x) }

// Get reads the Var inside transaction tx, with TL2 consistency: the value
// returned is guaranteed to belong to a snapshot no newer than the
// transaction's read version (extending the read version when possible).
// Get never returns an inconsistent value; if consistency cannot be
// established the transaction aborts (via panic, caught by Atomic) and
// re-executes.
func (v *Var[T]) Get(tx *Tx) T { return deref(v.GetPtr(tx)) }

// GetPtr is Get without the copy: it returns the Var's box itself — nil
// for a Var that holds no box (the zero Var, or one SetPtr emptied). A
// box is immutable from the moment it is handed to the Var: whoever gets
// one from GetPtr or LoadPtr must never write through it, and whoever
// passes one to SetPtr or StoreDirectPtr must never write through it
// again. In exchange a reader of a large T, or of a T that is the head of
// an immutable linked structure, pays no copy and no second indirection.
func (v *Var[T]) GetPtr(tx *Tx) *T {
	tx.mustBeActive()
	if len(tx.writes) != 0 {
		if idx := tx.findWrite(&v.m); idx >= 0 {
			return tx.writes[idx].pending.(*T)
		}
	}
	if tx.snap {
		return v.snapGet(tx)
	}
	if tx.serial {
		// Serial transactions run alone; direct read.
		return v.val.Load()
	}
	for {
		w1 := v.m.lock.Load()
		if wordLocked(w1) {
			tx.abortConflict()
		}
		p := v.val.Load()
		w2 := v.m.lock.Load()
		if w1 != w2 {
			continue // concurrent commit touched v; re-read
		}
		if wordVersion(w1) > tx.rv {
			// The var was committed after we began. Try to extend
			// our read version; abort if our prior reads are stale.
			if !tx.extend() {
				tx.abortConflict()
			}
			continue
		}
		tx.recordRead(&v.m, w1)
		return p
	}
}

// snapGet resolves a read at the transaction's pinned snapshot version:
// the current box if it is old enough, else the newest version-chain
// entry whose validity window [ver, until) covers the pin. It never
// validates, never extends and never aborts on conflict — a concurrent
// commit's lock bit is only spun through, exactly like Load. If the
// chain was depth-truncated past the pin, it misses and aborts the
// attempt with abortSnapshot, and the Atomic loop re-runs fn on the
// validating read-only path (never a wrong value).
func (v *Var[T]) snapGet(tx *Tx) *T {
	sv := tx.rv
	for {
		w1 := v.m.lock.Load()
		if wordLocked(w1) {
			// An in-flight publish may be installing the version the
			// pin needs; wait it out rather than guessing.
			spinPause()
			continue
		}
		if wordVersion(w1) <= sv {
			p := v.val.Load()
			if v.m.lock.Load() != w1 {
				continue // concurrent commit touched v; re-read
			}
			tx.snapRead(&v.m, wordVersion(w1))
			return p
		}
		// Current value is newer than the pin: resolve through the
		// chain. Having observed the lock word unlocked at a version
		// > sv, every superseding writer's publish — which links the
		// chain node before releasing the lock — is fully visible, so
		// if the committed-at-sv value is retained at all, it is here.
		// Windows descend strictly, so the walk stops at the first node
		// too old to matter.
		for n := v.m.histHead(); n != nil; n = n.next.Load() {
			if n.until <= sv {
				break
			}
			if n.ver <= sv {
				tx.snapRead(&v.m, n.ver)
				return n.val.(*T)
			}
		}
		panic(txSignal{abortSnapshot})
	}
}

func deref[T any](p *T) T {
	if p == nil {
		var zero T
		return zero
	}
	return *p
}

// Set buffers a transactional write of x to the Var. The write becomes
// visible to other transactions only if tx commits.
func (v *Var[T]) Set(tx *Tx, x T) { v.SetPtr(tx, &x) }

// SetPtr is Set of a box the caller built (nil empties the Var: it then
// reads as the zero T). See GetPtr for the aliasing contract.
func (v *Var[T]) SetPtr(tx *Tx, p *T) {
	tx.mustBeActive()
	if len(tx.writes) != 0 {
		if idx := tx.findWrite(&v.m); idx >= 0 {
			tx.writes[idx].pending = p
			return
		}
	}
	v.ensureID()
	tx.recordWrite(v, &v.m, p)
}

// Load returns the committed value without a transaction. The read is an
// atomic snapshot (it spins while a commit holds the var locked), but the
// caller is responsible for privatization safety: per the paper's Section
// 2, non-transactional access is only safe once every transaction that may
// access the var has completed — which is what the runtime's post-commit
// quiescence guarantees for data privatized by a committed transaction.
func (v *Var[T]) Load() T { return deref(v.LoadPtr()) }

// LoadPtr is Load without the copy; see GetPtr for the aliasing contract.
func (v *Var[T]) LoadPtr() *T {
	for {
		w1 := v.m.lock.Load()
		if wordLocked(w1) {
			spinPause()
			continue
		}
		p := v.val.Load()
		w2 := v.m.lock.Load()
		if w1 == w2 {
			return p
		}
	}
}

// StoreDirect publishes x outside any transaction, bumping the var's
// version so that running transactions observe the change and validate
// correctly. It is the primitive deferred operations use to update fields
// of deferrable objects they hold locked: because every transactional
// access to such fields is preceded by a lock subscription, concurrent
// transactions will abort rather than observe an intermediate state, and
// the version bump makes the update visible to TL2 validation immediately.
//
// rt must be the runtime whose transactions access v.
func (v *Var[T]) StoreDirect(rt *Runtime, x T) { v.StoreDirectPtr(rt, &x) }

// StoreDirectPtr is StoreDirect of a box the caller built (nil empties
// the Var). See GetPtr for the aliasing contract. It is a serial commit
// of a write set of one entry, minus the drain: the same lock → tick →
// publish → record → unlock → wake (see atomic.go).
func (v *Var[T]) StoreDirectPtr(rt *Runtime, p *T) {
	v.ensureID()
	// Filled in place: a composite literal goes through a temporary whose
	// copy stalls on store forwarding (~7 ns of a ~42 ns store).
	var ws [1]writeEntry
	ws[0].v, ws[0].m, ws[0].pending = v, &v.m, p
	rt.publishAndUnlock(ws[:], rt.lockAndTick(ws[:]), nil, 0)
	rt.wake(ws[:])
}

// Version reports the var's current commit version (diagnostics/tests).
func (v *Var[T]) Version() uint64 { return wordVersion(v.m.lock.Load()) }

// Watchers reports how many retry waiters are currently registered on
// the Var (diagnostics and watcher-leak tests; see watch.go).
func (v *Var[T]) Watchers() int {
	if s := v.m.side.Load(); s != nil {
		return int(s.watch.n.Load())
	}
	return 0
}
