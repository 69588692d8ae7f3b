// Package core implements atomic deferral, the primary contribution of
// Zhou, Luchangco and Spear's "Extending Transactional Memory with Atomic
// Deferral" (SPAA/OPODIS 2017).
//
// A transaction may defer a long-running or irrevocable operation (file
// I/O, system calls, an expensive pure function) until after it commits,
// while remaining serializable: no concurrent transaction can observe the
// state between "the transaction committed" and "its deferred operation
// finished". The mechanism (the paper's Listing 1):
//
//   - every Deferrable object carries an implicit transaction-friendly
//     lock, and every transaction-safe method of the object subscribes to
//     that lock as its first action;
//   - AtomicDefer acquires the locks of all objects the deferred
//     operation may access, inside the deferring transaction (hence
//     deadlock-free: the acquisitions take effect atomically at commit);
//   - at commit the runtime validates, writes back, quiesces, and then
//     runs the deferred operations in order, releasing each operation's
//     locks as it completes; memory reclamation queued by the transaction
//     is delayed until all deferred operations are done.
//
// Correctness follows the paper's two-phase-locking argument: every lock
// needed by a deferred operation is acquired before the transaction's
// conceptual global lock is released at commit, so there is a pure
// acquire phase followed by a pure release phase.
//
// A deferral's record is recycled once its operation has run, so the
// *OpCtx an operation receives must not be used after the operation
// returns (see OpCtx).
package core

import (
	"context"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"deferstm/internal/stm"
	"deferstm/internal/txlock"
)

// pprofLabels tags deferred-operation execution so CPU/goroutine
// profiles taken through the -metrics debug endpoint attribute the
// post-commit tail to the deferral machinery rather than to whatever
// committer happened to run it.
var pprofLabels = pprof.Labels("deferstm", "deferred-op")

// opIDCtr numbers deferred operations for history recording; IDs are
// global so histories from several runtimes never collide.
var opIDCtr atomic.Uint64

// Object is the type-erased view of a deferrable object: anything that
// embeds Deferrable satisfies it. AtomicDefer accepts Objects so user
// structs can be passed directly.
type Object interface {
	deferrableLock() *txlock.Lock
}

// Deferrable is the base for objects that deferred operations may access
// (the paper's `deferrable class` annotation). Embed it in a struct whose
// shared fields are stm.Vars, and call Subscribe at the top of every
// transaction-safe method. The zero value is ready to use.
type Deferrable struct {
	lock txlock.Lock
}

func (d *Deferrable) deferrableLock() *txlock.Lock { return &d.lock }

// Subscribe elides the object's implicit lock inside tx: it blocks (via
// retry) until the lock is free or held by tx's owner, and leaves the
// lock's variable in tx's read set so any later acquisition aborts tx.
// The compiler extension described in the paper injects this call at the
// start of every transaction-safe method of a deferrable class; in Go,
// call it explicitly at the top of each method that touches shared fields.
func (d *Deferrable) Subscribe(tx *stm.Tx) {
	d.lock.Subscribe(tx)
}

// Lock exposes the implicit per-instance lock (diagnostics and tests).
func (d *Deferrable) Lock() *txlock.Lock { return &d.lock }

// Locked reports whether the implicit lock is currently held (snapshot).
func (d *Deferrable) Locked() bool { return d.lock.OwnerSnapshot() != 0 }

// Op is a deferred operation. It runs after the deferring transaction has
// committed and the runtime has quiesced, while the locks of its
// associated Deferrable objects are held. It receives an OpCtx carrying
// the runtime and the deferring transaction's lock-owner identity, so it
// can run follow-up transactions that reenter those locks.
type Op func(ctx *OpCtx)

// OpCtx is the execution context of a deferred operation. The *OpCtx an
// operation receives is valid only until the operation returns: it lives
// in the deferral's record, which is reused by a later deferral. Code that
// outlives the operation (a goroutine it starts) takes what it needs from
// ctx first, e.g. ctx.Runtime(). A context from NewOpCtx is the caller's
// and has no such limit.
type OpCtx struct {
	rt    *stm.Runtime
	owner stm.OwnerID
}

// NewOpCtx builds an operation context for code that holds deferrable
// locks without having been deferred — the "mix and match" pattern of the
// paper's Section 4.2: a plain goroutine that acquired an object's lock
// via (*txlock.Lock).AcquireOutside gets the same Load/Store/Atomic
// helpers a deferred operation has. owner must be the identity the locks
// are held under. Package wal uses this for Checkpoint, which takes the
// log lock from plain code.
func NewOpCtx(rt *stm.Runtime, owner stm.OwnerID) *OpCtx {
	return &OpCtx{rt: rt, owner: owner}
}

// Runtime returns the runtime the deferring transaction ran on.
func (c *OpCtx) Runtime() *stm.Runtime { return c.rt }

// Owner returns the deferring transaction's lock-owner identity. Locks of
// the operation's Deferrable objects are held under this identity while
// the operation runs.
func (c *OpCtx) Owner() stm.OwnerID { return c.owner }

// Atomic runs fn as a transaction that inherits the deferring
// transaction's owner identity, so subscriptions and acquisitions of the
// operation's own locks reenter rather than self-deadlock.
func (c *OpCtx) Atomic(fn func(tx *stm.Tx) error) error {
	return c.rt.AtomicAs(c.owner, fn)
}

// Load reads a Var non-transactionally from a deferred operation. It is
// safe for fields of Deferrable objects whose locks the operation holds.
func Load[T any](c *OpCtx, v *stm.Var[T]) T { return v.Load() }

// Store publishes x to v non-transactionally from a deferred operation,
// bumping v's version so concurrent transactions validate correctly. It is
// safe for fields of Deferrable objects whose locks the operation holds:
// subscription guarantees any transaction that could observe the store
// conflicts with the lock acquisition and aborts.
func Store[T any](c *OpCtx, v *stm.Var[T], x T) { v.StoreDirect(c.rt, x) }

// AtomicDefer defers op until after the enclosing transaction commits (the
// paper's atomic_defer). objs lists every Deferrable the operation may
// access; their implicit locks are acquired inside tx (atomically at
// commit, hence without deadlock) and released as the operation completes.
// Deferred operations of one transaction run in registration order, after
// the runtime has quiesced, and each sees the effects of earlier ones.
//
// Passing no objects is allowed (the paper's "pass nil" variant for
// unordered logging): the operation then runs post-commit with no lock
// protection, and is atomic only in the sense that it happens after the
// transaction's writes are visible.
//
// If the operation accesses a shared object not listed in objs, a data
// race may occur — exactly the proviso of the paper's Section 4.1.
func AtomicDefer(tx *stm.Tx, op Op, objs ...Object) {
	// Acquire phase (two-phase locking): all locks the operation needs,
	// acquired within the transaction.
	d := newDeferred(tx, op)
	for _, o := range objs {
		if o == nil {
			continue
		}
		l := o.deferrableLock()
		l.AcquireAs(tx, d.ctx.owner)
		d.locks = append(d.locks, l)
	}
	d.enqueue(tx)
}

// AtomicDeferTry is AtomicDefer with non-blocking lock acquisition: if
// any object's lock is held by another owner it backs the acquisitions
// out (inside tx, so nothing escapes) and returns false without
// deferring op. Use it for optional post-commit work that some other
// owner may already be performing — e.g. one chunk of an incremental
// map migration, where a busy lock means another helper holds the
// critical section and this transaction need not wait for it.
func AtomicDeferTry(tx *stm.Tx, op Op, objs ...Object) bool {
	d := newDeferred(tx, op)
	me := d.ctx.owner
	for _, o := range objs {
		if o == nil {
			continue
		}
		l := o.deferrableLock()
		if !l.TryAcquireAs(tx, me) {
			for _, held := range d.locks {
				// Acquired earlier in this same transaction, so the
				// release cannot fail.
				if err := held.ReleaseAs(tx, me); err != nil {
					panic("core: try-defer backout failed: " + err.Error())
				}
			}
			return false
		}
		d.locks = append(d.locks, l)
	}
	d.enqueue(tx)
	return true
}

// deferred is one deferred operation: everything its post-commit run needs,
// in one object. locks starts out backed by inline, which holds the usual
// one or two objects without a second. A committed deferral's object goes
// back to deferredPool once it has run; an aborted attempt's is dropped.
type deferred struct {
	ctx    OpCtx
	op     Op
	opID   uint64 // nonzero while a recorder is attached
	locks  []*txlock.Lock
	inline [2]*txlock.Lock
	runFn  func() // d.run, bound once per object
}

var deferredPool sync.Pool

func newDeferred(tx *stm.Tx, op Op) *deferred {
	d, _ := deferredPool.Get().(*deferred)
	if d == nil {
		d = &deferred{}
		d.locks = d.inline[:0]
		d.runFn = d.run
	}
	d.ctx = OpCtx{rt: tx.Runtime(), owner: tx.Owner()}
	d.op = op
	return d
}

// enqueue queues d to run after tx commits; d.locks are all acquired
// inside tx by now.
func (d *deferred) enqueue(tx *stm.Tx) {
	rt, me := d.ctx.rt, d.ctx.owner
	if rt.Recording() {
		d.opID = opIDCtr.Add(1)
		tx.RecordOnCommit(stm.Event{Kind: stm.EvDeferEnqueue, Owner: me, Aux: d.opID})
		for _, l := range d.locks {
			tx.RecordOnCommit(stm.Event{Kind: stm.EvDeferLock, Owner: me, Aux: d.opID, Var: l.VarID()})
		}
	}
	tx.AfterCommit(d.runFn)
}

// run is the post-commit hook: the operation, holding d.locks, then their
// release. Then d is recycled, which is why an OpCtx must not outlive its
// operation.
func (d *deferred) run() {
	rt, me := d.ctx.rt, d.ctx.owner
	if d.opID != 0 {
		rt.RecordEvent(stm.Event{Kind: stm.EvDeferStart, Owner: me, Aux: d.opID})
	}
	met := rt.Metrics()
	var h0 time.Time
	if met != nil {
		h0 = time.Now()
	}
	defer func() {
		// Release phase: even if the operation panics, the locks
		// must not leak (concurrent subscribers would block
		// forever); release, then let the panic propagate.
		releaseAll(rt, me, d.locks)
		if met != nil {
			// Lock hold time spans the operation *and* the release
			// publish: that whole window is what concurrent
			// subscribers of these objects wait out.
			met.DeferLockHold.Observe(time.Since(h0))
		}
		rt.Stats().DeferredOps.Add(1)
		if d.opID != 0 {
			rt.RecordEvent(stm.Event{Kind: stm.EvDeferEnd, Owner: me, Aux: d.opID})
		}
		clear(d.locks)
		d.ctx, d.op, d.opID, d.locks = OpCtx{}, nil, 0, d.locks[:0]
		deferredPool.Put(d)
	}()
	if met != nil {
		pprof.Do(context.Background(), pprofLabels, func(context.Context) { d.op(&d.ctx) })
	} else {
		d.op(&d.ctx)
	}
}

// releaseAll gives the operation's locks up one by one, each a direct
// publish by their holder (txlock.ReleaseOutside): the shrink phase of the
// two-phase-locking unit. The releases cannot fail: the locks were acquired
// under me by the committed transaction. A reentrant depth >1 (the same
// object deferred by a later operation of the same transaction) just
// decrements.
func releaseAll(rt *stm.Runtime, me stm.OwnerID, locks []*txlock.Lock) {
	for _, l := range locks {
		if err := l.ReleaseOutside(rt, me); err != nil {
			panic("core: deferred release failed: " + err.Error())
		}
	}
}
