// Package txlock implements the paper's transaction-friendly mutual
// exclusion locks (Listing 2): reentrant mutexes whose owner and depth are
// ordinary transactional data, so that
//
//   - locks can be acquired and released inside transactions — acquisition
//     is just a transactional write, so acquiring several locks inside one
//     transaction is deadlock-free without a global lock order;
//   - transactions can *subscribe* to a lock: a transactional read of the
//     lock's variable that retries while the lock is held by someone else.
//     Once any thread acquires the lock, every subscribed transaction
//     conflicts with the new owner's commit and aborts.
//
// The owner and depth are one transactional variable holding one immutable
// {owner, depth} box (no box at all while the lock is unheld): not a
// machine word, as the paper's TxLock is, but a single pointer, so every
// reader — transactional, serial, snapshot or plain — sees the pair from one
// instant, an acquisition or release writes one location, and the TM
// provides the fence semantics the paper relies on.
package txlock

import (
	"errors"
	"fmt"

	"deferstm/internal/stm"
)

// ErrNotOwner is returned (wrapped) when Release is called by a
// non-owner. The paper's Listing 2 makes lock handoff a fatal error; we
// surface it as an error so callers and tests can tell it from success.
var ErrNotOwner = errors.New("txlock: release by non-owner")

// state is what a held lock's variable points to. A box is immutable once
// published; every transition installs a new one, or none (unheld).
type state struct {
	owner stm.OwnerID
	depth int // reentrancy depth, >= 1
}

// released is the state one Release by the owner leaves behind.
func (s *state) released() *state {
	if s.depth == 1 {
		return nil
	}
	return &state{owner: s.owner, depth: s.depth - 1}
}

// ownerOrZero and depthOrZero read a possibly-absent box: no box is the
// unheld lock, owner 0 at depth 0.
func (s *state) ownerOrZero() stm.OwnerID {
	if s == nil {
		return 0
	}
	return s.owner
}

func (s *state) depthOrZero() int {
	if s == nil {
		return 0
	}
	return s.depth
}

// notOwner is the error for a release by me of a lock in state cur.
func notOwner(cur *state, me stm.OwnerID) error {
	return fmt.Errorf("%w (owner=%d, caller=%d)", ErrNotOwner, cur.ownerOrZero(), me)
}

// Lock is a transaction-friendly, reentrant mutual exclusion lock.
// The zero value is an unlocked Lock, so it can be embedded directly in
// deferrable objects (package core relies on this). A Lock must not be
// copied after first use.
type Lock struct {
	st stm.Var[state] // nil box = unheld
}

// NewLock returns an unlocked Lock.
func NewLock() *Lock { return &Lock{} }

// Acquire obtains the lock inside tx on behalf of tx's owner identity
// (Listing 2, TxLock.Acquire). If the lock is unheld it becomes owned at
// depth 1; if already held by this owner the depth increments; otherwise
// the transaction retries (blocking until the lock is released, then
// re-executing). The acquisition takes effect only when tx commits —
// which is exactly what makes multi-lock acquisition deadlock-free.
func (l *Lock) Acquire(tx *stm.Tx) {
	l.AcquireAs(tx, tx.Owner())
}

// AcquireAs is Acquire with an explicit owner identity (for locks held
// across transactions by one logical thread).
func (l *Lock) AcquireAs(tx *stm.Tx, me stm.OwnerID) {
	if !l.TryAcquireAs(tx, me) {
		// Held by another thread: wait (the paper spins/yields and
		// retries; our runtime blocks until the lock's variable changes).
		tx.Retry()
	}
}

// TryAcquireAs is Acquire with an explicit owner identity that returns
// false instead of waiting when the lock is held by another owner.
func (l *Lock) TryAcquireAs(tx *stm.Tx, me stm.OwnerID) bool {
	if me == 0 {
		panic("txlock: zero OwnerID")
	}
	d := 1
	if cur := l.st.GetPtr(tx); cur != nil {
		if cur.owner != me {
			return false
		}
		d = cur.depth + 1
	}
	l.st.SetPtr(tx, &state{owner: me, depth: d})
	l.recordOp(tx, stm.EvLockAcquire, me, uint64(d))
	return true
}

// Release releases one level of the lock inside tx (Listing 2,
// TxLock.Release). Releasing a lock not held by tx's owner returns
// ErrNotOwner.
func (l *Lock) Release(tx *stm.Tx) error {
	return l.ReleaseAs(tx, tx.Owner())
}

// ReleaseAs is Release with an explicit owner identity.
func (l *Lock) ReleaseAs(tx *stm.Tx, me stm.OwnerID) error {
	cur := l.st.GetPtr(tx)
	if cur == nil || cur.owner != me {
		return notOwner(cur, me)
	}
	next := cur.released()
	l.st.SetPtr(tx, next)
	l.recordOp(tx, stm.EvLockRelease, me, uint64(next.depthOrZero()))
	return nil
}

// Subscribe elides the lock inside a transaction (Listing 2,
// TxLock.Subscribe): it blocks (via retry) until the lock is unheld or
// held by the subscribing owner, and — crucially — leaves the lock's
// variable in tx's read set, so that any subsequent acquisition of the lock
// invalidates and aborts tx. Multiple transactions may subscribe
// concurrently: subscription only reads.
func (l *Lock) Subscribe(tx *stm.Tx) {
	me := tx.Owner()
	cur := l.st.GetPtr(tx).ownerOrZero()
	if cur != 0 && cur != me {
		tx.Retry()
	}
	l.recordOp(tx, stm.EvLockSubscribe, me, uint64(cur))
}

// VarID returns the identifier of the lock's variable, as used in
// recorded history events (internal/history, internal/check).
func (l *Lock) VarID() uint64 { return l.st.ID() }

// recordOp queues a lock-transition event on tx, emitted only if the
// attempt commits (an aborted acquire never took effect, so it leaves
// no trace in the history).
func (l *Lock) recordOp(tx *stm.Tx, kind stm.EventKind, me stm.OwnerID, aux uint64) {
	if !tx.Runtime().Recording() {
		return
	}
	tx.RecordOnCommit(stm.Event{Kind: kind, Owner: me, Var: l.st.ID(), Aux: aux})
}

// OwnerSnapshot returns the owner without a transaction (diagnostics).
func (l *Lock) OwnerSnapshot() stm.OwnerID { return l.st.LoadPtr().ownerOrZero() }

// AcquireOutside acquires the lock from non-transactional code by running
// a small transaction, blocking until acquired. It is the building block
// for using TxLocks as plain mutexes in lock-based code paths ("mix and
// match" in the paper's terms).
func (l *Lock) AcquireOutside(rt *stm.Runtime, me stm.OwnerID) {
	_ = rt.AtomicAs(me, func(tx *stm.Tx) error {
		l.AcquireAs(tx, me)
		return nil
	})
}

// ReleaseOutside releases one level of the lock from non-transactional
// code: the holder's logical thread, with none of its own transactions on
// the lock in flight. That caller needs no transaction. While me holds the
// lock no other owner writes its variable — their acquisitions retry and
// their releases fail — so the load below cannot go stale, and the release
// is one direct publish: it bumps the variable's version (a transaction
// that subscribed earlier fails validation exactly as it would against a
// committed release) and wakes the transactions parked on it. Nothing is
// privatized by giving a lock up, so unlike a commit there is nothing to
// quiesce for.
func (l *Lock) ReleaseOutside(rt *stm.Runtime, me stm.OwnerID) error {
	cur := l.st.LoadPtr()
	if cur == nil || cur.owner != me {
		return notOwner(cur, me)
	}
	next := cur.released()
	if rt.Recording() {
		// Sequenced before the publish: the next owner's acquisition
		// commits, and is recorded, only after it.
		rt.RecordEvent(stm.Event{Kind: stm.EvLockRelease, Owner: me, Var: l.st.ID(), Aux: uint64(next.depthOrZero())})
	}
	l.st.StoreDirectPtr(rt, next)
	return nil
}
