package stm

import (
	"context"
	"runtime"
	"time"
)

// Atomic executes fn as a transaction and blocks until it commits or fn
// returns a non-nil error (which aborts the transaction and is returned).
// fn may be executed multiple times; it must be safe to re-execute and must
// confine its side effects to Vars and AfterCommit hooks, both of which
// are discarded on abort.
//
// The transaction is assigned a fresh lock-owner identity (drawn from the
// descriptor's block, see freshOwner); use AtomicAs to supply one (e.g. to
// reenter transaction-friendly locks held across transactions).
//
// Do not call Atomic from inside a transaction on the same goroutine: a
// nested writer's commit would quiesce waiting for the enclosing
// transaction and deadlock. Use (*Tx).Nested for flat nesting, exactly as
// C++ TM flattens nested atomic blocks.
func (rt *Runtime) Atomic(fn func(tx *Tx) error) error {
	return rt.run(nil, 0, fn, false, false)
}

// AtomicAs is Atomic with an explicit lock-owner identity. The zero
// OwnerID is nobody's: passing it draws a fresh identity, as Atomic does.
func (rt *Runtime) AtomicAs(owner OwnerID, fn func(tx *Tx) error) error {
	return rt.run(nil, owner, fn, false, false)
}

// AtomicSerial executes fn as a serial (irrevocable) transaction: it waits
// for every in-flight transaction to finish, blocks new ones from starting,
// and then runs alone. This models a C++ TM `synchronized` block that the
// runtime knows will perform an unsafe operation — per the paper's Section
// 6.1, GCC "serializes early and avoids instrumentation" for these. fn may
// safely perform I/O and other irrevocable actions. It still executes at
// most once per call: a non-nil error aborts (buffered writes are
// discarded) and is returned.
func (rt *Runtime) AtomicSerial(fn func(tx *Tx) error) error {
	return rt.run(nil, 0, fn, true, false)
}

// run is the shared transaction loop. ctx may be nil (the non-Ctx entry
// points), which costs the hot path nothing but a nil test. A non-nil
// ctx is consulted only at attempt boundaries and while parked in Retry:
// fn is never interrupted mid-execution, and a transaction that has
// committed is reported committed even if ctx expired concurrently. A zero
// owner asks for a fresh identity.
func (rt *Runtime) run(ctx context.Context, owner OwnerID, fn func(tx *Tx) error, startSerial, startSnapshot bool) error {
	met := rt.met.Load()
	var t0 time.Time
	if met != nil {
		t0 = time.Now()
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	tx := rt.txPool.Get().(*Tx)
	if owner == 0 {
		owner = tx.freshOwner()
	}
	tx.owner = owner
	tx.attempts = 0
	serialNext := startSerial
	snapNext := startSnapshot

	for {
		tx.attempts++

		// A snapshot call stays read-only even on the fallback paths,
		// so Set fails identically whether or not the snapshot fell
		// back (reset clears the flag between attempts).
		tx.ro = startSnapshot

		var outcome txOutcome
		switch {
		case snapNext:
			outcome = rt.runSnapshot(tx, fn)
		case serialNext:
			outcome = rt.runSerial(tx, fn)
		default:
			outcome = rt.runOptimistic(tx, fn)
		}

		if outcome.committed || outcome.userErr != nil {
			if outcome.userErr != nil {
				rt.stats.UserAborts.Add(1)
				if rt.rec != nil {
					rt.recEvent(Event{Kind: EvAbort, TxID: tx.id, Owner: tx.owner, Aux: AbortCauseUser})
				}
				tx.reset()
				rt.txPool.Put(tx)
				return outcome.userErr
			}
			// Post-commit pipeline (Listing 1's TxEnd tail): take the
			// deferred operations, reset the descriptor, run the hooks in
			// order. The descriptor keeps the list's backing array for
			// its next commit and stays checked out until the hooks have
			// run — a hook's own transactions draw another from the pool.
			hooks := tx.hooks
			tx.hooks = hooks[:0]
			tx.reset()
			rt.stats.Commits.addAt(tx.slot, 1)
			if met != nil {
				// Commit latency stops here, before the deferred tail:
				// the hooks are exactly the work the paper moved out of
				// the caller-visible critical window.
				met.TxLatency.Observe(time.Since(t0))
			}
			var panicked any
			if len(hooks) != 0 {
				panicked = rt.postCommit(hooks, met)
			}
			rt.txPool.Put(tx)
			if panicked != nil {
				panic(panicked)
			}
			return nil
		}

		// Aborted: decide what to do before re-executing.
		if rt.rec != nil {
			rt.recEvent(Event{Kind: EvAbort, TxID: tx.id, Owner: tx.owner,
				Aux: uint64(outcome.sig.reason)})
		}
		switch outcome.sig.reason {
		case abortExplicitRetry:
			if err := rt.waitForRetry(ctx, tx); err != nil {
				tx.reset()
				rt.txPool.Put(tx)
				return err
			}
			serialNext = false // a serial Retry re-runs optimistically
			tx.attempts = 0    // condition waits don't count as contention
		case abortEscalate:
			serialNext = true
			rt.stats.Serializations.Add(1)
		case abortSnapshot:
			// The snapshot read outran the bounded version chain (or fn
			// called Retry at a pinned timestamp that will never
			// change): fall back to the validating read-only path. Not
			// a contention abort — no backoff, no serialization
			// pressure.
			snapNext = false
			tx.attempts = 0
			rt.stats.SnapshotFallbacks.Add(1)
		default: // conflict, capacity, syscall
			if tx.attempts >= rt.cfg.SerializeAfter {
				serialNext = true
				rt.stats.Serializations.Add(1)
			} else if met != nil {
				b0 := time.Now()
				tx.backoff()
				met.Backoff.Observe(time.Since(b0))
			} else {
				tx.backoff()
			}
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					tx.reset()
					rt.txPool.Put(tx)
					return err
				}
			}
		}
		tx.reset()
	}
}

// postCommit runs a committed transaction's hooks in order and empties
// the list. The transaction committed, so every hook is part of it: one
// that panics does not stop the later ones (whose deferral locks nobody
// else would ever release). The first panic is returned, for the caller
// to re-raise.
func (rt *Runtime) postCommit(hooks []func(), met *Metrics) (panicked any) {
	if met != nil {
		met.DeferDepth.Add(int64(len(hooks)))
	}
	// Injected stall in the commit→λ window: deferral locks are held but
	// the deferred operations have not yet run.
	if len(hooks) > 0 && rt.inj.stallPreHook() {
		rt.stats.InjectedFaults.Add(1)
	}
	for _, h := range hooks {
		if met != nil {
			h0 := time.Now()
			runGuarded(h, &panicked)
			met.DeferExec.Observe(time.Since(h0))
			met.DeferDepth.Add(-1)
		} else {
			runGuarded(h, &panicked)
		}
	}
	clear(hooks)
	return panicked
}

// runGuarded calls f, catching a panic into *first unless one is already
// there.
func runGuarded(f func(), first *any) {
	defer func() {
		if r := recover(); r != nil && *first == nil {
			*first = r
		}
	}()
	f()
}

type txOutcome struct {
	committed bool
	userErr   error
	sig       txSignal
}

// runOptimistic executes one attempt on the speculative (STM or simulated
// HTM) path.
func (rt *Runtime) runOptimistic(tx *Tx, fn func(tx *Tx) error) (out txOutcome) {
	idx, rv := rt.beginSlot(tx.slot)
	tx.rv = rv
	tx.slot = idx
	// Starts and Commits, the two counters every transaction bumps, are
	// striped by registry slot (Counter.addAt).
	rt.stats.Starts.addAt(idx, 1)
	tx.active = true
	tx.htm = rt.cfg.Mode == ModeHTM
	tx.slow = tx.htm || rt.rec != nil
	if rt.rec != nil {
		tx.beginRecord(rv, 0)
	}

	defer func() {
		tx.active = false
		if r := recover(); r != nil {
			rt.releaseSlot(idx)
			if sig, ok := r.(txSignal); ok {
				out = txOutcome{sig: sig}
				return
			}
			// A user panic escaped the transaction: clean up runtime
			// state and propagate.
			tx.reset()
			panic(r)
		}
	}()

	err := fn(tx)
	if err != nil {
		rt.releaseSlot(idx)
		return txOutcome{userErr: err}
	}

	wv, ok := tx.commitWriteBack()
	if !ok {
		rt.releaseSlot(idx)
		rt.stats.AbortsConflict.Add(1)
		return txOutcome{sig: txSignal{abortConflict}}
	}
	tx.active = false

	// Deregister before quiescing: once published we read nothing more,
	// and two concurrent committers must not wait on each other's slots.
	rt.releaseSlot(idx)
	if wv != 0 {
		// Hardware TM commits atomically in the cache hierarchy and is
		// privatization-safe; only the software path quiesces
		// (Listing 1: "STM-only: ensure transaction finishes before λs
		// run").
		if !tx.htm {
			if rt.rec != nil {
				rt.recEvent(Event{Kind: EvQuiesceStart, TxID: tx.id, Owner: tx.owner, Ver: wv})
			}
			rt.quiesce(wv)
			if rt.rec != nil {
				rt.recEvent(Event{Kind: EvQuiesceEnd, TxID: tx.id, Owner: tx.owner, Ver: wv})
			}
		}
	}
	return txOutcome{committed: true}
}

// beginSlot registers the beginning transaction in the active registry,
// trying slot first before any other, and returns (slot index, read
// version). The read version is sampled immediately before the CAS that
// activates the slot, whichever slot that turns out to be, so quiescing
// writers never miss us: a committer that scanned the slot before the CAS
// overlooks only a transaction that has read nothing yet (its first read
// of anything that commit wrote finds a version past rv and extends or
// aborts), and one that scans it after finds it active at an rv no newer
// than its reads.
func (rt *Runtime) beginSlot(first int) (int, uint64) {
	rv := rt.clock.Load()
	idx := rt.acquireSlot(first, rv)
	return idx, rv
}

// The publish protocol. Every writer — optimistic commit, serial commit,
// StoreDirect (a write set of one entry) — runs lock → tick → publish →
// record → unlock → wake. An optimistic commit try-locks and draws GV4's
// nextWriteVersion (commitWriteBack); the others wait for locks and tick
// the clock (lockAndTick). The rest is shared: because every event is
// recorded before the first lock bit is released, whatever another
// goroutine records after acting on a write (reading it, fsyncing the WAL
// record it published) is sequenced after the write's own events.

// lockAndTick locks every var of ws, waiting out a holder — which is
// mid-publish and never waits while holding — then draws the version.
func (rt *Runtime) lockAndTick(ws []writeEntry) uint64 {
	for i := range ws {
		m := ws[i].m
		for {
			w := m.lock.Load()
			if !wordLocked(w) && m.lock.CompareAndSwap(w, w|lockedBit) {
				break
			}
			spinPause()
		}
	}
	return rt.clock.Add(1)
}

// publishAndUnlock publishes every write of ws at wv, records the commit
// (tx's events tagged aux; one EvDirectWrite per entry when tx is nil),
// and only then releases the locks at wv. Publish links a superseded
// value onto its var's version chain when an active snapshot may still
// need it (see snapshot.go).
func (rt *Runtime) publishAndUnlock(ws []writeEntry, wv uint64, tx *Tx, aux uint64) {
	var id uint64
	var owner OwnerID
	if tx != nil {
		id, owner = tx.id, tx.owner
	}
	horizon := rt.snapHorizon.Load()
	var truncated uint64
	for i := range ws {
		e := &ws[i]
		if dropped := e.v.publish(e.pending, wv, horizon, rt.snapDepth); dropped > 0 {
			truncated += uint64(dropped)
			rt.recEvent(Event{Kind: EvSnapTruncate, TxID: id, Owner: owner,
				Var: e.m.idLoad(), Ver: horizon, Aux: uint64(dropped)})
		}
	}
	if truncated > 0 {
		rt.stats.SnapshotTruncations.Add(truncated)
	}
	if tx != nil {
		tx.flushCommitEvents(wv, aux)
	} else if rt.rec != nil {
		for i := range ws {
			rt.rec.Record(Event{Kind: EvDirectWrite, Var: ws[i].m.idLoad(), Ver: wv})
		}
	}
	for i := range ws {
		ws[i].m.lock.Store(packVersion(wv))
	}
}

// wake wakes the retry waiters watching any var of ws. It runs after the
// version stores, so a waiter registered too late to be seen here
// validates against the new versions and never parks (see watch.go).
func (rt *Runtime) wake(ws []writeEntry) {
	// Injected delay in the publish→wake window: parked readers' data is
	// already new but their wakeup is still pending.
	if rt.inj.stallWake() {
		rt.stats.InjectedFaults.Add(1)
	}
	for i := range ws {
		ws[i].m.wakeWatchers()
	}
}

// commitWriteBack performs TL2 commit: try-lock the write set in global
// (var ID) order, increment the clock, validate the read set, then the
// shared publish → record → unlock → wake. It returns the write version
// (0 for read-only transactions) and whether the commit succeeded.
func (tx *Tx) commitWriteBack() (uint64, bool) {
	if len(tx.writes) == 0 {
		// Read-only: reads were validated incrementally (opacity), so
		// the transaction is serializable at its read version. If it
		// queued hooks, the caller still quiesces at the current clock
		// so they run after all concurrent readers of pre-commit state
		// are done.
		if len(tx.hooks) != 0 {
			wv := tx.rt.clock.Load()
			tx.flushCommitEvents(0, 0)
			return wv, true
		}
		tx.flushCommitEvents(0, 0)
		return 0, true
	}

	// Injected conflict: behave exactly as if commit-time validation
	// had failed, exercising the abort/backoff/serialization paths.
	if tx.rt.inj.hitConflict() {
		tx.rt.stats.InjectedFaults.Add(1)
		return 0, false
	}

	tx.sortWrites()
	for i := range tx.writes {
		e := &tx.writes[i]
		w := e.m.lock.Load()
		if wordLocked(w) || !e.m.lock.CompareAndSwap(w, w|lockedBit) {
			tx.releaseLocks(i)
			return 0, false
		}
		e.prevW = w
	}

	wv, own := tx.rt.nextWriteVersion()

	// TL2 fast path: if we won the clock increment ourselves and
	// nothing committed between our begin and that increment, the
	// read set cannot have changed. An adopted timestamp (GV4) means
	// a concurrent writer committed while we held our locks, so the
	// read set must always be revalidated.
	if (!own || wv != tx.rv+1) && !tx.validateReads() {
		tx.releaseLocks(len(tx.writes))
		return 0, false
	}

	// Injected write-back delay: hold the commit locks longer before
	// publishing, so concurrent readers collide with the locked window.
	if tx.rt.inj.stallWriteBack() {
		tx.rt.stats.InjectedFaults.Add(1)
	}

	tx.rt.publishAndUnlock(tx.writes, wv, tx, 0)
	tx.rt.wake(tx.writes)
	return wv, true
}

// releaseLocks rolls back the first n acquired commit locks, restoring
// each pre-lock word (the abort path).
func (tx *Tx) releaseLocks(n int) {
	for _, e := range tx.writes[:n] {
		e.m.lock.Store(e.prevW)
	}
}

// runSerial executes one attempt in serial (irrevocable) mode: drain every
// concurrent transaction, run alone, publish without validation.
func (rt *Runtime) runSerial(tx *Tx, fn func(tx *Tx) error) (out txOutcome) {
	rt.serialMu.Lock()
	blocked := make(chan struct{})
	rt.serialClear.Store(&blocked)
	rt.serialWant.Add(1)
	// Drain: wait until no optimistic transaction is active. New ones are
	// held at beginSlot by serialWant (they block on the serialClear
	// channel, which we close on release).
	for i := range rt.slots {
		spins := 0
		for rt.slots[i].isActive() {
			waitSpin(&spins)
		}
	}
	rt.stats.Starts.addAt(tx.slot, 1)
	rt.stats.SerialRuns.Add(1)

	tx.rv = rt.clock.Load()
	tx.serial = true
	tx.htm = false
	tx.slow = rt.rec != nil
	tx.active = true
	if rt.rec != nil {
		tx.beginRecord(tx.rv, 0)
	}

	release := func() {
		rt.serialWant.Add(-1)
		close(blocked)
		rt.serialMu.Unlock()
	}

	defer func() {
		tx.active = false
		if r := recover(); r != nil {
			release()
			if sig, ok := r.(txSignal); ok {
				// Only Retry can fire in serial mode (capacity and
				// conflict cannot). The gate is released before the
				// caller blocks, so other transactions can commit
				// and wake it.
				out = txOutcome{sig: sig}
				return
			}
			tx.reset()
			panic(r)
		}
	}()

	err := fn(tx)
	if err != nil {
		release()
		return txOutcome{userErr: err}
	}

	var wv uint64
	if len(tx.writes) > 0 {
		// Serial mode runs alone among transactions holding slots, but
		// snapshot readers hold none and run concurrently. Lock the WHOLE
		// write set before drawing wv, exactly like an optimistic commit:
		// a snapshot that pins sv >= wv then finds every var of this
		// commit either locked (it spins) or already at wv. Ticking first
		// and locking one var at a time let such a snapshot read the
		// not-yet-locked tail at its old version — a torn serial commit.
		wv = rt.lockAndTick(tx.writes)
	}
	rt.publishAndUnlock(tx.writes, wv, tx, AuxSerial)
	tx.active = false
	release()
	// Wake watchers after the gate reopens so woken transactions can
	// begin immediately.
	if wv != 0 {
		rt.wake(tx.writes)
	}
	// No quiesce: nothing else was running.
	return txOutcome{committed: true}
}

func (tx *Tx) readSetChanged() bool {
	for i := range tx.reads {
		e := &tx.reads[i]
		if e.m.lock.Load() != e.ver {
			return true
		}
	}
	return false
}

// backoff performs randomized exponential backoff proportional to the
// number of failed attempts, capped at 1 << 14 busy-wait iterations.
func (tx *Tx) backoff() {
	shift := tx.attempts
	if shift > 14 {
		shift = 14
	}
	max := uint64(1) << shift
	n := tx.nextRand() % (max + 1)
	for i := uint64(0); i < n; i++ {
		if i%64 == 63 {
			runtime.Gosched()
		} else {
			spinPause()
		}
	}
}
