package stm

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Watcher-based retry: instead of re-polling (or waking every waiter on
// every commit through one global channel), a transaction blocked in
// Retry registers itself on each Var of its read set and parks until the
// first commit that writes any of them broadcasts. Blocked readers
// therefore consume no CPU and are woken exactly by the commits that can
// change their condition — the cooperation that lets a server park
// thousands of idle connections on transactional state.
//
// The no-lost-wakeup protocol (see DESIGN.md §10):
//
//  0. if the aborted attempt's reads have already changed, no commit is
//     left to wait for: the transaction re-executes at once and registers
//     and records nothing (most retries on a busy lock leave here);
//  1. the aborted attempt's read set is frozen in tx.reads;
//  2. the waiter registers on every read-set var. Registration ends with
//     a seq-cst counter increment (watchSet.n), making the waiter
//     visible to committers;
//  3. the waiter re-validates the read set against the recorded lock
//     words; if anything changed it unregisters and re-executes
//     immediately;
//  4. otherwise it parks until woken.
//
// A committer publishes its writes (seq-cst version stores into the var
// lock words) and only then checks each written var for watchers.
// Interleave the two arbitrarily and at least one side sees the other:
// if the committer's watcher check missed the registration, then in the
// seq-cst total order the registration — and hence the waiter's
// subsequent validation — follows the committer's version store, so
// validation observes the new version and the waiter never parks. If
// instead validation saw the old version, the registration preceded the
// committer's check, which therefore finds and wakes the waiter.

// retryWaiter is one park session. Sessions are allocated per park (the
// park path is already the slow path), so a straggling waker holding a
// stale reference can at worst re-close an already-woken session's
// channel guard — never wake the wrong sleep.
type retryWaiter struct {
	ch chan struct{}

	mu     sync.Mutex
	done   bool
	stamp  bool      // metrics attached: record wakeAt in wake()
	wakeAt time.Time // when the waking commit broadcast (wake latency)
}

// wake broadcasts the session exactly once. Called by committers (and
// StoreDirect) while holding the watchSet mutex of the written var.
func (w *retryWaiter) wake() {
	w.mu.Lock()
	if !w.done {
		w.done = true
		if w.stamp {
			w.wakeAt = time.Now()
		}
		close(w.ch)
	}
	w.mu.Unlock()
}

// watchSet is the per-var watcher registry. It lives in the var's side
// struct (varSide), which is allocated the first time a retry parks on
// the var and then stays for the var's lifetime, so the committer fast
// path for a var with no side struct is one nil pointer load, and
// otherwise an additional counter load.
type watchSet struct {
	n  atomic.Int32 // registered waiters; the committer's fast-path check
	mu sync.Mutex
	m  map[*retryWaiter]struct{} // made by the first add
}

// add registers w, reporting whether it was newly added (a read set may
// contain the same var several times; only the first entry registers).
// The counter increment is the waiter's Dekker store: it must complete
// before the read-set validation that decides whether to park.
func (ws *watchSet) add(w *retryWaiter) bool {
	ws.mu.Lock()
	_, dup := ws.m[w]
	if !dup {
		if ws.m == nil {
			ws.m = make(map[*retryWaiter]struct{}, 2)
		}
		ws.m[w] = struct{}{}
	}
	ws.mu.Unlock()
	if !dup {
		ws.n.Add(1)
	}
	return !dup
}

// remove unregisters w if present. Only the owning waiter removes its
// sessions, so the map never accumulates dead entries.
func (ws *watchSet) remove(w *retryWaiter) {
	ws.mu.Lock()
	if _, ok := ws.m[w]; ok {
		delete(ws.m, w)
		ws.n.Add(-1)
	}
	ws.mu.Unlock()
}

// wakeAll broadcasts every registered session.
func (ws *watchSet) wakeAll() {
	ws.mu.Lock()
	for w := range ws.m {
		w.wake()
	}
	ws.mu.Unlock()
}

// wakeWatchers is the committer-side hook, called for each written var
// after the commit has published. The common case (no watcher ever, or
// none registered now) is one or two atomic loads.
func (m *varMeta) wakeWatchers() {
	if s := m.side.Load(); s != nil && s.watch.n.Load() > 0 {
		s.watch.wakeAll()
	}
}

// waitForRetry blocks the calling goroutine after an explicit Retry
// abort until some location in tx's (pre-abort) read set may have been
// committed to. It returns a non-nil error only when ctx is cancelled,
// which aborts the whole Atomic call.
func (rt *Runtime) waitForRetry(ctx context.Context, tx *Tx) error {
	if len(tx.reads) == 0 {
		// A retry that read nothing identifies no commit to wait for;
		// as in the paper's runtime it can only spin.
		runtime.Gosched()
		return ctxErr(ctx)
	}
	if rt.cfg.SpinRetry {
		// Explicit opt-out: the paper's polling retry. The attempt
		// re-executes immediately, burning CPU re-evaluating its
		// condition (Section 6.1 measures this; ablation A3 and
		// TestBlockedReadersIdleCPU compare it against parking).
		runtime.Gosched()
		return ctxErr(ctx)
	}
	if tx.readSetChanged() {
		return ctxErr(ctx) // step 0: nothing to wait for, no park session
	}
	return rt.parkOnReadSet(ctx, tx)
}

// parkOnReadSet implements steps 2–4 of the protocol above.
func (rt *Runtime) parkOnReadSet(ctx context.Context, tx *Tx) error {
	met := rt.met.Load()
	w := &retryWaiter{ch: make(chan struct{}), stamp: met != nil}

	// Register before validating: a commit that lands after our
	// validation must find us registered.
	added := 0
	for i := range tx.reads {
		e := &tx.reads[i]
		if e.m.ensureSide().watch.add(w) {
			added++
			if rt.rec != nil {
				// A read of a never-written zero-value Var has no ID yet;
				// assign one now so the registration names the same var a
				// later write will name (the checker matches them).
				e.m.ensureID()
				rt.recEvent(Event{Kind: EvWatchRegister, TxID: tx.id,
					Owner: tx.owner, Var: e.m.idLoad(), Ver: wordVersion(e.ver)})
			}
		}
	}
	if met != nil {
		met.WatcherCount.Add(int64(added))
	}
	// Injected stall inside the would-be lost-wakeup window: between
	// registration and the validation/park decision.
	if rt.inj.stallRetryRegister() {
		rt.stats.InjectedFaults.Add(1)
	}

	cause := uint64(AuxWakeImmediate)
	var err error
	if !tx.readSetChanged() {
		rt.stats.RetryParks.Add(1)
		rt.parked.Add(1)
		var t0 time.Time
		if met != nil {
			met.RetryWaiters.Add(1)
			t0 = time.Now()
		}
		var done <-chan struct{}
		if ctx != nil {
			done = ctx.Done()
		}
		select {
		case <-w.ch:
			cause = AuxWakeCommit
			rt.stats.RetryWakes.Add(1)
			if met != nil {
				met.RetryBlocked.Observe(time.Since(t0))
				if !w.wakeAt.IsZero() {
					met.WakeLatency.Observe(time.Since(w.wakeAt))
				}
			}
		case <-done:
			cause = AuxWakeCancel
			err = ctx.Err()
			if met != nil {
				met.RetryBlocked.Observe(time.Since(t0))
			}
		}
		rt.parked.Add(-1)
		if met != nil {
			met.RetryWaiters.Add(-1)
		}
	}

	// Unregister from every watched var (cancellation must not leak
	// watcher entries; normal wakes must not accumulate dead sessions).
	for i := range tx.reads {
		tx.reads[i].m.side.Load().watch.remove(w) // registered above on every entry
	}
	if met != nil {
		met.WatcherCount.Add(int64(-added))
	}
	if rt.rec != nil {
		rt.recEvent(Event{Kind: EvWake, TxID: tx.id, Owner: tx.owner,
			Ver: rt.clock.Load(), Aux: cause})
	}
	return err
}

// ctxErr returns ctx's error, treating a nil context as never cancelled.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// RetryParked reports how many transactions are currently parked in
// watcher-based retry (diagnostics and watcher-leak tests).
func (rt *Runtime) RetryParked() int64 { return rt.parked.Load() }
