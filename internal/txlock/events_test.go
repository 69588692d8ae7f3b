// Negative-path tests for transaction-friendly locks, verified through
// the recorded event history rather than only through end-state: lock
// transitions must appear in the history exactly once per committed
// transition, and never for aborted attempts.
package txlock_test

import (
	"errors"
	"testing"
	"time"

	"deferstm/internal/history"
	"deferstm/internal/stm"
	"deferstm/internal/txlock"
)

// countKind tallies lock events of one kind, optionally per owner.
func countKind(evs []stm.Event, kind stm.EventKind, owner stm.OwnerID) int {
	n := 0
	for _, ev := range evs {
		if ev.Kind == kind && (owner == 0 || ev.Owner == owner) {
			n++
		}
	}
	return n
}

// A transaction that subscribes to a lock held by another owner must
// retry (block) until the release, and the only subscription that
// reaches the history is the committed one that observed the lock free.
func TestSubscribeOnHeldLockRetries(t *testing.T) {
	log := history.New()
	rt := stm.New(stm.Config{Recorder: log})
	l := txlock.NewLock()

	holder := rt.NewOwner()
	l.AcquireOutside(rt, holder)

	subscribed := make(chan struct{})
	go func() {
		_ = rt.Atomic(func(tx *stm.Tx) error {
			l.Subscribe(tx)
			return nil
		})
		close(subscribed)
	}()

	// The subscriber must be blocked while the lock is held.
	select {
	case <-subscribed:
		t.Fatal("subscriber committed while the lock was held")
	case <-time.After(30 * time.Millisecond):
	}

	if err := l.ReleaseOutside(rt, holder); err != nil {
		t.Fatal(err)
	}
	select {
	case <-subscribed:
	case <-time.After(2 * time.Second):
		t.Fatal("subscriber still blocked after release")
	}

	evs := log.Events()
	subs := 0
	for _, ev := range evs {
		if ev.Kind == stm.EvLockSubscribe {
			subs++
			if ev.Aux != 0 {
				t.Fatalf("committed subscription observed owner %d, want 0 (free)", ev.Aux)
			}
		}
	}
	if subs != 1 {
		t.Fatalf("recorded %d committed subscriptions, want exactly 1", subs)
	}
	// The blocked period must show up as at least one retry abort.
	aborts := 0
	for _, ev := range evs {
		if ev.Kind == stm.EvAbort && ev.Aux == stm.AbortCauseRetry {
			aborts++
		}
	}
	if aborts == 0 {
		t.Fatal("no retry abort recorded; the subscriber never actually waited")
	}
}

// Reentrant depth accounting across injected aborts and retries: each
// committed acquire/release transition appears in the history exactly
// once, even though many attempts aborted and re-executed, and the
// depth annotations step 1,2 on acquire and 1,0 on release.
func TestReentrantDepthAcrossAbortRetry(t *testing.T) {
	log := history.New()
	rt := stm.New(stm.Config{
		Recorder: log,
		Inject:   &stm.Inject{Seed: 3, ConflictPct: 50},
	})
	l := txlock.NewLock()
	me := rt.NewOwner()

	const rounds = 25
	for i := 0; i < rounds; i++ {
		if err := rt.AtomicAs(me, func(tx *stm.Tx) error {
			l.Acquire(tx)
			l.Acquire(tx) // reentrant: depth 2
			if _, d := l.Peek(tx); d != 2 {
				t.Errorf("depth inside tx = %d, want 2", d)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := rt.AtomicAs(me, func(tx *stm.Tx) error {
			if err := l.Release(tx); err != nil {
				return err
			}
			return l.Release(tx)
		}); err != nil {
			t.Fatal(err)
		}
	}
	if l.OwnerSnapshot() != 0 {
		t.Fatalf("lock leaked: owner %d", l.OwnerSnapshot())
	}
	if rt.Snapshot().InjectedFaults == 0 {
		t.Fatal("injector fired no faults")
	}

	evs := log.Events()
	acq := countKind(evs, stm.EvLockAcquire, me)
	rel := countKind(evs, stm.EvLockRelease, me)
	if acq != 2*rounds || rel != 2*rounds {
		t.Fatalf("acquires=%d releases=%d, want %d each: aborted attempts leaked lock events",
			acq, rel, 2*rounds)
	}
	// Depth annotations: acquires alternate 1,2; releases alternate 1,0.
	var acqDepths, relDepths []uint64
	for _, ev := range evs {
		switch ev.Kind {
		case stm.EvLockAcquire:
			acqDepths = append(acqDepths, ev.Aux)
		case stm.EvLockRelease:
			relDepths = append(relDepths, ev.Aux)
		}
	}
	for i, d := range acqDepths {
		if want := uint64(i%2 + 1); d != want {
			t.Fatalf("acquire %d recorded depth %d, want %d", i, d, want)
		}
	}
	for i, d := range relDepths {
		if want := uint64(1 - i%2); d != want {
			t.Fatalf("release %d recorded depth %d, want %d", i, d, want)
		}
	}
}

// Release by a non-owner fails with ErrNotOwner and must leave no
// release event in the history (the transition never happened).
func TestReleaseByNonOwnerEmitsNoEvent(t *testing.T) {
	log := history.New()
	rt := stm.New(stm.Config{Recorder: log})
	l := txlock.NewLock()
	holder, thief := rt.NewOwner(), rt.NewOwner()
	l.AcquireOutside(rt, holder)

	err := l.ReleaseOutside(rt, thief)
	if !errors.Is(err, txlock.ErrNotOwner) {
		t.Fatalf("err = %v, want ErrNotOwner", err)
	}
	if n := countKind(log.Events(), stm.EvLockRelease, 0); n != 0 {
		t.Fatalf("%d release events recorded for a failed release", n)
	}
	if err := l.ReleaseOutside(rt, holder); err != nil {
		t.Fatal(err)
	}
	if n := countKind(log.Events(), stm.EvLockRelease, holder); n != 1 {
		t.Fatalf("%d release events for the real release, want 1", n)
	}
}

// TryAcquireAs on a held lock fails without waiting and without emitting
// an acquire event; on a free lock it emits exactly one.
func TestTryAcquireEventDiscipline(t *testing.T) {
	log := history.New()
	rt := stm.New(stm.Config{Recorder: log})
	l := txlock.NewLock()
	holder, other := rt.NewOwner(), rt.NewOwner()
	l.AcquireOutside(rt, holder)

	got := true
	if err := rt.AtomicAs(other, func(tx *stm.Tx) error {
		got = l.TryAcquireAs(tx, other)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got {
		t.Fatal("TryAcquireAs succeeded on a held lock")
	}
	if n := countKind(log.Events(), stm.EvLockAcquire, other); n != 0 {
		t.Fatalf("%d acquire events recorded for a failed TryAcquireAs", n)
	}
}
