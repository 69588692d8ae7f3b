// Tests for the context-aware entry points (context.go): cancellation
// is honored at the three documented points — before the first attempt,
// while parked in Retry, and after a conflict backoff — and never
// interrupts fn or un-commits a committed transaction.
package stm_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"deferstm/internal/stm"
)

func TestAtomicCtxCommits(t *testing.T) {
	rt := stm.NewDefault()
	v := stm.NewVar(0)
	if err := rt.AtomicCtx(context.Background(), func(tx *stm.Tx) error {
		v.Set(tx, 1)
		return nil
	}); err != nil {
		t.Fatalf("AtomicCtx: %v", err)
	}
	if v.Load() != 1 {
		t.Fatalf("v = %d, want 1", v.Load())
	}
}

// TestAtomicCtxPreCancelled pins that an already-expired context stops
// the transaction before fn runs even once.
func TestAtomicCtxPreCancelled(t *testing.T) {
	rt := stm.NewDefault()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := rt.AtomicCtx(ctx, func(tx *stm.Tx) error {
		ran = true
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("fn executed under a pre-cancelled context")
	}
}

// TestAtomicCtxCancelWhileParked is the satellite's core case: a
// transaction parked in watcher-based Retry must return ctx.Err() on
// cancellation and unregister from every watched var — the watcher sets
// and the parked gauge both drop back to zero.
func TestAtomicCtxCancelWhileParked(t *testing.T) {
	rt := stm.NewDefault()
	a, b := stm.NewVar(0), stm.NewVar(0)
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		errCh <- rt.AtomicCtx(ctx, func(tx *stm.Tx) error {
			if a.Get(tx) == 0 && b.Get(tx) == 0 {
				tx.Retry()
			}
			return nil
		})
	}()
	waitParked(t, rt, 1)
	if a.Watchers() != 1 || b.Watchers() != 1 {
		t.Fatalf("watchers a=%d b=%d, want 1/1", a.Watchers(), b.Watchers())
	}
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked transaction did not return after cancellation")
	}
	if a.Watchers() != 0 || b.Watchers() != 0 {
		t.Fatalf("watcher entries leaked on cancel: a=%d b=%d", a.Watchers(), b.Watchers())
	}
	if n := rt.RetryParked(); n != 0 {
		t.Fatalf("RetryParked = %d after cancel, want 0", n)
	}
	s := rt.Snapshot()
	if s.RetryParks != 1 || s.RetryWakes != 0 {
		t.Fatalf("parks=%d wakes=%d; a cancelled park is not a wake", s.RetryParks, s.RetryWakes)
	}
}

func TestAtomicCtxCancelDuringConflictBackoff(t *testing.T) {
	rt := stm.New(stm.Config{
		SerializeAfter: 1 << 30, // keep it in the backoff loop forever
		Inject:         &stm.Inject{Seed: 1, ConflictPct: 100},
	})
	v := stm.NewVar(0)
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		errCh <- rt.AtomicCtx(ctx, func(tx *stm.Tx) error {
			v.Set(tx, v.Get(tx)+1)
			return nil
		})
	}()
	time.Sleep(10 * time.Millisecond) // let it spin through a few backoffs
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("conflicting transaction ignored cancellation in backoff")
	}
	if v.Load() != 0 {
		t.Fatalf("cancelled transaction published a write: v=%d", v.Load())
	}
}

// TestAtomicCtxCommitWinsOverCancel pins the committed-is-committed
// rule: fn cancels the context itself, then commits; the call must
// report success — cancellation is only honored at attempt boundaries.
func TestAtomicCtxCommitWinsOverCancel(t *testing.T) {
	rt := stm.NewDefault()
	v := stm.NewVar(0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var attempts atomic.Int64
	err := rt.AtomicCtx(ctx, func(tx *stm.Tx) error {
		attempts.Add(1)
		cancel() // expires mid-execution; must not abort the commit
		v.Set(tx, 5)
		return nil
	})
	if err != nil {
		t.Fatalf("err = %v; a committed transaction must report nil", err)
	}
	if v.Load() != 5 || attempts.Load() != 1 {
		t.Fatalf("v=%d attempts=%d, want 5/1", v.Load(), attempts.Load())
	}
}
