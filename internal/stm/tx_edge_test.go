package stm

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// Retry must discard AfterCommit hooks registered by the abandoned
// attempt: the hook of the final (committing) execution runs exactly
// once, hooks of retried executions never run.
func TestRetryDiscardsAfterCommitHooks(t *testing.T) {
	for _, spin := range []bool{false, true} {
		name := "blocking"
		if spin {
			name = "spin"
		}
		t.Run(name, func(t *testing.T) {
			rt := New(Config{SpinRetry: spin})
			gate := NewVar(0)
			var hookRuns, attempts atomic.Int64
			done := make(chan error, 1)
			go func() {
				done <- rt.Atomic(func(tx *Tx) error {
					attempts.Add(1)
					// Register first, then decide to wait: the hook of a
					// retried attempt must be thrown away.
					tx.AfterCommit(func() { hookRuns.Add(1) })
					if gate.Get(tx) == 0 {
						tx.Retry()
					}
					return nil
				})
			}()
			// Let the transaction block in retry at least once.
			time.Sleep(20 * time.Millisecond)
			if err := rt.Atomic(func(tx *Tx) error { gate.Set(tx, 1); return nil }); err != nil {
				t.Fatal(err)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if n := hookRuns.Load(); n != 1 {
				t.Fatalf("hook ran %d times across %d attempts, want exactly 1", n, attempts.Load())
			}
			if attempts.Load() < 2 {
				t.Fatalf("transaction never actually retried (attempts=%d)", attempts.Load())
			}
		})
	}
}

// A serial transaction that calls Retry falls back to the optimistic
// path and still discards the hooks of the abandoned serial attempt.
func TestSerialRetryDiscardsHooks(t *testing.T) {
	rt := NewDefault()
	gate := NewVar(0)
	var hookRuns atomic.Int64
	done := make(chan error, 1)
	go func() {
		done <- rt.AtomicSerial(func(tx *Tx) error {
			tx.AfterCommit(func() { hookRuns.Add(1) })
			if gate.Get(tx) == 0 {
				tx.Retry()
			}
			return nil
		})
	}()
	time.Sleep(20 * time.Millisecond)
	if err := rt.Atomic(func(tx *Tx) error { gate.Set(tx, 1); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n := hookRuns.Load(); n != 1 {
		t.Fatalf("hook ran %d times, want exactly 1", n)
	}
}

// A serial transaction that calls Retry re-runs optimistically and parks;
// its context's deadline must unblock it (the serial drain itself is not
// interruptible) and must not leave the runtime wedged in serial mode.
// No exported entry point starts serial with a context — a Ctx
// transaction reaches serial mode by escalation — so this drives run
// directly.
func TestSerialRetryHonorsDeadline(t *testing.T) {
	rt := NewDefault()
	v := NewVar(0)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err := rt.run(ctx, 0, func(tx *Tx) error {
		if v.Get(tx) == 0 {
			tx.Retry()
		}
		return nil
	}, true, false)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if n := rt.RetryParked(); n != 0 {
		t.Fatalf("RetryParked = %d after deadline, want 0", n)
	}
	// The runtime must still run transactions (serial mode fully exited).
	done := make(chan error, 1)
	go func() {
		done <- rt.Atomic(func(tx *Tx) error {
			v.Set(tx, 1)
			return nil
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("follow-up transaction: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("runtime wedged after a serial transaction's deadline")
	}
}

// Nested transactions flatten into the parent; under injected conflict
// aborts the whole flattened transaction re-executes and the nested
// writes must never be partially applied.
func TestNestedUnderInjectedConflicts(t *testing.T) {
	for _, mode := range []Mode{ModeSTM, ModeHTM} {
		t.Run(mode.String(), func(t *testing.T) {
			rt := New(Config{
				Mode:   mode,
				Inject: &Inject{Seed: 42, ConflictPct: 40},
			})
			a, b := NewVar(0), NewVar(0)
			var hookRuns atomic.Int64
			const n = 200
			for i := 0; i < n; i++ {
				err := rt.Atomic(func(tx *Tx) error {
					a.Set(tx, a.Get(tx)+1)
					return tx.Nested(func(tx *Tx) error {
						b.Set(tx, b.Get(tx)+1)
						tx.AfterCommit(func() { hookRuns.Add(1) })
						return nil
					})
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			if a.Load() != n || b.Load() != n {
				t.Fatalf("a=%d b=%d, want both %d", a.Load(), b.Load(), n)
			}
			if hookRuns.Load() != n {
				t.Fatalf("nested hooks ran %d times, want %d", hookRuns.Load(), n)
			}
			snap := rt.Snapshot()
			if snap.InjectedFaults == 0 {
				t.Fatal("injector fired no faults; the test exercised nothing")
			}
			if snap.Commits != n {
				t.Fatalf("commits=%d, want %d", snap.Commits, n)
			}
		})
	}
}

// An error from a nested transaction aborts the whole flattened
// transaction: no writes (parent or nested) survive, no hooks run.
func TestNestedErrorAbortsWholeTransaction(t *testing.T) {
	rt := NewDefault()
	a, b := NewVar(0), NewVar(0)
	var hookRuns atomic.Int64
	sentinel := errors.New("nested failure")
	err := rt.Atomic(func(tx *Tx) error {
		a.Set(tx, 1)
		tx.AfterCommit(func() { hookRuns.Add(1) })
		return tx.Nested(func(tx *Tx) error {
			b.Set(tx, 1)
			return sentinel
		})
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want %v", err, sentinel)
	}
	if a.Load() != 0 || b.Load() != 0 {
		t.Fatalf("aborted writes leaked: a=%d b=%d", a.Load(), b.Load())
	}
	if hookRuns.Load() != 0 {
		t.Fatal("AfterCommit hook ran despite abort")
	}
}

// A nested Retry inside a contended parent still waits and re-executes
// the whole flattened transaction.
func TestNestedRetryUnderInjectedConflicts(t *testing.T) {
	rt := New(Config{Inject: &Inject{Seed: 7, ConflictPct: 30}})
	gate := NewVar(0)
	out := NewVar(0)
	done := make(chan error, 1)
	go func() {
		done <- rt.Atomic(func(tx *Tx) error {
			return tx.Nested(func(tx *Tx) error {
				if gate.Get(tx) == 0 {
					tx.Retry()
				}
				out.Set(tx, gate.Get(tx))
				return nil
			})
		})
	}()
	time.Sleep(20 * time.Millisecond)
	if err := rt.Atomic(func(tx *Tx) error { gate.Set(tx, 5); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if out.Load() != 5 {
		t.Fatalf("out=%d, want 5", out.Load())
	}
}
