package txlock

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"
	"unsafe"

	"deferstm/internal/stm"
)

// TestLockLayout pins a Lock at one stm.Var — 32 bytes, the whole cost a
// Deferrable adds to an object — in the style of stm's TestVarLayout: a
// second field (owner and depth apart again, a cached flag) would bring
// back the two-location release and the torn owner/depth read.
func TestLockLayout(t *testing.T) {
	typ := reflect.TypeOf(Lock{})
	if typ.NumField() != 1 || typ.Field(0).Type != reflect.TypeOf(stm.Var[state]{}) {
		t.Errorf("Lock has %d fields (first %s), want exactly one stm.Var[state]", typ.NumField(), typ.Field(0).Type)
	}
	if sz := unsafe.Sizeof(Lock{}); sz != 32 {
		t.Errorf("Lock is %d bytes, want 32", sz)
	}
}

func TestAcquireRelease(t *testing.T) {
	rt := stm.NewDefault()
	l := NewLock()
	me := rt.NewOwner()
	if err := rt.AtomicAs(me, func(tx *stm.Tx) error {
		l.Acquire(tx)
		if got := l.HeldBy(tx); got != me {
			t.Errorf("HeldBy = %d, want %d", got, me)
		}
		if got := l.Depth(tx); got != 1 {
			t.Errorf("Depth = %d, want 1", got)
		}
		return l.Release(tx)
	}); err != nil {
		t.Fatal(err)
	}
	if got := l.OwnerSnapshot(); got != 0 {
		t.Errorf("owner after release = %d", got)
	}
}

func TestReentrancy(t *testing.T) {
	rt := stm.NewDefault()
	l := NewLock()
	me := rt.NewOwner()
	if err := rt.AtomicAs(me, func(tx *stm.Tx) error {
		l.Acquire(tx)
		l.Acquire(tx)
		l.Acquire(tx)
		if d := l.Depth(tx); d != 3 {
			t.Errorf("Depth = %d, want 3", d)
		}
		if err := l.Release(tx); err != nil {
			return err
		}
		if d := l.Depth(tx); d != 2 {
			t.Errorf("Depth after one release = %d, want 2", d)
		}
		if err := l.Release(tx); err != nil {
			return err
		}
		if err := l.Release(tx); err != nil {
			return err
		}
		if got := l.HeldBy(tx); got != 0 {
			t.Errorf("still held after full release: %d", got)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestReleaseByNonOwner(t *testing.T) {
	rt := stm.NewDefault()
	l := NewLock()
	a, b := rt.NewOwner(), rt.NewOwner()
	l.AcquireOutside(rt, a)
	var rerr error
	if err := rt.AtomicAs(b, func(tx *stm.Tx) error {
		rerr = l.Release(tx)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(rerr, ErrNotOwner) {
		t.Errorf("err = %v, want ErrNotOwner", rerr)
	}
	// Still held by a.
	if got := l.OwnerSnapshot(); got != a {
		t.Errorf("owner = %d, want %d", got, a)
	}
	if err := l.ReleaseOutside(rt, a); err != nil {
		t.Fatal(err)
	}
}

// TestReentrantDirectRelease: a lock held at depth 2 outside any
// transaction takes two direct releases, the first of which leaves it held.
func TestReentrantDirectRelease(t *testing.T) {
	rt := stm.NewDefault()
	l := NewLock()
	me, other := rt.NewOwner(), rt.NewOwner()
	l.AcquireOutside(rt, me)
	l.AcquireOutside(rt, me)
	peek := func() (o stm.OwnerID, d int) {
		_ = rt.Atomic(func(tx *stm.Tx) error { o, d = l.Peek(tx); return nil })
		return
	}
	if o, d := peek(); o != me || d != 2 {
		t.Fatalf("after two acquires: owner %d depth %d, want %d at 2", o, d, me)
	}
	if err := l.ReleaseOutside(rt, me); err != nil {
		t.Fatal(err)
	}
	if o, d := peek(); o != me || d != 1 {
		t.Fatalf("after one release: owner %d depth %d, want %d at 1", o, d, me)
	}
	if err := l.ReleaseOutside(rt, other); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("release by a non-owner: %v, want ErrNotOwner", err)
	}
	if err := l.ReleaseOutside(rt, me); err != nil {
		t.Fatal(err)
	}
	if o, d := peek(); o != 0 || d != 0 {
		t.Fatalf("after both releases: owner %d depth %d, want unheld", o, d)
	}
	if err := l.ReleaseOutside(rt, me); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("release of an unheld lock: %v, want ErrNotOwner", err)
	}
}

func TestZeroOwnerPanics(t *testing.T) {
	rt := stm.NewDefault()
	l := NewLock()
	defer func() {
		if recover() == nil {
			t.Error("expected panic on zero OwnerID")
		}
	}()
	_ = rt.AtomicAs(1, func(tx *stm.Tx) error {
		l.AcquireAs(tx, 0)
		return nil
	})
}

func TestMutualExclusionOutside(t *testing.T) {
	rt := stm.NewDefault()
	l := NewLock()
	shared := 0 // protected by l, accessed outside transactions
	var wg sync.WaitGroup
	const workers, per = 8, 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			me := rt.NewOwner()
			for i := 0; i < per; i++ {
				l.AcquireOutside(rt, me)
				shared++
				if err := l.ReleaseOutside(rt, me); err != nil {
					t.Errorf("release: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if shared != workers*per {
		t.Errorf("shared = %d, want %d (mutual exclusion violated)", shared, workers*per)
	}
}

func TestAcquireBlocksUntilReleased(t *testing.T) {
	rt := stm.NewDefault()
	l := NewLock()
	a, b := rt.NewOwner(), rt.NewOwner()
	l.AcquireOutside(rt, a)
	acquired := make(chan struct{})
	go func() {
		l.AcquireOutside(rt, b)
		close(acquired)
	}()
	select {
	case <-acquired:
		t.Fatal("second owner acquired a held lock")
	case <-time.After(20 * time.Millisecond):
	}
	if err := l.ReleaseOutside(rt, a); err != nil {
		t.Fatal(err)
	}
	select {
	case <-acquired:
	case <-time.After(5 * time.Second):
		t.Fatal("blocked acquirer never woke")
	}
	_ = l.ReleaseOutside(rt, b)
}

func TestTryAcquire(t *testing.T) {
	rt := stm.NewDefault()
	l := NewLock()
	a, b := rt.NewOwner(), rt.NewOwner()
	l.AcquireOutside(rt, a)
	var ok bool
	_ = rt.AtomicAs(b, func(tx *stm.Tx) error {
		ok = l.TryAcquire(tx)
		return nil
	})
	if ok {
		t.Error("TryAcquire succeeded on held lock")
	}
	_ = rt.AtomicAs(a, func(tx *stm.Tx) error {
		if !l.TryAcquire(tx) {
			t.Error("reentrant TryAcquire failed")
		}
		return nil
	})
}

// TestSubscribeConflictsWithAcquire is the heart of atomic deferral: a
// transaction that subscribed to a lock must abort (and re-execute) when
// another thread acquires the lock, and must not observe state the lock
// owner mutates while holding it.
func TestSubscribeConflictsWithAcquire(t *testing.T) {
	rt := stm.NewDefault()
	l := NewLock()
	data := stm.NewVar(0)

	holder := rt.NewOwner()
	l.AcquireOutside(rt, holder)

	subscribed := make(chan struct{})
	result := make(chan int, 1)
	var once sync.Once
	go func() {
		_ = rt.Atomic(func(tx *stm.Tx) error {
			once.Do(func() { close(subscribed) })
			l.Subscribe(tx) // must retry until the lock is free
			result <- data.Get(tx)
			return nil
		})
	}()
	<-subscribed
	select {
	case <-result:
		t.Fatal("subscriber proceeded past a held lock")
	case <-time.After(20 * time.Millisecond):
	}
	// Mutate protected state while holding the lock (as a deferred
	// operation would), then release.
	data.StoreDirect(rt, 42)
	if err := l.ReleaseOutside(rt, holder); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-result:
		if v != 42 {
			t.Errorf("subscriber saw %d, want 42 (post-release state)", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("subscriber never completed")
	}
}

// TestSubscribeSelfHeld: subscribing to a lock you hold does not block.
func TestSubscribeSelfHeld(t *testing.T) {
	rt := stm.NewDefault()
	l := NewLock()
	me := rt.NewOwner()
	l.AcquireOutside(rt, me)
	done := make(chan struct{})
	go func() {
		_ = rt.AtomicAs(me, func(tx *stm.Tx) error {
			l.Subscribe(tx)
			close(done)
			return nil
		})
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("self-subscription blocked")
	}
	_ = l.ReleaseOutside(rt, me)
}

// TestConcurrentSubscribers: many transactions may subscribe to an unheld
// lock simultaneously without conflicting with each other.
func TestConcurrentSubscribers(t *testing.T) {
	rt := stm.NewDefault()
	l := NewLock()
	data := stm.NewVar(7)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				_ = rt.Atomic(func(tx *stm.Tx) error {
					l.Subscribe(tx)
					_ = data.Get(tx)
					return nil
				})
			}
		}()
	}
	wg.Wait()
	// Read-only subscriptions must not have aborted each other much, and
	// the lock must be free.
	if l.OwnerSnapshot() != 0 {
		t.Error("lock left held")
	}
}

// TestMultiLockNoDeadlock: two threads acquire the same two locks in
// opposite orders inside transactions. With transaction-friendly locks
// this cannot deadlock (acquisition is atomic at commit).
func TestMultiLockNoDeadlock(t *testing.T) {
	rt := stm.NewDefault()
	l1, l2 := NewLock(), NewLock()
	var wg sync.WaitGroup
	run := func(first, second *Lock) {
		defer wg.Done()
		me := rt.NewOwner()
		for i := 0; i < 200; i++ {
			// Acquire both in one transaction (possibly waiting), then
			// release both in another.
			_ = rt.AtomicAs(me, func(tx *stm.Tx) error {
				first.Acquire(tx)
				second.Acquire(tx)
				return nil
			})
			_ = rt.AtomicAs(me, func(tx *stm.Tx) error {
				if err := first.Release(tx); err != nil {
					return err
				}
				return second.Release(tx)
			})
		}
	}
	wg.Add(2)
	go run(l1, l2)
	go run(l2, l1)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("deadlock in opposite-order acquisition")
	}
	if l1.OwnerSnapshot() != 0 || l2.OwnerSnapshot() != 0 {
		t.Error("locks left held")
	}
}

// TestLockAcquisitionSurvivesCommit: a lock acquired in one transaction is
// still held in the next (this is what lets deferred operations run under
// the lock after the deferring transaction commits).
func TestLockAcquisitionSurvivesCommit(t *testing.T) {
	rt := stm.NewDefault()
	l := NewLock()
	me := rt.NewOwner()
	if err := rt.AtomicAs(me, func(tx *stm.Tx) error {
		l.Acquire(tx)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := l.OwnerSnapshot(); got != me {
		t.Fatalf("owner after commit = %d, want %d", got, me)
	}
	// Another transaction's Subscribe must block now.
	blocked := make(chan struct{})
	go func() {
		_ = rt.Atomic(func(tx *stm.Tx) error {
			l.Subscribe(tx)
			close(blocked)
			return nil
		})
	}()
	select {
	case <-blocked:
		t.Fatal("subscription passed a lock held across commit")
	case <-time.After(20 * time.Millisecond):
	}
	if err := l.ReleaseOutside(rt, me); err != nil {
		t.Fatal(err)
	}
	select {
	case <-blocked:
	case <-time.After(5 * time.Second):
		t.Fatal("subscriber never woke")
	}
}

// TestAbortedAcquireLeavesLockFree: if the acquiring transaction aborts,
// the lock was never acquired.
func TestAbortedAcquireLeavesLockFree(t *testing.T) {
	rt := stm.NewDefault()
	l := NewLock()
	sentinel := errors.New("abort")
	err := rt.Atomic(func(tx *stm.Tx) error {
		l.Acquire(tx)
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatal(err)
	}
	if got := l.OwnerSnapshot(); got != 0 {
		t.Errorf("aborted acquire leaked ownership: %d", got)
	}
}
