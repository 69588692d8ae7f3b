package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deferstm/internal/stm"
)

// counter is a minimal deferrable object with one shared field.
type counter struct {
	Deferrable
	n stm.Var[int]
}

// GetN is a transaction-safe method: subscribe first, then read.
func (c *counter) GetN(tx *stm.Tx) int {
	c.Subscribe(tx)
	return c.n.Get(tx)
}

// SetN is a transaction-safe method: subscribe first, then write.
func (c *counter) SetN(tx *stm.Tx, v int) {
	c.Subscribe(tx)
	c.n.Set(tx, v)
}

func TestDeferredOpRunsAfterCommit(t *testing.T) {
	rt := stm.NewDefault()
	c := &counter{}
	v := stm.NewVar(0)
	var ran atomic.Bool
	if err := rt.Atomic(func(tx *stm.Tx) error {
		v.Set(tx, 10)
		AtomicDefer(tx, func(ctx *OpCtx) {
			// The deferred operation sees the transaction's committed
			// writes.
			if got := v.Load(); got != 10 {
				t.Errorf("deferred op saw v=%d, want 10", got)
			}
			Store(ctx, &c.n, 1)
			ran.Store(true)
		}, c)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !ran.Load() {
		t.Fatal("deferred op did not run")
	}
	if got := c.n.Load(); got != 1 {
		t.Errorf("c.n = %d, want 1", got)
	}
	if c.Locked() {
		t.Error("lock not released after deferred op")
	}
	if rt.Snapshot().DeferredOps != 1 {
		t.Error("DeferredOps stat not incremented")
	}
}

func TestDeferredOpsOrderAndVisibility(t *testing.T) {
	rt := stm.NewDefault()
	c := &counter{}
	var order []int
	if err := rt.Atomic(func(tx *stm.Tx) error {
		AtomicDefer(tx, func(ctx *OpCtx) {
			order = append(order, 1)
			Store(ctx, &c.n, 100)
		}, c)
		AtomicDefer(tx, func(ctx *OpCtx) {
			// Effects of earlier deferred operations are visible to
			// later ones.
			if got := Load(ctx, &c.n); got != 100 {
				t.Errorf("second op saw n=%d, want 100", got)
			}
			order = append(order, 2)
		}, c)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Errorf("order = %v, want [1 2]", order)
	}
	if c.Locked() {
		t.Error("reentrant lock not fully released")
	}
}

func TestAbortedTransactionDefersNothing(t *testing.T) {
	rt := stm.NewDefault()
	c := &counter{}
	sentinel := errors.New("abort")
	err := rt.Atomic(func(tx *stm.Tx) error {
		AtomicDefer(tx, func(ctx *OpCtx) {
			t.Error("deferred op ran for aborted transaction")
		}, c)
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatal(err)
	}
	if c.Locked() {
		t.Error("aborted transaction left the lock held")
	}
}

// TestSerializability is the paper's core claim: no concurrent transaction
// can observe a state reflecting the transaction's effects but not its
// deferred operation's. The transaction sets a=1 transactionally and b=1
// in a deferred operation; observers that follow the subscribe-first
// discipline must never see (a=1, b=0).
func TestSerializability(t *testing.T) {
	type obj struct {
		Deferrable
		a, b stm.Var[int]
	}
	rt := stm.NewDefault()
	o := &obj{}
	const rounds = 200

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var violations atomic.Int64
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var a, b int
				_ = rt.Atomic(func(tx *stm.Tx) error {
					o.Subscribe(tx)
					a = o.a.Get(tx)
					b = o.b.Get(tx)
					return nil
				})
				if a != b {
					violations.Add(1)
					return
				}
			}
		}()
	}

	for i := 1; i <= rounds; i++ {
		if err := rt.Atomic(func(tx *stm.Tx) error {
			o.Subscribe(tx)
			o.a.Set(tx, i)
			i := i
			AtomicDefer(tx, func(ctx *OpCtx) {
				// A slow deferred operation widens the window in which
				// a=i but b<i — observable only if locking is broken.
				time.Sleep(50 * time.Microsecond)
				Store(ctx, &o.b, i)
			}, o)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if n := violations.Load(); n != 0 {
		t.Fatalf("%d serializability violations (observed a != b)", n)
	}
	if o.a.Load() != rounds || o.b.Load() != rounds {
		t.Errorf("final state a=%d b=%d, want %d/%d", o.a.Load(), o.b.Load(), rounds, rounds)
	}
}

// TestSubscriberBlocksDuringDeferredOp: a transaction calling a method of
// a deferrable object while its deferred operation is in flight must wait
// for the operation to finish.
func TestSubscriberBlocksDuringDeferredOp(t *testing.T) {
	rt := stm.NewDefault()
	c := &counter{}
	opStarted := make(chan struct{})
	opRelease := make(chan struct{})
	committed := make(chan struct{})
	go func() {
		_ = rt.Atomic(func(tx *stm.Tx) error {
			c.SetN(tx, 5)
			AtomicDefer(tx, func(ctx *OpCtx) {
				close(opStarted)
				<-opRelease
				Store(ctx, &c.n, 6)
			}, c)
			return nil
		})
		close(committed)
	}()
	<-opStarted

	got := make(chan int, 1)
	go func() {
		var n int
		_ = rt.Atomic(func(tx *stm.Tx) error {
			n = c.GetN(tx)
			return nil
		})
		got <- n
	}()
	select {
	case n := <-got:
		t.Fatalf("reader returned %d during deferred op", n)
	case <-time.After(20 * time.Millisecond):
	}
	close(opRelease)
	<-committed
	select {
	case n := <-got:
		if n != 6 {
			t.Errorf("reader got %d, want 6 (post-deferred state)", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reader never resumed")
	}
}

// TestNonSubscribedAccessProceeds: transactions touching other objects are
// not blocked by an in-flight deferred operation (the whole point of
// deferral vs. irrevocability — the right side of the paper's Figure 1).
func TestNonSubscribedAccessProceeds(t *testing.T) {
	rt := stm.NewDefault()
	c := &counter{}
	other := stm.NewVar(0)
	opStarted := make(chan struct{})
	opRelease := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = rt.Atomic(func(tx *stm.Tx) error {
			c.SetN(tx, 1)
			AtomicDefer(tx, func(ctx *OpCtx) {
				close(opStarted)
				<-opRelease
			}, c)
			return nil
		})
	}()
	<-opStarted
	// A transaction on unrelated state must commit while the deferred
	// operation is still running.
	finished := make(chan struct{})
	go func() {
		_ = rt.Atomic(func(tx *stm.Tx) error {
			other.Set(tx, other.Get(tx)+1)
			return nil
		})
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(5 * time.Second):
		t.Fatal("unrelated transaction blocked by deferred operation")
	}
	close(opRelease)
	<-done
}

func TestPanicInOpReleasesLocks(t *testing.T) {
	rt := stm.NewDefault()
	c := &counter{}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate")
			}
		}()
		_ = rt.Atomic(func(tx *stm.Tx) error {
			AtomicDefer(tx, func(ctx *OpCtx) {
				panic("op failed")
			}, c)
			return nil
		})
	}()
	if c.Locked() {
		t.Error("lock leaked after op panic")
	}
}

func TestDeferWithNoObjects(t *testing.T) {
	rt := stm.NewDefault()
	ran := false
	if err := rt.Atomic(func(tx *stm.Tx) error {
		AtomicDefer(tx, func(ctx *OpCtx) { ran = true })
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("lock-free deferred op did not run")
	}
}

func TestDeferNilObjectSkipped(t *testing.T) {
	rt := stm.NewDefault()
	ran := false
	if err := rt.Atomic(func(tx *stm.Tx) error {
		AtomicDefer(tx, func(ctx *OpCtx) { ran = true }, nil)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("op with nil deferrable did not run")
	}
}

// TestOpCtxAtomicReentersOwnLock: a deferred operation can run follow-up
// transactions that subscribe to (or acquire) the locks it already holds.
func TestOpCtxAtomicReentersOwnLock(t *testing.T) {
	rt := stm.NewDefault()
	c := &counter{}
	var got int
	if err := rt.Atomic(func(tx *stm.Tx) error {
		c.SetN(tx, 3)
		AtomicDefer(tx, func(ctx *OpCtx) {
			if err := ctx.Atomic(func(tx2 *stm.Tx) error {
				// Subscribe sees "held by me" and passes.
				got = c.GetN(tx2)
				c.SetN(tx2, got*2)
				return nil
			}); err != nil {
				t.Errorf("ctx.Atomic: %v", err)
			}
		}, c)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Errorf("op read %d, want 3", got)
	}
	if n := c.n.Load(); n != 6 {
		t.Errorf("n = %d, want 6", n)
	}
	if ctxOwner := c.Locked(); ctxOwner {
		t.Error("lock leaked")
	}
}

// TestSharedObjectAcrossTwoDefers: the same object passed to two deferred
// operations in one transaction stays locked until the second completes.
func TestSharedObjectAcrossTwoDefers(t *testing.T) {
	rt := stm.NewDefault()
	c := &counter{}
	var lockedDuringSecond bool
	if err := rt.Atomic(func(tx *stm.Tx) error {
		AtomicDefer(tx, func(ctx *OpCtx) {}, c)
		AtomicDefer(tx, func(ctx *OpCtx) {
			lockedDuringSecond = c.Locked()
		}, c)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !lockedDuringSecond {
		t.Error("object unlocked before its second deferred op ran")
	}
	if c.Locked() {
		t.Error("lock not released at the end")
	}
}

// TestConcurrentDeferStress: many threads defer updates to a small set of
// objects; per-object monotonic sequence numbers written only by deferred
// ops must never go backwards and must total correctly.
func TestConcurrentDeferStress(t *testing.T) {
	rt := stm.NewDefault()
	const nObjs = 4
	objs := make([]*counter, nObjs)
	for i := range objs {
		objs[i] = &counter{}
	}
	const workers, per = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				obj := objs[(seed+i)%nObjs]
				err := rt.Atomic(func(tx *stm.Tx) error {
					obj.Subscribe(tx)
					AtomicDefer(tx, func(ctx *OpCtx) {
						// increment under the object's lock, non-transactionally
						Store(ctx, &obj.n, Load(ctx, &obj.n)+1)
					}, obj)
					return nil
				})
				if err != nil {
					t.Errorf("atomic: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, o := range objs {
		total += o.n.Load()
		if o.Locked() {
			t.Error("object left locked")
		}
	}
	if total != workers*per {
		t.Errorf("total = %d, want %d (lost deferred updates)", total, workers*per)
	}
}

// TestDeferUnderHTM: atomic deferral works identically under the simulated
// HTM mode (the paper's +DeferIO/+DeferAll HTM curves rely on this).
func TestDeferUnderHTM(t *testing.T) {
	rt := stm.New(stm.Config{Mode: stm.ModeHTM})
	c := &counter{}
	if err := rt.Atomic(func(tx *stm.Tx) error {
		c.SetN(tx, 1)
		AtomicDefer(tx, func(ctx *OpCtx) {
			Store(ctx, &c.n, 2)
		}, c)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := c.n.Load(); got != 2 {
		t.Errorf("n = %d, want 2", got)
	}
	if c.Locked() {
		t.Error("lock leaked under HTM")
	}
}

// TestDeferFromSerialTransaction: atomic_defer composes with irrevocable
// (serial) transactions — the deferred op still runs post-commit with the
// locks held, after the serial gate is released.
func TestDeferFromSerialTransaction(t *testing.T) {
	rt := stm.NewDefault()
	c := &counter{}
	ran := false
	if err := rt.AtomicSerial(func(tx *stm.Tx) error {
		c.SetN(tx, 7)
		AtomicDefer(tx, func(ctx *OpCtx) {
			ran = true
			if got := Load(ctx, &c.n); got != 7 {
				t.Errorf("deferred op saw n=%d", got)
			}
			// The op can run transactions (the gate must be free).
			if err := ctx.Atomic(func(tx2 *stm.Tx) error {
				c.SetN(tx2, 8)
				return nil
			}); err != nil {
				t.Errorf("ctx.Atomic: %v", err)
			}
		}, c)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("deferred op did not run")
	}
	if c.Locked() {
		t.Error("lock leaked")
	}
	if got := c.n.Load(); got != 8 {
		t.Errorf("n = %d, want 8", got)
	}
}

// TestDeferEscalatedTransaction: a transaction that becomes irrevocable
// *after* registering a deferred op re-executes serially; the deferral
// registered by the aborted optimistic attempt is discarded and the
// serial attempt's deferral runs exactly once.
func TestDeferEscalatedTransaction(t *testing.T) {
	rt := stm.NewDefault()
	c := &counter{}
	runs := 0
	if err := rt.Atomic(func(tx *stm.Tx) error {
		AtomicDefer(tx, func(ctx *OpCtx) {
			runs++
		}, c)
		tx.Irrevocable() // escalates (restarts serially) on the first attempt
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if runs != 1 {
		t.Errorf("deferred op ran %d times, want 1", runs)
	}
	if c.Locked() {
		t.Error("lock leaked")
	}
}

// TestPanicInOpRunsLaterOps: the transaction committed, so all of its
// deferred operations are part of it. One that panics must not keep a
// later one from running — nobody else would ever release that one's
// locks; the panic still reaches the caller.
func TestPanicInOpRunsLaterOps(t *testing.T) {
	rt := stm.NewDefault()
	a, b := &counter{}, &counter{}
	secondRan := false
	func() {
		defer func() {
			if r := recover(); r != "first op failed" {
				t.Errorf("recovered %v, want the first op's panic", r)
			}
		}()
		_ = rt.Atomic(func(tx *stm.Tx) error {
			AtomicDefer(tx, func(*OpCtx) { panic("first op failed") }, a)
			AtomicDefer(tx, func(*OpCtx) { secondRan = true }, b)
			AtomicDefer(tx, func(*OpCtx) { panic("third op failed") }, a, b)
			return nil
		})
	}()
	if !secondRan {
		t.Error("the op after the panicking one never ran")
	}
	if a.Locked() || b.Locked() {
		t.Errorf("locks leaked: a.Locked()=%v b.Locked()=%v", a.Locked(), b.Locked())
	}
}

// TestDeferralIsOneCommit: a deferral is its transaction and nothing more —
// the release is a publish by the lock's holder, not a second transaction.
func TestDeferralIsOneCommit(t *testing.T) {
	rt := stm.NewDefault()
	a, b := &counter{}, &counter{}
	for _, objs := range [][]Object{{a}, {a, b}, {a, b, a}} {
		before := rt.Snapshot()
		if err := rt.Atomic(func(tx *stm.Tx) error {
			AtomicDefer(tx, func(*OpCtx) {}, objs...)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		d := rt.Snapshot().Sub(before)
		if d.Starts != 1 || d.Commits != 1 || d.DeferredOps != 1 {
			t.Errorf("%d objects: %d starts, %d commits, %d deferred ops, want 1 of each",
				len(objs), d.Starts, d.Commits, d.DeferredOps)
		}
		if a.Locked() || b.Locked() {
			t.Fatalf("%d objects: lock left held", len(objs))
		}
	}
}

// TestAtomicDeferAllocs pins what a deferral allocates beyond its
// transaction: the lock's state box, and nothing else. The deferred record
// and its bound run method are recycled; the release installs no box
// (depth 1 goes to none).
func TestAtomicDeferAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; bound holds only unraced")
	}
	rt := stm.NewDefault()
	c := &counter{}
	op := func(*OpCtx) {}
	body := func(tx *stm.Tx) error {
		AtomicDefer(tx, op, c)
		return nil
	}
	for i := 0; i < 32; i++ { // warm the descriptor pool and slice capacity
		_ = rt.Atomic(body)
	}
	if n := testing.AllocsPerRun(200, func() { _ = rt.Atomic(body) }); n > 1 {
		t.Fatalf("a one-object deferral allocates %.1f objects, want <= 1", n)
	}
}
