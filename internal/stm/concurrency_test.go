package stm

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRetryConditionSync: a consumer retries until a producer sets a flag.
func TestRetryConditionSync(t *testing.T) {
	for _, spin := range []bool{false, true} {
		name := "blocking"
		if spin {
			name = "spin"
		}
		t.Run(name, func(t *testing.T) {
			rt := New(Config{SpinRetry: spin})
			flag := NewVar(false)
			box := NewVar(0)
			got := make(chan int, 1)
			go func() {
				_ = rt.Atomic(func(tx *Tx) error {
					if !flag.Get(tx) {
						tx.Retry()
					}
					got <- box.Get(tx)
					return nil
				})
			}()
			// Give the consumer a chance to block.
			time.Sleep(5 * time.Millisecond)
			if err := rt.Atomic(func(tx *Tx) error {
				box.Set(tx, 77)
				flag.Set(tx, true)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			select {
			case v := <-got:
				if v != 77 {
					t.Errorf("consumer got %d, want 77", v)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("consumer never woke from retry")
			}
		})
	}
}

// TestRetryWakesOnlyOnRelevantCommit verifies that unrelated commits do not
// satisfy the condition (the consumer re-checks and sleeps again) and that
// the relevant one does.
func TestRetryReChecksCondition(t *testing.T) {
	rt := NewDefault()
	flag := NewVar(0)
	unrelated := NewVar(0)
	var woke atomic.Int32
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = rt.Atomic(func(tx *Tx) error {
			woke.Add(1)
			if flag.Get(tx) != 3 {
				tx.Retry()
			}
			return nil
		})
	}()
	time.Sleep(2 * time.Millisecond)
	for i := 1; i <= 3; i++ {
		_ = rt.Atomic(func(tx *Tx) error {
			unrelated.Set(tx, i)
			flag.Set(tx, i)
			return nil
		})
		time.Sleep(time.Millisecond)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("retry loop stuck")
	}
	if woke.Load() < 2 {
		t.Errorf("expected multiple wakeups, got %d", woke.Load())
	}
}

// TestMultipleRetryWaiters: all waiters wake when the condition flips.
func TestMultipleRetryWaiters(t *testing.T) {
	rt := NewDefault()
	gate := NewVar(false)
	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = rt.Atomic(func(tx *Tx) error {
				if !gate.Get(tx) {
					tx.Retry()
				}
				return nil
			})
		}()
	}
	time.Sleep(5 * time.Millisecond)
	if err := rt.Atomic(func(tx *Tx) error {
		gate.Set(tx, true)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	doneCh := make(chan struct{})
	go func() { wg.Wait(); close(doneCh) }()
	select {
	case <-doneCh:
	case <-time.After(10 * time.Second):
		t.Fatal("not all retry waiters woke")
	}
}

// TestSerialExcludesOptimistic: while a serial transaction runs, no
// optimistic transaction commits.
func TestSerialExcludesOptimistic(t *testing.T) {
	rt := NewDefault()
	v := NewVar(0)
	inSerial := make(chan struct{})
	releaseSerial := make(chan struct{})
	serialDone := make(chan struct{})
	go func() {
		defer close(serialDone)
		_ = rt.AtomicSerial(func(tx *Tx) error {
			close(inSerial)
			<-releaseSerial
			v.Set(tx, 1)
			return nil
		})
	}()
	<-inSerial
	committed := make(chan struct{})
	go func() {
		_ = rt.Atomic(func(tx *Tx) error {
			v.Set(tx, v.Get(tx)+10)
			return nil
		})
		close(committed)
	}()
	select {
	case <-committed:
		t.Fatal("optimistic transaction committed during serial execution")
	case <-time.After(20 * time.Millisecond):
	}
	close(releaseSerial)
	<-serialDone
	select {
	case <-committed:
	case <-time.After(5 * time.Second):
		t.Fatal("optimistic transaction never resumed after serial")
	}
	if got := v.Load(); got != 11 {
		t.Errorf("v = %d, want 11", got)
	}
}

// TestSerialDrainsActive: a serial transaction waits for in-flight
// optimistic transactions before running.
func TestSerialDrainsActive(t *testing.T) {
	rt := NewDefault()
	v := NewVar(0)
	inOptimistic := make(chan struct{})
	releaseOptimistic := make(chan struct{})
	var once sync.Once
	optDone := make(chan struct{})
	go func() {
		defer close(optDone)
		_ = rt.Atomic(func(tx *Tx) error {
			_ = v.Get(tx)
			once.Do(func() { close(inOptimistic) })
			<-releaseOptimistic
			v.Set(tx, 5)
			return nil
		})
	}()
	<-inOptimistic
	serialStarted := make(chan struct{})
	serialDone := make(chan struct{})
	go func() {
		defer close(serialDone)
		_ = rt.AtomicSerial(func(tx *Tx) error {
			close(serialStarted)
			v.Set(tx, v.Get(tx)+100)
			return nil
		})
	}()
	select {
	case <-serialStarted:
		t.Fatal("serial transaction started while optimistic was active")
	case <-time.After(20 * time.Millisecond):
	}
	close(releaseOptimistic)
	<-optDone
	select {
	case <-serialDone:
	case <-time.After(5 * time.Second):
		t.Fatal("serial transaction never ran")
	}
	if got := v.Load(); got != 105 {
		t.Errorf("v = %d, want 105", got)
	}
}

// TestContentionSerialization: under pathological conflicts the contention
// manager escalates to serial mode and everything still completes.
func TestContentionSerialization(t *testing.T) {
	rt := New(Config{SerializeAfter: 3})
	v := NewVar(0)
	const workers = 8
	const per = 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				_ = rt.Atomic(func(tx *Tx) error {
					v.Set(tx, v.Get(tx)+1)
					return nil
				})
			}
		}()
	}
	wg.Wait()
	if got := v.Load(); got != workers*per {
		t.Errorf("v = %d, want %d", got, workers*per)
	}
}

// TestQuiescenceOrdersHooksAfterConcurrentReaders: a committed writer's
// AfterCommit hook must not run while a transaction that began before the
// commit is still live (privatization safety — the property atomic deferral
// relies on in Listing 1).
func TestQuiescenceOrdersHooksAfterConcurrentReaders(t *testing.T) {
	rt := NewDefault()
	v := NewVar(0)
	other := NewVar(0)

	readerIn := make(chan struct{})
	readerRelease := make(chan struct{})
	readerLive := atomic.Bool{}
	readerLive.Store(true)
	var readerOnce sync.Once

	go func() {
		_ = rt.Atomic(func(tx *Tx) error {
			_ = other.Get(tx) // no conflict with writer
			readerOnce.Do(func() { close(readerIn) })
			<-readerRelease
			readerLive.Store(false)
			return nil
		})
	}()
	<-readerIn

	hookRan := make(chan bool, 1)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		_ = rt.Atomic(func(tx *Tx) error {
			v.Set(tx, 1)
			tx.AfterCommit(func() {
				// If the reader is still live here, quiescence failed.
				hookRan <- readerLive.Load()
			})
			return nil
		})
	}()

	// The writer must be stuck in quiesce: its hook cannot have run.
	select {
	case <-hookRan:
		t.Fatal("hook ran before concurrent transaction finished")
	case <-time.After(20 * time.Millisecond):
	}
	close(readerRelease)
	select {
	case live := <-hookRan:
		if live {
			t.Error("hook observed the concurrent transaction still live")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("hook never ran")
	}
	<-writerDone
	if rt.Snapshot().QuiesceWaits == 0 {
		t.Error("expected a recorded quiesce wait")
	}
}

// TestConcurrentCommittersNoDeadlock: many writers committing (and thus
// quiescing) simultaneously must not deadlock on each other's registry
// slots.
func TestConcurrentCommittersNoDeadlock(t *testing.T) {
	rt := NewDefault()
	vars := make([]*Var[int], 32)
	for i := range vars {
		vars[i] = NewVar(0)
	}
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				idx := (w*7 + i) % len(vars)
				_ = rt.Atomic(func(tx *Tx) error {
					vars[idx].Set(tx, vars[idx].Get(tx)+1)
					return nil
				})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("commit storm deadlocked")
	}
	total := 0
	for _, v := range vars {
		total += v.Load()
	}
	if total != 16*200 {
		t.Errorf("total = %d, want %d", total, 16*200)
	}
}

// TestWriteSkewPrevented: TL2 with commit-time read validation must not
// admit write skew on this classic pattern (each tx reads both vars, writes
// one; invariant x+y <= 1).
func TestWriteSkewPrevented(t *testing.T) {
	rt := NewDefault()
	x := NewVar(0)
	y := NewVar(0)
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		// reset
		_ = rt.Atomic(func(tx *Tx) error { x.Set(tx, 0); y.Set(tx, 0); return nil })
		wg.Add(2)
		go func() {
			defer wg.Done()
			_ = rt.Atomic(func(tx *Tx) error {
				if x.Get(tx)+y.Get(tx) == 0 {
					x.Set(tx, 1)
				}
				return nil
			})
		}()
		go func() {
			defer wg.Done()
			_ = rt.Atomic(func(tx *Tx) error {
				if x.Get(tx)+y.Get(tx) == 0 {
					y.Set(tx, 1)
				}
				return nil
			})
		}()
		wg.Wait()
		if x.Load()+y.Load() > 1 {
			t.Fatalf("write skew: x=%d y=%d", x.Load(), y.Load())
		}
	}
}

// TestLoadNeverTorn: non-transactional Load must always return a committed
// snapshot value, never a mix.
func TestLoadNeverTorn(t *testing.T) {
	type pair struct{ a, b int }
	rt := NewDefault()
	v := NewVar(pair{0, 0})
	stop := make(chan struct{})
	var bad atomic.Int32
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			p := v.Load()
			if p.a != p.b {
				bad.Add(1)
				return
			}
		}
	}()
	for i := 1; i <= 2000; i++ {
		_ = rt.Atomic(func(tx *Tx) error {
			v.Set(tx, pair{i, i})
			return nil
		})
	}
	close(stop)
	wg.Wait()
	if bad.Load() != 0 {
		t.Error("torn read observed")
	}
}
