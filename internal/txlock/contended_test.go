// The direct release under contention: many deferring transactions on ONE
// object, so every release has waiters parked on the lock's variable and a
// lost wake-up would hang the run.
package txlock_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"deferstm/internal/check"
	"deferstm/internal/core"
	"deferstm/internal/history"
	"deferstm/internal/stm"
)

// tally counts twice: seq inside the deferring transaction, n inside the
// deferred operation, which only the lock protects.
type tally struct {
	core.Deferrable
	seq stm.Var[int]
	n   int
}

// contend runs workers goroutines of per deferrals each on one tally,
// beside a serial-mode observer of its lock, and checks that nothing was
// lost and nobody is left waiting.
func contend(t *testing.T, rt *stm.Runtime, workers, per int) {
	t.Helper()
	obj := &tally{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				// fn cannot fail: Atomic only returns fn's own error.
				_ = rt.Atomic(func(tx *stm.Tx) error {
					obj.Subscribe(tx)
					obj.seq.Set(tx, obj.seq.Get(tx)+1)
					core.AtomicDefer(tx, func(*core.OpCtx) {
						obj.n++
						// Hand the core over while holding the lock, so
						// that even one core has the others run into it.
						runtime.Gosched()
					}, obj)
					return nil
				})
			}
		}()
	}

	// A serial transaction holds no registry slot and validates nothing:
	// it reads the lock while direct releases land. One read must show
	// one state — unheld, or an owner at depth >= 1.
	var stop atomic.Bool
	observed := make(chan struct{})
	go func() {
		defer close(observed)
		for !stop.Load() {
			_ = rt.AtomicSerial(func(tx *stm.Tx) error {
				if o, d := obj.Lock().Peek(tx); (o == 0) != (d == 0) || d < 0 {
					t.Errorf("serial reader saw owner %d at depth %d", o, d)
					stop.Store(true)
				}
				return nil
			})
			runtime.Gosched()
		}
	}()
	wg.Wait()
	stop.Store(true)
	<-observed

	want := workers * per
	if got := obj.seq.Load(); got != want || obj.n != want {
		t.Errorf("seq = %d, n = %d, want %d each", got, obj.n, want)
	}
	if obj.Locked() {
		t.Error("lock left held")
	}
	if n := obj.Lock().Watchers(); n != 0 {
		t.Errorf("%d watchers left on the lock", n)
	}
	if n := rt.RetryParked(); n != 0 {
		t.Errorf("%d transactions still parked", n)
	}
	if rt.Snapshot().RetryParks == 0 {
		t.Error("no transaction ever parked: the run did not contend")
	}
}

func TestContendedDeferralNoLostWakeup(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		contend(t, stm.NewDefault(), 4, 20000)
		runtime.GOMAXPROCS(prev)
	}
}

// The same run, recorded: the history must satisfy every rule, the
// deferral-atomicity and two-phase-locking rules among them, with each
// release now a direct write and a lock event of its own instead of a
// transaction.
func TestContendedDeferralHistory(t *testing.T) {
	log := history.New()
	contend(t, stm.New(stm.Config{Recorder: log}), 4, 1000)
	r := check.History(log.Events())
	if !r.OK() {
		t.Fatalf("history rejected:\n%s", r)
	}
	if r.DeferOps != 4*1000 {
		t.Errorf("checked %d deferred operations, want %d", r.DeferOps, 4*1000)
	}
}
