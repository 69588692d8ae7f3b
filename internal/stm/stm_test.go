package stm

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestVarGetSetBasic(t *testing.T) {
	rt := NewDefault()
	v := NewVar(41)
	err := rt.Atomic(func(tx *Tx) error {
		if got := v.Get(tx); got != 41 {
			t.Errorf("Get = %d, want 41", got)
		}
		v.Set(tx, 42)
		if got := v.Get(tx); got != 42 {
			t.Errorf("read-own-write = %d, want 42", got)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Atomic: %v", err)
	}
	if got := v.Load(); got != 42 {
		t.Errorf("Load after commit = %d, want 42", got)
	}
}

func TestZeroVarUsable(t *testing.T) {
	rt := NewDefault()
	var v Var[string]
	if got := v.Load(); got != "" {
		t.Errorf("zero Var Load = %q, want empty", got)
	}
	if err := rt.Atomic(func(tx *Tx) error {
		if got := v.Get(tx); got != "" {
			t.Errorf("zero Var Get = %q", got)
		}
		v.Set(tx, "hello")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := v.Load(); got != "hello" {
		t.Errorf("Load = %q, want hello", got)
	}
}

func TestAbortDiscardsWrites(t *testing.T) {
	rt := NewDefault()
	v := NewVar(1)
	sentinel := errors.New("user abort")
	err := rt.Atomic(func(tx *Tx) error {
		v.Set(tx, 99)
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if got := v.Load(); got != 1 {
		t.Errorf("aborted write leaked: %d", got)
	}
}

func TestUserErrorAbortsSerial(t *testing.T) {
	rt := NewDefault()
	v := NewVar(1)
	sentinel := errors.New("boom")
	err := rt.AtomicSerial(func(tx *Tx) error {
		v.Set(tx, 99)
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if got := v.Load(); got != 1 {
		t.Errorf("serial aborted write leaked: %d", got)
	}
}

func TestUserPanicPropagatesAndCleansUp(t *testing.T) {
	rt := NewDefault()
	v := NewVar(1)
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("expected panic to propagate")
			}
		}()
		_ = rt.Atomic(func(tx *Tx) error {
			v.Set(tx, 99)
			panic("user panic")
		})
	}()
	if got := v.Load(); got != 1 {
		t.Errorf("write visible after panic: %d", got)
	}
	// The runtime must still be usable (slot released).
	done := make(chan struct{})
	go func() {
		_ = rt.AtomicSerial(func(tx *Tx) error { return nil })
		close(done)
	}()
	<-done
}

func TestMultipleVarsAtomicity(t *testing.T) {
	rt := NewDefault()
	a := NewVar(100)
	b := NewVar(0)
	const transfer = 30
	if err := rt.Atomic(func(tx *Tx) error {
		a.Set(tx, a.Get(tx)-transfer)
		b.Set(tx, b.Get(tx)+transfer)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if a.Load()+b.Load() != 100 {
		t.Errorf("sum violated: %d + %d", a.Load(), b.Load())
	}
	if a.Load() != 70 || b.Load() != 30 {
		t.Errorf("got a=%d b=%d", a.Load(), b.Load())
	}
}

func TestConcurrentCounter(t *testing.T) {
	rt := NewDefault()
	v := NewVar(0)
	const workers = 8
	const perWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if err := rt.Atomic(func(tx *Tx) error {
					v.Set(tx, v.Get(tx)+1)
					return nil
				}); err != nil {
					t.Errorf("Atomic: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := v.Load(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
}

// TestBankInvariant moves money among accounts from many goroutines and
// checks, transactionally and finally, that the total is conserved.
func TestBankInvariant(t *testing.T) {
	rt := NewDefault()
	const nAccounts = 16
	const initial = 1000
	accounts := make([]*Var[int], nAccounts)
	for i := range accounts {
		accounts[i] = NewVar(initial)
	}
	var stop atomic.Bool
	var auditors, movers sync.WaitGroup
	// Auditors: transactional sum must always be exact.
	for a := 0; a < 2; a++ {
		auditors.Add(1)
		go func() {
			defer auditors.Done()
			for !stop.Load() {
				sum := 0
				if err := rt.Atomic(func(tx *Tx) error {
					sum = 0
					for _, acct := range accounts {
						sum += acct.Get(tx)
					}
					return nil
				}); err != nil {
					t.Errorf("audit: %v", err)
					return
				}
				if sum != nAccounts*initial {
					t.Errorf("audit saw inconsistent total %d", sum)
					return
				}
			}
		}()
	}
	// Movers.
	for w := 0; w < 6; w++ {
		movers.Add(1)
		go func(seed uint64) {
			defer movers.Done()
			rng := seed*2654435761 + 1
			next := func(n int) int {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return int(rng % uint64(n))
			}
			for i := 0; i < 400; i++ {
				from, to := next(nAccounts), next(nAccounts)
				if from == to {
					continue
				}
				amt := next(50) + 1
				if err := rt.Atomic(func(tx *Tx) error {
					f := accounts[from].Get(tx)
					if f < amt {
						return nil // insufficient; commit no-op
					}
					accounts[from].Set(tx, f-amt)
					accounts[to].Set(tx, accounts[to].Get(tx)+amt)
					return nil
				}); err != nil {
					t.Errorf("move: %v", err)
					return
				}
			}
		}(uint64(w) + 1)
	}
	movers.Wait()
	stop.Store(true)
	auditors.Wait()
	total := 0
	for _, acct := range accounts {
		total += acct.Load()
	}
	if total != nAccounts*initial {
		t.Errorf("final total = %d, want %d", total, nAccounts*initial)
	}
}

func TestReadOnlyTxNoClockAdvance(t *testing.T) {
	rt := NewDefault()
	v := NewVar(7)
	before := rt.clock.Load()
	for i := 0; i < 10; i++ {
		if err := rt.Atomic(func(tx *Tx) error {
			_ = v.Get(tx)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if after := rt.clock.Load(); after != before {
		t.Errorf("read-only transactions advanced the clock: %d -> %d", before, after)
	}
}

func TestExtensionOnConcurrentCommit(t *testing.T) {
	rt := NewDefault()
	a := NewVar(1)
	b := NewVar(2)
	// Transaction reads a, then another transaction commits to b, then the
	// first reads b: the read of b sees a version > rv and must extend
	// (a unchanged, so extension succeeds) rather than abort.
	//
	// The conflicting commit runs on another goroutine (a writer's commit
	// quiesces, i.e. waits for this transaction to finish, so it cannot run
	// inline); we only wait for its update to become visible.
	var wg sync.WaitGroup
	attempts := 0
	if err := rt.Atomic(func(tx *Tx) error {
		attempts++
		_ = a.Get(tx)
		if attempts == 1 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_ = rt.Atomic(func(tx2 *Tx) error {
					b.Set(tx2, 20)
					return nil
				})
			}()
			for b.Load() != 20 {
				// busy-wait for visibility; the writer publishes
				// before it quiesces
			}
		}
		_ = b.Get(tx)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if attempts != 1 {
		t.Errorf("expected extension (1 attempt), got %d attempts", attempts)
	}
	if rt.Snapshot().Extensions == 0 {
		t.Error("no extension recorded")
	}
}

func TestAbortWhenExtensionImpossible(t *testing.T) {
	rt := NewDefault()
	a := NewVar(1)
	b := NewVar(2)
	var wg sync.WaitGroup
	attempts := 0
	if err := rt.Atomic(func(tx *Tx) error {
		attempts++
		_ = a.Get(tx)
		if attempts == 1 {
			// Invalidate a itself, so extension must fail.
			wg.Add(1)
			go func() {
				defer wg.Done()
				_ = rt.Atomic(func(tx2 *Tx) error {
					a.Set(tx2, 10)
					b.Set(tx2, 20)
					return nil
				})
			}()
			for a.Load() != 10 {
				// wait for visibility
			}
		}
		_ = b.Get(tx) // forces validation; first attempt must abort
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if attempts < 2 {
		t.Errorf("expected abort+retry, got %d attempts", attempts)
	}
}

func TestStoreDirectVisibleAndVersioned(t *testing.T) {
	rt := NewDefault()
	v := NewVar(5)
	before := v.Version()
	v.StoreDirect(rt, 6)
	if got := v.Load(); got != 6 {
		t.Errorf("Load = %d, want 6", got)
	}
	if v.Version() <= before {
		t.Errorf("StoreDirect did not bump version: %d -> %d", before, v.Version())
	}
	// A transaction that read v before the StoreDirect must not commit a
	// stale dependent write.
	attempts := 0
	if err := rt.Atomic(func(tx *Tx) error {
		attempts++
		x := v.Get(tx)
		if attempts == 1 {
			v.StoreDirect(rt, 100)
		}
		v.Set(tx, x+1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := v.Load(); got != 101 {
		t.Errorf("lost update: v = %d, want 101", got)
	}
}

func TestAfterCommitOrderingAndDiscard(t *testing.T) {
	rt := NewDefault()
	v := NewVar(0)
	var order []string
	var mu sync.Mutex
	add := func(s string) func() {
		return func() {
			mu.Lock()
			order = append(order, s)
			mu.Unlock()
		}
	}
	sentinel := errors.New("no")
	// Aborted transaction: hooks must not run.
	_ = rt.Atomic(func(tx *Tx) error {
		tx.AfterCommit(add("discarded"))
		return sentinel
	})
	if err := rt.Atomic(func(tx *Tx) error {
		v.Set(tx, 1)
		tx.AfterCommit(add("first"))
		tx.AfterCommit(add("second"))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []string{"first", "second"}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestAfterCommitHookCanRunTransactions(t *testing.T) {
	rt := NewDefault()
	v := NewVar(0)
	w := NewVar(0)
	if err := rt.Atomic(func(tx *Tx) error {
		v.Set(tx, 1)
		tx.AfterCommit(func() {
			if err := rt.Atomic(func(tx2 *Tx) error {
				w.Set(tx2, v.Get(tx2)+10)
				return nil
			}); err != nil {
				t.Errorf("hook transaction: %v", err)
			}
		})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := w.Load(); got != 11 {
		t.Errorf("w = %d, want 11", got)
	}
}

func TestIrrevocableEscalatesSTM(t *testing.T) {
	rt := NewDefault()
	v := NewVar(0)
	sideEffects := 0
	if err := rt.Atomic(func(tx *Tx) error {
		tx.Irrevocable()
		if !tx.serial {
			t.Error("expected serial mode after Irrevocable")
		}
		sideEffects++ // safe: irrevocable runs at most once past this point
		v.Set(tx, sideEffects)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if sideEffects != 1 {
		t.Errorf("irrevocable section ran %d times", sideEffects)
	}
	if got := v.Load(); got != 1 {
		t.Errorf("v = %d", got)
	}
	if rt.Snapshot().Serializations == 0 {
		t.Error("no serialization recorded")
	}
}

func TestNestedFlattening(t *testing.T) {
	rt := NewDefault()
	v := NewVar(0)
	if err := rt.Atomic(func(tx *Tx) error {
		v.Set(tx, 1)
		return tx.Nested(func(tx *Tx) error {
			if v.Get(tx) != 1 {
				t.Error("nested tx does not see outer write")
			}
			v.Set(tx, 2)
			return nil
		})
	}); err != nil {
		t.Fatal(err)
	}
	if got := v.Load(); got != 2 {
		t.Errorf("v = %d, want 2", got)
	}
	// A nested error aborts the whole flattened transaction.
	sentinel := errors.New("inner")
	err := rt.Atomic(func(tx *Tx) error {
		v.Set(tx, 99)
		return tx.Nested(func(tx *Tx) error { return sentinel })
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if got := v.Load(); got != 2 {
		t.Errorf("flattened abort leaked write: %d", got)
	}
}

func TestTxUseOutsideTransactionPanics(t *testing.T) {
	rt := NewDefault()
	var leaked *Tx
	if err := rt.Atomic(func(tx *Tx) error {
		leaked = tx
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on use of escaped Tx")
		}
	}()
	v := NewVar(0)
	_ = v.Get(leaked)
}

func TestStatsCounting(t *testing.T) {
	rt := NewDefault()
	v := NewVar(0)
	before := rt.Snapshot()
	for i := 0; i < 5; i++ {
		if err := rt.Atomic(func(tx *Tx) error {
			v.Set(tx, i)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	d := rt.Snapshot().Sub(before)
	if d.Commits != 5 {
		t.Errorf("commits = %d, want 5", d.Commits)
	}
	if d.Starts < 5 {
		t.Errorf("starts = %d, want >= 5", d.Starts)
	}
	if s := d.String(); s == "" {
		t.Error("empty stats string")
	}
}

func TestModeString(t *testing.T) {
	if ModeSTM.String() != "STM" || ModeHTM.String() != "HTM" {
		t.Error("Mode.String broken")
	}
	if Mode(9).String() != "Mode(?)" {
		t.Error("unknown mode string")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.SerializeAfter != 100 {
		t.Errorf("STM SerializeAfter = %d, want 100 (GCC default)", c.SerializeAfter)
	}
	h := Config{Mode: ModeHTM}.withDefaults()
	if h.SerializeAfter != 2 {
		t.Errorf("HTM SerializeAfter = %d, want 2 (GCC default)", h.SerializeAfter)
	}
	if h.HTMWriteLines != DefaultHTMWriteLines || h.HTMReadLines != DefaultHTMReadLines {
		t.Error("HTM capacity defaults not applied")
	}
}

func TestOwnerIDsUnique(t *testing.T) {
	rt := NewDefault()
	seen := make(map[OwnerID]bool)
	for i := 0; i < 100; i++ {
		id := rt.NewOwner()
		if id == 0 {
			t.Fatal("zero OwnerID allocated")
		}
		if seen[id] {
			t.Fatalf("duplicate OwnerID %d", id)
		}
		seen[id] = true
	}
}

func TestAtomicAsPropagatesOwner(t *testing.T) {
	rt := NewDefault()
	me := rt.NewOwner()
	if err := rt.AtomicAs(me, func(tx *Tx) error {
		if tx.Owner() != me {
			t.Errorf("tx.Owner() = %d, want %d", tx.Owner(), me)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestTxStringer(t *testing.T) {
	rt := NewDefault()
	_ = rt.Atomic(func(tx *Tx) error {
		if s := tx.String(); s == "" {
			t.Error("empty Tx string")
		}
		return nil
	})
	for _, r := range []abortReason{abortNone, abortConflict, abortCapacity, abortSyscall, abortExplicitRetry, abortEscalate} {
		if r.String() == "" {
			t.Error("empty reason string")
		}
	}
}

func ExampleRuntime_Atomic() {
	rt := NewDefault()
	balance := NewVar(100)
	_ = rt.Atomic(func(tx *Tx) error {
		balance.Set(tx, balance.Get(tx)-25)
		return nil
	})
	fmt.Println(balance.Load())
	// Output: 75
}

// A committed transaction's post-commit pipeline runs to the end even if a
// hook panics: later hooks, then the first panic again.
func TestPanickingHookStillRunsLaterHooks(t *testing.T) {
	rt := NewDefault()
	var order []string
	func() {
		defer func() {
			if r := recover(); r != "hook 1" {
				t.Errorf("recovered %v, want the first hook's panic", r)
			}
		}()
		_ = rt.Atomic(func(tx *Tx) error {
			tx.AfterCommit(func() { order = append(order, "hook 1"); panic("hook 1") })
			tx.AfterCommit(func() { order = append(order, "hook 2"); panic("hook 2") })
			tx.AfterCommit(func() { order = append(order, "hook 3") })
			return nil
		})
	}()
	if got, want := strings.Join(order, ", "), "hook 1, hook 2, hook 3"; got != want {
		t.Errorf("post-commit order %q, want %q", got, want)
	}
	// The descriptor went back to the pool clean.
	ran := false
	if err := rt.Atomic(func(tx *Tx) error {
		tx.AfterCommit(func() { ran = true })
		return nil
	}); err != nil || !ran {
		t.Errorf("transaction after the panic: err %v, hook ran %v", err, ran)
	}
}

// Recording disabled must leave no trace: a runtime without a recorder
// assigns no transaction IDs and emits nothing.
func TestNilRecorderFastPath(t *testing.T) {
	rt := NewDefault()
	v := NewVar(0)
	var id uint64 = 999
	if err := rt.Atomic(func(tx *Tx) error {
		v.Set(tx, 1)
		id = tx.id
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if id != 0 {
		t.Fatalf("tx ID assigned without a recorder: %d", id)
	}
}
