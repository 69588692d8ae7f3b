package stm

import (
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// TestVarLayout pins a Var at 32 bytes — two to a cache line in a bucket
// array — and makes a new field say why every Var should carry it: only
// what every transactional access needs lives in the Var itself; the rest
// goes behind side (varSide), which most Vars never allocate.
func TestVarLayout(t *testing.T) {
	const hot = " id lock side val "
	fields := 0
	var walk func(typ reflect.Type)
	walk = func(typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if f.Name == "m" {
				walk(f.Type)
				continue
			}
			fields++
			if !strings.Contains(hot, " "+f.Name+" ") {
				t.Errorf("Var field %s is not on this test's list: if not every access needs it, it belongs in varSide", f.Name)
			}
		}
	}
	walk(reflect.TypeOf(Var[int]{}))
	if fields != 4 {
		t.Errorf("Var has %d fields, want the 4 in %q", fields, hot)
	}
	if sz := unsafe.Sizeof(Var[int]{}); sz != 32 {
		t.Errorf("Var[int] is %d bytes, want 32", sz)
	}
	if sz := unsafe.Sizeof(Var[[4]string]{}); sz != 32 {
		t.Errorf("Var of a 64-byte T is %d bytes, want 32: the value lives in its box", sz)
	}
}

// TestOwnLockValidates: a commit that both read and wrote a var finds that
// var locked — by itself — when it validates its read set, and must tell
// its own lock from a conflict by consulting its write set (there is no
// owner field to ask). Validation is forced by a foreign commit landing
// between the transaction's begin and its commit, so its write version is
// not rv+1 and TL2's skip does not apply. Small write sets answer by
// linear scan, spilled ones through the overflow map, whose indices are
// stale by then but whose keys are not.
func TestOwnLockValidates(t *testing.T) {
	for _, n := range []int{1, smallWriteSet, 3*smallWriteSet + 1} {
		rt := NewDefault()
		vars := make([]*Var[int], n)
		for i := range vars {
			vars[i] = NewVar(0)
		}
		// Descending IDs in program order, so sortWrites really permutes.
		for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
			vars[i], vars[j] = vars[j], vars[i]
		}
		other := NewVar(0)
		before := rt.Snapshot()
		attempts := 0
		if err := rt.Atomic(func(tx *Tx) error {
			attempts = tx.attempts
			for _, v := range vars {
				v.Set(tx, v.Get(tx)+1)
			}
			if (n > smallWriteSet) != (tx.wmap != nil) {
				t.Errorf("n=%d: spilled=%v", n, tx.wmap != nil)
			}
			// A foreign commit on an unrelated var moves the clock past
			// rv+1. Its quiesce waits for this transaction, so it is not
			// joined here — only its publish is awaited.
			// (First attempt only: a retry has already failed the test, and
			// a serial one would wait on a commit its own gate holds back.)
			if attempts == 1 {
				clock := rt.clock.Load()
				go func() {
					_ = rt.Atomic(func(tx *Tx) error { other.Set(tx, 1); return nil })
				}()
				for rt.clock.Load() == clock {
					time.Sleep(50 * time.Microsecond)
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		d := rt.Snapshot().Sub(before)
		if attempts != 1 || d.AbortsConflict != 0 {
			t.Errorf("n=%d: committed on attempt %d with %d conflict aborts; validating its own locks must not abort it",
				n, attempts, d.AbortsConflict)
		}
		for i, v := range vars {
			if got := v.Load(); got != 1 {
				t.Errorf("n=%d: var %d = %d, want 1", n, i, got)
			}
		}
		for other.Load() == 0 { // let the foreign commit finish before the runtime is dropped
			time.Sleep(50 * time.Microsecond)
		}
	}
}

// TestForeignLockStillConflicts is TestOwnLockValidates's other half: a
// read-set var locked by someone else fails validation even when the
// version beneath the bit is unchanged.
func TestForeignLockStillConflicts(t *testing.T) {
	rt := NewDefault()
	read, written := NewVar(0), NewVar(0)
	attempts := 0
	if err := rt.Atomic(func(tx *Tx) error {
		attempts++
		if attempts == 2 {
			read.m.lock.Store(read.m.lock.Load() &^ lockedBit)
		}
		_ = read.Get(tx)
		written.Set(tx, attempts)
		if attempts == 1 {
			// Hold read's lock bit across this attempt's commit, as a
			// committer that has locked but not yet published would, and
			// tick the clock so validation is not skipped.
			w := read.m.lock.Load()
			if !read.m.lock.CompareAndSwap(w, w|lockedBit) {
				t.Error("could not lock")
			}
			rt.clock.Add(1)
			tx.AfterCommit(func() { t.Error("attempt 1 committed past a foreign lock") })
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if attempts != 2 {
		t.Fatalf("committed on attempt %d, want exactly one conflict abort first", attempts)
	}
}

// TestSideStructShared: one Var carries a parked retry watcher and a live
// snapshot chain at once, both behind its one side struct; the commit
// that feeds the chain also wakes the watcher, and when both are gone the
// side struct stays but holds nothing.
func TestSideStructShared(t *testing.T) {
	rt := NewDefault()
	v := NewVar(0)
	if v.m.side.Load() != nil {
		t.Fatal("fresh Var has a side struct")
	}

	// A snapshot pinned at value 0, held open.
	pinned, release, snapDone := make(chan struct{}), make(chan struct{}), make(chan int, 1)
	go func() {
		first := true
		var got int
		_ = rt.AtomicSnapshot(func(tx *Tx) error {
			if first {
				first = false
				close(pinned)
				<-release
			}
			got = v.Get(tx)
			return nil
		})
		snapDone <- got
	}()
	<-pinned

	// A reader parked until v turns nonzero.
	woke := make(chan int, 1)
	go func() {
		var got int
		_ = rt.Atomic(func(tx *Tx) error {
			if got = v.Get(tx); got == 0 {
				tx.Retry()
			}
			return nil
		})
		woke <- got
	}()
	for v.Watchers() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	side := v.m.side.Load()
	if side == nil || v.m.histHead() != nil {
		t.Fatalf("parked watcher: side=%p chain=%p, want a side struct with no chain yet", side, v.m.histHead())
	}

	if err := rt.Atomic(func(tx *Tx) error { v.Set(tx, 7); return nil }); err != nil {
		t.Fatal(err)
	}
	if got := <-woke; got != 7 {
		t.Fatalf("woken reader saw %d, want 7", got)
	}
	if v.m.side.Load() != side {
		t.Fatal("the chain's first node replaced the side struct the watcher installed")
	}
	if h := v.m.histHead(); h == nil || *(h.val.(*int)) != 0 {
		t.Fatal("superseded value not on the chain while a snapshot is pinned before it")
	}
	close(release)
	if got := <-snapDone; got != 0 {
		t.Fatalf("snapshot read %d through the chain, want the pinned 0", got)
	}
	for rt.ActiveSnapshots() != 0 {
		time.Sleep(100 * time.Microsecond)
	}
	if err := rt.Atomic(func(tx *Tx) error { v.Set(tx, 8); return nil }); err != nil {
		t.Fatal(err)
	}
	if v.Watchers() != 0 || v.m.histHead() != nil || rt.RetryParked() != 0 {
		t.Fatalf("idle Var still holds %d watchers, chain %p", v.Watchers(), v.m.histHead())
	}
}
