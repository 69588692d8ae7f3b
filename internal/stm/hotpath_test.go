package stm

import (
	"errors"
	"sync"
	"testing"
)

// allocSink defeats dead-code elimination in the allocation tests.
var allocSink int

// TestReadOnlyAtomicAllocFree pins the read-only hot path at zero heap
// allocations per transaction: descriptor from the pool, read set in
// retained slice capacity, striped stats, no commit-time work.
func TestReadOnlyAtomicAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; bound holds only unraced")
	}
	rt := NewDefault()
	var vars [8]*Var[int]
	for i := range vars {
		vars[i] = NewVar(i)
	}
	body := func(tx *Tx) error {
		s := 0
		for _, v := range vars {
			s += v.Get(tx)
		}
		allocSink = s
		return nil
	}
	for i := 0; i < 32; i++ { // warm the descriptor pool and slice capacity
		if err := rt.Atomic(body); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := rt.Atomic(body); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("read-only Atomic allocates %.1f objects/op, want 0", n)
	}
}

// TestSmallWriteAtomicAllocBound pins the small-write hot path at its
// documented bound: one boxed value per Set and nothing else — no write
// map, no sort.Slice closure/interface conversion, no stats shards.
func TestSmallWriteAtomicAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; bound holds only unraced")
	}
	rt := NewDefault()
	a, b := NewVar(0), NewVar(0)
	body := func(tx *Tx) error {
		x, y := a.Get(tx), b.Get(tx)
		a.Set(tx, y+1)
		b.Set(tx, x+1)
		return nil
	}
	for i := 0; i < 32; i++ {
		if err := rt.Atomic(body); err != nil {
			t.Fatal(err)
		}
	}
	const boundPerSet = 1 // the *T box Set buffers; see Var.Set
	if n := testing.AllocsPerRun(200, func() {
		if err := rt.Atomic(body); err != nil {
			t.Fatal(err)
		}
	}); n > 2*boundPerSet {
		t.Fatalf("2-write Atomic allocates %.1f objects/op, want <= %d", n, 2*boundPerSet)
	}
}

// TestStoreDirectAllocFree pins a direct store of a caller-built box at
// zero heap allocations: its one-entry write set lives on the stack.
func TestStoreDirectAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; bound holds only unraced")
	}
	rt := NewDefault()
	v, p := NewVar(0), new(int)
	if n := testing.AllocsPerRun(200, func() { v.StoreDirectPtr(rt, p) }); n != 0 {
		t.Fatalf("StoreDirectPtr allocates %.1f objects/op, want 0", n)
	}
}

// TestRetryChangedReadSetAllocFree pins step 0 of the retry protocol: a
// Retry whose read set changed before waitForRetry re-executes at once,
// allocating nothing, registering no watcher and never parking. Each run's
// first attempt reads v, moves it with a direct store and retries; the
// second attempt reads the new value and commits.
func TestRetryChangedReadSetAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; bound holds only unraced")
	}
	rt := NewDefault()
	v := NewVar(0)
	boxes := [2]*int{new(int), new(int)}
	*boxes[1] = 1
	var attempts int
	var retried bool
	body := func(tx *Tx) error {
		attempts++
		p := v.GetPtr(tx)
		if v.Watchers() != 0 || v.m.side.Load() != nil {
			t.Error("a watcher was registered on v")
		}
		if !retried {
			retried = true
			v.StoreDirectPtr(rt, boxes[1-*p])
			tx.Retry()
		}
		return nil
	}
	run := func() {
		retried = false
		if err := rt.Atomic(body); err != nil {
			t.Fatal(err)
		}
	}
	v.StoreDirectPtr(rt, boxes[0])
	for i := 0; i < 32; i++ { // warm the descriptor pool and slice capacity
		run()
	}
	before := rt.Snapshot()
	attempts = 0
	if n := testing.AllocsPerRun(200, run); n != 0 {
		t.Fatalf("a Retry whose read set already changed allocates %.1f objects/op, want 0", n)
	}
	d := rt.Snapshot().Sub(before)
	if d.Retries == 0 || attempts != 2*int(d.Retries) {
		t.Fatalf("%d attempts for %d retries, want two attempts per retry", attempts, d.Retries)
	}
	if d.RetryParks != 0 || v.Watchers() != 0 {
		t.Fatalf("%d parks, %d watchers left on v; want 0 and 0", d.RetryParks, v.Watchers())
	}
}

// TestWriteSetSpillLookup exercises the map spill past smallWriteSet:
// read-after-write and write-after-write must resolve through the
// overflow map exactly as they do through the linear scan.
func TestWriteSetSpillLookup(t *testing.T) {
	rt := NewDefault()
	n := 3*smallWriteSet + 1
	vars := make([]*Var[int], n)
	for i := range vars {
		vars[i] = NewVar(0)
	}
	if err := rt.Atomic(func(tx *Tx) error {
		for i, v := range vars {
			v.Set(tx, i)
		}
		for i, v := range vars { // read-after-write across the spill
			if got := v.Get(tx); got != i {
				t.Errorf("var %d: read %d after write", i, got)
			}
		}
		for i, v := range vars { // overwrite resolves to the same entry
			v.Set(tx, i*10)
		}
		if tx.wmap == nil {
			t.Error("write set did not spill to map")
		}
		if len(tx.writes) != n {
			t.Errorf("write set has %d entries, want %d (overwrites must merge)", len(tx.writes), n)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range vars {
		if got := v.Load(); got != i*10 {
			t.Fatalf("var %d committed as %d, want %d", i, got, i*10)
		}
	}
}

// staleFuncs reports whether a reset hook or free list still holds
// anything: an entry, or a closure left in the capacity reset keeps.
func staleFuncs(fs []func()) bool {
	for _, f := range fs[:cap(fs)] {
		if f != nil {
			return true
		}
	}
	return len(fs) != 0
}

// recorderFunc adapts a function to the Recorder interface.
type recorderFunc func(Event)

func (f recorderFunc) Record(ev Event) { f(ev) }

// TestDescriptorHygieneAfterUserAbort aborts a transaction that dirtied
// every pooled descriptor field — spilled write map, post-commit hooks,
// free list, recorded events — and verifies reset scrubbed them all
// before the descriptor went back to the pool. Stale state here shows
// up as cross-transaction corruption only under load, so it is pinned
// white-box.
func TestDescriptorHygieneAfterUserAbort(t *testing.T) {
	var mu sync.Mutex
	var events []Event
	rt := New(Config{Recorder: recorderFunc(func(ev Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})})
	vars := make([]*Var[int], 2*smallWriteSet)
	for i := range vars {
		vars[i] = NewVar(0)
	}
	errAbort := errors.New("user abort")
	var captured *Tx
	err := rt.Atomic(func(tx *Tx) error {
		captured = tx
		for i, v := range vars {
			allocSink = v.Get(tx)
			v.Set(tx, i)
		}
		tx.AfterCommit(func() { t.Error("hook ran for an aborted transaction") })
		if tx.wmap == nil {
			t.Error("write set should have spilled before the abort")
		}
		return errAbort
	})
	if !errors.Is(err, errAbort) {
		t.Fatalf("Atomic returned %v, want the user abort", err)
	}
	// The descriptor was reset before being pooled; captured still points
	// at it (nothing else runs transactions here, so it is not reused).
	switch {
	case captured.active:
		t.Error("descriptor still active")
	case len(captured.reads) != 0:
		t.Errorf("%d stale reads", len(captured.reads))
	case len(captured.writes) != 0:
		t.Errorf("%d stale writes", len(captured.writes))
	case captured.wmap != nil:
		t.Error("stale write map (fast path not restored)")
	case staleFuncs(captured.hooks):
		t.Error("stale post-commit hooks")
	case len(captured.pendEvs) != 0:
		t.Errorf("%d stale pending events", len(captured.pendEvs))
	}
	// Pending events must have been discarded, not flushed: no write or
	// commit events for the aborted attempt.
	mu.Lock()
	for _, ev := range events {
		if ev.Kind == EvWrite || ev.Kind == EvCommit {
			mu.Unlock()
			t.Fatalf("aborted attempt leaked %v into the history", ev.Kind)
		}
	}
	mu.Unlock()
	// And the pooled descriptor must behave like a fresh one.
	if err := rt.Atomic(func(tx *Tx) error {
		vars[0].Set(tx, 99)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := vars[0].Load(); got != 99 {
		t.Fatalf("post-abort commit stored %d, want 99", got)
	}
}
