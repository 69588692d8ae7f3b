package stm

import (
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// TestStickySlotAndOwnerBlocks pins what a goroutine on its own pays at
// begin: its descriptor keeps one registry slot across transactions, and
// owner identities come out of the descriptor's block, so ownerCtr moves
// a whole block at a time and rarely.
func TestStickySlotAndOwnerBlocks(t *testing.T) {
	rt := NewDefault()
	v := NewVar(0)
	const n = 10000
	slots := map[int]int{}
	owners := make(map[OwnerID]bool, n)
	before := rt.ownerCtr.Load()
	for i := 0; i < n; i++ {
		if err := rt.Atomic(func(tx *Tx) error {
			slots[tx.slot]++
			owners[tx.Owner()] = true
			if x := v.Get(tx); i%2 == 0 {
				v.Set(tx, x+1)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if len(slots) != 1 {
		t.Errorf("%d sequential transactions used slots %v, want one slot", n, slots)
	}
	if len(owners) != n || owners[0] {
		t.Errorf("%d distinct owners (zero among them: %v), want %d and no zero", len(owners), owners[0], n)
	}
	if raceEnabled {
		return // sync.Pool drops a quarter of Puts under -race: fresh descriptors, fresh blocks
	}
	adv := rt.ownerCtr.Load() - before
	if adv%ownerBlock != 0 || adv > (n/ownerBlock+2)*ownerBlock {
		t.Errorf("ownerCtr advanced by %d over %d transactions, want whole blocks of %d and at most %d of them",
			adv, n, ownerBlock, n/ownerBlock+2)
	}
}

// TestOccupiedStickySlotFallsBack: a descriptor whose remembered slot is
// taken begins on another one and remembers that instead.
func TestOccupiedStickySlotFallsBack(t *testing.T) {
	rt := NewDefault()
	v := NewVar(7)
	get := func(tx *Tx) error { allocSink = v.Get(tx); return nil }

	// Two descriptors that last used the same slot, one begun inside the
	// other's body.
	a, b := newTx(rt), newTx(rt)
	a.slot, b.slot = 5, 5
	var inA, inB int
	out := rt.runOptimistic(a, func(tx *Tx) error {
		inA = tx.slot
		if !rt.slots[5].isActive() {
			t.Error("slot 5 not active inside the transaction that holds it")
		}
		if o := rt.runOptimistic(b, func(tx *Tx) error { inB = tx.slot; return get(tx) }); !o.committed {
			t.Errorf("inner transaction: %+v", o)
		}
		return get(tx)
	})
	if !out.committed {
		t.Fatalf("outer transaction: %+v", out)
	}
	if inA != 5 || inB == 5 {
		t.Errorf("outer ran on slot %d, inner on %d; want 5 and another", inA, inB)
	}
	if b.slot != inB {
		t.Errorf("descriptor remembers slot %d, ran on %d", b.slot, inB)
	}
	// The second descriptor stays where it landed.
	if o := rt.runOptimistic(b, get); !o.committed || b.slot != inB {
		t.Errorf("next begin moved from slot %d to %d (%+v)", inB, b.slot, o)
	}

	// The same through the pool: a read-only Atomic inside a body, and an
	// Atomic from an AfterCommit hook, which runs after the slot was
	// released and may have it back.
	var outer, nested, hooked = -1, -1, -1
	if err := rt.Atomic(func(tx *Tx) error {
		outer = tx.slot
		v.Set(tx, v.Get(tx)+1)
		if err := rt.Atomic(func(tx *Tx) error { nested = tx.slot; return get(tx) }); err != nil {
			return err
		}
		tx.AfterCommit(func() {
			if err := rt.Atomic(func(tx *Tx) error { hooked = tx.slot; return get(tx) }); err != nil {
				t.Error(err)
			}
		})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if nested < 0 || nested == outer {
		t.Errorf("nested transaction on slot %d inside slot %d", nested, outer)
	}
	if hooked < 0 {
		t.Error("the AfterCommit hook's transaction did not run")
	}
	for i := range rt.slots {
		if rt.slots[i].isActive() {
			t.Errorf("slot %d left active", i)
		}
	}
}

// TestSerialGateOnStickyPath: a begin that finds its remembered slot free
// still honours the serial gate. Serial bodies run beside goroutines that
// begin read-only transactions on their own slots as fast as they can;
// neither kind may ever see the other inside its body.
func TestSerialGateOnStickyPath(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	rt := New(Config{Inject: &Inject{Seed: 3, WriteBackDelayPct: 20, QuiesceStallPct: 20, StallSpins: 256}})
	v := NewVar(0)
	var inBody, inSerial atomic.Int32
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				_ = rt.Atomic(func(tx *Tx) error {
					inBody.Add(1)
					defer inBody.Add(-1)
					if inSerial.Load() != 0 {
						t.Error("optimistic transaction running inside a serial one")
					}
					x := v.Get(tx)
					if g == 0 && i%8 == 0 {
						v.Set(tx, x+1) // one writer: commits that quiesce
					}
					return nil
				})
			}
		}()
	}
	serials := 300
	if testing.Short() {
		serials = 50
	}
	for i := 0; i < serials; i++ {
		_ = rt.AtomicSerial(func(tx *Tx) error {
			inSerial.Store(1)
			defer inSerial.Store(0)
			for k := 0; k < 20; k++ {
				if n := inBody.Load(); n != 0 {
					t.Errorf("serial body %d overlaps %d optimistic transaction(s)", i, n)
					break
				}
				spinPause()
			}
			v.Set(tx, v.Get(tx)+1)
			return nil
		})
	}
	stop.Store(true)
	wg.Wait()
}

// TestOwnerIdentitiesUnique: identities handed out from descriptor blocks
// (Atomic), one at a time (NewOwner) and passed in (AtomicAs) never
// coincide and are never zero, across a flush of the descriptor pool.
func TestOwnerIdentitiesUnique(t *testing.T) {
	rt := NewDefault()
	v := NewVar(0)
	const goroutines, rounds = 8, 600
	seen := make([][]OwnerID, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				switch i % 3 {
				case 0:
					_ = rt.Atomic(func(tx *Tx) error {
						seen[g] = append(seen[g][:3*(i/3)], tx.Owner()) // re-executions overwrite
						_ = v.Get(tx)
						return nil
					})
				case 1:
					seen[g] = append(seen[g], rt.NewOwner())
				case 2:
					me := rt.NewOwner()
					_ = rt.AtomicAs(me, func(tx *Tx) error {
						if tx.Owner() != me {
							t.Errorf("AtomicAs(%d) ran as %d", me, tx.Owner())
						}
						v.Set(tx, v.Get(tx)+1)
						return nil
					})
					seen[g] = append(seen[g], me)
				}
				if g == 0 && i == rounds/2 {
					runtime.GC() // twice: past sync.Pool's victim cache
					runtime.GC()
				}
			}
		}()
	}
	wg.Wait()
	all := make(map[OwnerID]bool, goroutines*rounds)
	for g := range seen {
		if len(seen[g]) != rounds {
			t.Fatalf("goroutine %d recorded %d identities, want %d", g, len(seen[g]), rounds)
		}
		for _, id := range seen[g] {
			if id == 0 {
				t.Fatal("zero owner identity handed out")
			}
			if all[id] {
				t.Fatalf("owner identity %d handed out twice", id)
			}
			all[id] = true
		}
	}
}

// activateSlot begins a stand-in transaction on slot idx at read version
// rv through the real begin path, acquireSlot, so the slot is covered by
// the in-use mark exactly as a transaction's is.
func activateSlot(t *testing.T, rt *Runtime, idx int, rv uint64) {
	t.Helper()
	if got := rt.acquireSlot(idx, rv); got != idx {
		t.Fatalf("slot %d is busy: the stand-in began on slot %d", idx, got)
	}
}

// TestQuiesceSlotAboveMark: quiesce sweeps only the slots below
// slotsUsed, yet no transaction may hold a commit's pre-commit state once
// that commit's quiesce has returned.
//
//   - Waited for: B begins on a slot far above every slot in use, reads x
//     and stays running; then A writes x. B's begin raised the mark, so A's
//     sweep covers B's slot and A waits until B ends. With the raise moved
//     after B's first read, A returns while B still holds x's old value.
//   - Extends: C draws its read version before A publishes, but claims its
//     slot only after A has loaded the mark and swept. A never sees C, and
//     C's first read of x finds a version above its rv and extends to A's
//     value.
func TestQuiesceSlotAboveMark(t *testing.T) {
	rt := NewDefault()
	x := NewVar(0)
	const high = 40

	b := newTx(rt)
	b.slot = high
	read, release := make(chan int, 1), make(chan struct{})
	bDone := make(chan txOutcome, 1)
	go func() {
		bDone <- rt.runOptimistic(b, func(tx *Tx) error {
			read <- x.Get(tx)
			<-release
			return nil
		})
	}()
	if got := <-read; got != 0 {
		t.Fatalf("B read x = %d before any commit, want 0", got)
	}
	var released atomic.Bool
	rt.quiesceTestHook = func() {
		go func() {
			time.Sleep(20 * time.Millisecond)
			released.Store(true)
			close(release)
		}()
	}
	before := rt.Snapshot()
	if err := rt.Atomic(func(tx *Tx) error { x.Set(tx, 1); return nil }); err != nil {
		t.Fatal(err)
	}
	if !released.Load() {
		t.Errorf("A's quiesce returned while B (slot %d, mark %d) still held x's pre-commit value", b.slot, rt.slotsUsed.Load())
	}
	if out := <-bDone; !out.committed || b.slot != high {
		t.Fatalf("B on slot %d: %+v, want a commit on slot %d", b.slot, out, high)
	}
	if d := rt.Snapshot().Sub(before); d.QuiesceWaits != 1 {
		t.Errorf("A's quiesce counted %d waits, want 1 (for B)", d.QuiesceWaits)
	}

	rv := rt.GlobalClock()
	var mark int32
	var slotC, got int
	rt.quiesceTestHook = func() {
		mark = rt.slotsUsed.Load()
		c := newTx(rt)
		c.rv, c.slot, c.active = rv, rt.acquireSlot(high+10, rv), true
		slotC = c.slot
		got = x.Get(c)
		rt.releaseSlot(c.slot)
	}
	before = rt.Snapshot()
	if err := rt.Atomic(func(tx *Tx) error { x.Set(tx, 2); return nil }); err != nil {
		t.Fatal(err)
	}
	if slotC < int(mark) {
		t.Fatalf("C began on slot %d, under A's mark %d", slotC, mark)
	}
	if d := rt.Snapshot().Sub(before); got != 2 || d.Extensions != 1 || d.QuiesceWaits != 0 {
		t.Errorf("C read x = %d with %d extensions, A waited %d times; want 2, 1, 0", got, d.Extensions, d.QuiesceWaits)
	}
}

// TestRuntimeLayout pins which Runtime fields share cache lines. The clock
// is stored to by every writing commit, so nothing else may sit on its
// line; the fields every begin and commit only loads must share lines with
// nothing a running transaction stores to.
func TestRuntimeLayout(t *testing.T) {
	const (
		readMostly = " cfg slots slotsUsed snapDepth serialWant serialClear rec inj met quiesceTestHook txPool stats "
		written    = " clock serialMu parked snapMu snapActive snapCtr snapHorizon ownerCtr txIDCtr "
	)
	// Addresses in a live Runtime, not bare offsets: the allocator places
	// an object of this size 8 bytes into its line (a malloc header
	// precedes it), so the padding has to hold for any 8-aligned base.
	rt := NewDefault()
	base := uintptr(unsafe.Pointer(rt))
	type span struct {
		name        string
		first, last uintptr // lines
	}
	var loads, stores []span
	var clock span
	typ := reflect.TypeOf(rt).Elem()
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		sp := span{f.Name, (base + f.Offset) / cacheLine, (base + f.Offset + f.Type.Size() - 1) / cacheLine}
		switch {
		case f.Name == "_":
		case strings.Contains(readMostly, " "+f.Name+" "):
			loads = append(loads, sp)
		case strings.Contains(written, " "+f.Name+" "):
			stores = append(stores, sp)
			if f.Name == "clock" {
				clock = sp
			}
		default:
			t.Errorf("Runtime.%s is in neither list of this test: say whether running transactions store to it", f.Name)
		}
	}
	overlap := func(a, b span) bool { return a.first <= b.last && b.first <= a.last }
	for _, w := range stores {
		for _, r := range loads {
			if overlap(r, w) {
				t.Errorf("%s shares a line with %s, which running transactions store to", r.name, w.name)
			}
		}
		if w.name != "clock" && overlap(clock, w) {
			t.Errorf("%s shares the clock's line", w.name)
		}
	}
	if sz := unsafe.Sizeof(slot{}); sz%cacheLine != 0 {
		t.Errorf("registry slot is %d bytes, not a multiple of the line", sz)
	}
	if a := uintptr(unsafe.Pointer(&rt.slots[0])); a%cacheLine != 0 {
		t.Errorf("registry allocated at %#x, not line-aligned", a)
	}
}

// TestDescriptorLayout: descriptors come out of the allocator back to
// back, and two cores running on neighbours must not share a line. The
// last line's worth of a Tx is padding, so the bytes one transaction
// stores to end at least a line before the next descriptor begins,
// wherever the allocator put them.
func TestDescriptorLayout(t *testing.T) {
	rt := NewDefault()
	var at []uintptr
	for i := 0; i < 16; i++ {
		tx := newTx(rt)
		defer runtime.KeepAlive(tx)
		at = append(at, uintptr(unsafe.Pointer(tx)))
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	payload := unsafe.Sizeof(Tx{}) - cacheLine // the trailing pad is never touched
	if last := unsafe.Offsetof(Tx{}.rng) + unsafe.Sizeof(Tx{}.rng); last > payload {
		t.Fatalf("Tx fields end at %d, past the %d bytes before the trailing pad", last, payload)
	}
	for i := 1; i < len(at); i++ {
		if end := at[i-1] + payload - 1; end/cacheLine == at[i]/cacheLine {
			t.Errorf("descriptor at %#x begins on the line where the one at %#x ends (%#x)", at[i], at[i-1], end)
		}
	}
}

// TestStateIdle: a fresh runtime has no active registry slot, no serial
// transaction pending and no parked retry, and runs the STM defaults.
func TestStateIdle(t *testing.T) {
	rt := NewDefault()
	for i := range rt.slots {
		if rt.slots[i].isActive() {
			t.Errorf("slot %d active on an idle runtime", i)
		}
	}
	if rt.serialWant.Load() != 0 || rt.RetryParked() != 0 {
		t.Errorf("idle runtime: serialWant %d, parked %d", rt.serialWant.Load(), rt.RetryParked())
	}
	if rt.cfg.SerializeAfter != 100 || rt.cfg.Mode != ModeSTM {
		t.Errorf("defaults: SerializeAfter %d, mode %v", rt.cfg.SerializeAfter, rt.cfg.Mode)
	}
}

// TestStateSeesActiveTransaction: a running optimistic transaction holds
// exactly one registry slot, active at its begin timestamp, and gives it
// up when it commits.
func TestStateSeesActiveTransaction(t *testing.T) {
	rt := NewDefault()
	v := NewVar(0)
	inTx := make(chan int)
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		first := true
		_ = rt.Atomic(func(tx *Tx) error {
			_ = v.Get(tx)
			if first {
				first = false
				inTx <- tx.slot
				<-release
			}
			return nil
		})
	}()
	slot := <-inTx
	active := 0
	for i := range rt.slots {
		if rt.slots[i].isActive() {
			active++
		}
	}
	if active != 1 || !rt.slots[slot].isActive() {
		t.Errorf("%d active slots (the transaction's slot %d active: %v), want its slot alone",
			active, slot, rt.slots[slot].isActive())
	}
	if rv := rt.slots[slot].word.Load() >> 1; rv > rt.GlobalClock() {
		t.Errorf("slot holds begin timestamp %d, past the clock %d", rv, rt.GlobalClock())
	}
	close(release)
	<-done
	if rt.slots[slot].isActive() {
		t.Error("slot still active after the commit")
	}
}

// TestStateSeesRetryWaiter: a transaction blocked in Retry is counted
// as parked until a commit wakes it.
func TestStateSeesRetryWaiter(t *testing.T) {
	rt := NewDefault()
	flag := NewVar(false)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = rt.Atomic(func(tx *Tx) error {
			if !flag.Get(tx) {
				tx.Retry()
			}
			return nil
		})
	}()
	deadline := time.Now().Add(5 * time.Second)
	for rt.RetryParked() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("retry waiter never registered")
		}
		time.Sleep(time.Millisecond)
	}
	_ = rt.Atomic(func(tx *Tx) error {
		flag.Set(tx, true)
		return nil
	})
	<-done
	if n := rt.RetryParked(); n != 0 {
		t.Errorf("%d retries still parked after the wake-up", n)
	}
}
