package stm

import (
	"runtime"
	"sync/atomic"
	"time"
)

// slot is one entry of the active-transaction registry. Its word packs
// (readVersion << 1) | active. Slots are cache-line padded: quiescence
// scans them constantly and begin/end updates them on every transaction.
type slot struct {
	word atomic.Uint64
	_    [cacheLine - 8]byte
}

func (s *slot) setRV(rv uint64) { s.word.Store(rv<<1 | 1) }
func (s *slot) deactivate()     { s.word.Store(0) }
func (s *slot) activeBefore(v uint64) bool {
	w := s.word.Load()
	return w&1 == 1 && w>>1 < v
}
func (s *slot) isActive() bool { return s.word.Load()&1 == 1 }

// acquireSlot claims a registry slot for a beginning transaction,
// blocking while a serial transaction wants or holds exclusivity, and
// returns the slot's index. The scan starts at first, the slot the
// descriptor used last: descriptors come from a per-P pool, so that
// slot's line is normally still in this core's cache and free, and a
// transaction begins without touching a line another core writes. Only
// when first is occupied — another descriptor last used it too and is
// running now — does the scan move on; the caller remembers wherever it
// lands, so two descriptors collide on a slot at most once.
//
// A claimed slot is covered by slotsUsed before acquireSlot returns, and so
// before the transaction's first read: that is what lets quiesce sweep only
// the slots below the mark (see quiesce).
func (rt *Runtime) acquireSlot(first int, rv uint64) int {
	n := len(rt.slots)
	spins := 0
	for {
		if rt.serialWant.Load() != 0 {
			// Block until the serial transaction releases exclusivity
			// (event-driven: the gate closes serialClear on release).
			ch := *rt.serialClear.Load()
			if rt.serialWant.Load() != 0 {
				<-ch
			}
			continue
		}
		idx := first
		for i := 0; i < n; i++ {
			s := &rt.slots[idx]
			if s.word.Load() == 0 && s.word.CompareAndSwap(0, rv<<1|1) {
				rt.markSlotUsed(idx)
				// Re-check the serial gate: a serial transaction
				// may have begun draining between our check and
				// the CAS. If so, back out and wait, otherwise a
				// drain could miss us or we could run alongside a
				// serial transaction.
				if rt.serialWant.Load() != 0 {
					s.deactivate()
					break
				}
				return idx
			}
			if idx++; idx == n {
				idx = 0
			}
		}
		waitSpin(&spins)
	}
}

// markSlotUsed raises slotsUsed past idx: a CAS-max that stores only when
// idx is a new highest slot, so the mark's line stays read-mostly.
func (rt *Runtime) markSlotUsed(idx int) {
	n := int32(idx) + 1
	for {
		cur := rt.slotsUsed.Load()
		if cur >= n || rt.slotsUsed.CompareAndSwap(cur, n) {
			return
		}
	}
}

func (rt *Runtime) releaseSlot(idx int) {
	rt.slots[idx].deactivate()
}

// quiesce blocks until every transaction that began before version wv has
// completed (committed or aborted, including cleanup). It implements the
// privatization-safety wait of the paper's Section 2: a committed writer
// may have privatized memory, so it must not proceed — and in particular
// must not run deferred operations or reclaim memory — until no concurrent
// transaction can still be reading pre-commit state. The caller has
// published at wv and holds no slot.
//
// Only the slots below slotsUsed are swept: a slot no transaction has ever
// claimed cannot be active. The mark can be stale by the time it is used,
// and that is safe. If this load misses the raise covering a slot, it
// precedes that raise in the seq-cst order of atomics, and the raise
// precedes the claiming transaction's first read (acquireSlot). So the
// publish at wv precedes that read, which finds a version above the
// transaction's rv if rv < wv, and extends or aborts: it cannot hold
// pre-commit state. This is the argument beginSlot makes for a slot the
// sweep read before its CAS.
func (rt *Runtime) quiesce(wv uint64) {
	// Injected stall inside quiescence: lengthen the privatization wait
	// so deferred operations run later relative to concurrent readers.
	if rt.inj.stallQuiesce() {
		rt.stats.InjectedFaults.Add(1)
	}
	// Snapshot pass: collect the slots that were running a pre-wv
	// transaction at entry. Slots that activate later sample a read
	// version from the already-advanced clock, so only this snapshot
	// can ever block us — the wait loop below re-polls the shrinking
	// snapshot instead of rescanning the slots each spin. The fast path
	// (nothing active) is one sweep with no timestamp reads at all.
	var buf [quiesceSnapshotCap]int32
	pending := buf[:0]
	waited := false
	var start time.Time
	used := rt.slots[:rt.slotsUsed.Load()]
	for i := range used {
		s := &used[i]
		if !s.activeBefore(wv) {
			continue
		}
		if len(pending) < cap(pending) {
			pending = append(pending, int32(i))
			continue
		}
		// Snapshot buffer exhausted (registry far larger than the
		// stack buffer, all busy): wait this slot out in place.
		if !waited {
			waited = true
			start = time.Now()
		}
		spins := 0
		for s.activeBefore(wv) {
			waitSpin(&spins)
		}
	}
	if rt.quiesceTestHook != nil {
		rt.quiesceTestHook()
	}
	// Re-poll the shrinking snapshot. A quiesce counts as a *wait* only
	// once waitSpin actually runs: if every snapshotted slot has already
	// finished by the first re-poll pass (k == 0 immediately), nothing
	// blocked us and QuiesceWaits/QuiesceNanos must not move. The old
	// code started the wait clock on any non-empty snapshot, over-
	// counting exactly those free passes.
	spins := 0
	for len(pending) > 0 {
		k := 0
		for _, idx := range pending {
			if rt.slots[idx].activeBefore(wv) {
				pending[k] = idx
				k++
			}
		}
		pending = pending[:k]
		if k > 0 {
			if !waited {
				waited = true
				start = time.Now()
			}
			waitSpin(&spins)
		}
	}
	if waited {
		d := time.Since(start)
		rt.stats.QuiesceWaits.Add(1)
		rt.stats.QuiesceNanos.Add(uint64(d.Nanoseconds()))
		if met := rt.met.Load(); met != nil {
			met.QuiesceWait.Observe(d)
		}
	}
}

// quiesceSnapshotCap bounds the stack-allocated active-slot snapshot
// in quiesce; registries with more simultaneously active pre-commit
// transactions fall back to in-place waiting for the overflow.
const quiesceSnapshotCap = 128

// waitSpin implements a progressive wait: spin briefly, then yield, then
// sleep. Used for quiescence, serial draining, and slot acquisition.
//
// The sleep asks for 10 µs but lasts about a millisecond or more: a
// P with nothing to run parks in the netpoller, whose timeout on Linux
// is whole milliseconds. On a 2-vCPU Linux host (go1.24), a 10 µs
// sleep beside a goroutine that keeps the other P busy measured p50
// 1.09 ms and p90 1.17–1.34 ms at GOMAXPROCS 2; beside one that never
// yields at GOMAXPROCS 1 it lasts the 20 ms until preemption. So the
// third phase is a back-off of a millisecond or more, reached only
// after 255 rounds of spinning and yielding. It stays: a variant that
// kept yielding instead read defer-io ops_per_s 561k/558k/578k/582k →
// 488k/480k/520k/531k (seeds 611–614, worse in 4 of 4); a waiter that
// never sleeps keeps taking turns on the CPU the awaited transaction
// needs.
func waitSpin(spins *int) {
	*spins++
	switch {
	case *spins < 64:
		spinPause()
	case *spins < 256:
		runtime.Gosched()
	default:
		time.Sleep(10 * time.Microsecond)
	}
}

// spinPause is a short busy pause (a stand-in for the PAUSE instruction).
//
//go:noinline
func spinPause() {
	for i := 0; i < 8; i++ {
		_ = i
	}
}
