package stm

import (
	"sync"
	"testing"
	"time"
	"unsafe"

	"deferstm/internal/obs"
)

// TestQuiesceNoSpinNotCounted is the regression test for the quiesce
// accounting bug: a committer whose pending snapshot is non-empty but
// whose every snapshotted slot has finished by the first re-poll pass
// never ran waitSpin, so QuiesceWaits/QuiesceNanos must not move. The
// old code started the wait clock on any non-empty snapshot, so this
// test fails on it (QuiesceWaits = 1) and passes on the fix.
func TestQuiesceNoSpinNotCounted(t *testing.T) {
	rt := NewDefault()
	// A transaction registered with read version 1 — quiesce(5) must
	// snapshot it as pending.
	activateSlot(t, rt, 0, 1)
	// ...but it finishes in the window between the snapshot pass and
	// the first re-poll, i.e. before any spin could happen.
	rt.quiesceTestHook = func() { rt.releaseSlot(0) }
	rt.quiesce(5)
	s := rt.Snapshot()
	if s.QuiesceWaits != 0 {
		t.Fatalf("QuiesceWaits = %d after a spin-free quiesce, want 0", s.QuiesceWaits)
	}
	if s.QuiesceNanos != 0 {
		t.Fatalf("QuiesceNanos = %d after a spin-free quiesce, want 0", s.QuiesceNanos)
	}
}

// TestQuiesceRealWaitCounted is the other half of the accounting
// contract: a quiesce that genuinely spins on an unfinished slot counts
// exactly one wait, accumulates nanoseconds, and feeds the QuiesceWait
// histogram.
func TestQuiesceRealWaitCounted(t *testing.T) {
	rt := NewDefault()
	met := NewMetrics(nil)
	rt.SetMetrics(met)
	activateSlot(t, rt, 0, 1)
	var wg sync.WaitGroup
	rt.quiesceTestHook = func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(2 * time.Millisecond)
			rt.releaseSlot(0)
		}()
	}
	rt.quiesce(5)
	wg.Wait()
	s := rt.Snapshot()
	if s.QuiesceWaits != 1 {
		t.Fatalf("QuiesceWaits = %d after a blocking quiesce, want 1", s.QuiesceWaits)
	}
	if s.QuiesceNanos == 0 {
		t.Fatal("QuiesceNanos = 0 after a blocking quiesce")
	}
	if hs := met.QuiesceWait.Snapshot(); hs.Count != 1 || hs.Sum == 0 {
		t.Fatalf("QuiesceWait histogram count=%d sum=%d, want 1 observation with nonzero sum", hs.Count, hs.Sum)
	}
}

// TestStatShardLayout pins the stripe geometry of the stats shards: a
// cache-line multiple with at least one pad byte. The mirror type
// reproduces the exact-multiple-of-8-counters case the old padding
// expression `(64 - x%64) % 64` collapsed to zero padding on.
func TestStatShardLayout(t *testing.T) {
	sz := unsafe.Sizeof(statShard{})
	if sz%64 != 0 {
		t.Errorf("statShard size %d is not a cache-line multiple", sz)
	}
	if sz <= uintptr(nStatCounters*8) {
		t.Errorf("statShard size %d leaves no padding over %d payload bytes", sz, nStatCounters*8)
	}
	// 16 counters = 128 payload bytes, an exact line multiple: the
	// corrected expression must still insert a full line of padding.
	type exactShard struct {
		c [16]uint64
		_ [64 - (16*8)%64]byte
	}
	if got := unsafe.Sizeof(exactShard{}); got != 192 {
		t.Errorf("exact-multiple shard = %d bytes, want 192 (128 payload + 64 pad)", got)
	}

	// Starts and Commits are striped by registry slot, not by the stack
	// hash: two transactions that overlap hold different slots, land on
	// different stripes (slots fill from 0, and there are at least 4
	// stripes), and the sums stay exact.
	rt := NewDefault()
	v := NewVar(0)
	var outer, inner int
	if err := rt.Atomic(func(tx *Tx) error {
		outer = tx.slot
		return rt.Atomic(func(tx *Tx) error {
			inner = tx.slot
			allocSink = v.Get(tx)
			return nil
		})
	}); err != nil {
		t.Fatal(err)
	}
	st := &rt.stats
	so, si := uint32(outer)&st.mask, uint32(inner)&st.mask
	if so == si {
		t.Fatalf("overlapping transactions on slots %d and %d share stripe %d of %d", outer, inner, so, len(st.shards))
	}
	for _, c := range []int{cStarts, cCommits} {
		if o, i := st.shards[so].c[c].Load(), st.shards[si].c[c].Load(); o != 1 || i != 1 {
			t.Errorf("counter %d: stripe %d holds %d and stripe %d holds %d, want 1 and 1", c, so, o, si, i)
		}
	}
	if snap := rt.Snapshot(); snap.Starts != 2 || snap.Commits != 2 {
		t.Errorf("Starts=%d Commits=%d, want 2 and 2", snap.Starts, snap.Commits)
	}
}

// TestMetricsEndToEnd attaches a Metrics set to a live runtime and
// checks the instruments move with the workload: one TxLatency
// observation per successful Atomic, one DeferExec per AfterCommit
// hook, and a defer-depth gauge that returns to zero.
func TestMetricsEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	met := NewMetrics(reg)
	rt := NewDefault()
	rt.SetMetrics(met)
	if rt.Metrics() != met {
		t.Fatal("Metrics() did not return the attached set")
	}

	v := NewVar(0)
	const txs = 50
	hookRuns := 0
	for i := 0; i < txs; i++ {
		if err := rt.Atomic(func(tx *Tx) error {
			v.Set(tx, v.Get(tx)+1)
			tx.AfterCommit(func() { hookRuns++ })
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if hookRuns != txs {
		t.Fatalf("hooks ran %d times, want %d", hookRuns, txs)
	}
	if hs := met.TxLatency.Snapshot(); hs.Count != txs {
		t.Fatalf("TxLatency count = %d, want %d", hs.Count, txs)
	}
	if hs := met.DeferExec.Snapshot(); hs.Count != txs {
		t.Fatalf("DeferExec count = %d, want %d", hs.Count, txs)
	}
	if d := met.DeferDepth.Load(); d != 0 {
		t.Fatalf("DeferDepth = %d after all hooks finished, want 0", d)
	}

	// The registry exposes the histograms and the stats counters.
	RegisterStats(reg, rt.Snapshot)
	snap := reg.Snapshot()
	if _, ok := snap["deferstm_tx_latency_seconds"]; !ok {
		t.Error("registry missing deferstm_tx_latency_seconds")
	}
	if got := snap["deferstm_tx_commits_total"]; got != uint64(txs) {
		t.Errorf("deferstm_tx_commits_total = %v, want %d", got, txs)
	}
}

// TestReadOnlyAtomicAllocFreeWithMetrics extends the hot-path pin: the
// read-only path must stay at zero heap allocations even with a full
// Metrics set attached (time.Now + striped Observe allocate nothing).
func TestReadOnlyAtomicAllocFreeWithMetrics(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; bound holds only unraced")
	}
	rt := NewDefault()
	rt.SetMetrics(NewMetrics(nil))
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
	for i := 0; i < 32; i++ {
		if err := rt.Atomic(body); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := rt.Atomic(body); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("read-only Atomic with metrics allocates %.1f objects/op, want 0", n)
	}
}
