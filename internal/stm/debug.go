package stm

import (
	"fmt"
	"io"
)

// RuntimeState is a diagnostic snapshot of the runtime's live state, for
// debugging stuck workloads (e.g. a transaction blocked in retry forever,
// or a quiescing writer waiting on a long transaction).
type RuntimeState struct {
	Clock          uint64
	ActiveTxs      int      // registry slots currently active
	ActiveRVs      []uint64 // their begin timestamps (ascending)
	SerialPending  bool     // a serial transaction is pending or running
	RetryWaiters   int64    // goroutines blocked in retry
	Mode           Mode
	SerializeAfter int
}

// State captures a diagnostic snapshot. It is approximate under
// concurrency (slots are read without stopping the world) but safe to
// call at any time.
func (rt *Runtime) State() RuntimeState {
	st := RuntimeState{
		Clock:          rt.clock.Load(),
		SerialPending:  rt.serialWant.Load() != 0,
		RetryWaiters:   rt.parked.Load(),
		Mode:           rt.cfg.Mode,
		SerializeAfter: rt.cfg.SerializeAfter,
	}
	for i := range rt.slots {
		w := rt.slots[i].word.Load()
		if w&1 == 1 {
			st.ActiveTxs++
			st.ActiveRVs = append(st.ActiveRVs, w>>1)
		}
	}
	// insertion sort: the list is tiny
	for i := 1; i < len(st.ActiveRVs); i++ {
		for j := i; j > 0 && st.ActiveRVs[j] < st.ActiveRVs[j-1]; j-- {
			st.ActiveRVs[j], st.ActiveRVs[j-1] = st.ActiveRVs[j-1], st.ActiveRVs[j]
		}
	}
	return st
}

// DumpState writes a human-readable diagnostic report to w: configuration,
// clock, active transactions, waiters, and the statistics counters.
func (rt *Runtime) DumpState(w io.Writer) {
	st := rt.State()
	fmt.Fprintf(w, "stm runtime: mode=%s serializeAfter=%d\n",
		st.Mode, st.SerializeAfter)
	fmt.Fprintf(w, "  clock=%d activeTxs=%d serialPending=%v retryWaiters=%d\n",
		st.Clock, st.ActiveTxs, st.SerialPending, st.RetryWaiters)
	if len(st.ActiveRVs) > 0 {
		fmt.Fprintf(w, "  active begin-timestamps: %v (oldest gates quiescence)\n", st.ActiveRVs)
	}
	fmt.Fprintf(w, "  stats: %s\n", rt.Snapshot().String())
}
