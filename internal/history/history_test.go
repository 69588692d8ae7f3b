package history

import (
	"testing"

	"deferstm/internal/stm"
)

func TestRecordAssignsSequence(t *testing.T) {
	l := New()
	l.Record(stm.Event{Kind: stm.EvBegin, TxID: 1})
	l.Record(stm.Event{Kind: stm.EvCommit, TxID: 1})
	evs := l.Events()
	if len(evs) != 2 || evs[0].Seq != 1 || evs[1].Seq != 2 {
		t.Fatalf("bad sequence assignment: %+v", evs)
	}
	if l.Len() != 2 {
		t.Fatalf("Len=%d", l.Len())
	}
}

func TestEventsReturnsCopy(t *testing.T) {
	l := New()
	l.Record(stm.Event{Kind: stm.EvBegin, TxID: 1})
	evs := l.Events()
	evs[0].TxID = 99
	if l.Events()[0].TxID != 1 {
		t.Fatal("Events did not return a copy")
	}
}

// Attaching a Log to a runtime records begins, reads, writes, commits
// and aborts with version timestamps.
func TestRecordsRuntimeEvents(t *testing.T) {
	l := New()
	rt := stm.New(stm.Config{Recorder: l})
	v := stm.NewVar(0)
	if err := rt.Atomic(func(tx *stm.Tx) error {
		v.Set(tx, v.Get(tx)+1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	kinds := map[stm.EventKind]int{}
	for _, ev := range l.Events() {
		kinds[ev.Kind]++
	}
	for _, k := range []stm.EventKind{stm.EvBegin, stm.EvRead, stm.EvWrite, stm.EvCommit} {
		if kinds[k] == 0 {
			t.Errorf("no %s event recorded; got %v", k, kinds)
		}
	}
	// The write and commit must carry the same nonzero version.
	var wv, cv uint64
	for _, ev := range l.Events() {
		switch ev.Kind {
		case stm.EvWrite:
			wv = ev.Ver
		case stm.EvCommit:
			cv = ev.Ver
		}
	}
	if wv == 0 || wv != cv {
		t.Fatalf("write ver %d, commit ver %d", wv, cv)
	}
}
