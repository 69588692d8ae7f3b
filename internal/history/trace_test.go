package history

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"deferstm/internal/core"
	"deferstm/internal/stm"
)

// runDeferWorkload drives concurrent transactions that defer operations
// on shared deferrable counters, recording into rec.
func runDeferWorkload(t *testing.T, rec stm.Recorder, workers, txPerWorker int) {
	t.Helper()
	rt := stm.New(stm.Config{Recorder: rec})
	type counter struct {
		core.Deferrable
		n stm.Var[int]
	}
	objs := [4]*counter{new(counter), new(counter), new(counter), new(counter)}
	v := stm.NewVar(0)
	// The first deferred operations of the workers that start on distinct
	// objects meet at a gate, so that however few cores there are, several
	// transaction → λ chains are open at once.
	var gate sync.WaitGroup
	gate.Add(min(workers, len(objs)))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < txPerWorker; i++ {
				o := objs[(w+i)%len(objs)]
				if err := rt.Atomic(func(tx *stm.Tx) error {
					o.Subscribe(tx)
					v.Set(tx, v.Get(tx)+1)
					core.AtomicDefer(tx, func(ctx *core.OpCtx) {
						if i == 0 && w < len(objs) {
							gate.Done()
							gate.Wait()
						}
						core.Store(ctx, &o.n, core.Load(ctx, &o.n)+1)
					}, o)
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := v.Load(); got != workers*txPerWorker {
		t.Fatalf("committed %d increments, want %d", got, workers*txPerWorker)
	}
}

// TestRecorderEventOrdering is the event-stream property the trace
// exporter (and the offline checkers) rely on: under concurrent commits
// with deferred λs, the events of one transaction attempt form a
// monotone Seq span — begin first, commit/abort last, everything the
// attempt emitted in between — and every deferred operation's
// enqueue → start → end are Seq-ordered.
func TestRecorderEventOrdering(t *testing.T) {
	log := New()
	runDeferWorkload(t, log, 8, 50)
	evs := log.Events()
	if len(evs) == 0 {
		t.Fatal("no events recorded")
	}

	type txSpan struct {
		begin, last uint64
		closed      bool
	}
	tx := map[uint64]*txSpan{}
	type opSpan struct{ enq, start, end uint64 }
	ops := map[uint64]*opSpan{}
	var prevSeq uint64
	for _, ev := range evs {
		if ev.Seq <= prevSeq {
			t.Fatalf("global Seq not strictly increasing: %d after %d", ev.Seq, prevSeq)
		}
		prevSeq = ev.Seq
		if ev.TxID != 0 {
			s := tx[ev.TxID]
			switch {
			case ev.Kind == stm.EvBegin:
				if s != nil {
					t.Fatalf("tx %d began twice (Seq %d and %d)", ev.TxID, s.begin, ev.Seq)
				}
				tx[ev.TxID] = &txSpan{begin: ev.Seq, last: ev.Seq}
			case s == nil:
				t.Fatalf("tx %d emitted %v (Seq %d) before its begin", ev.TxID, ev.Kind, ev.Seq)
			case s.closed && ev.Kind != stm.EvQuiesceStart && ev.Kind != stm.EvQuiesceEnd &&
				ev.Kind != stm.EvWatchRegister && ev.Kind != stm.EvWake:
				// Only the committer's privatization wait may trail the
				// commit event (publish first, then quiesce), and only a
				// blocked Retry's park session may trail the abort: the
				// attempt aborts first, then registers on its read set
				// and later wakes, both under the aborted attempt's TxID
				// (stm/record.go; the retry-wakeup checker keys on it).
				t.Fatalf("tx %d emitted %v (Seq %d) after its commit/abort", ev.TxID, ev.Kind, ev.Seq)
			default:
				s.last = ev.Seq
				if ev.Kind == stm.EvCommit || ev.Kind == stm.EvAbort {
					s.closed = true
				}
			}
		}
		switch ev.Kind {
		case stm.EvDeferEnqueue:
			ops[ev.Aux] = &opSpan{enq: ev.Seq}
		case stm.EvDeferStart:
			o := ops[ev.Aux]
			if o == nil {
				t.Fatalf("op %d started (Seq %d) without an enqueue", ev.Aux, ev.Seq)
			}
			o.start = ev.Seq
		case stm.EvDeferEnd:
			o := ops[ev.Aux]
			if o == nil || o.start == 0 {
				t.Fatalf("op %d ended (Seq %d) without a start", ev.Aux, ev.Seq)
			}
			o.end = ev.Seq
		}
	}
	for id, s := range tx {
		if !s.closed {
			t.Errorf("tx %d never committed or aborted", id)
		}
		if s.last < s.begin {
			t.Errorf("tx %d span inverted: begin Seq %d, last Seq %d", id, s.begin, s.last)
		}
	}
	nDone := 0
	for id, o := range ops {
		if o.end == 0 {
			t.Errorf("op %d never ended", id)
			continue
		}
		nDone++
		if !(o.enq < o.start && o.start < o.end) {
			t.Errorf("op %d events out of order: enqueue=%d start=%d end=%d", id, o.enq, o.start, o.end)
		}
	}
	if nDone != 8*50 {
		t.Errorf("completed %d deferred ops, want %d", nDone, 8*50)
	}
}

// exportedEvent is one entry of an exported trace, as a viewer reads it.
type exportedEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// exportTrace renders tw's events and parses them back.
func exportTrace(t *testing.T, tw *TraceWriter) []exportedEvent {
	t.Helper()
	var buf bytes.Buffer
	if err := tw.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []exportedEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	return doc.TraceEvents
}

// TestTraceWriterJSON drives the same workload through a TraceWriter
// (teed into a Log to prove the chain works) and checks the exported
// document is valid Chrome trace JSON with the expected span kinds.
func TestTraceWriterJSON(t *testing.T) {
	tw := NewTraceWriter()
	log := New()
	tw.Tee(log)
	runDeferWorkload(t, tw, 4, 25)
	if tw.Len() == 0 || len(log.Events()) == 0 {
		t.Fatalf("trace=%d teed=%d events, want both nonzero", tw.Len(), len(log.Events()))
	}
	if tw.Len() != len(log.Events()) {
		t.Fatalf("tee dropped events: trace=%d log=%d", tw.Len(), len(log.Events()))
	}

	cats := map[string]int{}
	maxTid := 0
	for _, ev := range exportTrace(t, tw) {
		cats[ev.Cat]++
		if ev.Ph == "X" && ev.Dur < 0 {
			t.Errorf("span %q has negative duration %g", ev.Name, ev.Dur)
		}
		if ev.Tid > maxTid {
			maxTid = ev.Tid
		}
	}
	// Each workload transaction contributes one tx span (aborted attempts
	// add theirs), so the span count is at least the workload commit count.
	if cats["tx"] < 4*25 {
		t.Errorf("trace has %d tx spans, want >= %d", cats["tx"], 4*25)
	}
	if cats["defer"] != 4*25 {
		t.Errorf("trace has %d defer spans, want %d", cats["defer"], 4*25)
	}
	if cats["quiesce"] == 0 {
		t.Error("trace has no quiesce spans")
	}
	if maxTid < 2 {
		t.Errorf("concurrent chains packed onto %d track(s), want >= 2", maxTid)
	}
}

// TestTraceWriterParkSpan: a Retry that parks is one park span on its
// aborted attempt's track, from its first watcher registration to its
// wake, naming the wake cause and how many Vars it watched. A waiter still
// parked at export is drawn unfinished.
func TestTraceWriterParkSpan(t *testing.T) {
	tw := NewTraceWriter()
	rt := stm.New(stm.Config{Recorder: tw})
	a, b := stm.NewVar(0), stm.NewVar(0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = rt.Atomic(func(tx *stm.Tx) error {
			if a.Get(tx)+b.Get(tx) == 0 {
				tx.Retry()
			}
			return nil
		})
	}()
	deadline := time.Now().Add(5 * time.Second)
	for rt.RetryParked() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the reader never parked")
		}
		time.Sleep(100 * time.Microsecond)
	}
	parks := func() []exportedEvent {
		var out []exportedEvent
		for _, ev := range exportTrace(t, tw) {
			if ev.Cat == "park" {
				out = append(out, ev)
			}
		}
		return out
	}
	if p := parks(); len(p) != 1 || p[0].Name != "park (unfinished)" || p[0].Args["vars"] != 2.0 {
		t.Fatalf("while parked: park spans %+v, want one unfinished span over 2 vars", p)
	}

	if err := rt.Atomic(func(tx *stm.Tx) error { b.Set(tx, 1); return nil }); err != nil {
		t.Fatal(err)
	}
	<-done
	evs := exportTrace(t, tw)
	var park, abort *exportedEvent
	for i := range evs {
		switch ev := &evs[i]; {
		case ev.Cat == "park":
			if park != nil {
				t.Fatalf("two park spans: %+v and %+v", *park, *ev)
			}
			park = ev
		case ev.Name == "tx abort (retry)":
			abort = ev
		}
	}
	if park == nil || abort == nil {
		t.Fatalf("park span %v, retry-abort span %v; want both", park, abort)
	}
	if park.Name != "park (commit)" || park.Args["cause"] != "commit" || park.Args["vars"] != 2.0 {
		t.Errorf("park span %q args %v, want \"park (commit)\" with cause commit over 2 vars", park.Name, park.Args)
	}
	if park.Args["txID"] != abort.Args["txID"] || park.Tid != abort.Tid {
		t.Errorf("park span (tx %v, track %d) is not on its aborted attempt's chain (tx %v, track %d)",
			park.Args["txID"], park.Tid, abort.Args["txID"], abort.Tid)
	}
	if park.Ts < abort.Ts+abort.Dur || park.Dur <= 0 {
		t.Errorf("park span [%g, +%g] does not follow the abort ending at %g", park.Ts, park.Dur, abort.Ts+abort.Dur)
	}
}
