package history

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"deferstm/internal/stm"
)

// TraceWriter is an stm.Recorder that converts the runtime's event
// stream into Chrome trace-event JSON, loadable in chrome://tracing or
// Perfetto. Runtime events carry version-clock timestamps but no wall
// time, so the TraceWriter stamps each event as it arrives; attach it
// via stm.Config.Recorder (optionally teeing into a checking Log) and
// call WriteJSON when the run is over.
//
// The span model follows the paper's timeline: each transaction attempt
// is one "tx" span (begin → commit/abort), a committer's privatization
// wait is a nested "quiesce" span, a Retry that parks is a "park" span
// after its aborted attempt (first watcher registration → wake, with the
// wake cause and the number of Vars watched), and every deferred
// operation is a "defer" span linked to its deferring transaction
// through the defer-enqueue event's operation ID. A transaction and its
// deferred tail or park form one chain, and chains are packed onto
// tracks by greedy interval partitioning, so concurrent chains land on
// distinct tracks — the rendered picture is one lane per
// concurrently-executing goroutine, which is how a stuck deferred λ, an
// over-long quiesce or a waiter nobody wakes shows up as an obvious long
// bar.
type TraceWriter struct {
	mu    sync.Mutex
	start time.Time
	evs   []tracedEvent
	tee   stm.Recorder
}

type tracedEvent struct {
	ev stm.Event
	at int64 // nanoseconds since t.start
}

// NewTraceWriter returns a TraceWriter whose clock starts now.
func NewTraceWriter() *TraceWriter {
	return &TraceWriter{start: time.Now()}
}

// Tee forwards every recorded event to r as well (typically a
// history.Log, so one run can be both traced and checked). Call before
// recording starts.
func (t *TraceWriter) Tee(r stm.Recorder) { t.tee = r }

// Record implements stm.Recorder.
func (t *TraceWriter) Record(ev stm.Event) {
	at := int64(time.Since(t.start))
	t.mu.Lock()
	t.evs = append(t.evs, tracedEvent{ev: ev, at: at})
	t.mu.Unlock()
	if t.tee != nil {
		t.tee.Record(ev)
	}
}

// Len reports the number of captured events.
func (t *TraceWriter) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.evs)
}

// traceEvent is one entry of the Chrome trace-event format. Ts and Dur
// are microseconds (the format's unit).
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type traceSpan struct {
	name       string
	cat        string
	start, end int64 // ns since trace start
	args       map[string]any
}

// traceChain is one transaction attempt plus everything causally tied to
// it (its quiesce, its deferred operations, its park). Chains are the unit of
// track assignment.
type traceChain struct {
	spans      []traceSpan
	start, end int64
}

func (c *traceChain) add(s traceSpan) {
	c.spans = append(c.spans, s)
	if s.end > c.end {
		c.end = s.end
	}
	if s.start < c.start {
		c.start = s.start
	}
}

func wakeCauseName(aux uint64) string {
	switch aux {
	case stm.AuxWakeCommit:
		return "commit"
	case stm.AuxWakeImmediate:
		return "immediate"
	case stm.AuxWakeCancel:
		return "cancel"
	default:
		return "unknown"
	}
}

func abortCauseName(aux uint64) string {
	switch aux {
	case stm.AbortCauseConflict:
		return "conflict"
	case stm.AbortCauseCapacity:
		return "capacity"
	case stm.AbortCauseSyscall:
		return "syscall"
	case stm.AbortCauseRetry:
		return "retry"
	case stm.AbortCauseEscalate:
		return "escalate"
	case stm.AbortCauseUser:
		return "user"
	default:
		return "unknown"
	}
}

// WriteJSON renders the captured events as a Chrome trace-event JSON
// document ({"traceEvents": [...]}). Safe to call while recording
// continues (it snapshots); unfinished spans are closed at their last
// observed event.
func (t *TraceWriter) WriteJSON(w io.Writer) error {
	t.mu.Lock()
	evs := make([]tracedEvent, len(t.evs))
	copy(evs, t.evs)
	t.mu.Unlock()

	txChain := map[uint64]*traceChain{} // TxID → chain
	opChain := map[uint64]*traceChain{} // deferred-op ID → deferring tx's chain
	txBegin := map[uint64]int64{}       // TxID → attempt start
	quiesceBegin := map[uint64]int64{}  // TxID → quiesce start
	opStart := map[uint64]int64{}       // op ID → λ start
	opOwner := map[uint64]stm.OwnerID{} // op ID → deferring owner
	parkBegin := map[uint64]int64{}     // TxID → first watcher registration
	parkVars := map[uint64]int{}        // TxID → vars registered on
	var chains []*traceChain

	for _, te := range evs {
		ev, at := te.ev, te.at
		switch ev.Kind {
		case stm.EvBegin:
			txBegin[ev.TxID] = at
			c := &traceChain{start: at, end: at}
			txChain[ev.TxID] = c
			chains = append(chains, c)
		case stm.EvCommit, stm.EvAbort:
			c := txChain[ev.TxID]
			if c == nil {
				continue
			}
			b, ok := txBegin[ev.TxID]
			if !ok {
				b = at
			}
			name := "tx commit"
			cat := "tx"
			args := map[string]any{"txID": ev.TxID, "owner": uint64(ev.Owner), "ver": ev.Ver}
			if ev.Kind == stm.EvAbort {
				cause := abortCauseName(ev.Aux)
				name = "tx abort (" + cause + ")"
				args["cause"] = cause
			} else if ev.Aux == stm.AuxSerial {
				name = "tx commit (serial)"
			}
			c.add(traceSpan{name: name, cat: cat, start: b, end: at, args: args})
		case stm.EvQuiesceStart:
			quiesceBegin[ev.TxID] = at
		case stm.EvQuiesceEnd:
			c := txChain[ev.TxID]
			b, ok := quiesceBegin[ev.TxID]
			if c == nil || !ok {
				continue
			}
			c.add(traceSpan{name: "quiesce", cat: "quiesce", start: b, end: at,
				args: map[string]any{"txID": ev.TxID, "ver": ev.Ver}})
		case stm.EvWatchRegister:
			if _, ok := parkBegin[ev.TxID]; !ok {
				parkBegin[ev.TxID] = at
			}
			parkVars[ev.TxID]++
		case stm.EvWake:
			c := txChain[ev.TxID]
			b, ok := parkBegin[ev.TxID]
			if c == nil || !ok {
				continue
			}
			delete(parkBegin, ev.TxID)
			cause := wakeCauseName(ev.Aux)
			c.add(traceSpan{name: "park (" + cause + ")", cat: "park", start: b, end: at,
				args: map[string]any{"txID": ev.TxID, "cause": cause, "vars": parkVars[ev.TxID]}})
		case stm.EvDeferEnqueue:
			opOwner[ev.Aux] = ev.Owner
			if c := txChain[ev.TxID]; c != nil {
				opChain[ev.Aux] = c
			}
		case stm.EvDeferStart:
			opStart[ev.Aux] = at
		case stm.EvDeferEnd:
			b, ok := opStart[ev.Aux]
			if !ok {
				b = at
			}
			c := opChain[ev.Aux]
			if c == nil {
				// No recorded enqueue (e.g. a lock taken via
				// AcquireOutside): the operation gets its own chain.
				c = &traceChain{start: b, end: b}
				chains = append(chains, c)
			}
			c.add(traceSpan{name: fmt.Sprintf("deferred op %d", ev.Aux), cat: "defer",
				start: b, end: at,
				args: map[string]any{"opID": ev.Aux, "owner": uint64(opOwner[ev.Aux])}})
		case stm.EvWALDurable:
			// Durability watermark publishes render as instants on the
			// chain of whichever transaction's flush published them, or
			// on track 0 when untraceable.
			if c := txChain[ev.TxID]; c != nil {
				c.add(traceSpan{name: "wal durable", cat: "wal", start: at, end: at,
					args: map[string]any{"watermark": ev.Aux}})
			}
		}
	}

	// Close chains whose attempt never ended (still running at export):
	// synthesize the open span so the work is visible. A session still
	// parked at export is drawn up to the last event: a stuck waiter is
	// exactly what the trace must show.
	for txID, b := range txBegin {
		c := txChain[txID]
		if c != nil && len(c.spans) == 0 {
			c.add(traceSpan{name: "tx (unfinished)", cat: "tx", start: b, end: c.end,
				args: map[string]any{"txID": txID}})
		}
	}
	for txID, b := range parkBegin {
		if c := txChain[txID]; c != nil {
			c.add(traceSpan{name: "park (unfinished)", cat: "park", start: b, end: evs[len(evs)-1].at,
				args: map[string]any{"txID": txID, "vars": parkVars[txID]}})
		}
	}

	// Greedy interval partitioning: pack chains onto the fewest tracks
	// with no two overlapping chains sharing one.
	sort.SliceStable(chains, func(i, j int) bool { return chains[i].start < chains[j].start })
	var laneEnd []int64
	events := make([]traceEvent, 0, len(evs)+8)
	for _, c := range chains {
		if len(c.spans) == 0 {
			continue
		}
		lane := -1
		for i, e := range laneEnd {
			if e <= c.start {
				lane = i
				break
			}
		}
		if lane < 0 {
			lane = len(laneEnd)
			laneEnd = append(laneEnd, 0)
		}
		laneEnd[lane] = c.end
		for _, s := range c.spans {
			te := traceEvent{
				Name: s.name, Cat: s.cat, Ph: "X",
				Ts:  float64(s.start) / 1e3,
				Dur: float64(s.end-s.start) / 1e3,
				Pid: 1, Tid: lane + 1, Args: s.args,
			}
			if s.end == s.start {
				te.Ph, te.Dur = "i", 0
			}
			events = append(events, te)
		}
	}

	doc := struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{TraceEvents: events, DisplayTimeUnit: "ns"}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
