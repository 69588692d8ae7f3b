package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// traceEvery is the request sampling period of the traced run: spans are
// recorded for every 64th request of each load thread.
const traceEvery = 64

// maxSpans bounds the in-memory trace; later spans are counted as dropped.
const maxSpans = 1 << 18

// span is one timed call the harness made into a layer. Spans of one
// request share req; parent is the id of the span that caused this one.
type span struct {
	name       string
	start, end time.Duration // since the tracer's epoch
	id, parent uint64
	req        uint64
	tid        int
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so call sites need no branch of
// their own beyond sampled().
type tracer struct {
	epoch time.Time

	mu      sync.Mutex
	spans   []span
	dropped uint64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// sampled reports whether request number req of a load thread is traced.
func (t *tracer) sampled(req uint64) bool { return t != nil && req%traceEvery == 0 }

// add records a finished span and returns its id (0 when not recorded).
func (t *tracer) add(name string, start, end time.Time, parent, req uint64, tid int) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return 0
	}
	id := uint64(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		name: name, start: start.Sub(t.epoch), end: end.Sub(t.epoch),
		id: id, parent: parent, req: req, tid: tid,
	})
	return id
}

// chromeEvent is one complete ("X") event of the Chrome trace format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write renders the spans as Chrome-trace JSON (chrome://tracing, Perfetto).
func (t *tracer) write(path string) error {
	t.mu.Lock()
	events := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, chromeEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.tid,
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Args: map[string]any{"id": s.id, "parent": s.parent, "req": s.req},
		})
	}
	dropped := t.dropped
	t.mu.Unlock()

	doc := map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       map[string]any{"dropped_spans": dropped, "sampled_every": traceEvery},
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
