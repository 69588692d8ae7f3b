// Package history records stm runtime events into an in-memory log that
// internal/check can verify offline. A Log is an stm.Recorder: attach it
// via stm.Config.Recorder and every transactional action (begin, read,
// write, commit, abort, quiescence, lock and deferral transitions) is
// appended with a global sequence number.
//
// The log is append-only under a mutex. That serializes recording, which
// perturbs timing slightly — acceptable for a checking harness, and the
// perturbation only shrinks the windows the fault injector re-widens.
package history

import (
	"sync"

	"deferstm/internal/stm"
)

// Log is a thread-safe, append-only event log implementing stm.Recorder.
type Log struct {
	mu     sync.Mutex
	events []stm.Event
}

// New returns an empty Log.
func New() *Log { return &Log{} }

// Record implements stm.Recorder.
func (l *Log) Record(ev stm.Event) {
	l.mu.Lock()
	ev.Seq = uint64(len(l.events)) + 1
	l.events = append(l.events, ev)
	l.mu.Unlock()
}

// Events returns a copy of the recorded events in sequence order.
func (l *Log) Events() []stm.Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]stm.Event, len(l.events))
	copy(out, l.events)
	return out
}
