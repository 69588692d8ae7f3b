package stm

import (
	"sync"
	"testing"
	"time"
)

// TestCommitSequencedBeforeVisible holds a writer inside the record step
// of the publish protocol — a Recorder that blocks on its EvCommit, or
// EvDirectWrite for a direct store — and requires that meanwhile the
// write is not visible: the var is still locked and another goroutine's
// Load does not return the new value. That is the guarantee the checker's
// cross-goroutine Seq comparisons rest on: every event of a commit or
// direct store is sequenced before any of its writes is visible. A
// writer that unlocks before it records lets a reader (or a WAL flusher)
// act on the write, and record doing so, ahead of the write's own events.
func TestCommitSequencedBeforeVisible(t *testing.T) {
	cases := []struct {
		name  string
		mode  Mode
		block EventKind
		write func(rt *Runtime, v *Var[int]) error
	}{
		{"optimistic", ModeSTM, EvCommit, func(rt *Runtime, v *Var[int]) error {
			return rt.Atomic(func(tx *Tx) error { v.Set(tx, 1); return nil })
		}},
		{"serial", ModeSTM, EvCommit, func(rt *Runtime, v *Var[int]) error {
			return rt.AtomicSerial(func(tx *Tx) error { v.Set(tx, 1); return nil })
		}},
		{"ModeHTM", ModeHTM, EvCommit, func(rt *Runtime, v *Var[int]) error {
			return rt.Atomic(func(tx *Tx) error { v.Set(tx, 1); return nil })
		}},
		{"StoreDirect", ModeSTM, EvDirectWrite, func(rt *Runtime, v *Var[int]) error {
			v.StoreDirect(rt, 1)
			return nil
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			recording := make(chan struct{})
			unblock := make(chan struct{})
			var once sync.Once
			rt := New(Config{Mode: c.mode, Recorder: recorderFunc(func(ev Event) {
				if ev.Kind == c.block {
					once.Do(func() {
						close(recording)
						<-unblock
					})
				}
			})})
			v := NewVar(0)
			done := make(chan error, 1)
			go func() { done <- c.write(rt, v) }()

			<-recording
			if !wordLocked(v.m.lock.Load()) {
				t.Errorf("var unlocked while the writer's %v is being recorded", c.block)
			}
			loaded := make(chan int, 1)
			go func() { loaded <- v.Load() }()
			select {
			case got := <-loaded:
				if got == 1 {
					t.Errorf("Load returned the new value while the writer's %v was being recorded", c.block)
				}
			case <-time.After(50 * time.Millisecond):
			}

			close(unblock)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if got := v.Load(); got != 1 {
				t.Fatalf("after the commit Load = %d, want 1", got)
			}
		})
	}
}
