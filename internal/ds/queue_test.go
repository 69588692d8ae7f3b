package ds

import (
	"testing"
	"time"

	"deferstm/internal/stm"
)

func TestBoundedQueueBasics(t *testing.T) {
	rt := stm.NewDefault()
	q := NewBoundedQueue[int](3)
	if len(q.slots) != 3 {
		t.Errorf("cap = %d", len(q.slots))
	}
	atomically(t, rt, func(tx *stm.Tx) {
		for i := 0; i < 3; i++ {
			if !q.TryPut(tx, i) {
				t.Fatalf("TryPut %d failed", i)
			}
		}
		if q.TryPut(tx, 99) {
			t.Error("TryPut succeeded on full queue")
		}
		if q.Len(tx) != 3 {
			t.Errorf("len = %d", q.Len(tx))
		}
		for i := 0; i < 3; i++ {
			v, ok := q.TryTake(tx)
			if !ok || v != i {
				t.Errorf("TryTake = %d,%v want %d", v, ok, i)
			}
		}
		if _, ok := q.TryTake(tx); ok {
			t.Error("TryTake succeeded on empty queue")
		}
	})
}

func TestBoundedQueueMinCapacity(t *testing.T) {
	q := NewBoundedQueue[int](0)
	if len(q.slots) != 1 {
		t.Errorf("cap = %d, want 1", len(q.slots))
	}
}

func TestBoundedQueueBackpressure(t *testing.T) {
	rt := stm.NewDefault()
	q := NewBoundedQueue[int](1)
	atomically(t, rt, func(tx *stm.Tx) { q.Put(tx, 1) })
	blocked := make(chan struct{})
	go func() {
		_ = rt.Atomic(func(tx *stm.Tx) error { q.Put(tx, 2); return nil })
		close(blocked)
	}()
	select {
	case <-blocked:
		t.Fatal("Put succeeded on full queue")
	case <-time.After(20 * time.Millisecond):
	}
	var v int
	atomically(t, rt, func(tx *stm.Tx) { v = q.Take(tx) })
	if v != 1 {
		t.Errorf("take = %d", v)
	}
	select {
	case <-blocked:
	case <-time.After(5 * time.Second):
		t.Fatal("Put never resumed")
	}
}

// TestBoundedQueuePipeline: a classic producer→consumer pipeline through
// a small ring, all values delivered in order.
func TestBoundedQueuePipeline(t *testing.T) {
	rt := stm.NewDefault()
	q := NewBoundedQueue[int](4)
	const n = 300
	var got []int
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			var v int
			_ = rt.Atomic(func(tx *stm.Tx) error {
				v = q.Take(tx)
				return nil
			})
			got = append(got, v)
		}
	}()
	for i := 0; i < n; i++ {
		_ = rt.Atomic(func(tx *stm.Tx) error {
			q.Put(tx, i)
			return nil
		})
	}
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("pipeline stalled")
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d (order broken)", i, v)
		}
	}
}
