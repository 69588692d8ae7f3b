package ds

import (
	"context"

	"deferstm/internal/stm"
)

// BoundedQueue is a fixed-capacity transactional FIFO ring. Put retries
// while full; Take retries while empty. It is the data structure behind
// reorder windows and bounded pipelines (compare internal/dedup's ring).
type BoundedQueue[T any] struct {
	slots []stm.Var[T]
	head  stm.Var[uint64] // next take position
	tail  stm.Var[uint64] // next put position
}

// NewBoundedQueue returns a queue of capacity n (minimum 1).
func NewBoundedQueue[T any](n int) *BoundedQueue[T] {
	if n < 1 {
		n = 1
	}
	return &BoundedQueue[T]{slots: make([]stm.Var[T], n)}
}

// Len reports the number of queued elements inside tx.
func (q *BoundedQueue[T]) Len(tx *stm.Tx) int {
	return int(q.tail.Get(tx) - q.head.Get(tx))
}

// TryPut appends v, reporting false when full.
func (q *BoundedQueue[T]) TryPut(tx *stm.Tx, v T) bool {
	t := q.tail.Get(tx)
	if int(t-q.head.Get(tx)) == len(q.slots) {
		return false
	}
	q.slots[t%uint64(len(q.slots))].Set(tx, v)
	q.tail.Set(tx, t+1)
	return true
}

// Put appends v, retrying while the queue is full.
func (q *BoundedQueue[T]) Put(tx *stm.Tx, v T) {
	if !q.TryPut(tx, v) {
		tx.Retry()
	}
}

// TryTake removes the oldest element, reporting false when empty.
func (q *BoundedQueue[T]) TryTake(tx *stm.Tx) (T, bool) {
	h := q.head.Get(tx)
	if h == q.tail.Get(tx) {
		var zero T
		return zero, false
	}
	slot := &q.slots[h%uint64(len(q.slots))]
	v := slot.Get(tx)
	var zero T
	slot.Set(tx, zero) // drop the reference for GC
	q.head.Set(tx, h+1)
	return v, true
}

// Take removes the oldest element, retrying while the queue is empty.
func (q *BoundedQueue[T]) Take(tx *stm.Tx) T {
	v, ok := q.TryTake(tx)
	if !ok {
		tx.Retry()
	}
	return v
}

// PutCtx runs its own transaction that blocks (parked on watchers)
// while the queue is full, until the put succeeds or ctx ends, in which
// case it returns ctx.Err(). Use Put to block inside an existing
// transaction; PutCtx is the top-level producer entry point.
func (q *BoundedQueue[T]) PutCtx(ctx context.Context, rt *stm.Runtime, v T) error {
	return rt.AtomicCtx(ctx, func(tx *stm.Tx) error {
		q.Put(tx, v)
		return nil
	})
}

// TakeCtx runs its own transaction that blocks while the queue is
// empty, until an element arrives or ctx ends, in which case it returns
// ctx.Err().
func (q *BoundedQueue[T]) TakeCtx(ctx context.Context, rt *stm.Runtime) (T, error) {
	var v T
	err := rt.AtomicCtx(ctx, func(tx *stm.Tx) error {
		v = q.Take(tx)
		return nil
	})
	return v, err
}
