package ds

import "deferstm/internal/stm"

// BoundedQueue is a fixed-capacity transactional FIFO ring. Put retries
// while full. TryTake reports an empty queue instead, so that a consumer
// can wait on the queue and on other state in one transaction: it calls
// tx.Retry when nothing it read lets it proceed (the watcher torture's
// consumers wait for an element or a close flag). It is the data
// structure behind reorder windows and bounded pipelines (compare
// internal/dedup's ring).
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
