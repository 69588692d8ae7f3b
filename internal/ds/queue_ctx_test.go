// Tests for the context-aware queue entry points (PutCtx/TakeCtx):
// blocking take/put over watcher-parked transactions with randomized
// producer/consumer schedules, and cancellation of parked operations.
package ds

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deferstm/internal/stm"
)

// TestBoundedQueueCtxRandomized drives randomized producers and
// consumers through PutCtx/TakeCtx over a deliberately tiny queue, so
// both sides park constantly. Every element must arrive exactly once,
// and each consumer must see any single producer's elements in
// strictly increasing order (the queue is FIFO and elements are taken
// once). Producers jitter with random yields to vary the schedules.
func TestBoundedQueueCtxRandomized(t *testing.T) {
	const producers, consumers, perProducer = 4, 4, 250
	rt := stm.NewDefault()
	q := NewBoundedQueue[uint64](3)
	ctx := context.Background()

	var produced, consumed atomic.Int64
	var sum atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(pid) + 1))
			for seq := 0; seq < perProducer; seq++ {
				if rng.Intn(4) == 0 {
					time.Sleep(time.Duration(rng.Intn(50)) * time.Microsecond)
				}
				v := uint64(pid)<<32 | uint64(seq)
				if err := q.PutCtx(ctx, rt, v); err != nil {
					t.Errorf("PutCtx: %v", err)
					return
				}
				produced.Add(1)
			}
		}(p)
	}
	total := producers * perProducer
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lastSeq := make([]int64, producers)
			for i := range lastSeq {
				lastSeq[i] = -1
			}
			for {
				// Claim a slot in the expected total; extra claimers stop.
				if consumed.Add(1) > int64(total) {
					consumed.Add(-1)
					return
				}
				v, err := q.TakeCtx(ctx, rt)
				if err != nil {
					t.Errorf("TakeCtx: %v", err)
					return
				}
				pid, seq := int(v>>32), int64(v&0xffffffff)
				if pid < 0 || pid >= producers {
					t.Errorf("value from impossible producer %d", pid)
					return
				}
				if seq <= lastSeq[pid] {
					t.Errorf("consumer saw producer %d seq %d after %d (order violated)", pid, seq, lastSeq[pid])
				}
				lastSeq[pid] = seq
				sum.Add(int64(v))
			}
		}()
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("handoff deadlocked: produced=%d consumed=%d/%d parked=%d",
			produced.Load(), consumed.Load(), total, rt.RetryParked())
	}
	var wantSum int64
	for p := 0; p < producers; p++ {
		for s := 0; s < perProducer; s++ {
			wantSum += int64(uint64(p)<<32 | uint64(s))
		}
	}
	if consumed.Load() != int64(total) || sum.Load() != wantSum {
		t.Fatalf("consumed %d (sum %d), want %d (sum %d)", consumed.Load(), sum.Load(), total, wantSum)
	}
	if n := rt.RetryParked(); n != 0 {
		t.Fatalf("%d transactions still parked after drain", n)
	}
}

// TestBoundedQueueTakeCtxCancel parks a consumer on an empty queue and
// cancels it: TakeCtx must return the context error and leave no
// parked transaction behind.
func TestBoundedQueueTakeCtxCancel(t *testing.T) {
	rt := stm.NewDefault()
	q := NewBoundedQueue[int](2)
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := q.TakeCtx(ctx, rt)
		errCh <- err
	}()
	waitParkedDS(t, rt, 1)
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("TakeCtx = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("TakeCtx ignored cancellation while parked on empty")
	}
	if n := rt.RetryParked(); n != 0 {
		t.Fatalf("RetryParked = %d after cancel, want 0", n)
	}
}

// TestBoundedQueuePutCtxCancelWhenFull is the symmetric case: a
// producer parked on a full queue must honor cancellation, and the
// queue contents must be untouched by the abandoned put.
func TestBoundedQueuePutCtxCancelWhenFull(t *testing.T) {
	rt := stm.NewDefault()
	q := NewBoundedQueue[int](2)
	for i := 0; i < 2; i++ {
		if err := q.PutCtx(context.Background(), rt, i); err != nil {
			t.Fatalf("fill: %v", err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() { errCh <- q.PutCtx(ctx, rt, 99) }()
	waitParkedDS(t, rt, 1)
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("PutCtx = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("PutCtx ignored cancellation while parked on full")
	}
	// The abandoned put must not have landed.
	var a, b int
	err := rt.Atomic(func(tx *stm.Tx) error {
		a = q.Take(tx)
		b = q.Take(tx)
		if q.Len(tx) != 0 {
			t.Errorf("queue holds %d extra elements", q.Len(tx))
		}
		return nil
	})
	if err != nil || a != 0 || b != 1 {
		t.Fatalf("drained (%d,%d) err=%v, want (0,1)", a, b, err)
	}
}

// waitParkedDS spins until n transactions are parked on watchers.
func waitParkedDS(t *testing.T, rt *stm.Runtime, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for rt.RetryParked() < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d parked transactions (have %d)", n, rt.RetryParked())
		}
		time.Sleep(100 * time.Microsecond)
	}
}
