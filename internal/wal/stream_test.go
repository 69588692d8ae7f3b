package wal

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"deferstm/internal/simio"
	"deferstm/internal/stm"
)

func ckptSnap(l *Log, blob string) func(tx *stm.Tx) ([]byte, uint64, error) {
	return func(tx *stm.Tx) ([]byte, uint64, error) {
		return []byte(blob), l.LastAssigned(tx), nil
	}
}

// TestReadRangeTail: the stream reader returns exactly (after, upTo] in
// order across segment rotations, honors maxBytes with at-least-one
// progress, and never ships past upTo.
func TestReadRangeTail(t *testing.T) {
	fs := simio.NewFS(simio.Latency{})
	rt, l, _ := openSim(t, fs, Options{SegmentBytes: 64})

	var want [][]byte
	for i := 1; i <= 12; i++ {
		p := []byte(fmt.Sprintf("rec-%02d", i))
		want = append(want, p)
		appendOne(t, rt, l, string(p))
	}
	l.WaitDurable(12) // Append returns at commit; the flusher owes the fsync
	d := l.DurableWatermark()
	if d != 12 {
		t.Fatalf("durable = %d, want 12", d)
	}

	recs, err := l.ReadRange(0, d, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 12 {
		t.Fatalf("got %d records, want 12", len(recs))
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) || !bytes.Equal(r.Payload, want[i]) {
			t.Fatalf("record %d = (%d, %q), want (%d, %q)", i, r.LSN, r.Payload, i+1, want[i])
		}
	}

	// Mid-range cursor: (5, 9] exactly, inclusive upper bound.
	recs, err = l.ReadRange(5, 9, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 || recs[0].LSN != 6 || recs[3].LSN != 9 {
		t.Fatalf("range (5,9] = %d records [%d..%d]", len(recs), recs[0].LSN, recs[len(recs)-1].LSN)
	}

	// maxBytes=1 still makes progress, one record at a time.
	cursor := uint64(0)
	var n int
	for cursor < d {
		recs, err := l.ReadRange(cursor, d, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 1 {
			t.Fatalf("maxBytes=1 returned %d records", len(recs))
		}
		cursor = recs[0].LSN
		n++
	}
	if n != 12 {
		t.Fatalf("chunked tail delivered %d records, want 12", n)
	}

	// Empty range is not an error.
	if recs, err := l.ReadRange(d, d, 1<<20); err != nil || len(recs) != 0 {
		t.Fatalf("empty range = (%v, %v)", recs, err)
	}
}

// TestReadRangeCheckpointBootstrap: after a checkpoint prunes segments,
// a cursor below the cut gets ErrPruned, LatestCheckpoint hands back the
// base, and the tail resumes at exactly upTo+1 — the record at upTo is
// inside the blob and must not be shipped again.
func TestReadRangeCheckpointBootstrap(t *testing.T) {
	fs := simio.NewFS(simio.Latency{})
	rt, l, _ := openSim(t, fs, Options{SegmentBytes: 64})

	for i := 1; i <= 8; i++ {
		appendOne(t, rt, l, fmt.Sprintf("old-%d", i))
	}
	upTo, err := l.Checkpoint(ckptSnap(l, "blob-at-8"))
	if err != nil {
		t.Fatal(err)
	}
	if upTo != 8 || l.CheckpointLSN() != 8 {
		t.Fatalf("checkpoint upTo = %d (CheckpointLSN %d), want 8", upTo, l.CheckpointLSN())
	}
	for i := 9; i <= 11; i++ {
		appendOne(t, rt, l, fmt.Sprintf("new-%d", i))
	}
	l.WaitDurable(11)

	if _, err := l.ReadRange(0, l.DurableWatermark(), 1<<20); !errors.Is(err, ErrPruned) {
		t.Fatalf("cursor below cut: err = %v, want ErrPruned", err)
	}

	ckLSN, blob, err := l.LatestCheckpoint()
	if err != nil || ckLSN != 8 || string(blob) != "blob-at-8" {
		t.Fatalf("LatestCheckpoint = (%d, %q, %v)", ckLSN, blob, err)
	}

	recs, err := l.ReadRange(ckLSN, l.DurableWatermark(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[0].LSN != 9 || recs[2].LSN != 11 {
		t.Fatalf("tail after bootstrap = %d records starting %d", len(recs), recs[0].LSN)
	}
}

// TestCheckpointSameUpToNoRewrite pins the re-checkpoint data-loss bug:
// checkpointing an upTo already covered by the newest checkpoint used to
// Create() the same file name, truncating the only durable recovery
// base in place — a crash before the replacement's fsync left no valid
// checkpoint while the covered segments were already pruned. The fix
// performs no backend mutation at all, which the armed crash plan
// verifies: any write or fsync on this path would capture an image.
func TestCheckpointSameUpToNoRewrite(t *testing.T) {
	fs := simio.NewFS(simio.Latency{})
	rt, l, _ := openSim(t, fs, Options{SegmentBytes: 64})

	for i := 1; i <= 8; i++ {
		appendOne(t, rt, l, fmt.Sprintf("rec-%d", i))
	}
	first, err := l.Checkpoint(ckptSnap(l, "base"))
	if err != nil || first != 8 {
		t.Fatalf("first checkpoint = (%d, %v)", first, err)
	}

	fs.SetCrashPlan(simio.CrashPlan{Point: simio.CrashMidWrite, N: 1})
	again, err := l.Checkpoint(ckptSnap(l, "base"))
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Fatalf("re-checkpoint upTo = %d, want %d", again, first)
	}
	if fs.Crashed() {
		img := fs.CrashImage()
		rt2 := stm.NewDefault()
		_, rec, err := Open(rt2, NewSimBackend(simio.FSFromImage(img, simio.Latency{}, 1)), Options{SegmentBytes: 64})
		t.Fatalf("re-checkpoint rewrote the durable base in place; crash image recovers to (ckpt=%d, last=%d, err=%v) — records lost",
			recCkpt(rec), recLast(rec), err)
	}
	fs.SetCrashPlan(simio.CrashPlan{})

	// New appends move upTo forward and checkpointing works normally again.
	appendOne(t, rt, l, "rec-9")
	next, err := l.Checkpoint(ckptSnap(l, "base2"))
	if err != nil || next != 9 {
		t.Fatalf("next checkpoint = (%d, %v)", next, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	rt2 := stm.NewDefault()
	l2, rec, err := Open(rt2, NewSimBackend(fs), Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec.CheckpointLSN != 9 || string(rec.Checkpoint) != "base2" || rec.LastLSN != 9 {
		t.Fatalf("recovery = ckpt %d %q last %d", rec.CheckpointLSN, rec.Checkpoint, rec.LastLSN)
	}
}

func recCkpt(r *Recovery) uint64 {
	if r == nil {
		return 0
	}
	return r.CheckpointLSN
}

func recLast(r *Recovery) uint64 {
	if r == nil {
		return 0
	}
	return r.LastLSN
}

// TestCheckpointCrashKeepsOldBase: a crash mid-write of a NEW checkpoint
// (fresh upTo) must leave the previous base and its tail segments intact
// — prune strictly follows the new base's fsync.
func TestCheckpointCrashKeepsOldBase(t *testing.T) {
	fs := simio.NewFS(simio.Latency{})
	rt, l, _ := openSim(t, fs, Options{SegmentBytes: 64})

	for i := 1; i <= 6; i++ {
		appendOne(t, rt, l, fmt.Sprintf("rec-%d", i))
	}
	if _, err := l.Checkpoint(ckptSnap(l, "old-base")); err != nil {
		t.Fatal(err)
	}
	for i := 7; i <= 10; i++ {
		appendOne(t, rt, l, fmt.Sprintf("rec-%d", i))
	}
	l.WaitDurable(10) // or the armed write is the flusher's, not the checkpoint's

	fs.SetCrashPlan(simio.CrashPlan{Point: simio.CrashMidWrite, N: 1})
	if _, err := l.Checkpoint(ckptSnap(l, "new-base")); err != nil {
		t.Fatal(err)
	}
	if !fs.Crashed() {
		t.Fatal("crash plan did not fire during the new checkpoint's write")
	}
	rt2 := stm.NewDefault()
	l2, rec, err := Open(rt2, NewSimBackend(simio.FSFromImage(fs.CrashImage(), simio.Latency{}, 1)), Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec.CheckpointLSN != 6 || string(rec.Checkpoint) != "old-base" {
		t.Fatalf("fallback base = (%d, %q), want (6, old-base)", rec.CheckpointLSN, rec.Checkpoint)
	}
	if rec.LastLSN != 10 {
		t.Fatalf("recovered LastLSN = %d, want 10 (tail records lost with the old base?)", rec.LastLSN)
	}
}

// TestWaitDurableCtxCancelNoLeak mirrors the PR 6 retry-cancel path for
// the durability watermark: cancelling a parked WaitDurableCtx must
// unregister the waiter from the watermark's watcher set. The gate is
// RetryParked draining to zero under churn; a leaked registration keeps
// the count pinned.
func TestWaitDurableCtxCancelNoLeak(t *testing.T) {
	fs := simio.NewFS(simio.Latency{})
	rt, l, _ := openSim(t, fs, Options{})
	defer l.Close()

	const waiters = 32
	for round := 0; round < 8; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		future := l.DurableWatermark() + 1000
		for i := 0; i < waiters; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := l.WaitDurableCtx(ctx, future); !errors.Is(err, context.Canceled) {
					t.Errorf("WaitDurableCtx = %v, want context.Canceled", err)
				}
			}()
		}
		// Let at least some waiters actually park before cancelling.
		deadline := time.Now().Add(time.Second)
		for rt.RetryParked() < waiters/2 && time.Now().Before(deadline) {
			time.Sleep(100 * time.Microsecond)
		}
		cancel()
		wg.Wait()
		if parked := rt.RetryParked(); parked != 0 {
			t.Fatalf("round %d: %d waiters still parked after cancel", round, parked)
		}
	}

	// The watcher set must still wake real waiters: a fresh wait
	// released by an append proves no poisoned registrations remain.
	done := make(chan error, 1)
	target := l.DurableWatermark() + 1
	go func() { done <- l.WaitDurableCtx(context.Background(), target) }()
	time.Sleep(time.Millisecond)
	appendOne(t, rt, l, "wake")
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never woke after append")
	}
}
