package wal

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
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

// countingBackend counts the bytes read through every handle it opens:
// what a Tail costs the storage device.
type countingBackend struct {
	Backend
	read *atomic.Int64
}

type countingFile struct {
	File
	read *atomic.Int64
}

func (b countingBackend) Open(name string) (File, error) {
	f, err := b.Backend.Open(name)
	if err != nil {
		return nil, err
	}
	return countingFile{f, b.read}, nil
}

func (f countingFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	f.read.Add(int64(n))
	return n, err
}

// openCounted opens a log on fs whose reads are counted into read.
func openCounted(t *testing.T, fs *simio.FS, opts Options, read *atomic.Int64) (*stm.Runtime, *Log) {
	t.Helper()
	rt := stm.NewDefault()
	l, _, err := Open(rt, countingBackend{NewSimBackend(fs), read}, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return rt, l
}

// segmentBytes sums the lengths of fs's segment files.
func segmentBytes(t *testing.T, fs *simio.FS) int64 {
	t.Helper()
	var n int64
	for _, name := range fs.Names() {
		if _, ok := parseName(name, segPrefix); ok {
			data, err := fs.ReadAll(name)
			if err != nil {
				t.Fatal(err)
			}
			n += int64(len(data))
		}
	}
	return n
}

// readAll drains (after, upTo] through tail in calls of at most maxBytes
// and returns the LSNs and payloads it delivered, copied.
func readAll(t *testing.T, tail *Tail, after, upTo uint64, maxBytes int) ([]uint64, []string) {
	t.Helper()
	var lsns []uint64
	var payloads []string
	for after < upTo {
		recs, err := tail.Read(after, upTo, maxBytes)
		if err != nil {
			t.Fatalf("Read(%d, %d): %v", after, upTo, err)
		}
		if len(recs) == 0 {
			t.Fatalf("Read(%d, %d) made no progress", after, upTo)
		}
		for _, r := range recs {
			lsns = append(lsns, r.LSN)
			payloads = append(payloads, string(r.Payload))
		}
		after = recs[len(recs)-1].LSN
	}
	return lsns, payloads
}

// TestReadRangeTail: a Tail returns exactly (after, upTo] in order
// across segment rotations, whether it resumes or re-locates, honors
// maxBytes with at-least-one progress, and never ships past upTo.
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

	tail := l.NewTail()
	defer tail.Close()
	recs, err := tail.Read(0, d, 1<<20)
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
		// Seg and Off locate the record on storage.
		data, err := fs.ReadAll(r.Seg)
		if err != nil {
			t.Fatal(err)
		}
		if lsn, _, _, ok := decodeNext(data[r.Off:]); !ok || lsn != r.LSN {
			t.Fatalf("record %d: %s+%d holds LSN %d (ok=%v)", r.LSN, r.Seg, r.Off, lsn, ok)
		}
	}

	// Mid-range cursor (a re-locate): (5, 9] exactly, inclusive upper
	// bound; then a resume from 9 stops at the upTo bound again.
	for _, c := range []struct{ after, upTo, first, last uint64 }{{5, 9, 6, 9}, {9, 10, 10, 10}, {10, 12, 11, 12}} {
		recs, err := tail.Read(c.after, c.upTo, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if uint64(len(recs)) != c.last-c.first+1 || recs[0].LSN != c.first || recs[len(recs)-1].LSN != c.last {
			t.Fatalf("range (%d,%d] = %d records [%d..%d]", c.after, c.upTo, len(recs), recs[0].LSN, recs[len(recs)-1].LSN)
		}
	}

	// maxBytes=1 still makes progress, one record at a time.
	lsns, payloads := readAll(t, tail, 0, d, 1)
	if len(lsns) != 12 {
		t.Fatalf("chunked tail delivered %d records, want 12", len(lsns))
	}
	for i := range lsns {
		if lsns[i] != uint64(i+1) || payloads[i] != string(want[i]) {
			t.Fatalf("chunked record %d = (%d, %q)", i, lsns[i], payloads[i])
		}
	}
	// A maxBytes bound cuts after the record that reaches it.
	if recs, err := tail.Read(0, d, 2*len(want[0])); err != nil || len(recs) != 2 {
		t.Fatalf("maxBytes of two payloads returned %d records (%v)", len(recs), err)
	}

	// Empty range is not an error.
	if recs, err := tail.Read(d, d, 1<<20); err != nil || len(recs) != 0 {
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

	tail := l.NewTail()
	defer tail.Close()
	if _, err := tail.Read(0, l.DurableWatermark(), 1<<20); !errors.Is(err, ErrPruned) {
		t.Fatalf("cursor below cut: err = %v, want ErrPruned", err)
	}

	ckLSN, blob, err := l.LatestCheckpoint()
	if err != nil || ckLSN != 8 || string(blob) != "blob-at-8" {
		t.Fatalf("LatestCheckpoint = (%d, %q, %v)", ckLSN, blob, err)
	}

	recs, err := tail.Read(ckLSN, l.DurableWatermark(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[0].LSN != 9 || recs[2].LSN != 11 {
		t.Fatalf("tail after bootstrap = %d records starting %d", len(recs), recs[0].LSN)
	}
}

// TestTailReadsOnlyAppendedBytes is the cost the Tail exists for: a
// caught-up tail's call reads from the backend at most the bytes
// appended since its previous call — the whole-segment re-read it
// replaced read the entire live segment on every call, so its cost grew
// with the segment, not with the batch. The log's own counter
// (StreamReadBytes, the /metrics series) must agree with the device.
func TestTailReadsOnlyAppendedBytes(t *testing.T) {
	fs := simio.NewFS(simio.Latency{})
	var read atomic.Int64
	rt, l := openCounted(t, fs, Options{SegmentBytes: 1 << 20}, &read)
	tail := l.NewTail()
	defer tail.Close()

	payload := strings.Repeat("p", 100)
	after := uint64(0)
	for round := 0; round < 50; round++ {
		for i := 0; i < 3; i++ {
			appendOne(t, rt, l, payload)
		}
		d := l.AssignedWatermark()
		l.WaitDurable(d)
		readBefore := read.Load()
		recs, err := tail.Read(after, d, 1<<20)
		if err != nil || len(recs) != 3 {
			t.Fatalf("round %d: %d records, err %v", round, len(recs), err)
		}
		after = recs[2].LSN
		appended := int64(3 * recordSize(len(payload)))
		if got := read.Load() - readBefore; got > appended {
			t.Fatalf("round %d: the tail read %d bytes for %d appended (the live segment holds %d)",
				round, got, appended, segmentBytes(t, fs))
		}
	}
	if total := segmentBytes(t, fs); read.Load() != total || int64(l.StreamReadBytes()) != total {
		t.Fatalf("device read %d bytes, log counted %d, for a %d-byte log: each byte must be read once",
			read.Load(), l.StreamReadBytes(), total)
	}
}

// TestTailUpToCarriesOver: bytes a call read past its upTo are kept, not
// read again, and a call that stops there resumes at the next record.
func TestTailUpToCarriesOver(t *testing.T) {
	fs := simio.NewFS(simio.Latency{})
	var read atomic.Int64
	rt, l := openCounted(t, fs, Options{}, &read)
	tail := l.NewTail()
	defer tail.Close()
	for i := 1; i <= 6; i++ {
		appendOne(t, rt, l, fmt.Sprintf("rec-%d", i))
	}
	l.WaitDurable(6)
	lsns, _ := readAll(t, tail, 0, 2, 1<<20)
	if len(lsns) != 2 {
		t.Fatalf("(0,2] delivered %v", lsns)
	}
	n := read.Load()
	lsns, payloads := readAll(t, tail, 2, 6, 1<<20)
	if len(lsns) != 4 || lsns[0] != 3 || payloads[3] != "rec-6" {
		t.Fatalf("(2,6] delivered %v %q", lsns, payloads)
	}
	if read.Load() != n {
		t.Fatalf("resuming past upTo re-read %d bytes already read", read.Load()-n)
	}
}

// TestTailAcrossRotation: with 4 KiB segments and an appender running
// concurrently, one tail delivers every LSN exactly once and in order
// while the log rotates under it, reading each segment byte once.
func TestTailAcrossRotation(t *testing.T) {
	const n = 400
	fs := simio.NewFS(simio.Latency{})
	var read atomic.Int64
	rt, l := openCounted(t, fs, Options{SegmentBytes: 4096}, &read)
	tail := l.NewTail()
	defer tail.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= n; i++ {
			_ = rt.Atomic(func(tx *stm.Tx) error {
				enqueue(tx, l, []byte(fmt.Sprintf("%03d-%s", i, strings.Repeat("x", 60))))
				return nil
			})
		}
	}()
	after := uint64(0)
	segs := map[string]bool{}
	for after < n {
		d := l.DurableWatermark()
		if d <= after {
			time.Sleep(50 * time.Microsecond)
			continue
		}
		recs, err := tail.Read(after, d, 512)
		if err != nil {
			t.Fatalf("Read(%d, %d): %v", after, d, err)
		}
		for _, r := range recs {
			if r.LSN != after+1 || !strings.HasPrefix(string(r.Payload), fmt.Sprintf("%03d-", r.LSN)) {
				t.Fatalf("after %d got LSN %d payload %.8q", after, r.LSN, r.Payload)
			}
			after = r.LSN
			segs[r.Seg] = true
		}
	}
	<-done
	if len(segs) < 5 {
		t.Fatalf("records came from %d segments; the test wants several rotations", len(segs))
	}
	if total := segmentBytes(t, fs); read.Load() != total {
		t.Fatalf("device read %d bytes for a %d-byte log across %d segments", read.Load(), total, len(segs))
	}
}

// TestTailPrunedUnderIt: a checkpoint that prunes the segment a live
// tail sits in makes its next read fail with ErrPruned; the tail then
// re-bases at the checkpoint's upTo and reads on.
func TestTailPrunedUnderIt(t *testing.T) {
	fs := simio.NewFS(simio.Latency{})
	rt, l, _ := openSim(t, fs, Options{SegmentBytes: 64})
	tail := l.NewTail()
	defer tail.Close()
	for i := 1; i <= 4; i++ {
		appendOne(t, rt, l, fmt.Sprintf("a-%d", i))
	}
	l.WaitDurable(4)
	if lsns, _ := readAll(t, tail, 0, 2, 1<<20); len(lsns) != 2 {
		t.Fatalf("first read = %v", lsns)
	}
	for i := 5; i <= 10; i++ {
		appendOne(t, rt, l, fmt.Sprintf("b-%d", i))
	}
	upTo, err := l.Checkpoint(ckptSnap(l, "base"))
	if err != nil || upTo != 10 {
		t.Fatalf("checkpoint = (%d, %v)", upTo, err)
	}
	appendOne(t, rt, l, "c-11")
	l.WaitDurable(11)

	if _, err := tail.Read(2, 11, 1<<20); !errors.Is(err, ErrPruned) {
		t.Fatalf("read under a pruned segment: err = %v, want ErrPruned", err)
	}
	ck, _, err := l.LatestCheckpoint()
	if err != nil || ck != 10 {
		t.Fatalf("LatestCheckpoint = (%d, %v)", ck, err)
	}
	lsns, payloads := readAll(t, tail, ck, 11, 1<<20)
	if len(lsns) != 1 || lsns[0] != 11 || payloads[0] != "c-11" {
		t.Fatalf("after re-base: %v %q", lsns, payloads)
	}
}

// TestTailsIndependent: two tails on one log at different positions do
// not disturb each other — each resumes where it stopped.
func TestTailsIndependent(t *testing.T) {
	fs := simio.NewFS(simio.Latency{})
	rt, l, _ := openSim(t, fs, Options{SegmentBytes: 256})
	a, b := l.NewTail(), l.NewTail()
	defer a.Close()
	defer b.Close()
	for i := 1; i <= 30; i++ {
		appendOne(t, rt, l, fmt.Sprintf("r-%02d", i))
	}
	l.WaitDurable(30)
	var aAt, bAt uint64
	var aGot, bGot []uint64
	for aAt < 30 || bAt < 30 {
		if aAt < 30 {
			lsns, _ := readAll(t, a, aAt, min(aAt+3, 30), 1<<20)
			aGot, aAt = append(aGot, lsns...), lsns[len(lsns)-1]
		}
		if bAt < 30 {
			lsns, _ := readAll(t, b, bAt, min(bAt+7, 30), 1<<20)
			bGot, bAt = append(bGot, lsns...), lsns[len(lsns)-1]
		}
	}
	for _, got := range [][]uint64{aGot, bGot} {
		if len(got) != 30 {
			t.Fatalf("a tail delivered %d records: %v", len(got), got)
		}
		for i, lsn := range got {
			if lsn != uint64(i+1) {
				t.Fatalf("delivered %v", got)
			}
		}
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
