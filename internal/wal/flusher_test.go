package wal

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deferstm/internal/simio"
	"deferstm/internal/stm"
)

// The appender/flusher hand-off (wal.go, DESIGN.md §6). Each test names
// the invariant it pins and fails if that invariant is broken.

// flushersIn counts the goroutines currently inside (*Log).flusher —
// all of them, or only those whose stack also shows one of the given
// frames — by reading the runtime's own goroutine dump: no hook in the
// product code. Tests using it must not run in parallel with other
// flusher-starting tests (none in this package call t.Parallel).
func flushersIn(frames ...string) int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	n := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if !bytes.Contains(g, []byte("wal.(*Log).flusher")) {
			continue
		}
		match := len(frames) == 0
		for _, f := range frames {
			match = match || bytes.Contains(g, []byte(f))
		}
		if match {
			n++
		}
	}
	return n
}

func liveFlushers() int { return flushersIn() }

// waitNoFlusher polls until no flusher goroutine is live.
func waitNoFlusher(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for liveFlushers() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d flusher goroutine(s) still live with nothing pending", liveFlushers())
		}
		time.Sleep(time.Millisecond)
	}
}

// saturate keeps window appends in flight on l from one goroutine — the
// shape of one pipelined connection — until stop is closed.
func saturate(rt *stm.Runtime, l *Log, window uint64, stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		var lsn uint64
		_ = rt.Atomic(func(tx *stm.Tx) error {
			lsn = enqueue(tx, l, []byte("saturating-record"))
			return nil
		})
		if lsn > window {
			l.WaitDurable(lsn - window)
		}
	}
}

// openLoop appends to l every few tens of microseconds without ever
// waiting for durability, until stop is closed. Records arrive during
// every fsync, so the queue is never empty when the flusher looks: the
// flusher never goes idle and the log lock is never free for longer than
// the flusher takes to come back for it. Each record draws its GSN from
// gsn after reserving its LSN, as a store's commits do.
func openLoop(rt *stm.Runtime, l *Log, gsn *atomic.Uint64, stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		_ = rt.Atomic(func(tx *stm.Tx) error {
			l.EnqueueReserved(tx, l.Reserve(tx), gsn.Add(1), false, []byte("open-loop-record"))
			return nil
		})
		for t0 := time.Now(); time.Since(t0) < 20*time.Microsecond; {
			runtime.Gosched()
		}
	}
}

// TestPipelinedAppenderFillsBatch (the point of the change): ONE
// goroutine that appends without waiting fills group-commit batches. When
// the fsync ran inline in the appender, this shape flushed batches of 1.
func TestPipelinedAppenderFillsBatch(t *testing.T) {
	fs := simio.NewFS(simio.Latency{Fsync: 2 * time.Millisecond})
	rt, l, _ := openSim(t, fs, Options{})
	const n = 64
	var last uint64
	for i := 0; i < n; i++ {
		last = appendOne(t, rt, l, fmt.Sprintf("rec-%02d", i))
	}
	l.WaitDurable(last)
	st := l.BatchStats()
	if st.Records != n {
		t.Fatalf("flushed %d records, want %d", st.Records, n)
	}
	if st.Mean() < 4 || st.Fsyncs >= n/2 {
		t.Fatalf("one pipelined appender did not batch: mean %.2f over %d flushes, %d fsyncs for %d appends",
			st.Mean(), st.Flushes, st.Fsyncs, n)
	}
	t.Logf("%d appends: %d flushes (mean %.1f, max %d), %d fsyncs", n, st.Flushes, st.Mean(), st.MaxBatch, st.Fsyncs)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestNoStrandedRecord (invariant 2): an append followed by silence
// becomes durable — no record may need a later append to be flushed. The
// dangerous instant is the flusher's exit: it has seen the queue empty
// and is about to lower the flag. Every round aims appends at exactly
// that instant — each appender waits for its first record's flush and
// appends again the moment the publish wakes it, which is the moment the
// flusher goes to look at the queue — and then falls silent. If the
// emptiness check and the flag's clear were not one transaction, an
// append landing between them would start nobody and sit there. The
// stalled variant stretches that instant: injected conflict aborts and
// write-back, pre-hook and wake delays hit every writing commit, the
// flusher's exit included, so a clear that is its own transaction backs
// off and retries while appends commit under the still-raised flag.
func TestNoStrandedRecord(t *testing.T) {
	run := func(t *testing.T, rt *stm.Runtime, rounds int) {
		fs := simio.NewFS(simio.Latency{})
		l, _, err := Open(rt, NewSimBackend(fs), Options{})
		if err != nil {
			t.Fatal(err)
		}
		appendRaw := func() (lsn uint64) {
			_ = rt.Atomic(func(tx *stm.Tx) error {
				lsn = enqueue(tx, l, []byte("aimed-at-the-exit"))
				return nil
			})
			return lsn
		}
		for round := 0; round < rounds; round++ {
			done := make(chan struct{}, 2)
			for g := 0; g < 2; g++ {
				go func() {
					l.WaitDurable(appendRaw())
					l.WaitDurable(appendRaw()) // lands on the flusher's exit; then silence
					done <- struct{}{}
				}()
			}
			timeout := time.After(5 * time.Second)
			for g := 0; g < 2; g++ {
				select {
				case <-done:
				case <-timeout:
					t.Fatalf("round %d: stranded: assigned %d, watermark %d, flushing=%v, %d live flusher(s)",
						round, l.AssignedWatermark(), l.DurableWatermark(), l.flushing.Load(), liveFlushers())
				}
			}
		}
		waitNoFlusher(t)
		if l.flushing.Load() {
			t.Fatal("flushing flag left set with no flusher live")
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("quiet", func(t *testing.T) { run(t, stm.NewDefault(), 5000) })
	t.Run("stalled-exit", func(t *testing.T) {
		run(t, stm.New(stm.Config{Inject: &stm.Inject{Seed: 42, ConflictPct: 50,
			WriteBackDelayPct: 30, PreHookStallPct: 30, WakeDelayPct: 30, StallSpins: 512}}), 6000)
	})
}

// TestAtMostOneFlusher (invariant 3): however many appenders race, at
// most one flusher goroutine per lane is ever live, none is live once the
// queue is empty, and the log on disk is in LSN order with no gap.
func TestAtMostOneFlusher(t *testing.T) {
	fs := simio.NewFS(simio.Latency{Fsync: 200 * time.Microsecond})
	rt, l, _ := openSim(t, fs, Options{SegmentBytes: 1 << 12})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() { defer wg.Done(); saturate(rt, l, 8, stop) }()
	}
	// A flusher that has committed its exit (flag cleared) is still a
	// goroutine while that commit quiesces and returns, and its successor
	// may already be running — so count the flushers that hold the log
	// lock (inside drainAndFlush) or are parked waiting for it. An exiting
	// flusher is in neither state; flushers piling up behind the lock are
	// in nothing else.
	sawOne, together := false, 0
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		sawOne = sawOne || liveFlushers() > 0
		together = max(together, flushersIn("wal.(*Log).drainAndFlush", "stm.(*Runtime).parkOnReadSet"))
	}
	close(stop)
	wg.Wait()
	l.WaitDurable(l.AssignedWatermark())
	if together > 1 {
		t.Fatalf("%d flusher goroutines holding or waiting for one lane's lock at once", together)
	}
	if !sawOne {
		t.Fatal("never saw a flusher: the sampler is not looking at the right thing")
	}
	waitNoFlusher(t)
	total := l.AssignedWatermark()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, _, rec := openSim(t, fs, Options{SegmentBytes: 1 << 12})
	if rec.LastLSN != total || uint64(len(rec.Records)) != total {
		t.Fatalf("recovered %d records up to LSN %d, want %d", len(rec.Records), rec.LastLSN, total)
	}
	for i, r := range rec.Records {
		if r.LSN != uint64(i+1) {
			t.Fatalf("on-disk order broken: record %d has LSN %d", i, r.LSN)
		}
	}
}

// TestSaturatedLaneDoesNotStarveTheLock (invariant 4): while an open-loop
// appender keeps the lane's queue non-empty — so the flusher never goes
// idle — a LastDurable subscriber and a Checkpoint each get the log lock
// after waiting out, typically, one flush of the saturated lane, and a
// cross-lane commit with an idle lane is durable on both lanes just as
// soon: its records pass the frontier gate although the busy lane never
// stops receiving records. TxLocks have no queue (acquisition is a transactional
// write that wins or retries), so the guarantee is the paper's: the lock
// is actually free between flushes and the flusher lets the owners its
// release woke run before it competes again. A flusher that held the
// lock for its whole busy period never lets them in at all; one that
// came straight back for it starved them outright at GOMAXPROCS=1 and
// left a tail of 40-190 flushes at 2 and 4 (measured, same test).
func TestSaturatedLaneDoesNotStarveTheLock(t *testing.T) {
	fs := simio.NewFS(simio.Latency{Fsync: time.Millisecond})
	rt := stm.NewDefault()
	busy, _, err := Open(rt, SubBackend(NewSimBackend(fs), LanePrefix(0)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	idle, _, err := Open(rt, SubBackend(NewSimBackend(fs), LanePrefix(1)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	JoinLanes([]*Log{busy, idle})
	var gsn atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); openLoop(rt, busy, &gsn, stop) }()
	defer func() {
		close(stop)
		wg.Wait()
		busy.WaitDurable(busy.AssignedWatermark())
		if err := busy.Close(); err != nil {
			t.Error(err)
		}
		if err := idle.Close(); err != nil {
			t.Error(err)
		}
	}()
	for busy.BatchStats().Flushes < 5 {
		time.Sleep(time.Millisecond) // let the lane reach its steady state
	}

	// waited runs fn and returns how many flushes the saturated lane
	// completed meanwhile (a Checkpoint's own drain counts as one).
	waited := func(what string, fn func()) uint64 {
		t.Helper()
		before := busy.BatchStats().Flushes
		done := make(chan struct{})
		go func() { fn(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s starved: still waiting after %d flushes of the saturated lane",
				what, busy.BatchStats().Flushes-before)
		}
		return busy.BatchStats().Flushes - before
	}
	const rounds = 15
	waits := map[string][]uint64{}
	for round := 0; round < rounds; round++ {
		waits["LastDurable subscriber"] = append(waits["LastDurable subscriber"], waited("LastDurable subscriber", func() {
			_ = rt.Atomic(func(tx *stm.Tx) error { _ = busy.LastDurable(tx); return nil })
		}))
		waits["Checkpoint"] = append(waits["Checkpoint"], waited("Checkpoint", func() {
			if _, err := busy.Checkpoint(ckptSnap(busy, fmt.Sprintf("ckpt-%d", round))); err != nil {
				t.Error(err)
			}
		}))
		waits["cross-lane commit"] = append(waits["cross-lane commit"], waited("cross-lane commit", func() {
			var a, b uint64
			_ = rt.Atomic(func(tx *stm.Tx) error {
				a, b = busy.Reserve(tx), idle.Reserve(tx)
				g := gsn.Add(1)
				busy.EnqueueReserved(tx, a, g, true, []byte("cross-a"))
				idle.EnqueueReserved(tx, b, g, true, []byte("cross-b"))
				return nil
			})
			busy.WaitDurable(a)
			idle.WaitDurable(b)
		}))
	}
	for what, w := range waits {
		sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
		t.Logf("%s: flushes waited out, sorted: %v", what, w)
		if med, worst := w[len(w)/2], w[len(w)-1]; med > 3 || worst > 32 {
			t.Errorf("%s waited out %d flushes of the saturated lane in the median of %d rounds and %d in the worst, want <= 3 and <= 32",
				what, med, rounds, worst)
		}
	}
}

// TestCloseWithFlusherMidFsync: Close while the flusher is inside an
// fsync neither trips "log closed" (that would panic the flusher
// goroutine and the test binary with it) nor loses a record whose
// durability was observed: Close's own flush waits for the lock the
// flusher holds, then drains whatever is left.
func TestCloseWithFlusherMidFsync(t *testing.T) {
	for round := 0; round < 20; round++ {
		fs := simio.NewFS(simio.Latency{Fsync: time.Millisecond})
		rt, l, _ := openSim(t, fs, Options{})
		var last uint64
		for i := 0; i < 8; i++ {
			last = appendOne(t, rt, l, fmt.Sprintf("r%d-%d", round, i))
		}
		// Stagger the close across the flusher's cycle: before its first
		// commit, mid-fsync, between batches.
		time.Sleep(time.Duration(round%5) * 400 * time.Microsecond)
		acked := l.DurableWatermark()
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		// Close waits for the flusher's last transaction: one still parked
		// behind Close's own flush would go on recording history events
		// (its wake-up, its exit) after the caller thinks the log is quiet.
		if l.flushing.Load() {
			t.Fatalf("round %d: Close returned while the lane's flusher was still live", round)
		}
		waitNoFlusher(t)
		_, _, rec := openSim(t, fs, Options{})
		if rec.LastLSN < acked {
			t.Fatalf("round %d: watermark %d was published but recovery ends at %d", round, acked, rec.LastLSN)
		}
		if rec.LastLSN != last {
			t.Fatalf("round %d: Close returned with LSN %d of %d on storage", round, rec.LastLSN, last)
		}
	}
}

// TestOneWritePerBatch: a flush hands the backend one write per segment
// the batch touches, not one per record.
func TestOneWritePerBatch(t *testing.T) {
	fs := simio.NewFS(simio.Latency{})
	rt, l, _ := openSim(t, fs, Options{SegmentBytes: 4 << 10})
	payload := bytes.Repeat([]byte{'p'}, 100)
	before := fs.Stats().Writes
	const n = 64 // 64 × 116 B ≈ 7.3 KiB: the batch spans two segments
	_ = rt.Atomic(func(tx *stm.Tx) error {
		for i := 0; i < n; i++ {
			l.EnqueueReserved(tx, l.Reserve(tx), 0, false, payload)
		}
		return nil
	})
	l.WaitDurable(n)
	st := l.BatchStats()
	if st.Flushes != 1 || st.Records != n {
		t.Fatalf("expected one flush of %d records, got %+v", n, st)
	}
	if w := fs.Stats().Writes - before; w != 2 {
		t.Fatalf("one %d-record batch over two segments issued %d backend writes, want 2", n, w)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, _, rec := openSim(t, fs, Options{SegmentBytes: 4 << 10})
	if len(rec.Records) != n || rec.LastLSN != n {
		t.Fatalf("recovered %d records up to %d, want %d", len(rec.Records), rec.LastLSN, n)
	}
	for _, r := range rec.Records {
		if !bytes.Equal(r.Payload, payload) {
			t.Fatalf("LSN %d payload corrupted by the shared encode buffer", r.LSN)
		}
	}
}
