package wal

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deferstm/internal/simio"
	"deferstm/internal/stm"
)

// Flush epochs (epoch.go, DESIGN.md §6 "Group commit"): the rule that
// decides when joined lanes start their flushes, and its liveness.

// openLanes opens n lanes over one simulated filesystem and joins them,
// as a store does.
func openLanes(t *testing.T, fs *simio.FS, n int) (*stm.Runtime, []*Log) {
	t.Helper()
	rt := stm.NewDefault()
	lanes := make([]*Log, n)
	for i := range lanes {
		l, _, err := Open(rt, SubBackend(NewSimBackend(fs), LanePrefix(i)), Options{})
		if err != nil {
			t.Fatal(err)
		}
		lanes[i] = l
	}
	JoinLanes(lanes)
	return rt, lanes
}

func closeLanes(t *testing.T, lanes []*Log) {
	t.Helper()
	for _, l := range lanes {
		if err := l.Close(); err != nil {
			t.Error(err)
		}
	}
}

// sumStats sums the lanes' batch statistics.
func sumStats(lanes []*Log) (s BatchStats) {
	for _, l := range lanes {
		b := l.BatchStats()
		s.Flushes += b.Flushes
		s.Records += b.Records
		s.Epochs += b.Epochs
		s.EpochDeadlines += b.EpochDeadlines
	}
	return s
}

// inOrder is one pipelined connection: it keeps window appends in
// flight, spread round robin over lanes starting at lanes[first], and
// waits for them in the order it sent them — a connection's acks leave
// in arrival order — until stop is closed; then it waits for what it
// sent. Each append draws its GSN after reserving its LSN, as a store's
// commits do.
func inOrder(rt *stm.Runtime, lanes []*Log, first, window int, gsn *atomic.Uint64, stop <-chan struct{}) {
	type sent struct {
		l   *Log
		lsn uint64
	}
	var fifo []sent
	for i := first; ; i++ {
		select {
		case <-stop:
			for _, s := range fifo {
				s.l.WaitDurable(s.lsn)
			}
			return
		default:
		}
		l := lanes[i%len(lanes)]
		var lsn uint64
		_ = rt.Atomic(func(tx *stm.Tx) error {
			lsn = l.Reserve(tx)
			l.EnqueueReserved(tx, lsn, gsn.Add(1), false, []byte("in-order-record"))
			return nil
		})
		fifo = append(fifo, sent{l, lsn})
		if len(fifo) == window {
			fifo[0].l.WaitDurable(fifo[0].lsn)
			fifo = fifo[1:]
		}
	}
}

// commit appends, in one transaction under one GSN, n[i] records to
// lanes[i], marked cross or not, and returns each lane's last LSN.
func commit(rt *stm.Runtime, lanes []*Log, gsn *atomic.Uint64, cross bool, n ...int) []uint64 {
	lsns := make([]uint64, len(lanes))
	_ = rt.Atomic(func(tx *stm.Tx) error {
		g := gsn.Add(1)
		for i, l := range lanes {
			for k := 0; k < n[i]; k++ {
				lsns[i] = l.Reserve(tx)
				l.EnqueueReserved(tx, lsns[i], g, cross, []byte("commit"))
			}
		}
		return nil
	})
	return lsns
}

// waitUntil polls cond until it holds, failing the test after 5 s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// waitAll waits, up to timeout, for every lane to make lsns durable.
func waitAll(lanes []*Log, lsns []uint64, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	for i, l := range lanes {
		if err := l.WaitDurableCtx(ctx, lsns[i]); err != nil {
			return fmt.Errorf("lane %d: LSN %d not durable after %v (watermark %d)", i, lsns[i], timeout, l.DurableWatermark())
		}
	}
	return nil
}

// TestEpochGathersTheWave (the point of epochs): two in-order
// connections, 16 appends in flight each, over two lanes — 16 records in
// flight per lane, the shape of kv-write-sat. Flushed at once, each lane
// settles into two cohorts of about 8: an ack wave returns while the
// lane already fsyncs the other cohort (here 9.9–10.4 a flush: waiters in
// the process return faster than a network round trip). As epochs, a
// flush waits for the wave its predecessor acknowledged, so it carries
// close to all 16. Whatever the scheduling, a flush carries at most the
// records in flight on its lane; the bound is three quarters of that.
func TestEpochGathersTheWave(t *testing.T) {
	const conns, window = 2, 16
	fs := simio.NewFS(simio.Latency{Fsync: 2 * time.Millisecond})
	rt, lanes := openLanes(t, fs, 2)
	defer closeLanes(t, lanes)
	var gsn atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() { defer wg.Done(); inOrder(rt, lanes, c, window, &gsn, stop) }()
	}
	for sumStats(lanes).Flushes < 20 {
		time.Sleep(time.Millisecond) // past the start-up transient
	}
	before := sumStats(lanes)
	for sumStats(lanes).Flushes-before.Flushes < 80 {
		time.Sleep(time.Millisecond)
	}
	after := sumStats(lanes)
	close(stop)
	wg.Wait()

	perLane := float64(conns*window) / float64(len(lanes))
	mean := float64(after.Records-before.Records) / float64(after.Flushes-before.Flushes)
	t.Logf("mean batch %.2f per lane flush with %.0f records in flight per lane; %d epochs (%d at the deadline)",
		mean, perLane, after.Epochs-before.Epochs, after.EpochDeadlines-before.EpochDeadlines)
	if mean < 0.75*perLane {
		t.Fatalf("mean batch %.2f with %.0f records in flight per lane, want >= %.1f",
			mean, perLane, 0.75*perLane)
	}
}

// TestEpochDeadlineWhenWaveDoesNotReturn: after a batched run whose last
// epochs were large, the acknowledged wave never comes back — one record
// arrives instead. Its flush must not wait for records that will never
// come: the gather's deadline (a quarter of the last fsync after the
// last epoch ended) starts it. A gather without one parks forever.
func TestEpochDeadlineWhenWaveDoesNotReturn(t *testing.T) {
	const fsync = 2 * time.Millisecond
	fs := simio.NewFS(simio.Latency{Fsync: fsync})
	rt, lanes := openLanes(t, fs, 2)
	defer closeLanes(t, lanes)
	var gsn atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() { defer wg.Done(); inOrder(rt, lanes, c, 16, &gsn, stop) }()
	}
	for sumStats(lanes).Epochs < 10 {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()

	for round := 0; round < 5; round++ {
		start := time.Now()
		var lsn uint64
		_ = rt.Atomic(func(tx *stm.Tx) error {
			lsn = lanes[0].Reserve(tx)
			lanes[0].EnqueueReserved(tx, lsn, gsn.Add(1), false, []byte("lone-record"))
			return nil
		})
		// The flush starts at the deadline at the latest and then takes
		// one fsync; the rest is slack for a loaded host.
		if err := waitAll(lanes[:1], []uint64{lsn}, 5*time.Second); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if took, bound := time.Since(start), fsync/4+fsync+40*time.Millisecond; took > bound {
			t.Fatalf("round %d: a lone record after a batched run took %v to become durable, want < %v", round, took, bound)
		}
	}
}

// TestCrossLaneAppendDuringEpoch: a flush holding a cross-lane record
// waits at the frontier for every lane's older records, while the gather
// holds records back for an epoch. Both must give way: a lane with a
// cross-lane record, or any lane while a flush waits at the frontier,
// joins the running epoch at once. Three lanes make the second case: a
// closed loop keeps lanes 0 and 2 batched, and commits spanning lanes 0
// and 1 find lane 2 holding records with smaller GSNs that no sibling
// record pulls into the epoch.
func TestCrossLaneAppendDuringEpoch(t *testing.T) {
	fs := simio.NewFS(simio.Latency{Fsync: time.Millisecond})
	rt, lanes := openLanes(t, fs, 3)
	var gsn atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() { defer wg.Done(); inOrder(rt, []*Log{lanes[0], lanes[2]}, c, 16, &gsn, stop) }()
	}
	defer func() {
		if !t.Failed() { // a stuck flush would hang the clean-up too
			close(stop)
			wg.Wait()
			closeLanes(t, lanes)
		}
	}()
	for sumStats(lanes).Epochs < 5 {
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 200; i++ {
		pair := lanes[:2]
		if err := waitAll(pair, commit(rt, pair, &gsn, true, 1, 1), 10*time.Second); err != nil {
			t.Fatalf("cross-lane commit %d: %v (lane 2 watermark %d of %d)", i, err,
				lanes[2].DurableWatermark(), lanes[2].AssignedWatermark())
		}
	}
}

// TestRejoinLeavesTheEpoch: a lane that flushed in an epoch and then
// receives a cross-lane record while a sibling is still in the epoch
// joins the same epoch again, and must leave it again. A lane counted in
// the epoch that never leaves keeps it running forever, and every batched
// gather parks behind it. The test holds lane 0's lock so that lane 0
// stays in the epoch: lane 1 flushes there, leaves, rejoins with a
// cross-lane record, and waits at the frontier for lane 0 until the lock
// is released.
func TestRejoinLeavesTheEpoch(t *testing.T) {
	fs := simio.NewFS(simio.Latency{Fsync: time.Millisecond})
	rt, lanes := openLanes(t, fs, 2)
	var gsn atomic.Uint64
	add := func(cross bool, n ...int) []uint64 { return commit(rt, lanes, &gsn, cross, n...) }
	lanes[1].WaitDurable(add(false, 0, 2)[1]) // a flush of two: the traffic is batched
	me := rt.NewOwner()
	lanes[0].Lock().AcquireOutside(rt, me)
	first := add(false, 1, 2) // one epoch enlists both lanes; lane 0's flush waits for its lock
	lanes[1].WaitDurable(first[1])
	waitUntil(t, "lane 1 leaves the epoch", func() bool { return lanes[1].inEpoch.Load() == 0 })
	e := lanes[0].inEpoch.Load()
	if e == 0 {
		t.Fatal("lane 0 is in no epoch while its flush waits for the lock")
	}
	second := add(true, 1, 1)
	waitUntil(t, "lane 1 waits at the frontier", func() bool { return flushersOf(lanes[1], "wal.(*Log).awaitFrontier") == 1 })
	if got := lanes[1].inEpoch.Load(); got != e {
		t.Fatalf("lane 1 flushes its cross-lane record in epoch %d, want the running epoch %d", got, e)
	}
	if err := lanes[0].Lock().ReleaseOutside(rt, me); err != nil {
		t.Fatal(err)
	}
	if err := waitAll(lanes, second, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	for i, l := range lanes {
		waitUntil(t, fmt.Sprintf("lane %d's flusher parks idle", i), func() bool { return idleParked(l) })
		if got := l.inEpoch.Load(); got != 0 {
			t.Fatalf("lane %d is still in epoch %d with its flusher parked idle", i, got)
		}
	}
	// Batched traffic afterwards must not find the epoch still running.
	if err := waitAll(lanes, add(false, 2, 2), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	closeLanes(t, lanes)
}

// TestCloseDuringGather: Close on a lane whose flusher is parked waiting
// for the running epoch returns at once: a closing lane joins the epoch
// (rule 3), flushes its queue, leaves the epoch and returns. The test
// holds lane 2's lock, so lane 2 stays in the epoch and the epoch cannot
// end under the Close: lane 1 starts it with records on lanes 1 and 2,
// flushes two (the traffic stays batched) and leaves, and lane 2's flush
// waits for the lock.
// Nothing is left enlisted once the lock is released, and no flusher
// outlives its lane's Close.
func TestCloseDuringGather(t *testing.T) {
	for round := 0; round < 5; round++ {
		fs := simio.NewFS(simio.Latency{Fsync: time.Millisecond})
		rt, lanes := openLanes(t, fs, 3)
		var gsn atomic.Uint64
		lanes[1].WaitDurable(commit(rt, lanes, &gsn, false, 0, 2, 0)[1]) // a batch of 2: the traffic is batched
		me := rt.NewOwner()
		lanes[2].Lock().AcquireOutside(rt, me)
		lanes[1].WaitDurable(commit(rt, lanes, &gsn, false, 0, 2, 1)[1]) // one epoch enlists lanes 1 and 2; lane 1 flushes 2
		waitUntil(t, "lane 2 waits in the epoch for its lock", func() bool {
			return lanes[2].inEpoch.Load() != 0 && flushersOf(lanes[2], "stm.(*Runtime).parkOnReadSet") == 1
		})
		last := commit(rt, lanes, &gsn, false, 1, 0, 0)[0]
		// Of the three flushers, only one in a rule-2 wait has read (and
		// so watches) the group's frontier-wait count.
		waitUntil(t, "lane 0's flusher parks waiting for the epoch", func() bool {
			return lanes[0].grp.waiting.Watchers() == 1 && flushersOf(lanes[0], "stm.(*Runtime).parkOnReadSet") == 1
		})
		done := make(chan error, 1)
		go func() { done <- lanes[0].Close() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: Close of a lane parked waiting for its epoch did not return", round)
		}
		stopped(t, lanes[0])
		if got := lanes[0].DurableWatermark(); got != last {
			t.Fatalf("round %d: Close returned at watermark %d, want %d", round, got, last)
		}
		if lanes[2].inEpoch.Load() == 0 {
			t.Fatalf("round %d: lane 2 left the epoch while its lock was held: lane 0 closed in no epoch wait", round)
		}
		if err := lanes[2].Lock().ReleaseOutside(rt, me); err != nil {
			t.Fatal(err)
		}
		for _, l := range lanes[1:] {
			l.WaitDurable(l.AssignedWatermark())
			closeStopsFlusher(t, l)
		}
		for i, l := range lanes {
			if e := l.inEpoch.Load(); e != 0 {
				t.Fatalf("round %d: lane %d left in epoch %d", round, i, e)
			}
		}
	}
}
