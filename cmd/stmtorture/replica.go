package main

import (
	"context"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"deferstm/internal/check"
	"deferstm/internal/kv"
	"deferstm/internal/obs"
	"deferstm/internal/repl"
	"deferstm/internal/server"
	"deferstm/internal/simio"
	"deferstm/internal/stm"
	"deferstm/internal/wal"
)

// tortureReplica runs a full primary→replica pipeline in one process:
// a sharded store behind a real server on a loopback socket, a Replica
// tailing it over the wire, writer threads hammering per-thread
// counters (some updates are multi-key batches that straddle WAL
// lanes), occasional checkpoints rewriting lanes mid-stream, and
// seeded Kick() calls severing the stream so reconnect re-handshakes
// from the applied cursors under load.
//
// At the end the writers stop, the replica is given time to drain, and
// three things must hold:
//
//  1. prefix coverage — every lane's applied cursor covers the
//     primary's durable watermark (check.AckedPrefixLanes, the same
//     axioms kvreplica -verify runs offline);
//  2. content equality — the replica's scan equals the primary's,
//     key for key;
//  3. counter exactness — each thread's local increment count equals
//     the replica's stored value (no lost, duplicated or torn update
//     survived the checkpoints and reconnects).
func tortureReplica(h *torture, rt *stm.Runtime, threads int, d time.Duration) {
	const slots = 8
	fs := simio.NewFS(simio.Latency{Fsync: 200 * time.Microsecond})
	s, _, err := kv.Open(rt, wal.NewSimBackend(fs), kv.Options{
		Shards: 4, WAL: wal.Options{SegmentBytes: 1 << 16},
	})
	if err != nil {
		h.failf("replica: open: %v", err)
		return
	}
	defer s.Close()

	srv := server.New(s, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.failf("replica: listen: %v", err)
		return
	}
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); _ = srv.Serve(ln) }()
	defer func() { srv.Close(); <-serveDone }()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := repl.New(stm.NewDefault(), repl.Options{
		Primary:  obs.DialableAddr(ln.Addr()).String(),
		Registry: obs.NewRegistry(),
		Backoff:  2 * time.Millisecond,
	})
	runDone := make(chan struct{})
	go func() { defer close(runDone); _ = r.Run(ctx) }()
	defer func() { cancel(); <-runDone }()

	counts := make([][slots]int, threads)
	var ckptMu sync.Mutex
	h.runFor(threads, d, func(tid int, rng func(int) int64) {
		a := rng(slots)
		keyA := fmt.Sprintf("t%d-c%d", tid, a)
		batch := rng(4) == 0
		b2 := rng(slots)
		keyB := fmt.Sprintf("t%d-c%d", tid, b2)
		lsn, err := s.Update(func(tx *stm.Tx, b *kv.Batch) error {
			cur, _ := b.Get(keyA)
			n, _ := strconv.Atoi(cur)
			b.Put(keyA, strconv.Itoa(n+1))
			if batch && b2 != a {
				// Second key usually lives on another shard, making this
				// a cross-lane batch the replica must apply atomically.
				cur, _ := b.Get(keyB)
				n, _ := strconv.Atoi(cur)
				b.Put(keyB, strconv.Itoa(n+1))
			}
			return nil
		})
		if err != nil {
			h.failf("replica: update: %v", err)
			return
		}
		counts[tid][a]++
		if batch && b2 != a {
			counts[tid][b2]++
		}
		switch {
		case rng(64) == 0:
			s.WaitDurable(lsn)
		case rng(300) == 0 && ckptMu.TryLock():
			// Rotate lanes under the stream: tail frames for pruned LSNs
			// must be skipped, checkpoint frames must bootstrap cleanly.
			if _, err := s.Checkpoint(); err != nil {
				h.failf("replica: checkpoint: %v", err)
			}
			ckptMu.Unlock()
		case rng(500) == 0:
			// Partition: sever the stream mid-flight; the reconnect
			// re-handshakes from the applied cursors.
			r.Kick()
		}
	})

	// Writers stopped. The primary's scan below sees every committed
	// record, so first let every lane's assigned LSN become durable (the
	// stream ships only durable records), then wait for the replica to
	// drain: every lane's applied cursor must reach the watermark.
	for _, lg := range s.Logs() {
		lg.WaitDurable(lg.AssignedWatermark())
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		caughtUp := true
		cursors := r.Cursors()
		var marks []uint64
		for _, lg := range s.Logs() {
			marks = append(marks, lg.DurableWatermark())
		}
		if len(cursors) != len(marks) {
			caughtUp = false
		} else {
			for lane, m := range marks {
				if cursors[lane] < m {
					caughtUp = false
				}
			}
		}
		if caughtUp && len(marks) > 0 {
			if v := check.AckedPrefixLanes(marks, cursors); len(v) > 0 {
				for _, viol := range v {
					h.failf("replica: prefix: %s", viol.Msg)
				}
				return
			}
			break
		}
		if time.Now().After(deadline) {
			h.failf("replica: drain timeout: cursors %v, watermarks %v", cursors, marks)
			return
		}
		time.Sleep(2 * time.Millisecond)
	}

	st := r.Status()
	if st.PendingRecords != 0 {
		h.failf("replica: %d records still parked on sibling lanes after drain", st.PendingRecords)
	}
	if st.AppliedBatches == 0 {
		h.failf("replica: no cross-lane batches applied (workload should have produced them)")
	}

	primary := map[string]string{}
	if err := s.Scan(func(k, v string) bool { primary[k] = v; return true }); err != nil {
		h.failf("replica: primary scan: %v", err)
		return
	}
	mirror := map[string]string{}
	if err := r.Store().Scan(func(k, v string) bool { mirror[k] = v; return true }); err != nil {
		h.failf("replica: mirror scan: %v", err)
		return
	}
	if len(mirror) != len(primary) {
		h.failf("replica: mirror has %d keys, primary %d", len(mirror), len(primary))
	}
	for k, v := range primary {
		if mirror[k] != v {
			h.failf("replica: mirror %s = %q, primary %q", k, mirror[k], v)
		}
	}
	for tid := range counts {
		for slot, want := range counts[tid] {
			if want == 0 {
				continue
			}
			key := fmt.Sprintf("t%d-c%d", tid, slot)
			if got, _ := strconv.Atoi(mirror[key]); got != want {
				h.failf("replica: mirror %s = %d, want %d (lost, duplicated or torn update)", key, got, want)
			}
		}
	}
}
