package repl

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"deferstm/internal/kv"
	"deferstm/internal/server"
	"deferstm/internal/simio"
	"deferstm/internal/stm"
	"deferstm/internal/wal"
)

// primary is one sim-backed primary: store + serving listener.
type primary struct {
	fs    *simio.FS
	store *kv.Store
	srv   *server.Server
	addr  string
	done  chan error
}

func startPrimary(t *testing.T, fs *simio.FS, kopts kv.Options) *primary {
	t.Helper()
	store, _, err := kv.Open(stm.NewDefault(), wal.NewSimBackend(fs), kopts)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(store, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &primary{fs: fs, store: store, srv: srv, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { p.done <- srv.Serve(ln) }()
	return p
}

// stop tears the primary down; the store stays usable for comparisons.
func (p *primary) stop(t *testing.T) {
	t.Helper()
	if err := p.srv.Close(); err != nil {
		t.Errorf("server close: %v", err)
	}
	if err := <-p.done; err != nil {
		t.Errorf("serve: %v", err)
	}
}

func startReplica(t *testing.T, ctx context.Context, addr string) *Replica {
	t.Helper()
	r := New(stm.NewDefault(), Options{
		Primary: addr,
		Backoff: time.Millisecond, // reconnects within 100ms at the ceiling
		Logf:    t.Logf,
	})
	runDone := make(chan struct{})
	go func() { defer close(runDone); r.Run(ctx) }()
	t.Cleanup(func() { <-runDone })
	return r
}

func contents(t *testing.T, s *kv.Store) map[string]string {
	t.Helper()
	out := map[string]string{}
	if err := s.Scan(func(k, v string) bool { out[k] = v; return true }); err != nil {
		t.Fatal(err)
	}
	return out
}

func sameContents(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// waitConverged polls until the replica's store matches want.
func waitConverged(t *testing.T, r *Replica, want map[string]string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if rs := r.Store(); rs != nil && sameContents(contents(t, rs), want) {
			return
		}
		if time.Now().After(deadline) {
			st := r.Status()
			t.Fatalf("replica never converged; status %+v\nreplica: %v\nwant:    %v",
				st, contents(t, r.Store()), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestReplicaEndToEnd: a 2-lane primary takes single-lane writes and
// cross-shard batches; a fresh replica catches up to an identical image
// and its per-lane cursors reach the primary's durable watermarks.
func TestReplicaEndToEnd(t *testing.T) {
	p := startPrimary(t, simio.NewFS(simio.Latency{}), kv.Options{Mode: kv.ModeGroup, Shards: 2})
	defer p.store.Close()
	defer p.stop(t)

	var last uint64
	for i := 0; i < 20; i++ {
		tok, err := p.store.Update(func(tx *stm.Tx, b *kv.Batch) error {
			b.Put(fmt.Sprintf("k%02d", i), fmt.Sprintf("v%d", i))
			if i%4 == 3 {
				// A deliberate cross-shard batch: enough keys that both
				// lanes are touched with overwhelming probability.
				for j := 0; j < 6; j++ {
					b.Put(fmt.Sprintf("x%02d-%d", i, j), fmt.Sprintf("b%d", i))
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		last = tok
	}
	p.store.WaitDurable(last)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := startReplica(t, ctx, p.addr)
	wctx, wcancel := context.WithTimeout(ctx, 10*time.Second)
	defer wcancel()
	if err := r.WaitCaughtUp(wctx); err != nil {
		t.Fatalf("catch-up: %v (status %+v)", err, r.Status())
	}

	want := contents(t, p.store)
	waitConverged(t, r, want)

	st := r.Status()
	if st.Lanes != 2 {
		t.Fatalf("lanes = %d", st.Lanes)
	}
	if st.AppliedBatches == 0 {
		t.Fatal("no cross-shard batch crossed the stream")
	}
	if st.PendingRecords != 0 {
		t.Fatalf("%d records still pending after convergence", st.PendingRecords)
	}
	for lane, log := range p.store.Logs() {
		if st.Applied[lane] < log.DurableWatermark() {
			t.Fatalf("lane %d applied %d < primary durable %d", lane, st.Applied[lane], log.DurableWatermark())
		}
	}
	// The replica's store is read via the snapshot path everywhere in
	// this test; it must never have needed a validating fallback.
	if st.SnapshotFallbacks != 0 {
		t.Fatalf("%d snapshot fallbacks on replica reads", st.SnapshotFallbacks)
	}
}

// TestReplicaCheckpointBootstrap: a fresh replica joining a primary that
// already checkpointed bootstraps from the blob and streams only the
// records after it — and the record at exactly the checkpoint's upTo is
// NOT shipped again.
func TestReplicaCheckpointBootstrap(t *testing.T) {
	p := startPrimary(t, simio.NewFS(simio.Latency{}), kv.Options{Mode: kv.ModeGroup})
	defer p.store.Close()
	defer p.stop(t)

	for i := 0; i < 10; i++ {
		lsn, err := p.store.Update(func(tx *stm.Tx, b *kv.Batch) error {
			b.Put(fmt.Sprintf("k%02d", i), fmt.Sprintf("v%d", i))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		p.store.WaitDurable(lsn)
	}
	upTo, err := p.store.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if upTo != 10 {
		t.Fatalf("checkpoint upTo = %d, want 10", upTo)
	}
	var last uint64
	for i := 10; i < 15; i++ {
		last, err = p.store.Update(func(tx *stm.Tx, b *kv.Batch) error {
			b.Put(fmt.Sprintf("k%02d", i), fmt.Sprintf("v%d", i))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	p.store.WaitDurable(last)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := startReplica(t, ctx, p.addr)
	wctx, wcancel := context.WithTimeout(ctx, 10*time.Second)
	defer wcancel()
	if err := r.WaitCaughtUp(wctx); err != nil {
		t.Fatalf("catch-up: %v (status %+v)", err, r.Status())
	}
	waitConverged(t, r, contents(t, p.store))

	st := r.Status()
	if st.AppliedRecords != 5 {
		t.Fatalf("applied %d records, want 5 (checkpoint must cover 1..10, and 10 must not be resent)", st.AppliedRecords)
	}
	if cur := r.Cursors(); cur[0] != 15 {
		t.Fatalf("cursor = %d, want 15", cur[0])
	}
}

// TestReplicaPrimaryCrashRestart is the partition + torn-tail edge: the
// replica catches up, the primary is cut off and crashes mid-append
// (torn tail on disk, never watermarked, never shipped), a new primary
// recovers from the crash image on a fresh address, and the replica —
// repointed and kicked — resumes from its cursors and converges on the
// recovered history plus new writes.
func TestReplicaPrimaryCrashRestart(t *testing.T) {
	fs := simio.NewFS(simio.Latency{})
	kopts := kv.Options{Mode: kv.ModeGroup, Shards: 2, WAL: wal.Options{SegmentBytes: 256}}
	p := startPrimary(t, fs, kopts)

	var last uint64
	for i := 0; i < 12; i++ {
		lsn, err := p.store.Update(func(tx *stm.Tx, b *kv.Batch) error {
			b.Put(fmt.Sprintf("k%02d", i), fmt.Sprintf("v%d", i))
			if i%5 == 4 {
				for j := 0; j < 4; j++ {
					b.Put(fmt.Sprintf("x%02d-%d", i, j), "batch")
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		last = lsn
	}
	p.store.WaitDurable(last)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := startReplica(t, ctx, p.addr)
	wctx, wcancel := context.WithTimeout(ctx, 10*time.Second)
	defer wcancel()
	if err := r.WaitCaughtUp(wctx); err != nil {
		t.Fatalf("catch-up: %v (status %+v)", err, r.Status())
	}
	preCrash := contents(t, p.store)
	waitConverged(t, r, preCrash)
	curBefore := r.Cursors()

	// Partition: stop serving, THEN tear a write. The stream is already
	// dead, so the torn record was never shipped — the replica cannot be
	// ahead of what the crash image recovers to.
	p.stop(t)
	fs.SetCrashPlan(simio.CrashPlan{Point: simio.CrashMidWrite, N: 1})
	doomed, err := p.store.Update(func(tx *stm.Tx, b *kv.Batch) error {
		b.Put("doomed", "torn")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Update returns at commit; the lane's flusher performs the (torn)
	// write. The live write completes, so the watermark still advances.
	p.store.WaitDurable(doomed)
	if !fs.Crashed() {
		t.Fatal("crash plan never fired")
	}
	img := fs.CrashImage()
	if err := p.store.Close(); err != nil {
		t.Fatal(err)
	}

	// Recover a new primary from the crash image on a new address.
	fs2 := simio.FSFromImage(img, simio.Latency{}, 1)
	p2 := startPrimary(t, fs2, kopts)
	defer p2.store.Close()
	defer p2.stop(t)
	if got := contents(t, p2.store); !sameContents(got, preCrash) {
		t.Fatalf("recovered primary diverged from acked history:\n got %v\nwant %v", got, preCrash)
	}

	for i := 0; i < 6; i++ {
		lsn, err := p2.store.Update(func(tx *stm.Tx, b *kv.Batch) error {
			b.Put(fmt.Sprintf("post%d", i), "after-restart")
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		last = lsn
	}
	p2.store.WaitDurable(last)

	r.mu.Lock()
	r.primary = p2.addr // the restarted primary listens elsewhere
	r.mu.Unlock()
	r.Kick()
	waitConverged(t, r, contents(t, p2.store))

	st := r.Status()
	if st.Reconnects == 0 {
		t.Fatal("replica converged without ever reconnecting?")
	}
	for lane := range curBefore {
		if got := r.Cursors()[lane]; got < curBefore[lane] {
			t.Fatalf("lane %d cursor went backwards: %d -> %d", lane, curBefore[lane], got)
		}
	}
}
