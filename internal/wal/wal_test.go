package wal

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"deferstm/internal/simio"
	"deferstm/internal/stm"
)

func openSim(t *testing.T, fs *simio.FS, opts Options) (*stm.Runtime, *Log, *Recovery) {
	t.Helper()
	rt := stm.NewDefault()
	l, rec, err := Open(rt, NewSimBackend(fs), opts)
	if err != nil {
		t.Fatal(err)
	}
	JoinLanes([]*Log{l})
	closeAtEnd(t, l)
	return rt, l, rec
}

// closeAtEnd closes l when t ends, so that the logs a test opens only to
// read back what is on storage do not leave their flushers parked for the
// rest of the test binary: every goroutine dump a flusher test takes
// would grow with them. A log the test closed itself reports "already
// closed" here, which is expected.
func closeAtEnd(t *testing.T, l *Log) {
	t.Cleanup(func() { _ = l.Close() })
}

// lastDurable returns l's durability watermark inside tx, subscribing to
// the log lock first: while a flush is in flight the transaction waits
// (via retry), and once it reads the watermark, any later flush
// conflicts with it — the subscription semantics of the paper's Listing
// 2 applied to durability state.
func lastDurable(tx *stm.Tx, l *Log) uint64 {
	l.Subscribe(tx)
	return l.durable.Get(tx)
}

// enqueue appends payload within tx the way a store commit does:
// Reserve the next LSN, then EnqueueReserved under it (no GSN, not
// cross-lane).
func enqueue(tx *stm.Tx, l *Log, payload []byte) uint64 {
	lsn := l.Reserve(tx)
	l.EnqueueReserved(tx, lsn, 0, false, payload)
	return lsn
}

func appendOne(t *testing.T, rt *stm.Runtime, l *Log, payload string) uint64 {
	t.Helper()
	var lsn uint64
	if err := rt.Atomic(func(tx *stm.Tx) error {
		lsn = enqueue(tx, l, []byte(payload))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return lsn
}

// TestAppendRecover: records appended through transactions come back from
// recovery in LSN order with intact payloads.
func TestAppendRecover(t *testing.T) {
	fs := simio.NewFS(simio.Latency{})
	rt, l, rec := openSim(t, fs, Options{})
	if rec.LastLSN != 0 || len(rec.Records) != 0 {
		t.Fatalf("fresh log recovered %+v", rec)
	}
	for i := 1; i <= 10; i++ {
		lsn := appendOne(t, rt, l, fmt.Sprintf("payload-%d", i))
		if lsn != uint64(i) {
			t.Fatalf("append %d got LSN %d", i, lsn)
		}
	}
	l.WaitDurable(10)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, _, rec2 := openSim(t, fs, Options{})
	if rec2.LastLSN != 10 || len(rec2.Records) != 10 {
		t.Fatalf("recovered LastLSN=%d, %d records", rec2.LastLSN, len(rec2.Records))
	}
	for i, r := range rec2.Records {
		want := fmt.Sprintf("payload-%d", i+1)
		if r.LSN != uint64(i+1) || string(r.Payload) != want {
			t.Fatalf("record %d: lsn=%d payload=%q", i, r.LSN, r.Payload)
		}
	}
	if rec2.TornBytes != 0 {
		t.Fatalf("clean shutdown reported %d torn bytes", rec2.TornBytes)
	}
}

// TestGroupCommit: under fsync latency, concurrent appenders share flushes —
// strictly fewer fsync cycles than commits, records all durable.
func TestGroupCommit(t *testing.T) {
	fs := simio.NewFS(simio.Latency{Fsync: 2 * time.Millisecond})
	rt, l, _ := openSim(t, fs, Options{})

	const goroutines = 8
	const perG = 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				var lsn uint64
				_ = rt.Atomic(func(tx *stm.Tx) error {
					lsn = enqueue(tx, l, []byte(fmt.Sprintf("g%d-%d", g, i)))
					return nil
				})
				l.WaitDurable(lsn)
			}
		}(g)
	}
	wg.Wait()

	total := uint64(goroutines * perG)
	st := l.BatchStats()
	if st.Records != total {
		t.Fatalf("flushed %d records, want %d", st.Records, total)
	}
	if st.Flushes >= total {
		t.Fatalf("group commit ineffective: %d flushes for %d commits", st.Flushes, total)
	}
	if st.MaxBatch < 2 {
		t.Fatalf("no batch ever exceeded 1 record (max=%d)", st.MaxBatch)
	}
	t.Logf("%d commits, %d flushes (mean batch %.1f, max %d)",
		total, st.Flushes, st.Mean(), st.MaxBatch)

	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, _, rec := openSim(t, fs, Options{})
	if rec.LastLSN != total || len(rec.Records) != int(total) {
		t.Fatalf("recovered LastLSN=%d, %d records", rec.LastLSN, len(rec.Records))
	}
}

// TestMetricsOnlyWhenAttached: a log without Metrics never stamps a
// record's enqueue time, so its flushes observe nothing; with a set
// attached, every record's append→durable lag and every batch's wait is
// observed.
func TestMetricsOnlyWhenAttached(t *testing.T) {
	for _, attach := range []bool{false, true} {
		rt, l, _ := openSim(t, simio.NewFS(simio.Latency{}), Options{})
		met := NewMetrics(nil)
		if attach {
			l.SetMetrics(met)
		}
		const n = 5
		for i := 0; i < n; i++ {
			var stamped bool
			_ = rt.Atomic(func(tx *stm.Tx) error {
				enqueue(tx, l, []byte("x"))
				stamped = !l.pending.Get(tx).born.IsZero()
				return nil
			})
			if stamped != attach {
				t.Fatalf("attached=%v: record stamped=%v", attach, stamped)
			}
		}
		l.WaitDurable(n)
		flushes := l.BatchStats().Flushes
		var want [2]uint64
		if attach {
			want = [2]uint64{n, flushes}
		}
		if got := [2]uint64{met.AppendDurable.Snapshot().Count, met.BatchWait.Snapshot().Count}; got != want {
			t.Errorf("attached=%v: observed %d lags and %d batch waits over %d flushes, want %v", attach, got[0], got[1], flushes, want)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRotationRecover: segments rotate at the configured size and recovery
// stitches them back together.
func TestRotationRecover(t *testing.T) {
	fs := simio.NewFS(simio.Latency{})
	rt, l, _ := openSim(t, fs, Options{SegmentBytes: 128})
	const n = 50
	payload := bytes.Repeat([]byte{'x'}, 24) // recordSize 40 → ~3 per segment
	for i := 0; i < n; i++ {
		appendOne(t, rt, l, string(payload))
	}
	l.WaitDurable(n)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs := 0
	for _, name := range fs.Names() {
		if _, ok := parseName(name, segPrefix); ok {
			segs++
		}
	}
	if segs < 5 {
		t.Fatalf("only %d segments after %d records at SegmentBytes=128", segs, n)
	}
	_, _, rec := openSim(t, fs, Options{SegmentBytes: 128})
	if rec.LastLSN != n || len(rec.Records) != n {
		t.Fatalf("recovered LastLSN=%d, %d records", rec.LastLSN, len(rec.Records))
	}
	for i, r := range rec.Records {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d has LSN %d", i, r.LSN)
		}
	}
}

// TestTornTailTruncated: garbage after the last intact record in the final
// segment is truncated, not fatal.
func TestTornTailTruncated(t *testing.T) {
	fs := simio.NewFS(simio.Latency{})
	rt, l, _ := openSim(t, fs, Options{})
	appendOne(t, rt, l, "alpha")
	appendOne(t, rt, l, "beta")
	l.WaitDurable(2)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a torn append: a record header prefix with no body.
	torn := appendRecord(nil, 3, []byte("gamma-never-finished"))[:recordHeader+4]
	f, err := fs.OpenAppend(segName(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, l2, rec := openSim(t, fs, Options{})
	if rec.TornBytes != len(torn) {
		t.Fatalf("TornBytes=%d, want %d", rec.TornBytes, len(torn))
	}
	if rec.LastLSN != 2 || len(rec.Records) != 2 {
		t.Fatalf("recovered LastLSN=%d, %d records", rec.LastLSN, len(rec.Records))
	}
	// The log must be appendable after truncation: LSN 3 is reissued.
	rt2 := l2.rt
	if lsn := appendOne(t, rt2, l2, "gamma-again"); lsn != 3 {
		t.Fatalf("post-truncate append got LSN %d, want 3", lsn)
	}
	l2.WaitDurable(3)
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMidStreamCorruptionFatal: an invalid record in a non-final segment is
// corruption, not a torn tail.
func TestMidStreamCorruptionFatal(t *testing.T) {
	fs := simio.NewFS(simio.Latency{})
	rt, l, _ := openSim(t, fs, Options{SegmentBytes: 64})
	for i := 0; i < 10; i++ {
		appendOne(t, rt, l, "0123456789abcdef0123456789abcdef")
	}
	l.WaitDurable(10)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the FIRST segment (later segments exist).
	name := segName(1)
	data, err := fs.ReadAll(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove(name); err != nil {
		t.Fatal(err)
	}
	f, _ := fs.Create(name)
	data[len(data)-3] ^= 0xFF
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	f.Fsync()
	f.Close()

	rt2 := stm.NewDefault()
	_, _, err = Open(rt2, NewSimBackend(fs), Options{SegmentBytes: 64})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// TestCheckpointPrune: a checkpoint becomes the recovery base, covered
// segments and older checkpoints are pruned, and recovery returns only the
// blob plus the records after it.
func TestCheckpointPrune(t *testing.T) {
	fs := simio.NewFS(simio.Latency{})
	rt, l, _ := openSim(t, fs, Options{SegmentBytes: 96})
	for i := 1; i <= 20; i++ {
		appendOne(t, rt, l, fmt.Sprintf("rec-%02d", i))
	}
	blobAt := func(upTo uint64) []byte { return []byte(fmt.Sprintf("state-through-%d", upTo)) }
	upTo, err := l.Checkpoint(func(tx *stm.Tx) ([]byte, uint64, error) {
		n := l.LastAssigned(tx)
		return blobAt(n), n, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if upTo != 20 {
		t.Fatalf("checkpoint covered %d, want 20", upTo)
	}
	// Second checkpoint should prune the first.
	for i := 21; i <= 25; i++ {
		appendOne(t, rt, l, fmt.Sprintf("rec-%02d", i))
	}
	if _, err := l.Checkpoint(func(tx *stm.Tx) ([]byte, uint64, error) {
		n := l.LastAssigned(tx)
		return blobAt(n), n, nil
	}); err != nil {
		t.Fatal(err)
	}
	ckpts, oldSegs := 0, 0
	for _, name := range fs.Names() {
		if lsn, ok := parseName(name, ckptPrefix); ok {
			ckpts++
			if lsn != 25 {
				t.Fatalf("stale checkpoint %s survived", name)
			}
		}
		if start, ok := parseName(name, segPrefix); ok && start <= 20 {
			oldSegs++
		}
	}
	if ckpts != 1 {
		t.Fatalf("%d checkpoints on storage, want 1", ckpts)
	}
	if oldSegs != 0 {
		t.Fatalf("%d fully covered segments survived pruning", oldSegs)
	}

	for i := 26; i <= 28; i++ {
		appendOne(t, rt, l, fmt.Sprintf("rec-%02d", i))
	}
	l.WaitDurable(28)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, _, rec := openSim(t, fs, Options{SegmentBytes: 96})
	if rec.CheckpointLSN != 25 || !bytes.Equal(rec.Checkpoint, blobAt(25)) {
		t.Fatalf("checkpoint lsn=%d blob=%q", rec.CheckpointLSN, rec.Checkpoint)
	}
	if rec.LastLSN != 28 || len(rec.Records) != 3 {
		t.Fatalf("LastLSN=%d with %d records after checkpoint", rec.LastLSN, len(rec.Records))
	}
	for i, r := range rec.Records {
		if r.LSN != uint64(26+i) {
			t.Fatalf("post-checkpoint record %d has LSN %d", i, r.LSN)
		}
	}
	if got := l.BatchStats().Checkpoints; got != 2 {
		t.Fatalf("Checkpoints=%d, want 2", got)
	}
}

// TestLastDurableSubscribes: a transaction reading lastDurable while a
// flush is in flight waits for it rather than seeing a stale watermark.
func TestLastDurableSubscribes(t *testing.T) {
	fs := simio.NewFS(simio.Latency{Fsync: 5 * time.Millisecond})
	rt, l, _ := openSim(t, fs, Options{})
	lsn := appendOne(t, rt, l, "one") // the flusher holds the lock across its fsync
	var seen uint64
	if err := rt.Atomic(func(tx *stm.Tx) error {
		seen = lastDurable(tx, l)
		if seen < lsn {
			tx.Retry()
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if seen != lsn {
		t.Fatalf("lastDurable=%d, want %d", seen, lsn)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentStress exercises appenders, waiters and checkpoints
// together (run with -race).
func TestConcurrentStress(t *testing.T) {
	fs := simio.NewFS(simio.Latency{})
	rt, l, _ := openSim(t, fs, Options{SegmentBytes: 512})
	const goroutines = 4
	const perG = 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				var lsn uint64
				_ = rt.Atomic(func(tx *stm.Tx) error {
					lsn = enqueue(tx, l, []byte(fmt.Sprintf("g%d", g)))
					return nil
				})
				if i%8 == 0 {
					l.WaitDurable(lsn)
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			_, err := l.Checkpoint(func(tx *stm.Tx) ([]byte, uint64, error) {
				n := l.LastAssigned(tx)
				return []byte(fmt.Sprintf("ckpt@%d", n)), n, nil
			})
			if err != nil {
				t.Error(err)
			}
		}
	}()
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, _, rec := openSim(t, fs, Options{SegmentBytes: 512})
	total := uint64(goroutines * perG)
	if rec.LastLSN != total {
		t.Fatalf("recovered LastLSN=%d, want %d", rec.LastLSN, total)
	}
	prev := rec.CheckpointLSN
	for _, r := range rec.Records {
		if r.LSN != prev+1 {
			t.Fatalf("gap: %d after %d", r.LSN, prev)
		}
		prev = r.LSN
	}
	if prev != total {
		t.Fatalf("records end at %d, want %d", prev, total)
	}
}
