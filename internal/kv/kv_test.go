package kv

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"deferstm/internal/obs"
	"deferstm/internal/simio"
	"deferstm/internal/stm"
	"deferstm/internal/wal"
)

func openStore(t *testing.T, fs *simio.FS, opts Options) (*Store, *RecoveryInfo) {
	t.Helper()
	var b wal.Backend
	if fs != nil {
		b = wal.NewSimBackend(fs)
	}
	s, info, err := Open(stm.NewDefault(), b, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, info
}

func put(t *testing.T, s *Store, k, v string) uint64 {
	t.Helper()
	lsn, err := s.Update(func(tx *stm.Tx, b *Batch) error {
		b.Put(k, v)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return lsn
}

func mustGet(t *testing.T, s *Store, k string) (string, bool) {
	t.Helper()
	var v string
	var ok bool
	if err := s.View(func(tx *stm.Tx) error {
		v, ok = s.Get(tx, k)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return v, ok
}

func dump(t *testing.T, s *Store) map[string]string {
	t.Helper()
	out := map[string]string{}
	if err := s.View(func(tx *stm.Tx) error {
		clear(out)
		s.Range(tx, func(k, v string) bool {
			out[k] = v
			return true
		})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestBasicRecovery: puts and deletes across a close/reopen cycle.
func TestBasicRecovery(t *testing.T) {
	t.Run("group", func(t *testing.T) {
		fs := simio.NewFS(simio.Latency{})
		s, _ := openStore(t, fs, Options{})
		put(t, s, "a", "1")
		put(t, s, "b", "2")
		lsn, err := s.Update(func(tx *stm.Tx, b *Batch) error {
			if v, ok := b.Get("a"); !ok || v != "1" {
				t.Errorf("read-own-store: a=%q ok=%v", v, ok)
			}
			b.Put("a", "1.1")
			b.Delete("b")
			b.Put("c", "3")
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		s.WaitDurable(lsn)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		s2, info := openStore(t, fs, Options{})
		if info.Replayed != 3 || info.LastLSN != 3 || info.Keys != 2 {
			t.Fatalf("recovery info %+v", info)
		}
		want := map[string]string{"a": "1.1", "c": "3"}
		got := dump(t, s2)
		if len(got) != len(want) {
			t.Fatalf("recovered %v, want %v", got, want)
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("recovered %v, want %v", got, want)
			}
		}
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestModeNone: no WAL files, no durability, but a working store.
func TestModeNone(t *testing.T) {
	s, _ := openStore(t, nil, Options{Mode: ModeNone})
	if lsn := put(t, s, "k", "v"); lsn != 0 {
		t.Fatalf("ModeNone returned LSN %d", lsn)
	}
	if v, ok := mustGet(t, s, "k"); !ok || v != "v" {
		t.Fatalf("k=%q ok=%v", v, ok)
	}
	s.WaitDurable(0) // must not block
	if _, err := s.Checkpoint(); err == nil {
		t.Fatal("checkpoint without WAL succeeded")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReadOnlyUpdateNoRecord: an Update with no mutations writes nothing.
func TestReadOnlyUpdateNoRecord(t *testing.T) {
	fs := simio.NewFS(simio.Latency{})
	s, _ := openStore(t, fs, Options{})
	lsn, err := s.Update(func(tx *stm.Tx, b *Batch) error {
		_, _ = b.Get("missing")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 0 {
		t.Fatalf("read-only update got LSN %d", lsn)
	}
	if st := s.Logs()[0].BatchStats(); st.Records != 0 {
		t.Fatalf("%d records logged by read-only update", st.Records)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointRecovery: recovery from checkpoint + tail records.
func TestCheckpointRecovery(t *testing.T) {
	fs := simio.NewFS(simio.Latency{})
	s, _ := openStore(t, fs, Options{WAL: wal.Options{SegmentBytes: 256}})
	for i := 0; i < 30; i++ {
		put(t, s, fmt.Sprintf("k%02d", i%10), fmt.Sprintf("v%d", i))
	}
	ck, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if ck != 30 {
		t.Fatalf("checkpoint covered %d, want 30", ck)
	}
	put(t, s, "k00", "after-ckpt")
	lsn := put(t, s, "extra", "tail")
	s.WaitDurable(lsn)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, info := openStore(t, fs, Options{WAL: wal.Options{SegmentBytes: 256}})
	if info.CheckpointLSN != 30 || info.Replayed != 2 || info.LastLSN != 32 {
		t.Fatalf("recovery info %+v", info)
	}
	if v, _ := mustGet(t, s2, "k00"); v != "after-ckpt" {
		t.Fatalf("k00=%q", v)
	}
	if v, _ := mustGet(t, s2, "extra"); v != "tail" {
		t.Fatalf("extra=%q", v)
	}
	if got := dump(t, s2); len(got) != 11 {
		t.Fatalf("recovered %d keys, want 11", len(got))
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupModeSharesFlushes: the kv layer inherits WAL group commit —
// concurrent durable updates need fewer fsyncs than commits.
func TestGroupModeSharesFlushes(t *testing.T) {
	fs := simio.NewFS(simio.Latency{Fsync: 2 * time.Millisecond})
	s, _ := openStore(t, fs, Options{})
	const goroutines = 8
	const perG = 20
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				lsn, err := s.Update(func(tx *stm.Tx, b *Batch) error {
					b.Put(fmt.Sprintf("g%d", g), fmt.Sprintf("%d", i))
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				s.WaitDurable(lsn)
			}
		}(g)
	}
	wg.Wait()
	st := s.Logs()[0].BatchStats()
	total := uint64(goroutines * perG)
	if st.Records != total || st.Flushes >= total {
		t.Fatalf("%d flushes for %d commits (records=%d)", st.Flushes, total, st.Records)
	}
	t.Logf("%d commits, %d flushes (mean batch %.1f)", total, st.Flushes, st.Mean())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, info := openStore(t, fs, Options{})
	if info.LastLSN != total {
		t.Fatalf("recovered LastLSN=%d, want %d", info.LastLSN, total)
	}
	got := dump(t, s2)
	for g := 0; g < goroutines; g++ {
		if got[fmt.Sprintf("g%d", g)] != fmt.Sprintf("%d", perG-1) {
			t.Fatalf("g%d=%q, want %d", g, got[fmt.Sprintf("g%d", g)], perG-1)
		}
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFsyncCountersMatchDisk: the fsyncs the lanes account for are the
// fsyncs the disk saw after Open, the store-wide WAL series the registry
// exposes are those lanes' sums, and the record count is the commit
// count — on one lane and on four. (A path that fsyncs without
// counting, or counts one it never issued, would corrupt every
// fsyncs-per-commit figure reported from these counters.) With eight
// committers on one lane, group commit pays fewer fsyncs than commits.
func TestFsyncCountersMatchDisk(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("group/%d lanes", shards), func(t *testing.T) {
			fs := simio.NewFS(simio.Latency{Fsync: time.Millisecond})
			reg := obs.NewRegistry()
			s, _ := openStore(t, fs, Options{Shards: shards, Registry: reg})
			defer s.Close()
			base := fs.Stats().Fsyncs // the manifest and segment creation are Open's
			const goroutines, perG = 8, 20
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < perG; i++ {
						tok, err := s.Update(func(_ *stm.Tx, b *Batch) error {
							b.Put(fmt.Sprintf("g%d-%d", g, i%5), fmt.Sprintf("%d", i))
							return nil
						})
						if err != nil {
							t.Error(err)
							return
						}
						s.WaitDurable(tok)
					}
				}(g)
			}
			wg.Wait()
			const commits = goroutines * perG
			var lanes wal.BatchStats
			for _, l := range s.Logs() {
				b := l.BatchStats()
				lanes.Fsyncs += b.Fsyncs
				lanes.Flushes += b.Flushes
				lanes.Records += b.Records
			}
			onDisk := fs.Stats().Fsyncs - base
			if lanes.Fsyncs != onDisk {
				t.Errorf("lanes counted %d fsyncs, the disk saw %d", lanes.Fsyncs, onDisk)
			}
			if lanes.Records != commits {
				t.Errorf("lanes counted %d records for %d commits", lanes.Records, commits)
			}
			exposed := reg.Snapshot()
			for name, want := range map[string]uint64{
				"deferstm_wal_fsyncs_total":      lanes.Fsyncs,
				"deferstm_wal_flushes_total":     lanes.Flushes,
				"deferstm_wal_records_total":     lanes.Records,
				"deferstm_wal_checkpoints_total": 0,
			} {
				if got := exposed[name]; got != want {
					t.Errorf("%s = %v, want the lanes' sum %d", name, got, want)
				}
			}
			if shards == 1 && onDisk >= commits {
				t.Errorf("group mode: %d fsyncs for %d commits, want fewer", onDisk, commits)
			}
		})
	}
}

// TestRegistryInstrumentsTheStore: a store registers its instruments on
// the registry it is opened with — a store without a log only its maps'
// resize-chunk histogram — and its lanes observe every record's
// append→durable lag there. (Without a registry a lane stamps and
// observes nothing: wal.TestMetricsOnlyWhenAttached.)
func TestRegistryInstrumentsTheStore(t *testing.T) {
	reg := obs.NewRegistry()
	openStore(t, nil, Options{Mode: ModeNone, Registry: reg})
	if got := slices.Collect(maps.Keys(reg.Snapshot())); len(got) != 1 || got[0] != "deferstm_resize_chunk_seconds" {
		t.Fatalf("a store without a log registered %q, want only the resize-chunk histogram", got)
	}

	reg = obs.NewRegistry()
	s, _ := openStore(t, simio.NewFS(simio.Latency{}), Options{Mode: ModeGroup, Shards: 2, Registry: reg})
	defer s.Close()
	const n = 20
	for i := 0; i < n; i++ {
		s.WaitDurable(put(t, s, fmt.Sprintf("k%d", i), "v"))
	}
	lag := reg.Snapshot()["deferstm_wal_append_durable_seconds"].(map[string]any)
	if got := lag["count"]; got != uint64(n) {
		t.Fatalf("append->durable lag observed %v times for %d records", got, n)
	}
}

// TestBulkLoadOneFsyncPerFlush: a bulk load shaped like the benchmark's
// preload — 128 cross-shard batches of 512 keys with 64-byte values, each
// waited for, on 2 lanes with 64 KiB segments — flushes each lane once
// per batch, and each flush is one fsync: a batch that does not fit in
// what is left of a segment starts the next one, and that rotation costs
// no fsync because the previous flush left the old segment clean.
func TestBulkLoadOneFsyncPerFlush(t *testing.T) {
	fs := simio.NewFS(simio.Latency{})
	s, _ := openStore(t, fs, Options{Mode: ModeGroup, Shards: 2, WAL: wal.Options{SegmentBytes: 64 << 10}})
	defer s.Close()
	const batches, perBatch = 128, 512
	value := strings.Repeat("v", 64)
	for lo := 0; lo < batches*perBatch; lo += perBatch {
		tok, err := s.Update(func(_ *stm.Tx, b *Batch) error {
			for i := lo; i < lo+perBatch; i++ {
				b.Put(fmt.Sprintf("k%07d", i), value)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		s.WaitDurable(tok)
	}
	var st wal.BatchStats
	for _, l := range s.Logs() {
		l.WaitDurable(l.AssignedWatermark()) // a lane's flush is counted before it publishes
		ls := l.BatchStats()
		st.Flushes += ls.Flushes
		st.Fsyncs += ls.Fsyncs
		st.Rotations += ls.Rotations
	}
	if st.Flushes != 2*batches || st.Fsyncs != st.Flushes || st.Rotations == 0 {
		t.Fatalf("%d flushes, %d fsyncs, %d rotations; want %d flushes, one fsync each, and some rotations",
			st.Flushes, st.Fsyncs, st.Rotations, 2*batches)
	}
	t.Logf("%d flushes, %d fsyncs, %d rotations", st.Flushes, st.Fsyncs, st.Rotations)
	mapSettled(t, s) // leave no resize running into the next test's alloc counts
}

// TestUpdateAbortLogsNothing: a failed Update leaves no trace in the
// store or the log.
func TestUpdateAbortLogsNothing(t *testing.T) {
	fs := simio.NewFS(simio.Latency{})
	s, _ := openStore(t, fs, Options{})
	put(t, s, "keep", "1")
	sentinel := fmt.Errorf("boom")
	if _, err := s.Update(func(tx *stm.Tx, b *Batch) error {
		b.Put("ghost", "x")
		return sentinel
	}); err != sentinel {
		t.Fatalf("err=%v", err)
	}
	if _, ok := mustGet(t, s, "ghost"); ok {
		t.Fatal("aborted put visible")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, info := openStore(t, fs, Options{})
	if info.LastLSN != 1 || info.Keys != 1 {
		t.Fatalf("recovery info %+v", info)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}
