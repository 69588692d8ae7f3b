package kv

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"deferstm/internal/check"
	"deferstm/internal/history"
	"deferstm/internal/simio"
	"deferstm/internal/stm"
	"deferstm/internal/wal"
)

// mapSettled blocks until no shard's map has a migration in flight and
// every map lock is free, so a test can inspect final state without
// racing the background migrator (or leave none behind it).
func mapSettled(t *testing.T, s *Store) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for _, sh := range s.shards {
		for sh.m.Migrating() || sh.m.Lock().OwnerSnapshot() != 0 {
			if time.Now().After(deadline) {
				t.Fatal("map migration did not settle")
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// Concurrent store updates across at least one full deferred resize: no
// entry may be lost and the striped length must stay exact.
func TestStoreConcurrentUpdatesAcrossResize(t *testing.T) {
	s, _ := openStore(t, nil, Options{Mode: ModeNone, Buckets: 16})
	defer s.Close()
	const workers, per = 6, 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				k := fmt.Sprintf("w%d-%04d", w, i)
				if _, err := s.Update(func(tx *stm.Tx, b *Batch) error {
					b.Put(k, "x")
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	mapSettled(t, s)
	if s.shards[0].m.Resizes() == 0 {
		t.Fatal("no resize completed; test is vacuous")
	}
	got := dump(t, s)
	if len(got) != workers*per {
		t.Fatalf("dumped %d keys, want %d", len(got), workers*per)
	}
	var n int
	_ = s.View(func(tx *stm.Tx) error { n = s.Len(tx); return nil })
	if n != workers*per {
		t.Fatalf("Len = %d, want %d", n, workers*per)
	}
}

// Group-commit mode with a deliberately tiny bucket count: the same
// transaction can trigger a map resize (a deferral unit holding the map
// lock) and wake the lane's WAL flusher, whose flushes are deferral
// units of their own transactions holding the log lock. The recorded
// history must satisfy every checker axiom — deferral atomicity without
// any appender exemption, and two-phase locking — and the store must
// recover to identical contents. Cut after Close, the history holds no
// park session that never woke: the lane flushers, parked on their
// queues between flushes, have returned.
func TestStoreGroupCommitResizeCheckedHistory(t *testing.T) {
	log := history.New()
	rt := stm.New(stm.Config{Recorder: log})
	fs := simio.NewFS(simio.Latency{})
	s, _, err := Open(rt, wal.NewSimBackend(fs), Options{Mode: ModeGroup, Buckets: 16})
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 4, 120
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				k := fmt.Sprintf("w%d-%04d", w, i)
				lsn, err := s.Update(func(tx *stm.Tx, b *Batch) error {
					b.Put(k, "v")
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if i%8 == 0 {
					s.WaitDurable(lsn)
				}
			}
		}(w)
	}
	wg.Wait()
	mapSettled(t, s)
	if s.shards[0].m.Resizes() == 0 {
		t.Fatal("no resize completed; composition not exercised")
	}
	live := dump(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	events := log.Events()
	rep := check.History(events)
	if !rep.OK() {
		t.Fatalf("checker rejected group-commit + resize history:\n%s", rep)
	}
	parked := map[uint64]bool{}
	for _, e := range events {
		switch e.Kind {
		case stm.EvWatchRegister:
			parked[e.TxID] = true
		case stm.EvWake:
			delete(parked, e.TxID)
		}
	}
	if len(parked) != 0 {
		t.Fatalf("%d park sessions still open in a history cut after Close", len(parked))
	}
	s2, _ := openStore(t, fs, Options{Mode: ModeGroup, Buckets: 16})
	defer s2.Close()
	got := dump(t, s2)
	if len(got) != len(live) {
		t.Fatalf("recovered %d keys, want %d", len(got), len(live))
	}
	for k, v := range live {
		if got[k] != v {
			t.Fatalf("key %q diverged after recovery", k)
		}
	}
}

// loadKeys writes n keys of the benchmark's shape ("k%07d") the way its
// preload does — one Update per 512 — and waits for the maps to settle.
func loadKeys(t *testing.T, s *Store, n int) {
	t.Helper()
	const batch = 512
	for lo := 0; lo < n; lo += batch {
		if _, err := s.Update(func(tx *stm.Tx, b *Batch) error {
			for i := lo; i < min(lo+batch, n); i++ {
				b.Put(fmt.Sprintf("k%07d", i), "v")
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	mapSettled(t, s)
}

// evenSplit fails the test unless FNV-1a routes n of loadKeys' keys to
// 2 shards n/2 apiece, which the exact-fit tests below rely on.
func evenSplit(t *testing.T, s *Store, n int) {
	t.Helper()
	var per [2]int
	for i := 0; i < n; i++ {
		per[s.shardOf(fmt.Sprintf("k%07d", i))]++
	}
	if per[0] != n/2 {
		t.Fatalf("keys split %v across the shards, want %d each", per, n/2)
	}
}

// A store sized for its keys at the map's load never resizes while they
// arrive: 65 536 buckets hold 64 Ki keys on 2 shards, the benchmark's
// preload at exactly the map's load.
func TestPresizedStoreLoadsWithoutResize(t *testing.T) {
	const n = 64 << 10
	s, _ := openStore(t, nil, Options{Mode: ModeNone, Shards: 2, Buckets: n})
	defer s.Close()
	evenSplit(t, s, n)
	loadKeys(t, s, n)
	for i, sh := range s.shards {
		if r, b := sh.m.Resizes(), sh.m.BucketCount(); r != 0 || b != n/2 {
			t.Errorf("shard %d: %d resizes, %d buckets; want 0 and %d", i, r, b, n/2)
		}
	}
}

// A load from the default size ends at the table that fits it exactly —
// 32 768 buckets per shard for 64 Ki keys on 2 shards — not at twice that.
func TestDefaultStoreLoadEndsAtExactFit(t *testing.T) {
	const n = 64 << 10
	s, _ := openStore(t, nil, Options{Mode: ModeNone, Shards: 2})
	defer s.Close()
	evenSplit(t, s, n)
	loadKeys(t, s, n)
	for i, sh := range s.shards {
		if b := sh.m.BucketCount(); b != n/2 {
			t.Errorf("shard %d ends at %d buckets (%d resizes), want %d", i, b, sh.m.Resizes(), n/2)
		}
	}
}
