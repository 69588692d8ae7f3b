package kv

import (
	"fmt"
	"sync"
	"testing"
	"time"
	"unsafe"

	"deferstm/internal/check"
	"deferstm/internal/history"
	"deferstm/internal/simio"
	"deferstm/internal/stm"
	"deferstm/internal/wal"
)

func smapSettled(t *testing.T, m *smap) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for m.table.Load().old != nil || m.Lock().OwnerSnapshot() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("smap migration did not settle")
		}
		time.Sleep(time.Millisecond)
	}
}

// Overwriting a key with a byte-equal value must leave the bucket
// untouched: no chain rebuild, no version bump, so concurrent readers of
// the chain are not invalidated.
func TestSmapNoopPutSkipsBucketWrite(t *testing.T) {
	rt := stm.NewDefault()
	m := newSmap(64)
	write := func(k, v string) {
		if err := rt.Atomic(func(tx *stm.Tx) error {
			m.put(tx, k, v)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	write("a", "1")
	write("b", "2") // same map, exercises chains too
	b := m.table.Load().bucketFor(m.hash("a"))
	ver := b.Version()

	write("a", "1") // byte-equal: must be a pure read
	if got := b.Version(); got != ver {
		t.Fatalf("no-op put bumped bucket version: %d -> %d", ver, got)
	}
	write("a", "9") // real overwrite: must bump
	if got := b.Version(); got == ver {
		t.Fatal("real overwrite did not bump bucket version")
	}
	var v string
	var ok bool
	_ = rt.Atomic(func(tx *stm.Tx) error { v, ok = m.get(tx, "a"); return nil })
	if !ok || v != "9" {
		t.Fatalf("get a = (%q,%v)", v, ok)
	}
}

func TestSmapDeleteSemantics(t *testing.T) {
	rt := stm.NewDefault()
	m := newSmap(16)
	_ = rt.Atomic(func(tx *stm.Tx) error {
		for i := 0; i < 20; i++ {
			m.put(tx, fmt.Sprintf("k%02d", i), "v")
		}
		if m.delete(tx, "absent") {
			t.Error("delete of absent key reported true")
		}
		if !m.delete(tx, "k07") {
			t.Error("delete of present key reported false")
		}
		if m.delete(tx, "k07") {
			t.Error("double delete reported true")
		}
		if n := m.length(tx); n != 19 {
			t.Errorf("length = %d, want 19", n)
		}
		if _, ok := m.get(tx, "k07"); ok {
			t.Error("deleted key still present")
		}
		if _, ok := m.get(tx, "k08"); !ok {
			t.Error("neighbor key lost by delete")
		}
		return nil
	})
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
	smapSettled(t, s.shards[0].m)
	if s.shards[0].m.resizes.Load() == 0 {
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
// lock) and start the lane's WAL flusher, whose flushes are deferral
// units of their own transactions holding the log lock. The recorded
// history must satisfy every checker axiom — deferral atomicity without
// any appender exemption, and two-phase locking — and the store must
// recover to identical contents.
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
	smapSettled(t, s.shards[0].m)
	if s.shards[0].m.resizes.Load() == 0 {
		t.Fatal("no resize completed; composition not exercised")
	}
	live := dump(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rep := check.History(log.Events())
	if !rep.OK() {
		t.Fatalf("checker rejected group-commit + resize history:\n%s", rep)
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

// TestCountStripeLayout: a stripe is a whole number of 128-byte line pairs, so in
// the array a map allocates no two stripes' counters share a line wherever
// the allocator puts it. (With the pad written as a literal the stripe
// was 144 bytes once Var[int] grew to 48, and counters straddled lines.)
func TestCountStripeLayout(t *testing.T) {
	if sz := unsafe.Sizeof(countStripe{}); sz%128 != 0 {
		t.Errorf("countStripe is %d bytes, want a multiple of 128 (Var[int] is %d)", sz, unsafe.Sizeof(stm.Var[int]{}))
	}
	stripes := newSmap(16).stripes
	if len(stripes) < 2 {
		t.Fatalf("%d stripes, want at least 2", len(stripes))
	}
	const line, varSize = 64, unsafe.Sizeof(stm.Var[int]{})
	for i := 1; i < len(stripes); i++ {
		prevEnd := uintptr(unsafe.Pointer(&stripes[i-1].n)) + varSize - 1
		if at := uintptr(unsafe.Pointer(&stripes[i].n)); at/line == prevEnd/line {
			t.Errorf("counters of stripes %d and %d share the line at %#x", i-1, i, at&^(line-1))
		}
	}
}
