package kv

import (
	"fmt"
	"testing"

	"deferstm/internal/simio"
	"deferstm/internal/stm"
	"deferstm/internal/wal"
)

// hotStore is an in-memory store preloaded with n keys, one Update each,
// settled (no migration in flight).
func hotStore(t *testing.T, n int, opts Options) (*Store, []string) {
	t.Helper()
	s, _ := openStore(t, nil, opts)
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%06d", i)
		put(t, s, keys[i], "v0")
	}
	mapSettled(t, s)
	return s, keys
}

// TestUpdateAllocPin pins a one-key overwrite on a store without a log at
// one allocation: the new chain node, which is the bucket's box. No op
// record, no pointer box, no rebuilt chain prefix, and no Batch — Update
// recycles its own. (Six before buckets were unboxed and Batch recorded
// ops it had no log for; two while each Update allocated its Batch.) The
// buckets are sparse for the reason TestTransferAllocPin gives.
func TestUpdateAllocPin(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; bound holds only unraced")
	}
	s, keys := hotStore(t, 4096, Options{Mode: ModeNone, Buckets: 1 << 16})
	defer s.Close()
	i := 0
	vals := [2]string{"v1", "v2"} // alternate, or the put is a no-op
	op := func() {
		i++
		k, v := keys[i%len(keys)], vals[(i/len(keys))%2]
		if _, err := s.Update(func(_ *stm.Tx, b *Batch) error { b.Put(k, v); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	for j := 0; j < 64; j++ {
		op()
	}
	const want = 1
	if n := testing.AllocsPerRun(2000, op); n > want {
		t.Fatalf("1-key Update allocates %.2f objects/op, want <= %d", n, want)
	}
}

// TestTransferAllocPin pins the mem-scan-writes benchmark's transfer — a
// two-key read-modify-write on a two-shard store without a log, with its
// values built beforehand — at two allocations: the two chain nodes it
// publishes. The store allocates nothing else for it. The buckets are
// sparse (1/16 key per bucket), so an overwrite seldom also copies a node
// in front of its key: at the map's usual 1–2 keys per bucket that adds
// ~0.5–1 node per Put, and AllocsPerRun's truncated mean would read 2 or
// 3 by the hash seed's luck.
func TestTransferAllocPin(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; bound holds only unraced")
	}
	s, keys := hotStore(t, 4096, Options{Mode: ModeNone, Shards: 2, Buckets: 1 << 16})
	defer s.Close()
	i := 0
	vals := [2]string{"v1", "v2"} // alternate, or the puts are no-ops
	op := func() {
		i++
		ka, kb := keys[i%len(keys)], keys[(i*7+1)%len(keys)]
		va, vb := vals[(i/len(keys))%2], vals[(i/len(keys)+1)%2]
		if _, err := s.Update(func(_ *stm.Tx, b *Batch) error {
			b.Get(ka)
			b.Get(kb)
			b.Put(ka, va)
			b.Put(kb, vb)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for j := 0; j < 64; j++ {
		op()
	}
	const want = 2
	if n := testing.AllocsPerRun(2000, op); n > want {
		t.Fatalf("2-key transfer allocates %.2f objects/op, want <= %d", n, want)
	}
}

// TestDurableUpdateAllocPin pins the durable write path: a one-key
// Update plus WaitDurable on a 2-lane group-commit store, over a device
// with no latency, so every op is one commit, one flusher goroutine and
// one flush. The log owns the payload it is handed (no copy), the record
// CRC reads the encoded LSN in place, the batch finds its touched lanes
// without a slice of its own, and the Batch with its per-lane op lists is
// recycled, not carved again, and the lane record is encoded into one
// buffer sized up front; the op measures 14 allocations (18 while the
// record grew by appends and copied its ops behind the header, 21 while
// each Update allocated its Batch, its perShard and the op list).
func TestDurableUpdateAllocPin(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; bound holds only unraced")
	}
	s, _, err := Open(stm.NewDefault(), wal.NewSimBackend(simio.NewFS(simio.Latency{})), Options{Mode: ModeGroup, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	keys := make([]string, 64)
	for j := range keys {
		keys[j] = fmt.Sprintf("key-%06d", j)
	}
	i := 0
	vals := [2]string{"v1", "v2"} // alternate, or the map put is a no-op
	op := func() {
		i++
		k, v := keys[i%len(keys)], vals[(i/len(keys))%2]
		tok, err := s.Update(func(_ *stm.Tx, b *Batch) error { b.Put(k, v); return nil })
		if err != nil {
			t.Fatal(err)
		}
		s.WaitDurable(tok)
	}
	for j := 0; j < 64; j++ {
		op()
	}
	const want = 14
	if n := testing.AllocsPerRun(2000, op); n > want {
		t.Fatalf("durable 1-key Update allocates %.2f objects/op, want <= %d", n, want)
	}
}

// TestRecordEncodeOneAlloc: a commit record's payload is sized before it
// is written, so encoding it — bare, or behind a lane header — allocates
// the payload and nothing else.
func TestRecordEncodeOneAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; bound holds only unraced")
	}
	ops := []Op{{Put: true, Key: "key-000001", Value: "value-of-some-length"}, {Key: "key-000002"}}
	pts := []LanePoint{{Lane: 0, LSN: 7}, {Lane: 3, LSN: 9}}
	if n := testing.AllocsPerRun(100, func() { _ = EncodeOps(ops) }); n != 1 {
		t.Errorf("EncodeOps: %.1f allocs, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = encodeLaneRecord(11, pts, ops) }); n != 1 {
		t.Errorf("encodeLaneRecord: %.1f allocs, want 1", n)
	}
	if got, want := len(EncodeOps(ops)), OpsSize(ops); got != want {
		t.Errorf("EncodeOps wrote %d bytes, OpsSize says %d", got, want)
	}
}

// TestViewGetAllocFree: a point read adds nothing to stm's read-only pin
// of zero beyond the caller's closure.
func TestViewGetAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; bound holds only unraced")
	}
	s, keys := hotStore(t, 4096, Options{Mode: ModeNone})
	defer s.Close()
	i, misses := 0, 0
	var key string
	view := func(tx *stm.Tx) error { // hoisted: the pin is View+Get, not the closure
		if _, ok := s.Get(tx, key); !ok {
			misses++
		}
		return nil
	}
	op := func() {
		i++
		key = keys[i%len(keys)]
		if err := s.View(view); err != nil {
			t.Fatal(err)
		}
	}
	for j := 0; j < 64; j++ {
		op()
	}
	if n := testing.AllocsPerRun(2000, op); n != 0 {
		t.Fatalf("View+Get allocates %.2f objects/op, want 0", n)
	}
	if misses != 0 {
		t.Fatalf("%d reads missed a preloaded key", misses)
	}
}

// TestScanAllocConstant: a scan's cut is sized once and recycled, so its
// allocation count does not depend on how many keys it returns, and a
// scan of a store of unchanged size allocates nothing.
func TestScanAllocConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; bound holds only unraced")
	}
	s, keys := hotStore(t, 1<<16, Options{Mode: ModeNone})
	defer s.Close()
	seen := 0
	scan := func() {
		seen = 0
		if err := s.Scan(func(_, _ string) bool { seen++; return true }); err != nil {
			t.Fatal(err)
		}
	}
	scan()
	if seen != len(keys) {
		t.Fatalf("scan saw %d keys, want %d", seen, len(keys))
	}
	// The cut comes back from the store's pool and the descriptor from the
	// runtime's. A cut allocated per scan (2 MiB here) measured 1, plus a
	// descriptor and its slices whenever a collection it triggered had
	// emptied the pool; a buffer grown by append took 29 for this many keys.
	const bound = 0
	if n := testing.AllocsPerRun(5, scan); n > bound {
		t.Fatalf("scan of %d keys performs %.0f allocations, want <= %d", len(keys), n, bound)
	}
}
