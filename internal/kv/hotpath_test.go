package kv

import (
	"fmt"
	"sync"
	"testing"

	"deferstm/internal/stm"
)

// hotStore is an in-memory store preloaded with n keys, one Update each,
// settled (no migration in flight).
func hotStore(t *testing.T, n int) (*Store, []string) {
	t.Helper()
	s, _ := openStore(t, nil, Options{Mode: ModeNone})
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%06d", i)
		put(t, s, keys[i], "v0")
	}
	smapSettled(t, s.shards[0].m)
	return s, keys
}

// TestUpdateAllocPin pins a one-key overwrite on a store without a log at
// two allocations: the Batch handed to fn, and the new chain node — which
// is the bucket's box. No op record, no pointer box, no rebuilt chain
// prefix. (Six before buckets were unboxed and Batch recorded ops it had
// no log for.)
func TestUpdateAllocPin(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; bound holds only unraced")
	}
	s, keys := hotStore(t, 4096)
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
	const want = 2
	if n := testing.AllocsPerRun(2000, op); n > want {
		t.Fatalf("1-key Update allocates %.2f objects/op, want <= %d", n, want)
	}
}

// TestViewGetAllocFree: a point read adds nothing to stm's read-only pin
// of zero beyond the caller's closure.
func TestViewGetAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; bound holds only unraced")
	}
	s, keys := hotStore(t, 4096)
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

// TestScanAllocConstant: a scan sizes its cut once, so its allocation
// count does not depend on how many keys it returns.
func TestScanAllocConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; bound holds only unraced")
	}
	s, keys := hotStore(t, 1<<16)
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
	// One for the cut, plus a transaction descriptor and its slices whenever
	// a collection (each scan's cut is 2 MiB) has emptied the pool; a buffer
	// grown by append took 29 for this many keys.
	const bound = 8
	if n := testing.AllocsPerRun(5, scan); n > bound {
		t.Fatalf("scan of %d keys performs %.0f allocations, want <= %d", len(keys), n, bound)
	}
}

// loadFactor reports a settled map's entries per bucket and the mean
// number of nodes a successful lookup walks.
func loadFactor(t *testing.T, rt *stm.Runtime, m *smap) (perBucket, walked float64) {
	t.Helper()
	smapSettled(t, m)
	tab := m.table.Load()
	entries, steps := 0, 0
	for i := range tab.buckets {
		depth := 0
		for n := tab.buckets[i].LoadPtr(); n != nil; n = n.next {
			depth++
			entries++
			steps += depth
		}
	}
	var n int
	if err := rt.Atomic(func(tx *stm.Tx) error { n = m.length(tx); return nil }); err != nil {
		t.Fatal(err)
	}
	if n != entries {
		t.Fatalf("stripes count %d entries, buckets hold %d", n, entries)
	}
	return float64(entries) / float64(len(tab.buckets)), float64(steps) / float64(entries)
}

// TestSmapLoadFactorBand: the map grows on its entry count, so however the
// keys arrive — one per transaction, thousands in one transaction, or from
// several goroutines across back-to-back resizes — a settled map holds
// between smapMaxLoad/2 and smapMaxLoad entries per bucket and a hit walks
// at most 1 + smapMaxLoad/2 nodes on average. (Growing on chain length let
// it run at 4–8 per bucket.)
func TestSmapLoadFactorBand(t *testing.T) {
	// The trigger estimates the count from one stripe, so it may fire a few
	// percent early: allow that much below the band.
	const lo, hi = 0.45 * smapMaxLoad, 1.0 * smapMaxLoad
	check := func(t *testing.T, rt *stm.Runtime, m *smap) {
		t.Helper()
		lf, walked := loadFactor(t, rt, m)
		if lf < lo || lf > hi {
			t.Errorf("%.3f entries per bucket, want within [%.2f, %.2f]", lf, lo, hi)
		}
		if max := 1 + hi/2 + 0.05; walked > max {
			t.Errorf("a hit walks %.3f nodes on average, want <= %.2f", walked, max)
		}
	}
	key := func(i int) string { return fmt.Sprintf("key-%06d", i) }

	t.Run("one insert per transaction", func(t *testing.T) {
		rt, m := stm.NewDefault(), newSmap(16)
		for i := 0; i < 20000; i++ {
			if err := rt.Atomic(func(tx *stm.Tx) error { m.put(tx, key(i), "v"); return nil }); err != nil {
				t.Fatal(err)
			}
		}
		check(t, rt, m)
	})
	t.Run("one bulk transaction", func(t *testing.T) {
		rt, m := stm.NewDefault(), newSmap(16)
		if err := rt.Atomic(func(tx *stm.Tx) error {
			for i := 0; i < 20000; i++ {
				m.put(tx, key(i), "v")
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		check(t, rt, m)
	})
	t.Run("resize storm", func(t *testing.T) {
		rt, m := stm.NewDefault(), newSmap(16)
		const workers, per = 4, 5000
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					if err := rt.Atomic(func(tx *stm.Tx) error { m.put(tx, key(w*per+i), "v"); return nil }); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		check(t, rt, m)
		if m.resizes.Load() < 5 {
			t.Errorf("%d resizes completed, want a storm of them", m.resizes.Load())
		}
	})
}
