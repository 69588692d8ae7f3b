package cache

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"deferstm/internal/stm"
)

func inTx(t *testing.T, rt *stm.Runtime, fn func(tx *stm.Tx)) {
	t.Helper()
	if err := rt.Atomic(func(tx *stm.Tx) error {
		fn(tx)
		return nil
	}); err != nil {
		t.Fatalf("Atomic: %v", err)
	}
}

func TestCacheBasic(t *testing.T) {
	rt := stm.NewDefault()
	c := New[int](rt, 4)
	inTx(t, rt, func(tx *stm.Tx) {
		if ev := c.Put(tx, "a", 1); ev != "" {
			t.Errorf("unexpected eviction %q", ev)
		}
		c.Put(tx, "b", 2)
		if v, ok := c.Get(tx, "a"); !ok || v != 1 {
			t.Errorf("Get(a) = %d,%v", v, ok)
		}
		if _, ok := c.Get(tx, "zzz"); ok {
			t.Error("phantom key")
		}
		if c.Len(tx) != 2 {
			t.Errorf("len = %d", c.Len(tx))
		}
		// Update in place.
		c.Put(tx, "a", 10)
		if v, _ := c.Get(tx, "a"); v != 10 {
			t.Errorf("update lost: %d", v)
		}
		if c.Len(tx) != 2 {
			t.Errorf("update changed len: %d", c.Len(tx))
		}
	})
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCacheDelete(t *testing.T) {
	rt := stm.NewDefault()
	c := New[string](rt, 4)
	inTx(t, rt, func(tx *stm.Tx) {
		c.Put(tx, "k", "v")
		if !c.Delete(tx, "k") {
			t.Error("delete failed")
		}
		if c.Delete(tx, "k") {
			t.Error("double delete succeeded")
		}
		if _, ok := c.Get(tx, "k"); ok {
			t.Error("deleted key found")
		}
		if c.Len(tx) != 0 {
			t.Errorf("len = %d", c.Len(tx))
		}
	})
}

func TestCacheEvictionAtCapacity(t *testing.T) {
	rt := stm.NewDefault()
	c := New[int](rt, 3)
	var evicted []string
	for i := 0; i < 6; i++ {
		key := fmt.Sprintf("k%d", i)
		inTx(t, rt, func(tx *stm.Tx) {
			if ev := c.Put(tx, key, i); ev != "" {
				evicted = append(evicted, ev)
			}
			if c.Len(tx) > 3 {
				t.Fatalf("len %d exceeds capacity", c.Len(tx))
			}
		})
	}
	if len(evicted) != 3 {
		t.Errorf("evictions = %v, want 3", evicted)
	}
	if c.Stats().Evictions != 3 {
		t.Errorf("eviction stat = %d", c.Stats().Evictions)
	}
	// The three newest keys must be present.
	inTx(t, rt, func(tx *stm.Tx) {
		present := 0
		for i := 0; i < 6; i++ {
			if _, ok := c.Get(tx, fmt.Sprintf("k%d", i)); ok {
				present++
			}
		}
		if present != 3 {
			t.Errorf("present = %d, want 3", present)
		}
	})
}

// TestCacheClockPrefersUnreferenced: a hot key (touched between eviction
// rounds) survives eviction pressure that removes cold keys. The cache
// must be large enough relative to the churn that CLOCK does not
// degenerate to FIFO (with every slot referenced, the hand evicts
// whatever it points at).
func TestCacheClockPrefersUnreferenced(t *testing.T) {
	rt := stm.NewDefault()
	c := New[int](rt, 8)
	inTx(t, rt, func(tx *stm.Tx) {
		for i := 0; i < 7; i++ {
			c.Put(tx, fmt.Sprintf("cold%d", i), i)
		}
		c.Put(tx, "hot", 99)
	})
	// Alternate eviction pressure with touches of the hot key, in
	// separate transactions (the ref bit must be re-set between sweeps).
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("new%d", i)
		inTx(t, rt, func(tx *stm.Tx) { c.Put(tx, key, i) })
		inTx(t, rt, func(tx *stm.Tx) { _, _ = c.Get(tx, "hot") })
	}
	inTx(t, rt, func(tx *stm.Tx) {
		if _, ok := c.Get(tx, "hot"); !ok {
			t.Error("hot key was evicted despite constant access")
		}
	})
}

func TestCacheEvictionLogDeferred(t *testing.T) {
	rt := stm.NewDefault()
	var mu sync.Mutex
	var log strings.Builder
	el := NewEvictionLog(func(rec string) {
		mu.Lock()
		log.WriteString(rec)
		mu.Unlock()
	})
	c := New[int](rt, 2).WithEvictionLog(el)
	for i := 0; i < 4; i++ {
		key := fmt.Sprintf("k%d", i)
		inTx(t, rt, func(tx *stm.Tx) { c.Put(tx, key, i) })
	}
	mu.Lock()
	defer mu.Unlock()
	lines := strings.Count(log.String(), "\n")
	if lines != 2 {
		t.Errorf("eviction log lines = %d, want 2:\n%s", lines, log.String())
	}
	if !strings.Contains(log.String(), "evict key=") {
		t.Errorf("malformed log: %s", log.String())
	}
	if el.Locked() {
		t.Error("eviction log lock leaked")
	}
}

func TestCacheAbortedTxCountsNothing(t *testing.T) {
	rt := stm.NewDefault()
	c := New[int](rt, 4)
	sentinel := fmt.Errorf("abort")
	_ = rt.Atomic(func(tx *stm.Tx) error {
		c.Put(tx, "x", 1)
		_, _ = c.Get(tx, "x")
		_, _ = c.Get(tx, "y")
		return sentinel
	})
	st := c.Stats()
	if st.Hits != 0 || st.Misses != 0 {
		t.Errorf("aborted tx counted stats: %+v", st)
	}
	inTx(t, rt, func(tx *stm.Tx) {
		if _, ok := c.Get(tx, "x"); ok {
			t.Error("aborted put visible")
		}
	})
}

func TestCacheEmptyKeyPanics(t *testing.T) {
	rt := stm.NewDefault()
	c := New[int](rt, 2)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	_ = rt.Atomic(func(tx *stm.Tx) error {
		c.Put(tx, "", 1)
		return nil
	})
}

func TestCacheMinCapacity(t *testing.T) {
	rt := stm.NewDefault()
	c := New[int](rt, 0)
	if c.capacity != 1 {
		t.Errorf("capacity = %d", c.capacity)
	}
	inTx(t, rt, func(tx *stm.Tx) {
		c.Put(tx, "a", 1)
		ev := c.Put(tx, "b", 2)
		if ev != "a" {
			t.Errorf("evicted %q, want a", ev)
		}
	})
}

func TestCacheConcurrent(t *testing.T) {
	rt := stm.NewDefault()
	c := New[int](rt, 32)
	var wg sync.WaitGroup
	const workers, per = 6, 150
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				key := fmt.Sprintf("w%d-k%d", w, i%20)
				_ = rt.Atomic(func(tx *stm.Tx) error {
					if i%3 == 0 {
						c.Put(tx, key, i)
					} else {
						_, _ = c.Get(tx, key)
					}
					return nil
				})
			}
		}(w)
	}
	wg.Wait()
	// Invariants: size within capacity, index consistent with slots.
	inTx(t, rt, func(tx *stm.Tx) {
		n := c.Len(tx)
		if n < 0 || n > c.capacity {
			t.Errorf("len = %d (capacity %d)", n, c.capacity)
		}
		occupied := 0
		for i := range c.slots {
			k := c.slots[i].key.Get(tx)
			if k == "" {
				continue
			}
			occupied++
			if got := c.lookup(tx, k); got != i {
				t.Errorf("index maps %q to %d, slot is %d", k, got, i)
			}
		}
		if occupied != n {
			t.Errorf("occupied slots %d != size %d", occupied, n)
		}
	})
}

// Property: cache agrees with a capacity-unbounded oracle on *hits* — any
// value the cache returns must be the latest value put for that key.
func TestCacheNeverReturnsStaleProperty(t *testing.T) {
	rt := stm.NewDefault()
	f := func(ops []uint16) bool {
		c := New[uint16](rt, 4)
		oracle := map[string]uint16{}
		ok := true
		for _, op := range ops {
			key := fmt.Sprintf("k%d", op%12)
			if op%3 == 0 {
				_ = rt.Atomic(func(tx *stm.Tx) error {
					c.Put(tx, key, op)
					return nil
				})
				oracle[key] = op
			} else {
				_ = rt.Atomic(func(tx *stm.Tx) error {
					if v, hit := c.Get(tx, key); hit {
						if want, exists := oracle[key]; !exists || v != want {
							ok = false
						}
					}
					return nil
				})
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
