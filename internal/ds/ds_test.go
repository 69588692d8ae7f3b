package ds

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"deferstm/internal/stm"
)

// atomically runs fn in a fresh transaction, failing the test on error.
func atomically(t *testing.T, rt *stm.Runtime, fn func(tx *stm.Tx)) {
	t.Helper()
	if err := rt.Atomic(func(tx *stm.Tx) error {
		fn(tx)
		return nil
	}); err != nil {
		t.Fatalf("Atomic: %v", err)
	}
}

// ---------- HashMap ----------

func TestHashMapBasic(t *testing.T) {
	rt := stm.NewDefault()
	m := NewHashMap[int64, string](16)
	atomically(t, rt, func(tx *stm.Tx) {
		if !m.Put(tx, 1, "one") {
			t.Error("new key reported as existing")
		}
		if m.Put(tx, 1, "uno") {
			t.Error("replace reported as new")
		}
		v, ok := m.Get(tx, 1)
		if !ok || v != "uno" {
			t.Errorf("Get = %q,%v", v, ok)
		}
		if _, ok := m.Get(tx, 2); ok {
			t.Error("phantom key")
		}
		if m.Len(tx) != 1 {
			t.Errorf("len = %d", m.Len(tx))
		}
		if !m.Delete(tx, 1) || m.Delete(tx, 1) {
			t.Error("delete wrong")
		}
	})
}

func TestHashMapRange(t *testing.T) {
	rt := stm.NewDefault()
	m := NewHashMap[int64, int](16)
	atomically(t, rt, func(tx *stm.Tx) {
		for i := int64(0); i < 20; i++ {
			m.Put(tx, i, int(i*10))
		}
	})
	seen := map[int64]int{}
	atomically(t, rt, func(tx *stm.Tx) {
		m.Range(tx, func(k int64, v int) bool {
			seen[k] = v
			return true
		})
	})
	if len(seen) != 20 || seen[7] != 70 {
		t.Errorf("range saw %d entries", len(seen))
	}
	// Early stop.
	count := 0
	atomically(t, rt, func(tx *stm.Tx) {
		count = 0
		m.Range(tx, func(k int64, v int) bool {
			count++
			return count < 5
		})
	})
	if count != 5 {
		t.Errorf("early stop count = %d", count)
	}
}

func TestHashMapConcurrent(t *testing.T) {
	rt := stm.NewDefault()
	m := NewHashMap[int64, int](64)
	var wg sync.WaitGroup
	const workers, per = 8, 100
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				k := int64(w*per + i)
				_ = rt.Atomic(func(tx *stm.Tx) error {
					m.Put(tx, k, w)
					return nil
				})
			}
		}(w)
	}
	wg.Wait()
	var n int
	atomically(t, rt, func(tx *stm.Tx) { n = m.Len(tx) })
	if n != workers*per {
		t.Errorf("len = %d, want %d", n, workers*per)
	}
}

func TestHashMapMinBuckets(t *testing.T) {
	m := NewHashMap[int64, int](1)
	if m.BucketCount() != 16 {
		t.Errorf("bucket floor = %d", m.BucketCount())
	}
}

// Property: the map behaves like the builtin map — contents, length, and
// what Put and Delete report — whatever the key type.
func TestHashMapOracleProperty(t *testing.T) {
	t.Run("int64 keys", func(t *testing.T) {
		hashMapOracleProperty(t, func(i int16) int64 { return int64(i) })
	})
	t.Run("string keys", func(t *testing.T) {
		hashMapOracleProperty(t, func(i int16) string { return fmt.Sprintf("k%02d", i) })
	})
}

func hashMapOracleProperty[K comparable](t *testing.T, key func(int16) K) {
	rt := stm.NewDefault()
	f := func(ops []int16) bool {
		m := NewHashMap[K, int16](32)
		oracle := map[K]int16{}
		for i, op := range ops {
			k := key(op % 32)
			_, had := oracle[k]
			var isNew, removed bool
			switch i % 3 {
			case 0, 1:
				_ = rt.Atomic(func(tx *stm.Tx) error { isNew = m.Put(tx, k, op); return nil })
				if isNew == had {
					return false
				}
				oracle[k] = op
			case 2:
				_ = rt.Atomic(func(tx *stm.Tx) error { removed = m.Delete(tx, k); return nil })
				if removed != had {
					return false
				}
				delete(oracle, k)
			}
		}
		good := true
		_ = rt.Atomic(func(tx *stm.Tx) error {
			if m.Len(tx) != len(oracle) {
				good = false
			}
			for k, v := range oracle {
				got, ok := m.Get(tx, k)
				if !ok || got != v {
					good = false
				}
			}
			return nil
		})
		return good
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// ---------- RBTree ----------

func TestRBTreeBasic(t *testing.T) {
	rt := stm.NewDefault()
	tr := NewRBTree[string]()
	atomically(t, rt, func(tx *stm.Tx) {
		if !tr.Insert(tx, 10, "ten") || !tr.Insert(tx, 5, "five") || !tr.Insert(tx, 15, "fifteen") {
			t.Error("insert failed")
		}
		if tr.Insert(tx, 10, "TEN") {
			t.Error("replace counted as new")
		}
		v, ok := tr.Get(tx, 10)
		if !ok || v != "TEN" {
			t.Errorf("Get(10) = %q,%v", v, ok)
		}
		if tr.Len(tx) != 3 {
			t.Errorf("len = %d", tr.Len(tx))
		}
		k, _, ok := tr.Min(tx)
		if !ok || k != 5 {
			t.Errorf("Min = %d", k)
		}
		k, _, ok = tr.Max(tx)
		if !ok || k != 15 {
			t.Errorf("Max = %d", k)
		}
		if !tr.Delete(tx, 10) || tr.Delete(tx, 10) {
			t.Error("delete wrong")
		}
		keys := tr.Keys(tx)
		if len(keys) != 2 || keys[0] != 5 || keys[1] != 15 {
			t.Errorf("keys = %v", keys)
		}
	})
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
}

func TestRBTreeEmpty(t *testing.T) {
	rt := stm.NewDefault()
	tr := NewRBTree[int]()
	atomically(t, rt, func(tx *stm.Tx) {
		if _, _, ok := tr.Min(tx); ok {
			t.Error("Min on empty")
		}
		if _, _, ok := tr.Max(tx); ok {
			t.Error("Max on empty")
		}
		if tr.Delete(tx, 1) {
			t.Error("delete on empty")
		}
		if _, ok := tr.Get(tx, 1); ok {
			t.Error("get on empty")
		}
	})
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
}

// TestRBTreeInvariantsUnderSequentialOps: invariants hold after every
// operation of a deterministic mixed workload.
func TestRBTreeInvariantsSequential(t *testing.T) {
	rt := stm.NewDefault()
	tr := NewRBTree[int]()
	rng := uint64(12345)
	next := func(n int) int64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int64(rng % uint64(n))
	}
	present := map[int64]bool{}
	for i := 0; i < 3000; i++ {
		k := next(500)
		if next(3) != 0 {
			atomically(t, rt, func(tx *stm.Tx) { tr.Insert(tx, k, i) })
			present[k] = true
		} else {
			atomically(t, rt, func(tx *stm.Tx) { tr.Delete(tx, k) })
			delete(present, k)
		}
		if i%100 == 0 {
			if err := tr.Validate(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	var n int
	atomically(t, rt, func(tx *stm.Tx) { n = tr.Len(tx) })
	if n != len(present) {
		t.Errorf("len = %d, oracle %d", n, len(present))
	}
	var keys []int64
	atomically(t, rt, func(tx *stm.Tx) { keys = tr.Keys(tx) })
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		t.Error("keys not sorted")
	}
}

// Property: tree matches a map oracle for random op sequences, and
// invariants hold at the end.
func TestRBTreeOracleProperty(t *testing.T) {
	rt := stm.NewDefault()
	f := func(ops []int16) bool {
		tr := NewRBTree[int16]()
		oracle := map[int64]int16{}
		for _, op := range ops {
			k := int64(op % 128)
			if op >= 0 {
				_ = rt.Atomic(func(tx *stm.Tx) error { tr.Insert(tx, k, op); return nil })
				oracle[k] = op
			} else {
				_ = rt.Atomic(func(tx *stm.Tx) error { tr.Delete(tx, k); return nil })
				delete(oracle, k)
			}
		}
		if tr.Validate() != nil {
			return false
		}
		good := true
		_ = rt.Atomic(func(tx *stm.Tx) error {
			if tr.Len(tx) != len(oracle) {
				good = false
			}
			for k, v := range oracle {
				got, ok := tr.Get(tx, k)
				if !ok || got != v {
					good = false
				}
			}
			return nil
		})
		return good
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestRBTreeConcurrent: concurrent random mutations preserve invariants
// and conserve a transactional size counter.
func TestRBTreeConcurrent(t *testing.T) {
	rt := stm.NewDefault()
	tr := NewRBTree[int]()
	var wg sync.WaitGroup
	const workers, per = 6, 150
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := uint64(w + 1)
			next := func(n int) int64 {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return int64(rng % uint64(n))
			}
			for i := 0; i < per; i++ {
				k := next(200)
				if next(2) == 0 {
					_ = rt.Atomic(func(tx *stm.Tx) error { tr.Insert(tx, k, w); return nil })
				} else {
					_ = rt.Atomic(func(tx *stm.Tx) error { tr.Delete(tx, k); return nil })
				}
			}
		}(w)
	}
	wg.Wait()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	var n int
	var keys []int64
	atomically(t, rt, func(tx *stm.Tx) { n = tr.Len(tx); keys = tr.Keys(tx) })
	if n != len(keys) {
		t.Errorf("size counter %d != key count %d", n, len(keys))
	}
}

// TestRBTreeAscendingDescendingInserts: pathological orders stay balanced.
func TestRBTreePathologicalOrders(t *testing.T) {
	rt := stm.NewDefault()
	for name, gen := range map[string]func(i int) int64{
		"ascending":  func(i int) int64 { return int64(i) },
		"descending": func(i int) int64 { return int64(1000 - i) },
		"zigzag":     func(i int) int64 { return int64((i%2)*1000 + i) },
	} {
		t.Run(name, func(t *testing.T) {
			tr := NewRBTree[int]()
			for i := 0; i < 1000; i++ {
				k := gen(i)
				atomically(t, rt, func(tx *stm.Tx) { tr.Insert(tx, k, i) })
			}
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
			// Delete everything, validating along the way.
			for i := 0; i < 1000; i++ {
				k := gen(i)
				atomically(t, rt, func(tx *stm.Tx) { tr.Delete(tx, k) })
				if i%200 == 0 {
					if err := tr.Validate(); err != nil {
						t.Fatalf("after %d deletes: %v", i, err)
					}
				}
			}
			var n int
			atomically(t, rt, func(tx *stm.Tx) { n = tr.Len(tx) })
			if n != 0 {
				t.Errorf("len = %d after deleting all", n)
			}
		})
	}
}
