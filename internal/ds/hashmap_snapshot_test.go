package ds

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deferstm/internal/check"
	"deferstm/internal/history"
	"deferstm/internal/stm"
)

// snapshotScan delivers one consistent cut of m to fn: Range inside a
// snapshot-mode transaction (stm.AtomicSnapshot), collected per attempt
// and delivered once after it succeeded — the runtime re-runs the closure
// on the validating path when the version chains cannot serve the pin
// (depth overflow, or a migration chunk held the map's lock), and
// streaming fn from inside it would observe keys twice. kv.Store.Scan is
// the same pattern over a store's shards.
func snapshotScan[K, V comparable](rt *stm.Runtime, m *HashMap[K, V], fn func(k K, v V) bool) error {
	type entry struct {
		k K
		v V
	}
	var cut []entry
	err := rt.AtomicSnapshot(func(tx *stm.Tx) error {
		cut = cut[:0]
		m.Range(tx, func(k K, v V) bool {
			cut = append(cut, entry{k, v})
			return true
		})
		return nil
	})
	if err != nil {
		return err
	}
	for _, e := range cut {
		if !fn(e.k, e.v) {
			break
		}
	}
	return nil
}

// TestSnapshotRangeDuringResize tortures the abort-free scan against a
// migrating map: transfer writers conserve a sum across hot account
// keys, a filler thread forces chunked resizes underneath, and scanner
// threads run snapshotScan the whole time. Every scan must observe
//
//   - each key at most once — during migration a key lives in either
//     the new table or the un-migrated old region, and a scan that
//     catches a rehash chunk mid-flight must not see both copies;
//   - the exact conserved sum — half-applied transfers may never leak
//     into a snapshot, whichever path (snapshot or validating
//     fallback) served it;
//   - a per-scan monotone epoch — later scans pin later instants.
//
// The whole run records onto a checker runtime, so the history —
// scans, transfers, and the migrator's deferred rehash chunks — also
// has to pass the serializability/opacity/deferral axioms offline.
func TestSnapshotRangeDuringResize(t *testing.T) {
	const (
		accounts = 64
		perAcct  = 100
		total    = accounts * perAcct
		epochKey = int64(-1)
		writers  = 2
		scanners = 2
	)
	log := history.New()
	rt := stm.New(stm.Config{Recorder: log})
	m := NewHashMap[int64, int64](16)
	if err := rt.Atomic(func(tx *stm.Tx) error {
		m.Put(tx, epochKey, 0)
		for k := int64(0); k < accounts; k++ {
			m.Put(tx, k, perAcct)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	var (
		stop    atomic.Bool
		scans   atomic.Uint64
		errOnce sync.Once
		failMsg atomic.Value
	)
	report := func(format string, args ...any) {
		errOnce.Do(func() { failMsg.Store(fmt.Sprintf(format, args...)) })
		stop.Store(true)
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := uint64(w)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
			next := func() uint64 {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return rng
			}
			for i := 0; !stop.Load(); i++ {
				from := int64(next() % accounts)
				to := int64(next() % accounts)
				amt := int64(next()%7) + 1
				if err := rt.Atomic(func(tx *stm.Tx) error {
					vf, _ := m.Get(tx, from)
					if vf < amt || from == to {
						return nil
					}
					vt, _ := m.Get(tx, to)
					m.Put(tx, from, vf-amt)
					m.Put(tx, to, vt+amt)
					e, _ := m.Get(tx, epochKey)
					m.Put(tx, epochKey, e+1)
					return nil
				}); err != nil {
					report("transfer: %v", err)
				}
			}
		}(w)
	}

	// Filler: monotonic inserts of sentinel-valued keys far outside the
	// account range, enough volume to drive the 16-bucket map through
	// several chunked migrations while the scans run — and no more: the map
	// keeps about a bucket per key and a scan records a read per bucket, so
	// an unbounded filler would hand the checker millions of events.
	const fillerKeys = 4096
	var filled atomic.Bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer filled.Store(true)
		for k := int64(1 << 20); !stop.Load() && k < 1<<20+fillerKeys; k += 16 {
			if err := rt.Atomic(func(tx *stm.Tx) error {
				for j := int64(0); j < 16; j++ {
					m.Put(tx, k+j, -7)
				}
				return nil
			}); err != nil {
				report("filler: %v", err)
			}
		}
	}()

	for sc := 0; sc < scanners; sc++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lastEpoch := int64(-1)
			seen := make(map[int64]struct{}, 4096)
			for !stop.Load() {
				clear(seen)
				var sum, epoch int64
				err := snapshotScan(rt, m, func(k int64, v int64) bool {
					if _, dup := seen[k]; dup {
						report("scan observed key %d twice (resizes=%d, migrating=%v)",
							k, m.Resizes(), m.Migrating())
						return false
					}
					seen[k] = struct{}{}
					switch {
					case k == epochKey:
						epoch = v
					case k < accounts:
						sum += v
					case v != -7:
						report("filler key %d = %d, want -7", k, v)
						return false
					}
					return true
				})
				if err != nil {
					report("scan: %v", err)
					return
				}
				if sum != total {
					report("scan saw a torn transfer: sum = %d, want %d (epoch %d, resizes=%d)",
						sum, total, epoch, m.Resizes())
				}
				if epoch < lastEpoch {
					report("epoch ran backwards across scans: %d after %d", epoch, lastEpoch)
				}
				lastEpoch = epoch
				scans.Add(1)
			}
		}()
	}

	deadline := time.Now().Add(20 * time.Second)
	for !stop.Load() && (m.Resizes() < 3 && !filled.Load() || scans.Load() < 100) {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	if msg := failMsg.Load(); msg != nil {
		t.Fatal(msg)
	}
	waitSettled(t, m)
	if m.Resizes() < 1 {
		t.Fatalf("no resize completed; the torture never crossed a migration (scans=%d)", scans.Load())
	}
	if scans.Load() == 0 {
		t.Fatal("no scan completed")
	}
	t.Logf("scans=%d resizes=%d snapshots=%d fallbacks=%d",
		scans.Load(), m.Resizes(), rt.Snapshot().Snapshots, rt.Snapshot().SnapshotFallbacks)

	rep := check.History(log.Events())
	if !rep.OK() {
		t.Fatalf("checker rejected the snapshot-scan history:\n%s", rep)
	}
}

// TestSnapshotRangeAllocConstant: a Range inside a snapshot-mode
// transaction allocates nothing — a snapshot read records no read set —
// so a scan's allocations are its caller's cut alone
// (kv.TestScanAllocConstant pins kv.Store.Scan's at zero).
func TestSnapshotRangeAllocConstant(t *testing.T) {
	const n = 1 << 16
	rt, m := stm.NewDefault(), NewHashMap[int64, int64](16)
	for lo := int64(0); lo < n; lo += 1024 {
		if err := rt.Atomic(func(tx *stm.Tx) error {
			for k := lo; k < lo+1024; k++ {
				m.Put(tx, k, k)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	waitSettled(t, m)
	seen := 0
	count := func(_, _ int64) bool { seen++; return true }
	scan := func(tx *stm.Tx) error { m.Range(tx, count); return nil }
	run := func() {
		seen = 0
		if err := rt.AtomicSnapshot(scan); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if seen != n {
		t.Fatalf("scan saw %d keys, want %d", seen, n)
	}
	if got := testing.AllocsPerRun(5, run); got > 0 {
		t.Fatalf("snapshot Range over %d keys performs %.0f allocations, want 0", n, got)
	}
}
