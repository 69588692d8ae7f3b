package stm

import (
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSnapshotPinnedValueBasic: a snapshot transaction keeps observing
// the values committed at its pin even after a writer overwrites them
// mid-scan — the chain-resolved read, not the current value.
func TestSnapshotPinnedValueBasic(t *testing.T) {
	rt := NewDefault()
	a, b := NewVar(0), NewVar(0)
	write := make(chan struct{})
	written := make(chan struct{})
	go func() {
		<-write
		if err := rt.Atomic(func(tx *Tx) error {
			a.Set(tx, 1)
			b.Set(tx, 1)
			return nil
		}); err != nil {
			t.Error(err)
		}
		close(written)
	}()
	first := true
	var gotA, gotB int
	if err := rt.AtomicSnapshot(func(tx *Tx) error {
		gotA = a.Get(tx)
		if first {
			first = false
			close(write)
			<-written
		}
		gotB = b.Get(tx)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if gotA != 0 || gotB != 0 {
		t.Fatalf("snapshot read (%d,%d) across a concurrent commit, want (0,0)", gotA, gotB)
	}
	if a.Load() != 1 || b.Load() != 1 {
		t.Fatalf("writer's commit lost: (%d,%d)", a.Load(), b.Load())
	}
	s := rt.Snapshot()
	if s.Snapshots != 1 || s.SnapshotFallbacks != 0 {
		t.Fatalf("stats: %d snapshots, %d fallbacks; want 1, 0", s.Snapshots, s.SnapshotFallbacks)
	}
	if s.SnapshotReads != 2 {
		t.Fatalf("stats: %d snapshot reads, want 2", s.SnapshotReads)
	}
}

// TestSnapshotOverflowFallback: a reader slower than the chain depth
// triggers the validating fallback — never a wrong value. With depth 1,
// three commits between the pin and the read truncate the version the
// pin needs; the attempt aborts with abortSnapshot and fn re-runs on
// the ordinary read-only path, observing the latest value.
func TestSnapshotOverflowFallback(t *testing.T) {
	rt := NewDefault()
	rt.snapDepth = 1
	a := NewVar(0)
	runs := 0
	var got int
	if err := rt.AtomicSnapshot(func(tx *Tx) error {
		runs++
		if runs == 1 {
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 1; i <= 3; i++ {
					if err := rt.Atomic(func(tx *Tx) error {
						a.Set(tx, i)
						return nil
					}); err != nil {
						t.Error(err)
					}
				}
			}()
			<-done
		}
		got = a.Get(tx)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if runs != 2 {
		t.Fatalf("fn ran %d times, want 2 (snapshot attempt + fallback)", runs)
	}
	if got != 3 {
		t.Fatalf("fallback read %d, want the latest value 3", got)
	}
	s := rt.Snapshot()
	if s.SnapshotFallbacks != 1 {
		t.Fatalf("stats: %d fallbacks, want 1", s.SnapshotFallbacks)
	}
	if s.Snapshots != 0 {
		t.Fatalf("stats: %d snapshot commits, want 0 (the attempt fell back)", s.Snapshots)
	}
	if s.SnapshotTruncations == 0 {
		t.Fatal("stats: no truncations recorded; the depth bound must have dropped a needed node")
	}
}

// TestSnapshotZeroAbortScanUnderWriters: the headline property — long
// scans over a write-hot keyspace commit in snapshot mode with zero
// aborts and zero fallbacks (the chain is deep enough), and every scan
// observes a consistent cut (writers preserve the bank invariant).
func TestSnapshotZeroAbortScanUnderWriters(t *testing.T) {
	rt := NewDefault()
	rt.snapDepth = 4096
	const nVars, each = 16, 1000
	vars := make([]*Var[int], nVars)
	for i := range vars {
		vars[i] = NewVar(each)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				i, j := rng.Intn(nVars), rng.Intn(nVars)
				if i == j {
					continue
				}
				if err := rt.Atomic(func(tx *Tx) error {
					amt := 1 + rng.Intn(5)
					vars[i].Set(tx, vars[i].Get(tx)-amt)
					vars[j].Set(tx, vars[j].Get(tx)+amt)
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(w) + 42)
	}
	const scans = 200
	for s := 0; s < scans; s++ {
		sum := 0
		if err := rt.AtomicSnapshot(func(tx *Tx) error {
			sum = 0
			for _, v := range vars {
				sum += v.Get(tx)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if sum != nVars*each {
			t.Fatalf("scan %d saw an inconsistent cut: sum %d, want %d", s, sum, nVars*each)
		}
	}
	close(stop)
	wg.Wait()
	st := rt.Snapshot()
	if st.Snapshots != scans {
		t.Fatalf("stats: %d snapshot commits, want %d", st.Snapshots, scans)
	}
	if st.SnapshotFallbacks != 0 {
		t.Fatalf("stats: %d fallbacks under a 4096-deep chain, want 0", st.SnapshotFallbacks)
	}
}

// TestSnapshotTruncationSoak: shallow chains, concurrent snapshots,
// transactional writers, StoreDirect publishers and quiescence all at
// once. Every scan — snapshot-served or fallen back — must still see
// the invariant; run with -race this doubles as the chain-mutation
// memory-model check.
func TestSnapshotTruncationSoak(t *testing.T) {
	rt := NewDefault()
	rt.snapDepth = 2
	const nVars = 8
	vars := make([]*Var[int], nVars)
	var direct Var[int] // StoreDirect target, outside the invariant
	for i := range vars {
		vars[i] = NewVar(100)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				i, j := rng.Intn(nVars), (rng.Intn(nVars-1)+1+rng.Intn(nVars))%nVars
				if i == j {
					j = (j + 1) % nVars
				}
				if err := rt.Atomic(func(tx *Tx) error {
					vars[i].Set(tx, vars[i].Get(tx)-1)
					vars[j].Set(tx, vars[j].Get(tx)+1)
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
				direct.StoreDirect(rt, rng.Int())
			}
		}(int64(w) + 7)
	}
	var scanErr atomic.Value
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			deadline := time.Now().Add(150 * time.Millisecond)
			for time.Now().Before(deadline) {
				sum := 0
				if err := rt.AtomicSnapshot(func(tx *Tx) error {
					sum = 0
					for _, v := range vars {
						sum += v.Get(tx)
					}
					_ = direct.Get(tx)
					return nil
				}); err != nil {
					scanErr.Store(err)
					return
				}
				if sum != nVars*100 {
					t.Errorf("inconsistent cut: sum %d, want %d", sum, nVars*100)
					return
				}
			}
		}()
	}
	time.Sleep(160 * time.Millisecond)
	close(stop)
	wg.Wait()
	if err := scanErr.Load(); err != nil {
		t.Fatal(err)
	}
	if rt.ActiveSnapshots() != 0 {
		t.Fatalf("%d snapshots still registered after the soak", rt.ActiveSnapshots())
	}
	if h := rt.snapHorizon.Load(); h != noSnapshotHorizon {
		t.Fatalf("horizon %d after all snapshots ended, want cleared", h)
	}
}

// TestSnapshotRetryFallsBack: Retry inside a snapshot cannot park (the
// pinned world never changes), so it aborts to the validating path,
// where the watcher machinery blocks until the condition holds.
func TestSnapshotRetryFallsBack(t *testing.T) {
	rt := NewDefault()
	flag := NewVar(false)
	go func() {
		time.Sleep(20 * time.Millisecond)
		flag.StoreDirect(rt, true)
	}()
	if err := rt.AtomicSnapshot(func(tx *Tx) error {
		if !flag.Get(tx) {
			tx.Retry()
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if s := rt.Snapshot(); s.SnapshotFallbacks != 1 {
		t.Fatalf("stats: %d fallbacks, want 1 (Retry forced the validating path)", s.SnapshotFallbacks)
	}
}

// Mutating entry points panic deterministically inside a snapshot —
// and identically on its fallback attempt, because the transaction
// stays read-only across the mode switch.
func TestSnapshotMutationPanics(t *testing.T) {
	rt := NewDefault()
	v := NewVar(0)
	cases := []struct {
		name string
		body func(tx *Tx)
		want string
	}{
		{"Set", func(tx *Tx) { v.Set(tx, 1) }, "write inside a snapshot"},
		{"AfterCommit", func(tx *Tx) { tx.AfterCommit(func() {}) }, "AfterCommit inside a snapshot"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s inside a snapshot did not panic", c.name)
				}
				if msg, ok := r.(string); !ok || !strings.Contains(msg, c.want) {
					t.Fatalf("panic %v, want message containing %q", r, c.want)
				}
			}()
			_ = rt.AtomicSnapshot(func(tx *Tx) error {
				c.body(tx)
				return nil
			})
		})
	}
}

// TestSnapshotStoreDirectChains: non-transactional StoreDirect
// publishes also link the superseded value for active snapshots.
func TestSnapshotStoreDirectChains(t *testing.T) {
	rt := NewDefault()
	v := NewVar(10)
	first := true
	var got int
	if err := rt.AtomicSnapshot(func(tx *Tx) error {
		if first {
			first = false
			done := make(chan struct{})
			go func() { v.StoreDirect(rt, 20); close(done) }()
			<-done
		}
		got = v.Get(tx)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != 10 {
		t.Fatalf("snapshot read %d across a StoreDirect, want the pinned 10", got)
	}
	if v.Load() != 20 {
		t.Fatalf("StoreDirect lost: %d", v.Load())
	}
}

// TestSnapshotIdleChainsCleared: once no snapshot is registered, the
// next publish to a var drops its retained chain — idle memory is one
// value per var again.
func TestSnapshotIdleChainsCleared(t *testing.T) {
	rt := NewDefault()
	v := NewVar(0)
	block := make(chan struct{})
	entered := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		first := true
		done <- rt.AtomicSnapshot(func(tx *Tx) error {
			_ = v.Get(tx)
			if first {
				first = false
				close(entered)
				<-block
			}
			return nil
		})
	}()
	<-entered
	for i := 1; i <= 3; i++ {
		if err := rt.Atomic(func(tx *Tx) error {
			v.Set(tx, i)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if v.m.histHead() == nil {
		t.Fatal("no chain retained while a snapshot was registered")
	}
	close(block)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := rt.Atomic(func(tx *Tx) error {
		v.Set(tx, 99)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if v.m.histHead() != nil {
		t.Fatal("chain not dropped by the first publish after the last snapshot ended")
	}
}

// TestSnapshotSerialWriterVisibility: serial-mode commits publish with
// the lock bit held so concurrent snapshot readers (which bypass the
// serial drain entirely) cannot tear across the multi-var write-back.
func TestSnapshotSerialWriterVisibility(t *testing.T) {
	rt := NewDefault()
	const nVars = 8
	vars := make([]*Var[int], nVars)
	for i := range vars {
		vars[i] = NewVar(0)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 1; ; round++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := rt.AtomicSerial(func(tx *Tx) error {
				for _, v := range vars {
					v.Set(tx, round)
				}
				return nil
			}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	deadline := time.Now().Add(100 * time.Millisecond)
	for time.Now().Before(deadline) {
		vals := make([]int, nVars)
		if err := rt.AtomicSnapshot(func(tx *Tx) error {
			for i, v := range vars {
				vals[i] = v.Get(tx)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := 1; i < nVars; i++ {
			if vals[i] != vals[0] {
				t.Fatalf("torn snapshot across a serial commit: %v", vals)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestReadOnlyAllocFreeAfterSnapshots re-pins the plain read-only hot
// path at zero allocations after snapshot traffic has come and gone:
// chains, the horizon word and the registry must cost the ordinary
// path nothing.
func TestReadOnlyAllocFreeAfterSnapshots(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; bound holds only unraced")
	}
	rt := NewDefault()
	var vars [8]*Var[int]
	for i := range vars {
		vars[i] = NewVar(i)
	}
	body := func(tx *Tx) error {
		s := 0
		for _, v := range vars {
			s += v.Get(tx)
		}
		allocSink = s
		return nil
	}
	for i := 0; i < 8; i++ {
		if err := rt.AtomicSnapshot(body); err != nil {
			t.Fatal(err)
		}
		if err := rt.Atomic(func(tx *Tx) error {
			vars[i%len(vars)].Set(tx, i)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 32; i++ {
		if err := rt.Atomic(body); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := rt.Atomic(body); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("read-only Atomic allocates %.1f objects/op after snapshot traffic, want 0", n)
	}
}
