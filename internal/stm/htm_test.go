package stm

import (
	"sync"
	"testing"
)

func newHTM(cfg Config) *Runtime {
	cfg.Mode = ModeHTM
	return New(cfg)
}

func TestHTMBasicCommit(t *testing.T) {
	rt := newHTM(Config{})
	v := NewVar(1)
	if err := rt.Atomic(func(tx *Tx) error {
		v.Set(tx, v.Get(tx)+1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := v.Load(); got != 2 {
		t.Errorf("v = %d, want 2", got)
	}
}

// TestHTMCapacityAbortFallsBackToSerial: a transaction whose footprint
// exceeds the simulated capacity must abort twice and then complete in the
// serial fallback (GCC's HTM default of 2 attempts).
func TestHTMCapacityAbortFallsBackToSerial(t *testing.T) {
	rt := newHTM(Config{HTMWriteLines: 4})
	vars := make([]*Var[int], 16)
	for i := range vars {
		vars[i] = NewVar(0)
	}
	wasSerial := false
	if err := rt.Atomic(func(tx *Tx) error {
		for _, v := range vars {
			v.Set(tx, 1)
		}
		wasSerial = tx.serial
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !wasSerial {
		t.Error("oversized HTM transaction did not fall back to serial")
	}
	s := rt.Snapshot()
	if s.AbortsCapacity != 2 {
		t.Errorf("capacity aborts = %d, want 2 (SerializeAfter default)", s.AbortsCapacity)
	}
	if s.Serializations == 0 {
		t.Error("no serialization recorded")
	}
	for i, v := range vars {
		if v.Load() != 1 {
			t.Errorf("vars[%d] = %d, want 1", i, v.Load())
		}
	}
}

// TestHTMTouchOverflow: touching a large private buffer (the dedup
// Compress scenario) overflows capacity even without transactional writes.
func TestHTMTouchOverflow(t *testing.T) {
	rt := newHTM(Config{HTMWriteLines: 8, HTMReadLines: 8})
	v := NewVar(0)
	serial := false
	if err := rt.Atomic(func(tx *Tx) error {
		_ = v.Get(tx)
		tx.HTMTouch(64*1024, 64*1024) // 1024 lines each way
		serial = tx.serial
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !serial {
		t.Error("HTMTouch overflow did not force serial fallback")
	}
	if rt.Snapshot().AbortsCapacity == 0 {
		t.Error("no capacity abort recorded")
	}
}

// TestHTMTouchNoOpInSTM: in STM mode HTMTouch must not abort anything.
func TestHTMTouchNoOpInSTM(t *testing.T) {
	rt := NewDefault()
	before := rt.Snapshot()
	if err := rt.Atomic(func(tx *Tx) error {
		tx.HTMTouch(1<<30, 1<<30)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	d := rt.Snapshot().Sub(before)
	if d.AbortsCapacity != 0 {
		t.Error("HTMTouch aborted an STM transaction")
	}
	if d.Commits != 1 {
		t.Errorf("commits = %d", d.Commits)
	}
}

// TestHTMIrrevocableAbortsToFallback: requesting irrevocability inside a
// hardware transaction aborts it (syscalls abort TSX); the operation
// completes via the serial path.
func TestHTMIrrevocableAbortsToFallback(t *testing.T) {
	rt := newHTM(Config{})
	v := NewVar(0)
	ran := 0
	if err := rt.Atomic(func(tx *Tx) error {
		tx.Irrevocable()
		// Only reachable in serial fallback.
		ran++
		v.Set(tx, ran)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if ran != 1 {
		t.Errorf("irrevocable body ran %d times", ran)
	}
	s := rt.Snapshot()
	if s.AbortsSyscall != 2 {
		t.Errorf("syscall aborts = %d, want 2", s.AbortsSyscall)
	}
	if v.Load() != 1 {
		t.Errorf("v = %d", v.Load())
	}
}

// TestHTMNoQuiesce: hardware commits are privatization-safe, so an HTM
// writer's hook runs without waiting for concurrent transactions.
func TestHTMNoQuiesce(t *testing.T) {
	rt := newHTM(Config{})
	v := NewVar(0)
	other := NewVar(0)
	readerIn := make(chan struct{})
	readerRelease := make(chan struct{})
	var once sync.Once
	go func() {
		_ = rt.Atomic(func(tx *Tx) error {
			_ = other.Get(tx)
			once.Do(func() { close(readerIn) })
			<-readerRelease
			return nil
		})
	}()
	<-readerIn
	hookRan := make(chan struct{})
	if err := rt.Atomic(func(tx *Tx) error {
		v.Set(tx, 1)
		tx.AfterCommit(func() { close(hookRan) })
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-hookRan:
	case <-make(chan struct{}): // unreachable
	}
	close(readerRelease)
	if rt.Snapshot().QuiesceWaits != 0 {
		t.Error("HTM transaction quiesced")
	}
}

// TestHTMConcurrentCounter: correctness under contention with fallbacks.
func TestHTMConcurrentCounter(t *testing.T) {
	rt := newHTM(Config{})
	v := NewVar(0)
	var wg sync.WaitGroup
	const workers, per = 8, 300
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				_ = rt.Atomic(func(tx *Tx) error {
					v.Set(tx, v.Get(tx)+1)
					return nil
				})
			}
		}()
	}
	wg.Wait()
	if got := v.Load(); got != workers*per {
		t.Errorf("v = %d, want %d", got, workers*per)
	}
}
