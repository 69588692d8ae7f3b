// Go benchmarks beside the paper's figures: the motivation figure's
// quiescence stall (Figure 1), the ablations A1-A4, the blocked-reader
// wake-up ladder and runtime micro-benchmarks. Figures 2 and 3 are run
// by cmd/reproduce (DESIGN.md §4 indexes every experiment).
//
// Run: go test -run xxx -bench=. -benchmem
package deferstm_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"deferstm/internal/core"
	"deferstm/internal/stm"
	"deferstm/internal/txlock"
)

// BenchmarkFig1Quiesce — the motivation figure: how long an unrelated
// transaction (T3) stalls in quiescence while another thread (T1) runs a
// long operation inside its transaction vs atomically deferred.
func BenchmarkFig1Quiesce(b *testing.B) {
	longWork := func() {
		deadline := time.Now().Add(200 * time.Microsecond)
		for time.Now().Before(deadline) {
		}
	}
	for _, mode := range []string{"longop-in-tx", "longop-deferred"} {
		b.Run(mode, func(b *testing.B) {
			rt := stm.NewDefault()
			type obj struct {
				core.Deferrable
				c stm.Var[int]
			}
			o := &obj{}
			d := stm.NewVar(0) // T3's unrelated var
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() { // T1: long operation on o.c
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					_ = rt.Atomic(func(tx *stm.Tx) error {
						o.Subscribe(tx)
						o.c.Set(tx, o.c.Get(tx)+1)
						if mode == "longop-in-tx" {
							longWork()
						} else {
							core.AtomicDefer(tx, func(ctx *core.OpCtx) { longWork() }, o)
						}
						return nil
					})
				}
			}()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// T3: writer on unrelated data; its commit quiesces and
				// must wait out T1's in-transaction long op (but not the
				// deferred one).
				_ = rt.Atomic(func(tx *stm.Tx) error {
					d.Set(tx, d.Get(tx)+1)
					return nil
				})
			}
			b.StopTimer()
			close(stop)
			wg.Wait()
		})
	}
}

// BenchmarkAblationSerializeAfter — A1: the GCC serialization threshold
// (§2) on a conflict-heavy counter workload.
func BenchmarkAblationSerializeAfter(b *testing.B) {
	for _, after := range []int{1, 2, 10, 100} {
		b.Run(fmt.Sprintf("after=%d", after), func(b *testing.B) {
			rt := stm.New(stm.Config{SerializeAfter: after})
			v := stm.NewVar(0)
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					_ = rt.Atomic(func(tx *stm.Tx) error {
						v.Set(tx, v.Get(tx)+1)
						return nil
					})
				}
			})
		})
	}
}

// BenchmarkAblationTxLock — A2: transaction-friendly lock vs sync.Mutex
// as a plain mutual-exclusion lock.
func BenchmarkAblationTxLock(b *testing.B) {
	b.Run("txlock", func(b *testing.B) {
		rt := stm.NewDefault()
		l := txlock.NewLock()
		b.RunParallel(func(pb *testing.PB) {
			me := rt.NewOwner()
			for pb.Next() {
				l.AcquireOutside(rt, me)
				if err := l.ReleaseOutside(rt, me); err != nil {
					b.Error(err)
				}
			}
		})
	})
	b.Run("sync.Mutex", func(b *testing.B) {
		var mu sync.Mutex
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				mu.Lock()
				mu.Unlock() //nolint:staticcheck
			}
		})
	})
}

// BenchmarkAblationRetry — A3: blocking retry vs the paper's spinning
// retry on a producer/consumer ping-pong.
func BenchmarkAblationRetry(b *testing.B) {
	for _, spin := range []bool{false, true} {
		name := "blocking"
		if spin {
			name = "spin"
		}
		b.Run(name, func(b *testing.B) {
			rt := stm.New(stm.Config{SpinRetry: spin})
			box := stm.NewVar(0) // 0 = empty, else value
			var wg sync.WaitGroup
			wg.Add(1)
			go func() { // consumer
				defer wg.Done()
				for i := 0; i < b.N; i++ {
					_ = rt.Atomic(func(tx *stm.Tx) error {
						if box.Get(tx) == 0 {
							tx.Retry()
						}
						box.Set(tx, 0)
						return nil
					})
				}
			}()
			for i := 0; i < b.N; i++ { // producer
				_ = rt.Atomic(func(tx *stm.Tx) error {
					if box.Get(tx) != 0 {
						tx.Retry()
					}
					box.Set(tx, i+1)
					return nil
				})
			}
			wg.Wait()
		})
	}
}

// BenchmarkRetryWakeup — beside A3, the blocked-reader wake-up ladder:
// 1, 4 and 16 readers park on a counter while one writer increments it
// b.N times, and every commit wakes all of them. wake_p99_ns is the
// propagation delay (the waking commit's broadcast → the parked
// transaction running again, stm.Metrics.WakeLatency) — what a
// server's tail latency inherits from the blocking retry path.
func BenchmarkRetryWakeup(b *testing.B) {
	for _, readers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("readers=%d", readers), func(b *testing.B) {
			rt := stm.NewDefault()
			met := stm.NewMetrics(nil)
			rt.SetMetrics(met)
			v := stm.NewVar(uint64(0))
			chase := func(n uint64) {
				start := v.Load()
				target := start + n
				var wg sync.WaitGroup
				for r := 0; r < readers; r++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for seen := start; seen < target; {
							_ = rt.Atomic(func(tx *stm.Tx) error {
								cur := v.Get(tx)
								if cur <= seen {
									tx.Retry()
								}
								seen = cur
								return nil
							})
						}
					}()
				}
				for i := uint64(0); i < n; i++ {
					_ = rt.Atomic(func(tx *stm.Tx) error {
						v.Set(tx, v.Get(tx)+1)
						return nil
					})
				}
				wg.Wait()
			}
			chase(16) // warm-up: descriptor pools, the Var's watch set
			before := met.WakeLatency.Snapshot()
			b.ResetTimer()
			chase(uint64(b.N))
			b.StopTimer()
			if wake := met.WakeLatency.Snapshot().Delta(before); wake.Count > 0 {
				b.ReportMetric(wake.Quantile(0.99), "wake_p99_ns")
			}
		})
	}
}

// BenchmarkAblationHTMCapacity — A4: a fixed in-transaction buffer
// footprint against varying simulated HTM capacities: once the footprint
// exceeds capacity every transaction serializes; deferring the touch
// avoids it at any capacity.
func BenchmarkAblationHTMCapacity(b *testing.B) {
	const footprint = 48 * 1024 // bytes touched by the "pure function"
	for _, lines := range []int{256, 512, 1024, 2048} {
		for _, deferred := range []bool{false, true} {
			name := fmt.Sprintf("capacity=%d/deferred=%v", lines, deferred)
			b.Run(name, func(b *testing.B) {
				rt := stm.New(stm.Config{Mode: stm.ModeHTM, HTMWriteLines: lines, HTMReadLines: 4 * lines})
				type obj struct {
					core.Deferrable
					c stm.Var[int]
				}
				o := &obj{}
				for i := 0; i < b.N; i++ {
					_ = rt.Atomic(func(tx *stm.Tx) error {
						o.Subscribe(tx)
						o.c.Set(tx, o.c.Get(tx)+1)
						if deferred {
							core.AtomicDefer(tx, func(ctx *core.OpCtx) {
								// touch happens outside the hardware
								// transaction
							}, o)
						} else {
							tx.HTMTouch(footprint, footprint)
						}
						return nil
					})
				}
				b.ReportMetric(float64(rt.Snapshot().SerialRuns)/float64(b.N), "serial/op")
			})
		}
	}
}

// BenchmarkSTMReadOnly — runtime micro: read-only transaction cost per
// read-set size.
func BenchmarkSTMReadOnly(b *testing.B) {
	for _, n := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("reads=%d", n), func(b *testing.B) {
			rt := stm.NewDefault()
			vars := make([]*stm.Var[int], n)
			for i := range vars {
				vars[i] = stm.NewVar(i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = rt.Atomic(func(tx *stm.Tx) error {
					s := 0
					for _, v := range vars {
						s += v.Get(tx)
					}
					return nil
				})
			}
		})
	}
}

// BenchmarkSTMCounterContended — runtime micro: contended read-modify-
// write throughput.
func BenchmarkSTMCounterContended(b *testing.B) {
	rt := stm.NewDefault()
	v := stm.NewVar(0)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			_ = rt.Atomic(func(tx *stm.Tx) error {
				v.Set(tx, v.Get(tx)+1)
				return nil
			})
		}
	})
}

// BenchmarkDeferOverhead — the constant per-transaction cost of an
// atomic_defer (lock acquire + hook + release) vs a bare transaction,
// the overhead visible at 1 thread in Figure 2.
func BenchmarkDeferOverhead(b *testing.B) {
	type obj struct {
		core.Deferrable
		c stm.Var[int]
	}
	b.Run("bare", func(b *testing.B) {
		rt := stm.NewDefault()
		o := &obj{}
		for i := 0; i < b.N; i++ {
			_ = rt.Atomic(func(tx *stm.Tx) error {
				o.c.Set(tx, i)
				return nil
			})
		}
	})
	b.Run("with-defer", func(b *testing.B) {
		rt := stm.NewDefault()
		o := &obj{}
		for i := 0; i < b.N; i++ {
			_ = rt.Atomic(func(tx *stm.Tx) error {
				o.c.Set(tx, i)
				core.AtomicDefer(tx, func(ctx *core.OpCtx) {}, o)
				return nil
			})
		}
	})
}
