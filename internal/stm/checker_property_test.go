// Property tests that close the loop between the runtime, the history
// recorder, the fault injector and the offline checker: every history
// the runtime produces — under forced aborts, delayed write-back and
// widened deferral windows, in both STM and simulated-HTM mode — must
// satisfy serializability, opacity, deferral atomicity and two-phase
// locking. This file is an external-test-package sibling of
// property_test.go because it imports internal/check and internal/core,
// which themselves depend on this package.
package stm_test

import (
	"sync"
	"testing"
	"testing/quick"

	"deferstm/internal/check"
	"deferstm/internal/core"
	"deferstm/internal/history"
	"deferstm/internal/stm"
)

type checkedPair struct {
	core.Deferrable
	a, b stm.Var[int]
}

// runCheckedMix drives a random mix of transfers, read-only audits,
// user aborts and atomic deferrals against a recording runtime with
// fault injection, then runs the checker over the recorded history.
func runCheckedMix(t *testing.T, mode stm.Mode, seed uint64, workers, opsPerWorker int) {
	t.Helper()
	log := history.New()
	rt := stm.New(stm.Config{
		Mode:     mode,
		Recorder: log,
		Inject: &stm.Inject{
			Seed:              seed,
			ConflictPct:       20,
			CapacityPct:       3,
			WriteBackDelayPct: 10,
			QuiesceStallPct:   10,
			PreHookStallPct:   25,
			StallSpins:        512,
		},
	})

	const nVars = 6
	vars := make([]*stm.Var[int], nVars)
	for i := range vars {
		vars[i] = stm.NewVar(100)
	}
	pair := &checkedPair{}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := seed + uint64(w)*0x9e3779b97f4a7c15 + 1
			next := func(n int) int {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return int(rng % uint64(n))
			}
			for i := 0; i < opsPerWorker; i++ {
				switch next(10) {
				case 0, 1, 2, 3: // transfer
					from, to := next(nVars), next(nVars)
					if from == to {
						continue
					}
					_ = rt.Atomic(func(tx *stm.Tx) error {
						f := vars[from].Get(tx)
						vars[from].Set(tx, f-1)
						vars[to].Set(tx, vars[to].Get(tx)+1)
						return nil
					})
				case 4, 5: // read-only audit
					_ = rt.Atomic(func(tx *stm.Tx) error {
						s := 0
						for _, v := range vars {
							s += v.Get(tx)
						}
						return nil
					})
				case 6: // user abort (discards everything)
					_ = rt.Atomic(func(tx *stm.Tx) error {
						vars[next(nVars)].Set(tx, -1)
						return errAbandon
					})
				case 7, 8: // atomic deferral on the pair
					_ = rt.Atomic(func(tx *stm.Tx) error {
						pair.Subscribe(tx)
						v := pair.a.Get(tx) + 1
						pair.a.Set(tx, v)
						core.AtomicDefer(tx, func(ctx *core.OpCtx) {
							core.Store(ctx, &pair.b, v)
						}, pair)
						return nil
					})
				default: // subscribing reader of the pair
					var a, b int
					_ = rt.Atomic(func(tx *stm.Tx) error {
						pair.Subscribe(tx)
						a = pair.a.Get(tx)
						b = pair.b.Get(tx)
						return nil
					})
					if a != b {
						t.Errorf("deferral invariant broken: a=%d b=%d", a, b)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	snap := rt.Snapshot()
	if snap.InjectedFaults == 0 {
		t.Error("fault injector fired no faults; schedule was not adversarial")
	}
	rep := check.History(log.Events())
	if !rep.OK() {
		t.Fatalf("checker rejected a recorded %s history (seed %d):\n%s", mode, seed, rep)
	}
	total := 0
	for _, v := range vars {
		total += v.Load()
	}
	if total != nVars*100 {
		t.Fatalf("transfers lost money: total %d", total)
	}
}

var errAbandon = errNamed("abandon")

type errNamed string

func (e errNamed) Error() string { return string(e) }

// Property: histories recorded under injected faults pass the checker,
// for both execution modes and arbitrary seeds.
func TestCheckerAcceptsInjectedHistoriesProperty(t *testing.T) {
	for _, mode := range []stm.Mode{stm.ModeSTM, stm.ModeHTM} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			f := func(seed uint32) bool {
				runCheckedMix(t, mode, uint64(seed), 4, 120)
				return !t.Failed()
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
				t.Error(err)
			}
		})
	}
}

// A fixed-seed smoke variant that always runs, so `go test -run
// TestCheckerSmoke` exercises the full pipeline deterministically.
func TestCheckerSmoke(t *testing.T) {
	runCheckedMix(t, stm.ModeSTM, 1, 4, 200)
	runCheckedMix(t, stm.ModeHTM, 1, 4, 200)
}
