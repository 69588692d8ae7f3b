// Closes the loop for snapshot mode: every history the runtime records
// under concurrent snapshot scans, transactional writers, StoreDirect
// publishers and forced chain truncation must satisfy the offline
// snapshot-consistency axioms (and all the existing ones). An
// external-test-package sibling of checker_property_test.go for the
// same import-cycle reason.
package stm_test

import (
	"sync"
	"testing"

	"deferstm/internal/check"
	"deferstm/internal/history"
	"deferstm/internal/stm"
)

func runSnapshotMix(t *testing.T, depth int, seed uint64) {
	t.Helper()
	log := history.New()
	rt := stm.New(stm.Config{Recorder: log})
	if depth != 0 {
		stm.SetSnapshotChainDepth(rt, depth)
	}
	const nVars = 5
	vars := make([]*stm.Var[int], nVars)
	for i := range vars {
		vars[i] = stm.NewVar(100)
	}
	// StoreDirect is a plain store: Load-then-StoreDirect on a var the
	// transfers also write would lose a transfer that committed in
	// between and skew the conserved sum for good. Each writer therefore
	// publishes directly only to a counter of its own, which the scans
	// read (so snapshot reads still cross directly-published versions)
	// and check for monotonicity instead of conservation.
	const nWriters = 3
	direct := make([]*stm.Var[int], nWriters)
	for i := range direct {
		direct[i] = stm.NewVar(0)
	}
	var wg sync.WaitGroup
	for w := 0; w < nWriters; w++ {
		wg.Add(1)
		go func(rng uint64) {
			defer wg.Done()
			next := func(n int) int {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return int(rng % uint64(n))
			}
			for op := 0; op < 60; op++ {
				i, j := next(nVars), next(nVars)
				if i == j {
					j = (j + 1) % nVars
				}
				if err := rt.Atomic(func(tx *stm.Tx) error {
					amt := 1 + next(3)
					vars[i].Set(tx, vars[i].Get(tx)-amt)
					vars[j].Set(tx, vars[j].Get(tx)+amt)
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
				if next(8) == 0 {
					direct[w].StoreDirect(rt, direct[w].Load()+1)
				}
			}
		}(seed + uint64(w)*0x9e3779b97f4a7c15 + 1)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var seen, last [nWriters]int
			for op := 0; op < 40; op++ {
				sum := 0
				if err := rt.AtomicSnapshot(func(tx *stm.Tx) error {
					sum = 0
					for _, v := range vars {
						sum += v.Get(tx)
					}
					for i, v := range direct {
						seen[i] = v.Get(tx)
					}
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
				if sum != nVars*100 {
					t.Errorf("inconsistent cut: sum %d, want %d", sum, nVars*100)
					return
				}
				for i := range seen {
					if seen[i] < last[i] {
						t.Errorf("direct counter %d went back from %d to %d between scans", i, last[i], seen[i])
						return
					}
				}
				last = seen
			}
		}()
	}
	wg.Wait()
	r := check.History(log.Events())
	if !r.OK() {
		t.Fatalf("depth %d: recorded snapshot history rejected:\n%s", depth, r)
	}
	s := rt.Snapshot()
	if s.Snapshots+s.SnapshotFallbacks != 80 {
		t.Fatalf("depth %d: %d snapshot commits + %d fallbacks, want 80 scans total",
			depth, s.Snapshots, s.SnapshotFallbacks)
	}
	if depth == 1 && s.SnapshotTruncations == 0 {
		t.Logf("depth 1 run recorded no truncations (timing-dependent); fallbacks=%d", s.SnapshotFallbacks)
	}
}

// TestCheckerAcceptsRecordedSnapshotHistories runs the mix at a depth
// that serves every snapshot and at depth 1, where truncation forces
// overflow fallbacks — the checker must accept both (the fallback
// attempts abort with AbortCauseSnapshot and re-run validating, which
// is exactly the exemption the truncation axiom encodes).
func TestCheckerAcceptsRecordedSnapshotHistories(t *testing.T) {
	for _, depth := range []int{0 /* default 8 */, 1, 64} {
		runSnapshotMix(t, depth, 0xdecafbad+uint64(depth))
	}
}
