// Thread-scaling workloads behind `stmbench -suite scaling`: where
// stmbench.go measures per-transaction constant factors on fixed thread
// counts, this file measures how throughput moves as threads are added.
// Three workloads cover the transactional-map scaling story:
//
//   - map-read:  read-mostly operations on a pre-sized map — bucket
//     independence; adding threads must not add conflicts.
//   - map-write: insert/delete-heavy operations — every op moves the
//     map's size, so a map with a single global size Var serializes all
//     writers here (the hotspot this suite exists to expose), while
//     striped size counters keep disjoint-key writers conflict-free.
//   - resize-storm: monotonic fresh-key inserts into a deliberately
//     tiny map, forcing repeated load-factor-triggered resizes; the
//     deferred, chunked migration must stay live (throughput > 0 at
//     every thread count) and race/checker-clean.
//
// Each workload runs at every requested thread count and emits one
// StmResult per (workload, threads) pair, named "<workload>/<t>", into
// the same versioned JSON document as the hot-path suite, so scaling
// curves diff row for row under `stmbench -baseline`. On a single-core
// machine the curves collapse (no parallel speedup is physically
// available); the structural counters — aborts per op at t>1 — still
// distinguish a serializing map from a striped one.
package bench

import (
	"runtime"
	"sort"

	"deferstm/internal/ds"
	"deferstm/internal/stm"
)

// ScalingOptions configures a scaling-suite run.
type ScalingOptions struct {
	StmOptions
	// MaxThreads caps the thread counts (CI smoke runs use 2). 0 means
	// no cap beyond the default ladder.
	MaxThreads int
}

// ScalingThreadCounts returns the thread ladder the suite measures:
// 1, 2, 4, ... up to NumCPU (always including 1, 4 and NumCPU — the
// points BENCH_*.json trajectories compare), capped at max when max>0.
func ScalingThreadCounts(max int) []int {
	ncpu := runtime.NumCPU()
	set := map[int]bool{1: true, 2: true, 4: true, ncpu: true}
	for t := 8; t < ncpu; t *= 2 {
		set[t] = true
	}
	out := make([]int, 0, len(set))
	for t := range set {
		if max > 0 && t > max {
			continue
		}
		out = append(out, t)
	}
	sort.Ints(out)
	return out
}

// RunScalingSuite executes the three scaling workloads across the
// thread ladder and returns one result per (workload, threads) pair.
func RunScalingSuite(opts ScalingOptions) []StmResult {
	counts := ScalingThreadCounts(opts.MaxThreads)
	kinds := []struct {
		name  string
		maxN  uint64
		setup func(threads int) (*stm.Runtime, func(n uint64))
	}{
		{name: "map-read", setup: setupMapRead},
		{name: "map-write", setup: setupMapWrite},
		// resize-storm inserts a fresh key per op; cap N so the
		// calibration loop cannot grow the map without bound (and so a
		// map without resize — the pre-resize baseline — finishes its
		// quadratic rounds in bounded time).
		{name: "resize-storm", maxN: 1 << 17, setup: setupResizeStorm},
	}
	out := make([]StmResult, 0, len(kinds)*len(counts))
	for _, k := range kinds {
		for _, t := range counts {
			w := stmWorkload{name: k.name + "/" + itoa(t), threads: t, maxN: k.maxN, setup: k.setup}
			var r StmResult
			withProcs(t, func() { r = measureStm(w, opts.StmOptions) })
			if opts.Logf != nil {
				opts.Logf("%-18s threads=%-2d %10.1f ns/op %7.2f allocs/op %12.0f commits/s aborts=%d",
					r.Name, r.Threads, r.NsPerOp, r.AllocsPerOp, r.CommitsPerSec, r.Aborts)
			}
			out = append(out, r)
		}
	}
	return out
}

// withProcs runs f with GOMAXPROCS raised to min(want, NumCPU),
// restoring the previous value afterwards. Raise-only: a ladder point
// measuring t goroutines needs up to t procs to scale, but lowering the
// user's setting for small points would change scheduler semantics
// mid-suite. Before this helper the whole scaling ladder ran — and its
// trajectory JSON was recorded — at whatever GOMAXPROCS the process
// happened to start with (famously 1), making the "scaling" curves
// time-slicing artifacts; each row now also records the value actually
// in effect (StmResult.GOMAXPROCS).
func withProcs(want int, f func()) {
	if ncpu := runtime.NumCPU(); want > ncpu {
		want = ncpu
	}
	prev := runtime.GOMAXPROCS(0)
	if want > prev {
		runtime.GOMAXPROCS(want)
		defer runtime.GOMAXPROCS(prev)
	}
	f()
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

const (
	scalingKeyspace = 1 << 13 // distinct keys for the steady-state maps
	scalingBuckets  = 1 << 12 // pre-sized so the steady maps never resize
)

// setupMapRead: 90% Get / 10% overwrite Put on a fully populated,
// pre-sized map. Writers touch one bucket each; no size movement.
func setupMapRead(threads int) (*stm.Runtime, func(uint64)) {
	rt := stm.NewDefault()
	m := ds.NewHashMap[int64, int](scalingBuckets)
	populate(rt, m, scalingKeyspace)
	return rt, func(n uint64) {
		runParallel(threads, n, func(g int, per uint64) {
			rng := seedRng(g)
			for i := uint64(0); i < per; i++ {
				k := int64(xorshift(&rng) % scalingKeyspace)
				if xorshift(&rng)%10 == 0 {
					_ = rt.Atomic(func(tx *stm.Tx) error {
						m.Put(tx, k, int(i))
						return nil
					})
				} else {
					_ = rt.Atomic(func(tx *stm.Tx) error {
						v, _ := m.Get(tx, k)
						sink = v
						return nil
					})
				}
			}
		})
	}
}

// setupMapWrite: 80% insert-or-delete toggles (every one moves the
// size) / 20% Get, over a half-populated, pre-sized map. With a global
// size Var this serializes completely; with striped counters the
// toggles conflict only on genuine same-stripe collisions.
func setupMapWrite(threads int) (*stm.Runtime, func(uint64)) {
	rt := stm.NewDefault()
	m := ds.NewHashMap[int64, int](scalingBuckets)
	populate(rt, m, scalingKeyspace/2)
	return rt, func(n uint64) {
		runParallel(threads, n, func(g int, per uint64) {
			rng := seedRng(g)
			for i := uint64(0); i < per; i++ {
				k := int64(xorshift(&rng) % scalingKeyspace)
				if xorshift(&rng)%5 == 0 {
					_ = rt.Atomic(func(tx *stm.Tx) error {
						v, _ := m.Get(tx, k)
						sink = v
						return nil
					})
				} else {
					_ = rt.Atomic(func(tx *stm.Tx) error {
						if _, ok := m.Get(tx, k); ok {
							m.Delete(tx, k)
						} else {
							m.Put(tx, k, int(i))
						}
						return nil
					})
				}
			}
		})
	}
}

// setupResizeStorm: every op inserts a fresh key (per-thread disjoint
// ranges) into a map born at the minimum bucket count, driving it
// through ceaseless load-factor resizes. A fresh map per measured run
// keeps the calibration loop from compounding growth across rounds.
func setupResizeStorm(threads int) (*stm.Runtime, func(uint64)) {
	rt := stm.NewDefault()
	return rt, func(n uint64) {
		m := ds.NewHashMap[int64, int](16)
		runParallel(threads, n, func(g int, per uint64) {
			base := int64(g) << 40
			for i := uint64(0); i < per; i++ {
				k := base + int64(i)
				_ = rt.Atomic(func(tx *stm.Tx) error {
					m.Put(tx, k, 1)
					return nil
				})
			}
		})
	}
}

func populate(rt *stm.Runtime, m *ds.HashMap[int64, int], n int) {
	const chunk = 256
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if err := rt.Atomic(func(tx *stm.Tx) error {
			for k := lo; k < hi; k++ {
				m.Put(tx, int64(k), k)
			}
			return nil
		}); err != nil {
			panic("bench: populate: " + err.Error())
		}
	}
}

func seedRng(g int) uint64 {
	return uint64(g)*0x9E3779B97F4A7C15 + 0x123456789
}

func xorshift(s *uint64) uint64 {
	x := *s
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*s = x
	return x
}
