package main

import (
	"fmt"
	"sync"
	"time"
)

// config sizes one run. The committed benchmark always uses full();
// smoke() exists so the tests can drive every code path in seconds.
type config struct {
	spec      *spec
	probe     *hostProbe
	window    time.Duration // measured window of the untraced run, its probes included
	slice     time.Duration // sampler period
	keys      int           // preloaded keys (a power of two)
	setupReps int           // set-ups timed per run; setup_s is their median
	micro     time.Duration // time budget of one layer microbenchmark
	ladderOps int           // requests applied at each rung of the ladder
	warmDiv   int           // divisor of every fixed warm-up count (1 in the benchmark)
}

// warm scales a workload's fixed warm-up operation count.
func (c *config) warm(n int) int { return max(1, n/c.warmDiv) }

func full(sp *spec, probe *hostProbe, seconds int) *config {
	return &config{
		spec: sp, probe: probe,
		window: time.Duration(seconds) * time.Second, slice: 250 * time.Millisecond,
		keys: 64 << 10, setupReps: 3, micro: 150 * time.Millisecond, ladderOps: 400, warmDiv: 1,
	}
}

func smoke(sp *spec, probe *hostProbe, window time.Duration) *config {
	return &config{
		spec: sp, probe: probe,
		window: window, slice: window / 8,
		keys: 4 << 10, setupReps: 1, micro: 5 * time.Millisecond, ladderOps: 20, warmDiv: 16,
	}
}

// instance is one set-up workload, ready to be measured once.
type instance interface {
	// run measures one window (traced when tr is non-nil) and then
	// checks the workload's outputs, counting failures in the result.
	run(tr *tracer) (*result, error)
	close()
}

// workload is how one of the workloads BENCHMARK.json declares runs.
type workload struct {
	name string // as declared; set when the spec is bound
	// putFrac is the write share of the workload's request mix; the
	// codec microbenchmark and the ladder replay that mix.
	putFrac float64
	zipf    bool
	// setup opens stores, preloads and warms up by operation count, so
	// that work moved into set-up shows in setup_s.
	setup func(cfg *config, in *inputs, tr *tracer) (instance, error)
}

var implementations = map[string]workload{
	"kv-write-sat":    {putFrac: 1, setup: setupKVWriteSat},
	"kv-paced-mixed":  {putFrac: pacedPutFrac, zipf: true, setup: setupKVPacedMixed},
	"mem-point":       {putFrac: memPutFrac, setup: setupMemPoint},
	"mem-scan-writes": {putFrac: 1, setup: setupMemScanWrites},
	"defer-io":        {putFrac: 1, setup: setupDeferIO},
}

// result is what one measured window and its output checks produced.
type result struct {
	ws  windowStats
	lat []time.Duration // client-observed latency, one sample per op or batch
	// perSample is the batch size of a latency sample (0 or 1: one op).
	perSample uint64
	late      []time.Duration // open loops: how late each request was issued

	attempted, failed uint64
	notes             []string // one line per kind of failed check

	layer map[string]float64 // the workload's own per-layer counters
}

// fail counts n failed operations and keeps the reason.
func (r *result) fail(n uint64, format string, args ...any) {
	if n == 0 {
		return
	}
	r.failed += n
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// Trace lanes ("tid") beyond the load threads' own 0 and 1.
const (
	tidDevice = 8 // simio.write / simio.fsync from the backend decorator
	tidLadder = 9 // the ladder's sequential requests
)

// runWorkers runs the functions concurrently and waits for all of them.
func runWorkers(fs ...func()) {
	var wg sync.WaitGroup
	for _, f := range fs {
		wg.Add(1)
		go func() { defer wg.Done(); f() }()
	}
	wg.Wait()
}
