package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of sorted by linear
// interpolation between closest ranks; 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// durationsUS sorts durations and converts them to microseconds.
func durationsUS(d []time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, x := range d {
		out[i] = float64(x) / 1e3
	}
	sort.Float64s(out)
	return out
}

// slice is one sampler period of the measured window: how long it
// lasted, the operations completed in it and the process CPU it used.
type slice struct {
	dt  time.Duration
	ops uint64
	cpu time.Duration
}

// sliceStats are the window's median slices: operations per second and
// CPU µs per operation, both as measured. One stalled slice moves
// neither; the reference clock (hostClock) is applied afterwards.
type sliceStats struct {
	rate, cpu float64
}

func reduceSlices(slices []slice) sliceStats {
	var rates, cpus []float64
	for _, s := range slices {
		if s.dt <= 0 {
			continue
		}
		rates = append(rates, float64(s.ops)/s.dt.Seconds())
		if s.ops > 0 {
			cpus = append(cpus, float64(s.cpu)/1e3/float64(s.ops))
		}
	}
	return sliceStats{rate: median(rates), cpu: median(cpus)}
}

// hostClock is the run's reference clock. wall and cpu are the run's host
// factors: how much longer than on the reference host the probe took, by
// the wall clock and by its threads' CPU clocks (each the median of the
// run's probes over the probe's nominal time). Time the process spent
// computing is worth 1/wall of itself on the reference host; time it
// spent waiting — for the simulated device, for a schedule — is worth
// itself. A process that keeps a whole CPU or more busy over an interval
// is limited by how fast the host computes, whichever of its threads is
// on the critical path; one that keeps a share util of one CPU busy
// waited for the rest. The interval therefore shrinks by scale(util).
type hostClock struct{ wall, cpu float64 }

func (ws *windowStats) clock() hostClock {
	wall, cpu := make([]float64, len(ws.probes)), make([]float64, len(ws.probes))
	for i, p := range ws.probes {
		wall[i], cpu[i] = float64(p.wall), float64(p.cpu)
	}
	c := hostClock{wall: median(wall) / float64(ws.nominal), cpu: median(cpu) / float64(ws.nominal)}
	if c.cpu == 0 {
		c.cpu = c.wall // the smoke pass's probes are shorter than the CPU clock's resolution
	}
	return c
}

func (c hostClock) scale(util float64) float64 {
	util = math.Min(util, 1)
	return 1 - util + util/c.wall
}

// utilization is how many CPUs an interval kept busy.
func utilization(cpu, wall time.Duration) float64 { return ratio(cpu.Seconds(), wall.Seconds()) }

// processCPU is user+system CPU time consumed by this process so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// gcCPUSeconds is the cumulative CPU the garbage collector has used.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// paddedCounter keeps each load thread's completed-op count on its own
// cache line so the harness adds no shared store to the measured path.
type paddedCounter struct {
	n atomic.Uint64
	_ [56]byte
}

// load is the state shared between a window's workers and its sampler.
type load struct {
	done  atomic.Bool // set when the window ends; closed loops poll it
	count [loadThreads]paddedCounter
}

func (l *load) total() uint64 {
	var n uint64
	for i := range l.count {
		n += l.count[i].n.Load()
	}
	return n
}

// windowStats is what the sampler saw over one measured window.
type windowStats struct {
	slices  []slice
	probes  []probeTime   // the host probes around and between the parts
	nominal time.Duration // a probe's time on the reference host
	elapsed time.Duration // measured time: the parts, without the probes
	ops     uint64
	cpu     time.Duration // process CPU over the measured time
	// completed and mallocs span the whole window, the drain after each
	// part included, so that their ratio is exact.
	completed uint64
	mallocs   uint64
	gcCPU     float64 // seconds
}

// partSlices is how many slices lie between two host probes.
const partSlices = 3

// runWindow measures cfg.window in parts of partSlices slices with a host
// probe before, between and after them, so that the probes see the host
// the workload saw. Each part starts a fresh set of workers (last marks
// the final part), samples completed operations, CPU and the clock at
// every slice boundary, then raises l.done and waits for the workers to
// return. Workers of an open loop ignore done and return when their
// schedule for the part is exhausted and drained.
func runWindow(cfg *config, l *load, workers func(part time.Duration, last bool) []func()) windowStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ws := windowStats{nominal: cfg.probe.nominal(), completed: l.total(), mallocs: ms.Mallocs, gcCPU: gcCPUSeconds()}

	part := partSlices * cfg.slice
	parts := max(1, int(cfg.window/(part+cfg.probe.nominal())))
	ws.probes = append(ws.probes, cfg.probe.run())
	for p := 0; p < parts; p++ {
		l.done.Store(false)
		var wg sync.WaitGroup
		at, ops, cpu := time.Now(), l.total(), processCPU()
		for _, w := range workers(part, p == parts-1) {
			wg.Add(1)
			go func() { defer wg.Done(); w() }()
		}
		tick := time.NewTicker(cfg.slice)
		for i := 0; i < partSlices; i++ {
			<-tick.C
			at1, ops1, cpu1 := time.Now(), l.total(), processCPU()
			ws.slices = append(ws.slices, slice{dt: at1.Sub(at), ops: ops1 - ops, cpu: cpu1 - cpu})
			ws.elapsed, ws.ops, ws.cpu = ws.elapsed+at1.Sub(at), ws.ops+ops1-ops, ws.cpu+cpu1-cpu
			at, ops, cpu = at1, ops1, cpu1
		}
		tick.Stop()
		l.done.Store(true)
		wg.Wait()
		ws.probes = append(ws.probes, cfg.probe.run())
	}

	runtime.ReadMemStats(&ms)
	ws.completed, ws.mallocs, ws.gcCPU = l.total()-ws.completed, ms.Mallocs-ws.mallocs, gcCPUSeconds()-ws.gcCPU
	return ws
}
