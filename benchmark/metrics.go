package main

import (
	"sort"
	"time"
)

// setupTime is one timed set-up: how long it took and the CPU it used.
type setupTime struct{ wall, cpu time.Duration }

// endToEndOf reduces one window and the timed set-ups to the five
// end-to-end metrics, every one of them on the run's reference clock
// (hostClock): rates and latencies by the window's own utilization, each
// set-up by its own, CPU time by the CPU-clock host factor itself.
func endToEndOf(res *result, setups []setupTime) map[string]float64 {
	clk := res.ws.clock()
	scale := clk.scale(utilization(res.ws.cpu, res.ws.elapsed))
	ss := reduceSlices(res.ws.slices)
	lat := latenciesUS(res)
	ref := make([]float64, len(setups))
	for i, s := range setups {
		ref[i] = s.wall.Seconds() * clk.scale(utilization(s.cpu, s.wall))
	}
	return map[string]float64{
		"setup_s":       median(ref),
		"ops_per_s":     ss.rate / scale,
		"ack_p50_us":    quantile(lat, 0.50) * scale,
		"ack_p90_us":    quantile(lat, 0.90) * scale,
		"cpu_us_per_op": ss.cpu / clk.cpu,
	}
}

// latenciesUS returns the window's sorted latency samples in µs per
// operation, as measured (a batched sample is divided by its batch size).
func latenciesUS(res *result) []float64 {
	per := float64(max(res.perSample, 1))
	lat := make([]float64, len(res.lat))
	for i, d := range res.lat {
		lat[i] = float64(d) / 1e3 / per
	}
	sort.Float64s(lat)
	return lat
}

// genLayer is the harness's own per-layer view of one window, as
// measured: gen.host_factor and gen.cpu_util are what the reference clock
// was built from, so the end-to-end metrics can be read back to wall time.
func genLayer(res *result) map[string]float64 {
	return map[string]float64{
		"gen.late_p90_us":      quantile(durationsUS(res.late), 0.90),
		"gen.ack_p99_us":       quantile(latenciesUS(res), 0.99),
		"gen.ops_per_s_median": reduceSlices(res.ws.slices).rate,
		"gen.allocs_per_op":    ratio(float64(res.ws.mallocs), float64(res.ws.completed)),
		"gen.gc_cpu_frac":      ratio(res.ws.gcCPU, res.ws.cpu.Seconds()),
		"gen.host_factor":      res.ws.clock().wall,
		"gen.cpu_util":         utilization(res.ws.cpu, res.ws.elapsed),
	}
}

// lateLimit is the generator lateness (p90) above which an open-loop run
// no longer measures the system at the stated rate: the schedule itself
// was not kept. Such a run is flagged, not failed.
const lateLimit = 2000 * time.Microsecond
