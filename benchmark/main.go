// Command benchmark is the repository's one repeatable benchmark: five
// fixed workloads, five end-to-end metrics each, and a ladder of
// per-layer metrics, all generated in-process from a seed on a simulated
// device. See README.md in this directory.
//
// It is a module of its own (go.mod here replaces deferstm with the
// parent directory), so it is run from this directory:
//
//	go run . -seed 1                     every workload, untraced
//	go run . -seed 1 -trace out.json     ... followed by the traced run
//	go run . -workload mem-point -seed 1 -seconds 20 -trace 0
//	go run . -selfcheck                  two sets of runs, compared
//	go run . -smoke                      every path, tiny sizes
//
// With -workload the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with -trace 0, the per-layer metrics otherwise.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// loadThreads is the whole machine the benchmark is sized for: at most
// two load threads or connections, GOMAXPROCS=2, at least two CPUs.
const loadThreads = 2

func realMain(args []string, stdout, stderr io.Writer) int {
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "all", "workload to run, or all")
		seed      = fs.Uint64("seed", 1, "seed every generated input derives from")
		seconds   = fs.Int("seconds", sp.RunSeconds, "measured window per workload, in seconds")
		trace     = fs.String("trace", "0", "0: untraced run; 1: traced run; any other value: traced run, Chrome trace written to that path")
		selfcheck = fs.Bool("selfcheck", false, "run two sets of full runs and fail unless they agree within the bounds")
		smokeRun  = fs.Bool("smoke", false, "run every workload, untraced and traced, at tiny sizes and check every metric is reported")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 {
		fmt.Fprintln(stderr, "benchmark: bad arguments")
		return 2
	}
	if runtime.NumCPU() < loadThreads {
		fmt.Fprintf(stderr, "benchmark: %d CPU(s); the workloads need %d\n", runtime.NumCPU(), loadThreads)
		return 2
	}
	runtime.GOMAXPROCS(loadThreads)
	if *selfcheck {
		return runSelfcheck(sp, *seconds, *seed, stdout, stderr)
	}
	steps := probeSteps
	if *smokeRun {
		steps /= 16
	}
	probe, err := newHostProbe(steps)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: host probe: %v\n", err)
		return 1
	}
	defer probe.close()
	if *smokeRun {
		return runSmoke(smoke(sp, probe, time.Second), *seed, sp.buildDir(), stdout, stderr)
	}

	cfg := full(sp, probe, *seconds)
	host := probeHost(*seed)
	if *name != "all" {
		w := sp.workload(*name)
		if w == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		o, err := runWorkload(cfg, w, host, *trace, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		line, _ := json.Marshal(o) // plain maps and numbers: cannot fail
		fmt.Fprintln(stdout, string(line))
		return 0
	}

	doc := struct {
		Host      hostShape           `json:"host"`
		Seconds   int                 `json:"seconds"`
		Workloads map[string]*outcome `json:"workloads"`
		Traced    map[string]*outcome `json:"traced,omitempty"`
	}{Host: host, Seconds: *seconds, Workloads: map[string]*outcome{}, Traced: map[string]*outcome{}}
	traces := []string{"0"}
	if *trace != "0" {
		traces = append(traces, *trace)
	}
	code := 0
	for i := range sp.workloads {
		w := &sp.workloads[i]
		for _, t := range traces {
			o, err := runWorkload(cfg, w, host, t, stdout)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
				return 1
			}
			if !o.Correct {
				code = 1
			}
			if t == "0" {
				doc.Workloads[w.name] = o
			} else {
				doc.Traced[w.name] = o
			}
		}
	}
	line, _ := json.Marshal(doc)
	fmt.Fprintln(stdout, string(line))
	return code
}

// hostShape records where the numbers came from; documents are only
// comparable like with like.
type hostShape struct {
	NumCPU          int     `json:"num_cpu"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	GoVersion       string  `json:"go_version"`
	Commit          string  `json:"commit"`
	Seed            uint64  `json:"seed"`
	HostALUMs       float64 `json:"gen.host_alu_ms"`
	SleepOvershotUS float64 `json:"gen.sleep_overshoot_us"`
}

func probeHost(seed uint64) hostShape {
	h := hostShape{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown", Seed: seed,
		HostALUMs: hostALU(), SleepOvershotUS: sleepOvershoot(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the result line of one workload run.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	idle []string // declared per-layer metrics this workload does not compute (reported as 0)
}

// measure sets the workload up cfg.setupReps times, timing each set-up
// (their median is setup_s), then measures one window on the last
// instance and checks its outputs. A host probe ahead of the set-ups
// joins the window's own.
func measure(cfg *config, w *workload, in *inputs, tr *tracer) (*result, []setupTime, error) {
	early := cfg.probe.run()
	var inst instance
	var setups []setupTime
	for rep := 0; rep < cfg.setupReps; rep++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		t0, cpu0 := time.Now(), processCPU()
		var err error
		if inst, err = w.setup(cfg, in, tr); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		runtime.GC() // the window starts from a collected heap; set-up pays for it
		setups = append(setups, setupTime{wall: time.Since(t0), cpu: processCPU() - cpu0})
	}
	defer inst.close()
	res, err := inst.run(tr)
	if err != nil {
		return nil, nil, err
	}
	res.ws.probes = append(res.ws.probes, early)
	return res, setups, nil
}

// tracedLayers is the separate traced run: an untraced reference window
// and a traced window of a quarter of the length each, then the layer
// microbenchmarks and the ladder. It returns every per-layer metric.
func tracedLayers(cfg *config, w *workload, in *inputs, host hostShape, tracePath string) (*result, map[string]float64, error) {
	short := *cfg
	short.setupReps = 1
	short.window = cfg.window / 4
	base, _, err := measure(&short, w, in, nil)
	if err != nil {
		return nil, nil, err
	}
	tr := newTracer()
	res, _, err := measure(&short, w, in, tr)
	if err != nil {
		return nil, nil, err
	}
	res.attempted += base.attempted
	res.failed += base.failed
	res.notes = append(res.notes, base.notes...)

	layer := genLayer(res)
	// CPU per operation of the two windows, each on its own reference clock.
	cpuRef := func(r *result) float64 { return reduceSlices(r.ws.slices).cpu / r.ws.clock().cpu }
	layer["gen.trace_overhead_frac"] = ratio(cpuRef(res), cpuRef(base)) - 1
	layer["gen.host_alu_ms"], layer["gen.sleep_overshoot_us"] = host.HostALUMs, host.SleepOvershotUS
	layer["gen.rss_peak_mb"] = peakRSSMB() - cfg.probe.mappedMB() // the program's, without the probe's tables
	micro, err := layerMicro(cfg, in, w)
	if err != nil {
		return nil, nil, fmt.Errorf("layer microbenchmarks: %w", err)
	}
	rungs, err := ladder(cfg, in, w, tr)
	if err != nil {
		return nil, nil, fmt.Errorf("ladder: %w", err)
	}
	for _, m := range []map[string]float64{res.layer, micro, rungs} {
		for k, v := range m {
			layer[k] = v
		}
	}
	if err := tr.write(tracePath); err != nil {
		return nil, nil, fmt.Errorf("writing the trace: %w", err)
	}
	return res, layer, nil
}

// runWorkload runs one workload untraced (trace "0") or traced, prints
// every metric by name with its unit, and returns the result line.
func runWorkload(cfg *config, w *workload, host hostShape, trace string, out io.Writer) (*outcome, error) {
	in := newInputs(host.Seed, cfg.keys)
	var (
		res    *result
		values map[string]float64
		defs   []metricDef
		err    error
	)
	if trace == "0" {
		var setups []setupTime
		if res, setups, err = measure(cfg, w, in, nil); err != nil {
			return nil, err
		}
		values, defs = endToEndOf(res, setups), cfg.spec.EndToEnd
	} else {
		if res, values, err = tracedLayers(cfg, w, in, host, tracePath(cfg.spec, trace, w.name)); err != nil {
			return nil, err
		}
		defs = cfg.spec.PerLayer
	}
	o := &outcome{
		Correct: res.failed == 0, Attempted: max(res.attempted, 1), Failed: min(res.failed, max(res.attempted, 1)),
		Metrics: map[string]metricValue{},
	}
	fmt.Fprintf(out, "workload %s  window %v  trace %s\n", w.name, cfg.window, trace)
	fmt.Fprintf(out, "  host: num_cpu=%d gomaxprocs=%d go=%s commit=%s seed=%d gen.host_alu_ms=%.2f gen.sleep_overshoot_us=%.0f\n",
		host.NumCPU, host.GOMAXPROCS, host.GoVersion, host.Commit, host.Seed, host.HostALUMs, host.SleepOvershotUS)
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			// A layer that is idle on this workload reports 0; every
			// workload computes every end-to-end metric.
			if trace == "0" {
				return nil, fmt.Errorf("metric %s is declared in BENCHMARK.json but not computed", d.Name)
			}
			o.idle = append(o.idle, d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite", d.Name)
		}
		o.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(out, "  %-30s %14.4f %s\n", d.Name, v, d.Unit)
	}
	if len(o.Metrics) != len(values)+len(o.idle) {
		return nil, fmt.Errorf("%d metrics computed that BENCHMARK.json does not declare", len(values)+len(o.idle)-len(o.Metrics))
	}
	if trace == "0" {
		// The window's own layer counters ride along as context; the
		// result line carries only the declared end-to-end metrics.
		layer := genLayer(res)
		for k, v := range res.layer {
			layer[k] = v
		}
		for _, d := range cfg.spec.PerLayer {
			if v, ok := layer[d.Name]; ok {
				fmt.Fprintf(out, "  %-30s %14.4f %s\n", "("+d.Name+")", v, d.Unit)
			}
		}
	}
	fmt.Fprintf(out, "  probes (ms wall/cpu):")
	for _, p := range res.ws.probes {
		fmt.Fprintf(out, " %.1f/%.1f", float64(p.wall)/1e6, float64(p.cpu)/1e6)
	}
	fmt.Fprintf(out, "\n  slices (ops/s@CPUs busy):")
	for _, s := range res.ws.slices {
		fmt.Fprintf(out, " %.0f@%.2f", float64(s.ops)/s.dt.Seconds(), s.cpu.Seconds()/s.dt.Seconds())
	}
	fmt.Fprintf(out, "\n  latency samples %d  attempted %d  failed %d\n", len(res.lat), o.Attempted, o.Failed)
	for _, n := range res.notes {
		fmt.Fprintf(out, "  FAILED CHECK: %s\n", n)
	}
	if late := quantile(durationsUS(res.late), 0.90); late > float64(lateLimit/time.Microsecond) {
		fmt.Fprintf(out, "  LATE GENERATOR: requests were issued %.0f us late at p90 (limit %v); this run does not measure the system at the stated rate\n", late, lateLimit)
	}
	return o, nil
}

// tracePath is where a traced run of the named workload writes its
// Chrome trace: in the build directory for "-trace 1", otherwise the
// given path with the workload's name before its extension.
func tracePath(sp *spec, trace, workload string) string {
	if trace == "1" {
		trace = filepath.Join(sp.buildDir(), "trace.json")
	}
	ext := filepath.Ext(trace)
	return strings.TrimSuffix(trace, ext) + "-" + workload + ext
}

// runSmoke drives every workload through both the untraced and the
// traced path at tiny sizes and requires each declared metric to be
// reported, once, with a finite value.
func runSmoke(cfg *config, seed uint64, traceDir string, stdout, stderr io.Writer) int {
	host := probeHost(seed)
	code := 0
	idleOn := map[string]int{} // per-layer metric: how many workloads leave it idle
	for i := range cfg.spec.workloads {
		w := &cfg.spec.workloads[i]
		for _, mode := range []struct {
			trace string
			defs  []metricDef
		}{{"0", cfg.spec.EndToEnd}, {filepath.Join(traceDir, "smoke.json"), cfg.spec.PerLayer}} {
			var text strings.Builder
			o, err := runWorkload(cfg, w, host, mode.trace, &text)
			io.WriteString(stdout, text.String())
			if err != nil {
				fmt.Fprintf(stderr, "smoke: %s: %v\n", w.name, err)
				return 1
			}
			for _, d := range mode.defs {
				if n := strings.Count(text.String(), "  "+d.Name+" "); n != 1 {
					fmt.Fprintf(stderr, "smoke: %s: metric %s printed %d times\n", w.name, d.Name, n)
					code = 1
				}
			}
			if !o.Correct {
				fmt.Fprintf(stderr, "smoke: %s: %d of %d operations failed\n", w.name, o.Failed, o.Attempted)
				code = 1
			}
			for _, name := range o.idle {
				idleOn[name]++
			}
		}
	}
	for name, n := range idleOn {
		if n == len(cfg.spec.workloads) {
			fmt.Fprintf(stderr, "smoke: metric %s is declared in BENCHMARK.json but no workload computes it\n", name)
			code = 1
		}
	}
	return code
}
