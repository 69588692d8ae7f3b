// Command reproduce regenerates the experiments of the paper's
// evaluation section (Figures 2 and 3), writes the result tables to a
// directory, and checks the qualitative claims ("who wins, by roughly
// what factor, where the crossovers fall") automatically. No other
// command runs the figures.
//
//	reproduce -out results              # every panel (~21 min on 2 CPUs)
//	reproduce -out results -quick       # reduced ops/trials (~5 min)
//	reproduce -out results -figure 3a   # one panel: 2a|2b|2c|2d|3a|3b
//
// Each panel writes its table as <panel>.txt and <panel>.csv (3a also
// fig3a_structural.txt) and runs only its own shape checks; a full run
// (-figure all, the default) also writes every check's verdict to
// checks.txt. Exit status is 1 if any shape check fails, 2 on a usage
// error.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"deferstm/internal/bench"
	"deferstm/internal/chunker"
	"deferstm/internal/dedup"
	"deferstm/internal/iobench"
	"deferstm/internal/simio"
)

var checks []string
var failures int

func check(name string, ok bool, detail string) {
	status := "PASS"
	if !ok {
		status = "FAIL"
		failures++
	}
	line := fmt.Sprintf("%-4s %-52s %s", status, name, detail)
	checks = append(checks, line)
	fmt.Fprintln(os.Stderr, line)
}

var panelNames = []string{"2a", "2b", "2c", "2d", "3a", "3b"}

func main() {
	var (
		outDir = flag.String("out", "results", "output directory for result tables")
		quick  = flag.Bool("quick", false, "smaller runs (fewer ops, 1 trial)")
		figure = flag.String("figure", "all", "panel to run: "+strings.Join(panelNames, "|")+"|all")
	)
	flag.Parse()
	run := panelNames
	if *figure != "all" {
		if !slices.Contains(panelNames, *figure) {
			fmt.Fprintf(os.Stderr, "reproduce: unknown -figure %q (want %s|all)\n",
				*figure, strings.Join(panelNames, "|"))
			os.Exit(2)
		}
		run = []string{*figure}
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	trials, ioOps, dedupSize := 2, 1200, 8<<20
	if *quick {
		trials, ioOps, dedupSize = 1, 600, 4<<20
	}
	input := dedup.GenInput(dedupSize, 0.5, 42) // Figure 3's, for both panels

	start := time.Now()
	for _, name := range run {
		switch name {
		case "3a":
			fig3a(*outDir, input, trials)
		case "3b":
			fig3b(*outDir, input, trials)
		default:
			fig2(*outDir, name, ioOps, trials)
		}
	}
	fmt.Fprintf(os.Stderr, "total: %.1f min\n", time.Since(start).Minutes())

	if *figure == "all" {
		writeFile(*outDir, "checks.txt", strings.Join(checks, "\n")+"\n")
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "%d shape checks FAILED\n", failures)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "all shape checks passed")
}

func writeTable(dir, name string, tbl *bench.Table) {
	var txt, csv strings.Builder
	tbl.Render(&txt)
	tbl.RenderCSV(&csv)
	writeFile(dir, name+".txt", txt.String())
	writeFile(dir, name+".csv", csv.String())
}

func writeFile(dir, name, data string) {
	if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
}

// ---------- Figure 2 ----------

// fig2 runs one panel of Figure 2: files files, kept open in 2(d), with
// the FGL baseline from 2(b) on.
func fig2(dir, panel string, ops, trials int) {
	files := map[string]int{"2a": 1, "2b": 2, "2c": 4, "2d": 4}[panel]
	keepOpen := panel == "2d"
	modes := []iobench.Mode{iobench.CGL, iobench.Irrevoc, iobench.Defer}
	if panel != "2a" {
		modes = append(modes, iobench.FGL)
	}
	name := "fig" + panel
	title := fmt.Sprintf("Figure 2(%s): %d file(s)%s, %d ops", panel[1:],
		files, map[bool]string{true: " kept open"}[keepOpen], ops)
	tbl := bench.NewTable(title, "threads", "execution time (s)")
	for _, mode := range modes {
		series := tbl.SeriesByName(mode.String())
		for _, t := range []int{1, 2, 4, 8} {
			cfg := iobench.Config{
				Mode: mode, Files: files, Threads: t, Ops: ops,
				KeepOpen: keepOpen, Latency: simio.SlowDiskLatency(),
			}
			bench.Measure(series, float64(t), trials, func() {
				if _, _, err := iobench.Run(cfg); err != nil {
					fmt.Fprintf(os.Stderr, "reproduce: %v: %v\n", mode, err)
					os.Exit(1)
				}
			})
			fmt.Fprintf(os.Stderr, ".")
		}
	}
	fmt.Fprintf(os.Stderr, " %s done\n", name)
	writeTable(dir, name, tbl)
	checkFig2(name, tbl)
}

func checkFig2(name string, tbl *bench.Table) {
	cgl := tbl.SeriesByName("CGL")
	irr := tbl.SeriesByName("irrevoc")
	def := tbl.SeriesByName("defer")
	switch name {
	case "fig2a":
		// No concurrency: nothing should scale much, and irrevoc should
		// be within ~40% of CGL at every thread count (GCC's tuned
		// irrevocability ≈ CGL, Section 6.1).
		ok := irr.At(8) < cgl.At(8)*1.4 && irr.At(1) < cgl.At(1)*1.4
		check("fig2a: irrevoc comparable to CGL", ok,
			fmt.Sprintf("irrevoc@8=%.2fs cgl@8=%.2fs", irr.At(8), cgl.At(8)))
		ok = def.At(8) > cgl.At(8)*0.5
		check("fig2a: no series scales with 1 file", ok,
			fmt.Sprintf("defer@8=%.2fs cgl@8=%.2fs", def.At(8), cgl.At(8)))
	case "fig2b", "fig2c", "fig2d":
		fgl := tbl.SeriesByName("FGL")
		// defer tracks FGL at high thread counts (within 2x), while
		// CGL/irrevoc do not improve beyond ~70% of their 1-thread time.
		ok := def.At(8) < fgl.At(8)*2.0
		check(name+": defer tracks FGL at 8 threads", ok,
			fmt.Sprintf("defer@8=%.2fs fgl@8=%.2fs", def.At(8), fgl.At(8)))
		ok = def.At(8) < def.At(1)*0.7
		check(name+": defer scales (8t < 70% of 1t)", ok,
			fmt.Sprintf("defer@1=%.2fs defer@8=%.2fs", def.At(1), def.At(8)))
		ok = irr.At(8) > irr.At(1)*0.7
		check(name+": irrevoc does not scale", ok,
			fmt.Sprintf("irrevoc@1=%.2fs irrevoc@8=%.2fs", irr.At(1), irr.At(8)))
		ok = def.At(8) < irr.At(8)*0.75
		check(name+": defer beats irrevoc at 8 threads", ok,
			fmt.Sprintf("defer@8=%.2fs irrevoc@8=%.2fs", def.At(8), irr.At(8)))
	}
}

// ---------- Figure 3 ----------

// dedupOutputLatency is the output file's cost model: above the sleep
// floor, but cheap enough that the sequential output stage does not bind
// the pipeline (the figure's signal is in the worker stage).
func dedupOutputLatency() simio.Latency {
	return simio.Latency{
		Open:       2 * time.Millisecond,
		Close:      1500 * time.Microsecond,
		Write:      1300 * time.Microsecond,
		WritePerKB: 10 * time.Microsecond,
		Read:       1300 * time.Microsecond,
		Fsync:      1500 * time.Microsecond,
	}
}

type series struct {
	name string
	b    dedup.Backend
}

// dedupPanel runs each backend at each thread count (trials runs per
// point, mean wall-clock time), writes the table as <name>.txt/.csv, and
// returns it with each backend's last result at the highest count.
func dedupPanel(dir, name string, input []byte, trials int, backends []series, threads []int) (*bench.Table, map[string]dedup.Result) {
	tbl := bench.NewTable(fmt.Sprintf("Figure 3(%s): dedup, %d MiB", name[4:], len(input)>>20),
		"threads", "execution time (s)")
	last := map[string]dedup.Result{}
	for _, e := range backends {
		s := tbl.SeriesByName(e.name)
		for _, t := range threads {
			bench.Measure(s, float64(t), trials, func() { last[e.name] = dedupRun(e.b, t, input) })
			fmt.Fprintf(os.Stderr, ".")
		}
	}
	fmt.Fprintf(os.Stderr, " %s done\n", name)
	writeTable(dir, name, tbl)
	return tbl, last
}

// rounds is how many interleaved rounds medianAt runs.
const rounds = 5

// dedupRun runs Figure 3's dedup pipeline once on backend b.
func dedupRun(b dedup.Backend, threads int, input []byte) dedup.Result {
	cfg := dedup.Config{
		Backend: b, Threads: threads,
		InputRead:      20 * time.Millisecond,
		CompressEffort: 128,
		Chunk:          chunker.Config{AvgBits: 16},
	}
	res, err := dedup.Run(cfg, input, simio.NewFS(dedupOutputLatency()), "out")
	if err != nil {
		fmt.Fprintf(os.Stderr, "reproduce: dedup %v: %v\n", b, err)
		os.Exit(1)
	}
	return res
}

// medianAt times backends at threads back to back, one round of every
// backend after another, and returns each one's median over rounds. A
// panel measures one series' points minutes after another's, one trial
// each with -quick, and a point read alone there drifts with the host by
// more than the cross-series checks' bounds (EXPERIMENTS.md, "Figure 3's
// cross-series checks"); interleaved, the drift hits every backend
// alike.
func medianAt(threads int, input []byte, backends []series) map[string]float64 {
	times := map[string][]float64{}
	for r := 0; r < rounds; r++ {
		for _, e := range backends {
			start := time.Now()
			dedupRun(e.b, threads, input)
			times[e.name] = append(times[e.name], time.Since(start).Seconds())
		}
	}
	med := map[string]float64{}
	for name, ts := range times {
		slices.Sort(ts)
		med[name] = ts[len(ts)/2]
	}
	return med
}

// fig3a runs Figure 3(a): the seven series at 1-8 threads, plus the
// structural TM counters of each series' 8-thread run.
func fig3a(dir string, input []byte, trials int) {
	backends := []series{
		{"STM", dedup.STM}, {"HTM", dedup.HTM},
		{"STM+DeferIO", dedup.STMDeferIO}, {"HTM+DeferIO", dedup.HTMDeferIO},
		{"STM+DeferAll", dedup.STMDeferAll}, {"HTM+DeferAll", dedup.HTMDeferAll},
		{"Pthread", dedup.Pthread},
	}
	tbl, structural := dedupPanel(dir, "fig3a", input, trials, backends, []int{1, 2, 4, 8})

	// Structural metrics table (the mechanism story).
	var sb strings.Builder
	fmt.Fprintf(&sb, "# structural TM metrics at 8 threads (Figure 3a runs)\n")
	fmt.Fprintf(&sb, "%-14s %8s %8s %10s %10s %10s %10s %8s\n",
		"backend", "packets", "uniques", "serialRuns", "capAborts", "conflicts", "quiesceMs", "defOps")
	for _, e := range backends {
		r := structural[e.name]
		fmt.Fprintf(&sb, "%-14s %8d %8d %10d %10d %10d %10.1f %8d\n",
			e.name, r.Packets, r.Uniques, r.TM.SerialRuns, r.TM.AbortsCapacity,
			r.TM.AbortsConflict, float64(r.TM.QuiesceNanos)/1e6, r.TM.DeferredOps)
	}
	writeFile(dir, "fig3a_structural.txt", sb.String())

	pt := tbl.SeriesByName("Pthread")
	check("fig3a: Pthread scales 1->8 threads", pt.At(8) < pt.At(1)*0.45,
		fmt.Sprintf("pthread@1=%.2fs pthread@8=%.2fs", pt.At(1), pt.At(8)))
	// The series compared at 8 threads, measured again side by side.
	at8 := medianAt(8, input, []series{
		{"Pthread", dedup.Pthread}, {"STM", dedup.STM},
		{"STM+DeferAll", dedup.STMDeferAll}, {"HTM+DeferAll", dedup.HTMDeferAll},
	})
	p8, stm8, all8, htmAll8 := at8["Pthread"], at8["STM"], at8["STM+DeferAll"], at8["HTM+DeferAll"]
	check("fig3a: STM+DeferAll within 15% of Pthread @8", all8 < p8*1.15,
		fmt.Sprintf("deferall@8=%.2fs pthread@8=%.2fs (medians of %d interleaved)", all8, p8, rounds))
	check("fig3a: HTM+DeferAll within 15% of Pthread @8", htmAll8 < p8*1.15,
		fmt.Sprintf("htm-deferall@8=%.2fs pthread@8=%.2fs (medians of %d interleaved)", htmAll8, p8, rounds))
	check("fig3a: STM baseline slower than DeferAll @8", stm8 > all8*1.05,
		fmt.Sprintf("stm@8=%.2fs deferall@8=%.2fs (medians of %d interleaved)", stm8, all8, rounds))
	// The baseline's writer makes each packet's output irrevocable, so
	// every packet's writer transaction commits in one serial run, and
	// escalates at most once: the packet it took stays in the ring, so
	// the serial run never retries. Neither DeferAll stage escalates.
	// Any other serial run is a contention fallback: a transaction whose
	// last SerializeAfter = 100 (stm's STM default) attempts all aborted,
	// which in STM mode with no injection means 100 conflict aborts each.
	// Scheduling decides how many occur, so the counts are bounds, and
	// equalities (serialRuns == packets, == 0) whenever none occurs.
	rs, ra := structural["STM"], structural["STM+DeferAll"]
	const serializeAfter = 100
	check("fig3a: STM serializes once per output packet",
		rs.Packets <= rs.TM.SerialRuns && rs.TM.SerialRuns-rs.Packets <= rs.TM.AbortsConflict/serializeAfter,
		fmt.Sprintf("serialRuns=%d packets=%d conflicts=%d", rs.TM.SerialRuns, rs.Packets, rs.TM.AbortsConflict))
	check("fig3a: DeferAll never serializes", ra.TM.SerialRuns <= ra.TM.AbortsConflict/serializeAfter,
		fmt.Sprintf("serialRuns=%d conflicts=%d", ra.TM.SerialRuns, ra.TM.AbortsConflict))
	// An HTM attempt that inserts a fingerprint overflows capacity on the
	// compressor's working set, and the runtime serializes after
	// SerializeAfter = 2 failed attempts; no Retry (which resets that
	// count) follows the first overflow, as a reservable reorder slot
	// stays so until its packet fills it. So a unique takes 2 capacity
	// aborts, less any attempt a conflict abort took first, and a
	// duplicate takes up to 2 when it ran while its twin's insert was
	// still in an aborting attempt and so found no entry (a packet-level
	// trace of 12 quick runs found 0-2 such duplicates per run).
	rh := structural["HTM"]
	lo := 2*rh.Uniques - min(rh.TM.AbortsConflict, 2*rh.Uniques)
	check("fig3a: HTM compress exceeds capacity per unique",
		lo <= rh.TM.AbortsCapacity && rh.TM.AbortsCapacity <= 2*rh.Packets,
		fmt.Sprintf("capAborts=%d uniques=%d conflicts=%d packets=%d",
			rh.TM.AbortsCapacity, rh.Uniques, rh.TM.AbortsConflict, rh.Packets))
	rha := structural["HTM+DeferAll"]
	check("fig3a: deferred compress fits in HTM", rha.TM.AbortsCapacity == 0,
		fmt.Sprintf("capAborts=%d", rha.TM.AbortsCapacity))
}

// fig3b runs Figure 3(b): the baseline against "Best" (+DeferAll) and
// Pthread at 4-32 threads.
func fig3b(dir string, input []byte, trials int) {
	dedupPanel(dir, "fig3b", input, trials, []series{
		{"STM", dedup.STM}, {"STM-Best", dedup.STMDeferAll},
		{"HTM-Best", dedup.HTMDeferAll}, {"Pthread", dedup.Pthread},
	}, []int{4, 8, 16, 32})
	// The series compared at 32 threads, measured again side by side.
	at32 := medianAt(32, input, []series{
		{"Pthread", dedup.Pthread}, {"STM", dedup.STM}, {"STM-Best", dedup.STMDeferAll},
	})
	best, base, ptb := at32["STM-Best"], at32["STM"], at32["Pthread"]
	check("fig3b: STM-Best matches Pthread @32", best < ptb*1.2,
		fmt.Sprintf("best@32=%.2fs pthread@32=%.2fs (medians of %d interleaved)", best, ptb, rounds))
	// The paper reports ~10x at 32 threads on a 36-core machine. This
	// host cannot execute compressions in parallel, so the baseline's
	// lost compute-parallelism costs nothing here and the wall-clock gap
	// collapses (see EXPERIMENTS.md); what must still hold is that the
	// baseline is never *better*, and that its serialization persists
	// structurally (checked per-packet in fig3a).
	check("fig3b: baseline never beats Best @32", base > best*0.95,
		fmt.Sprintf("stm@32=%.2fs best@32=%.2fs (medians of %d interleaved)", base, best, rounds))
}
