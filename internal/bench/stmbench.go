// STM hot-path workload runners behind cmd/stmbench: the benchmark-
// regression pipeline every perf PR is judged against. Each workload
// measures the runtime's constant factors (ns/op, allocs/op) together
// with the structural counters (commits, aborts, quiesce waits) so a
// "faster" result that changed the algorithm's behavior is visible as a
// counter drift, not just a timing delta.
//
// The measurement loop is self-contained (no testing.Benchmark): it
// calibrates N by doubling until the target wall time is reached, then
// reports the final calibrated run. Allocation counts come from
// runtime.MemStats deltas, so they cover every goroutine the workload
// spawns, not just the caller.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"deferstm/internal/obs"
	"deferstm/internal/stm"
)

// StmResult is one workload measurement.
type StmResult struct {
	Name          string  `json:"name"`
	Threads       int     `json:"threads"`
	N             uint64  `json:"n"` // transactions in the measured run
	NsPerOp       float64 `json:"ns_per_op"`
	AllocsPerOp   float64 `json:"allocs_per_op"`
	BytesPerOp    float64 `json:"bytes_per_op"`
	CommitsPerSec float64 `json:"commits_per_s"`
	Commits       uint64  `json:"commits"`
	Aborts        uint64  `json:"aborts"`
	SerialRuns    uint64  `json:"serial_runs"`
	QuiesceWaits  uint64  `json:"quiesce_waits"`
	QuiesceNanos  uint64  `json:"quiesce_nanos"`
	WALRecords    uint64  `json:"wal_records,omitempty"`
	WALFlushes    uint64  `json:"wal_flushes,omitempty"`
	WALFsyncs     uint64  `json:"wal_fsyncs,omitempty"`

	// Watcher-based retry counters (reactive suite): Starts is the total
	// attempt count — for blocked-reader workloads it is the CPU-churn
	// proxy the watcher-vs-spin acceptance ratio is computed from.
	Starts     uint64 `json:"starts,omitempty"`
	RetryParks uint64 `json:"retry_parks,omitempty"`
	RetryWakes uint64 `json:"retry_wakes,omitempty"`

	// Tail latency of the measured run's successful transactions, from
	// the runtime's log2-bucketed commit-latency histogram: upper bounds
	// tight to within one bucket (a factor of two), with the exact max.
	// Mean ns/op above includes aborted attempts and harness overhead;
	// these do not.
	TxP50Ns float64 `json:"tx_p50_ns,omitempty"`
	TxP90Ns float64 `json:"tx_p90_ns,omitempty"`
	TxP99Ns float64 `json:"tx_p99_ns,omitempty"`
	TxMaxNs float64 `json:"tx_max_ns,omitempty"`

	// Wakeup propagation latency (waking commit's broadcast → parked
	// transaction running again), from the runtime's wake-latency
	// histogram. Present only for workloads that actually parked.
	WakeP50Ns float64 `json:"wake_p50_ns,omitempty"`
	WakeP99Ns float64 `json:"wake_p99_ns,omitempty"`
	WakeMaxNs float64 `json:"wake_max_ns,omitempty"`

	// GOMAXPROCS in effect while this row was measured. The scaling and
	// mixed suites raise it per ladder point (see withProcs), so the
	// document-level GOMAXPROCS no longer tells the whole story.
	GOMAXPROCS int `json:"gomaxprocs,omitempty"`

	// Scanner-side counters (mixed suite): completed scans, scanner
	// contention aborts (validating scanners under write traffic), and
	// snapshot-overflow fallbacks. A scan row with ScanOps > 0 and no
	// scan_aborts key had zero scanner aborts — the snapshot headline.
	ScanOps       uint64 `json:"scan_ops,omitempty"`
	ScanAborts    uint64 `json:"scan_aborts,omitempty"`
	ScanFallbacks uint64 `json:"scan_fallbacks,omitempty"`
}

// StmDoc is the JSON document cmd/stmbench emits: one machine, one
// commit, one suite run.
type StmDoc struct {
	Schema     string      `json:"schema"` // always StmSchema
	Label      string      `json:"label,omitempty"`
	Commit     string      `json:"commit,omitempty"`
	Go         string      `json:"go"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	NumCPU     int         `json:"num_cpu"`
	Time       string      `json:"time"`
	Quick      bool        `json:"quick,omitempty"`
	Results    []StmResult `json:"results"`
}

// StmTrajectory is the committed BENCH_*.json shape: the pre-change
// baseline and the post-change run from the same machine.
type StmTrajectory struct {
	Schema   string  `json:"schema"` // always TrajectorySchema
	Baseline *StmDoc `json:"baseline"`
	After    *StmDoc `json:"after"`
}

const (
	StmSchema        = "deferstm/bench/v1"
	TrajectorySchema = "deferstm/bench-trajectory/v1"
)

// StmOptions configures a suite run.
type StmOptions struct {
	// Target is the wall time each workload calibrates toward.
	// 0 means 1s (or 25ms when Quick).
	Target time.Duration
	// Quick selects the CI smoke configuration: tiny target, capped N.
	// CI asserts only that the pipeline runs and the JSON is well
	// formed — never a timing threshold.
	Quick bool
	// Logf, when non-nil, receives one progress line per workload.
	Logf func(format string, args ...any)
	// Metrics, when non-nil, is attached to every workload's runtime
	// (cmd/stmbench's -metrics endpoint shares one instrument set
	// across the suite). Nil makes each measurement use a private,
	// unregistered set — percentiles are always collected.
	Metrics *stm.Metrics
}

func (o StmOptions) target() time.Duration {
	if o.Target > 0 {
		return o.Target
	}
	if o.Quick {
		return 25 * time.Millisecond
	}
	return time.Second
}

// stmWorkload is one named benchmark: setup builds the closed-over
// state and returns the runtime to snapshot counters from plus run,
// which executes n transactions (split across the workload's threads).
type stmWorkload struct {
	name    string
	threads int
	// maxN, when nonzero, caps the calibrated N (workloads whose state
	// grows with every op, like resize-storm, bound their footprint).
	maxN  uint64
	setup func(threads int) (rt *stm.Runtime, run func(n uint64))
}

// RunStmSuite executes the three hot-path workloads and returns their
// results in order.
func RunStmSuite(opts StmOptions) []StmResult {
	nThreads := runtime.GOMAXPROCS(0)
	if nThreads < 2 {
		nThreads = 2
	}
	workloads := []stmWorkload{
		{name: "read-only", threads: 1, setup: setupReadOnly},
		{name: "small-write", threads: 1, setup: setupSmallWrite},
		{name: "contended-counter", threads: nThreads, setup: setupContended},
	}
	out := make([]StmResult, 0, len(workloads))
	for _, w := range workloads {
		r := measureStm(w, opts)
		if opts.Logf != nil {
			opts.Logf("%-18s threads=%-2d %10.1f ns/op %7.2f allocs/op %12.0f commits/s aborts=%d",
				r.Name, r.Threads, r.NsPerOp, r.AllocsPerOp, r.CommitsPerSec, r.Aborts)
		}
		out = append(out, r)
	}
	return out
}

// measureStm calibrates and measures one workload. The final doubling
// iteration is the reported measurement; earlier iterations double as
// warmup (transaction descriptor pools, WAL segments, map growth).
func measureStm(w stmWorkload, opts StmOptions) StmResult {
	rt, run := w.setup(w.threads)
	target := opts.target()

	met := opts.Metrics
	if met == nil {
		met = stm.NewMetrics(nil)
	}
	rt.SetMetrics(met)

	n := uint64(64)
	if opts.Quick {
		n = 16
	}
	run(n) // warmup: populate descriptor pools, fault in state

	var (
		elapsed time.Duration
		mallocs uint64
		bytes   uint64
		before  stm.StatsSnapshot
		delta   stm.StatsSnapshot
		lat     obs.HistSnapshot
		wake    obs.HistSnapshot
	)
	for {
		var msBefore, msAfter runtime.MemStats
		before = rt.Snapshot()
		latBefore := met.TxLatency.Snapshot()
		wakeBefore := met.WakeLatency.Snapshot()
		runtime.ReadMemStats(&msBefore)
		start := time.Now()
		run(n)
		elapsed = time.Since(start)
		runtime.ReadMemStats(&msAfter)
		delta = rt.Snapshot().Delta(before)
		lat = met.TxLatency.Snapshot().Delta(latBefore)
		wake = met.WakeLatency.Snapshot().Delta(wakeBefore)
		mallocs = msAfter.Mallocs - msBefore.Mallocs
		bytes = msAfter.TotalAlloc - msBefore.TotalAlloc
		limit := uint64(1 << 28)
		if w.maxN != 0 && w.maxN < limit {
			limit = w.maxN
		}
		if elapsed >= target || n >= limit || (opts.Quick && n >= 1<<12) {
			break
		}
		// Aim for ~1.5x the target next round, at least doubling.
		next := n * 2
		if elapsed > 0 {
			byRate := uint64(float64(n) * 1.5 * float64(target) / float64(elapsed))
			if byRate > next {
				next = byRate
			}
		}
		if next > limit {
			next = limit
		}
		n = next
	}

	r := StmResult{
		Name:         w.name,
		Threads:      w.threads,
		N:            n,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NsPerOp:      float64(elapsed.Nanoseconds()) / float64(n),
		AllocsPerOp:  float64(mallocs) / float64(n),
		BytesPerOp:   float64(bytes) / float64(n),
		Commits:      delta.Commits,
		Aborts:       delta.Aborts(),
		SerialRuns:   delta.SerialRuns,
		QuiesceWaits: delta.QuiesceWaits,
		QuiesceNanos: delta.QuiesceNanos,
		WALRecords:   delta.WALRecords,
		WALFlushes:   delta.WALFlushes,
		WALFsyncs:    delta.WALFsyncs,
		Starts:       delta.Starts,
		RetryParks:   delta.RetryParks,
		RetryWakes:   delta.RetryWakes,
	}
	if elapsed > 0 {
		r.CommitsPerSec = float64(delta.Commits) / elapsed.Seconds()
	}
	if lat.Count > 0 {
		r.TxP50Ns = lat.Quantile(0.50)
		r.TxP90Ns = lat.Quantile(0.90)
		r.TxP99Ns = lat.Quantile(0.99)
		r.TxMaxNs = float64(lat.Max)
	}
	if wake.Count > 0 {
		r.WakeP50Ns = wake.Quantile(0.50)
		r.WakeP99Ns = wake.Quantile(0.99)
		r.WakeMaxNs = float64(wake.Max)
	}
	return r
}

// setupReadOnly: single thread, 8-var read-only transactions — the
// path the runtime promises to run with zero heap allocations.
func setupReadOnly(_ int) (*stm.Runtime, func(uint64)) {
	rt := stm.NewDefault()
	vars := make([]*stm.Var[int], 8)
	for i := range vars {
		vars[i] = stm.NewVar(i)
	}
	fn := func(tx *stm.Tx) error {
		s := 0
		for _, v := range vars {
			s += v.Get(tx)
		}
		sink = s
		return nil
	}
	return rt, func(n uint64) {
		for i := uint64(0); i < n; i++ {
			_ = rt.Atomic(fn)
		}
	}
}

// setupSmallWrite: single thread, uncontended 2-read/2-write
// transactions — the typical small writer the write-set fast path is
// sized for.
func setupSmallWrite(_ int) (*stm.Runtime, func(uint64)) {
	rt := stm.NewDefault()
	a, b := stm.NewVar(0), stm.NewVar(0)
	c, d := stm.NewVar(0), stm.NewVar(0)
	fn := func(tx *stm.Tx) error {
		x := a.Get(tx) + b.Get(tx)
		c.Set(tx, x)
		d.Set(tx, x+1)
		return nil
	}
	return rt, func(n uint64) {
		for i := uint64(0); i < n; i++ {
			_ = rt.Atomic(fn)
		}
	}
}

// setupContended: GOMAXPROCS threads hammering one counter — the
// conflict-heavy workload where shared stat counters, the global clock
// and backoff policy dominate.
func setupContended(threads int) (*stm.Runtime, func(uint64)) {
	rt := stm.NewDefault()
	v := stm.NewVar(0)
	return rt, func(n uint64) {
		runParallel(threads, n, func(_ int, per uint64) {
			for i := uint64(0); i < per; i++ {
				_ = rt.Atomic(func(tx *stm.Tx) error {
					v.Set(tx, v.Get(tx)+1)
					return nil
				})
			}
		})
	}
}

// runParallel splits n operations over the given goroutine count and
// waits for all of them. Workers receive their goroutine index so they
// can derive disjoint RNG streams or key ranges.
func runParallel(threads int, n uint64, worker func(g int, per uint64)) {
	per := n / uint64(threads)
	if per == 0 {
		per = 1
	}
	done := make(chan struct{}, threads)
	for g := 0; g < threads; g++ {
		go func(g int) {
			worker(g, per)
			done <- struct{}{}
		}(g)
	}
	for g := 0; g < threads; g++ {
		<-done
	}
}

// sink defeats dead-code elimination of read-only loop bodies.
var sink int

// NewStmDoc wraps suite results with the machine/build metadata that
// makes two JSON files comparable.
func NewStmDoc(label, commit string, quick bool, results []StmResult) *StmDoc {
	return &StmDoc{
		Schema:     StmSchema,
		Label:      label,
		Commit:     commit,
		Go:         runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Time:       time.Now().UTC().Format(time.RFC3339),
		Quick:      quick,
		Results:    results,
	}
}

// WriteJSON writes doc (an *StmDoc or *StmTrajectory) to path,
// indented, creating or truncating the file.
func WriteJSON(path string, doc any) error {
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	return os.WriteFile(path, b, 0o644)
}

// LoadStmDoc reads path as either a bare StmDoc or a trajectory (in
// which case the "after" section is returned, falling back to
// "baseline" for a trajectory still awaiting its after run).
func LoadStmDoc(path string) (*StmDoc, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var probe struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(b, &probe); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	switch probe.Schema {
	case StmSchema:
		var d StmDoc
		if err := json.Unmarshal(b, &d); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &d, nil
	case TrajectorySchema:
		var t StmTrajectory
		if err := json.Unmarshal(b, &t); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if t.After != nil {
			return t.After, nil
		}
		if t.Baseline != nil {
			return t.Baseline, nil
		}
		return nil, fmt.Errorf("%s: trajectory has neither baseline nor after", path)
	default:
		return nil, fmt.Errorf("%s: unknown schema %q", path, probe.Schema)
	}
}

// ValidateStmDoc checks that a document is structurally sound: schema
// tagged, non-empty, every result named with positive N and finite
// timings. It is the CI well-formedness gate (never a timing check).
func ValidateStmDoc(d *StmDoc) error {
	if d.Schema != StmSchema {
		return fmt.Errorf("schema = %q, want %q", d.Schema, StmSchema)
	}
	if len(d.Results) == 0 {
		return fmt.Errorf("no results")
	}
	for _, r := range d.Results {
		if r.Name == "" {
			return fmt.Errorf("unnamed result")
		}
		if r.N == 0 {
			return fmt.Errorf("%s: N = 0", r.Name)
		}
		if r.NsPerOp <= 0 {
			return fmt.Errorf("%s: ns/op = %v", r.Name, r.NsPerOp)
		}
		if r.Commits == 0 {
			return fmt.Errorf("%s: no commits recorded", r.Name)
		}
	}
	return nil
}

// allocGated names the rows AllocGate judges and the absolute slack
// each is allowed. The hot-path allocation pins are structural promises
// (read-only: zero allocations; small-write: one box per Set), so the
// gate is absolute, not proportional — a half-alloc drift on a
// zero-alloc row IS the regression, however small it looks in percent.
var allocGated = map[string]float64{
	"read-only":   0.25,
	"small-write": 0.5,
}

// AllocGate fails if a gated microbench row's allocs/op regressed
// beyond its slack relative to the baseline. Rows absent from either
// document are skipped (the gate composes with partial suites); timing
// is never judged here — that is DiffStmDocs's advisory table.
func AllocGate(oldDoc, newDoc *StmDoc) error {
	byName := make(map[string]StmResult, len(oldDoc.Results))
	for _, r := range oldDoc.Results {
		byName[r.Name] = r
	}
	for _, nr := range newDoc.Results {
		slack, gated := allocGated[nr.Name]
		if !gated {
			continue
		}
		or, ok := byName[nr.Name]
		if !ok {
			continue
		}
		if nr.AllocsPerOp > or.AllocsPerOp+slack {
			return fmt.Errorf("%s: allocs/op %.2f exceeds baseline %.2f (+%.2f slack) — hot-path allocation regression",
				nr.Name, nr.AllocsPerOp, or.AllocsPerOp, slack)
		}
	}
	return nil
}

// DiffStmDocs renders a delta table between two runs, matching results
// by name. Positive deltas mean the new run is worse (more ns, more
// allocs); quiesce and abort counters are reported but not judged.
func DiffStmDocs(w io.Writer, oldDoc, newDoc *StmDoc) {
	byName := make(map[string]StmResult, len(oldDoc.Results))
	for _, r := range oldDoc.Results {
		byName[r.Name] = r
	}
	fmt.Fprintf(w, "%-18s %14s %14s %8s %12s   %s\n",
		"workload", "old ns/op", "new ns/op", "delta", "p99 old->new", "allocs/op old->new")
	for _, nr := range newDoc.Results {
		or, ok := byName[nr.Name]
		if !ok {
			fmt.Fprintf(w, "%-18s %14s %14.1f %8s %12s   (new workload)\n", nr.Name, "-", nr.NsPerOp, "-", "-")
			continue
		}
		pct := 100 * (nr.NsPerOp - or.NsPerOp) / or.NsPerOp
		p99 := "-"
		if or.TxP99Ns > 0 && nr.TxP99Ns > 0 {
			p99 = fmt.Sprintf("%.0f->%.0f", or.TxP99Ns, nr.TxP99Ns)
		} else if nr.TxP99Ns > 0 {
			p99 = fmt.Sprintf("-> %.0f", nr.TxP99Ns)
		}
		fmt.Fprintf(w, "%-18s %14.1f %14.1f %+7.1f%% %12s   %.2f -> %.2f\n",
			nr.Name, or.NsPerOp, nr.NsPerOp, pct, p99, or.AllocsPerOp, nr.AllocsPerOp)
	}
}
