package stm

import (
	"strings"
	"sync/atomic"

	"deferstm/internal/obs"
)

// Metrics is the runtime's latency-distribution instrumentation: one
// histogram or gauge per phase the paper's argument cares about — the
// transaction's critical window, the deferred tail that was moved out of
// it, and the quiesce/backoff stalls in between.
//
// It carries the STM's instruments and those of its deferral hooks only.
// DeferLockHold is measured by core: an atomic deferral runs as an stm
// commit hook, and core has no object of its own to hang an instrument
// on. The layers above (wal, ds, kv, server, repl) build their own
// instruments on the registry they are opened with.
//
// All fields are nil-safe instruments: a Metrics built with a nil
// registry records but exposes nothing, and a Runtime with no Metrics
// attached pays exactly one atomic pointer load per transaction.
type Metrics struct {
	// TxLatency is the end-to-end latency of successful top-level
	// Atomic calls: first attempt start → commit published (quiesce
	// included, deferred hooks excluded — the paper's point is that
	// the hooks are *not* part of the caller-visible critical window).
	TxLatency *obs.Histogram
	// Backoff is the time spent in contention-manager backoff between
	// an abort and its re-execution.
	Backoff *obs.Histogram
	// QuiesceWait is the distribution of actual privatization waits
	// (quiesce calls that found no pre-commit transaction running
	// observe nothing, matching the Stats.QuiesceWaits counter).
	QuiesceWait *obs.Histogram

	// DeferDepth is the number of deferred operations enqueued by
	// committed transactions and not yet finished executing.
	DeferDepth *obs.Gauge
	// DeferExec is the post-commit execution latency of one deferred
	// operation (AfterCommit hook), measured at the hook pipeline.
	DeferExec *obs.Histogram
	// DeferLockHold is how long a deferral holds its transaction-
	// friendly locks after commit: λ start → all locks released
	// (measured by package core).
	DeferLockHold *obs.Histogram

	// RetryWaiters is the number of transactions currently parked in
	// watcher-based retry (watch.go).
	RetryWaiters *obs.Gauge
	// WatcherCount is the number of live watcher registrations across
	// all vars (one parked transaction registers on every var of its
	// read set, so WatcherCount >= RetryWaiters).
	WatcherCount *obs.Gauge
	// RetryBlocked is how long one blocked Retry stayed parked: park →
	// resumed (woken or cancelled).
	RetryBlocked *obs.Histogram
	// WakeLatency is the wakeup propagation delay: the waking commit's
	// broadcast → the parked transaction running again. This is the
	// latency BenchmarkRetryWakeup's ladder reports at p99.
	WakeLatency *obs.Histogram
}

// NewMetrics builds the full instrument set, registered on reg. A nil
// registry is legal: the instruments still record (a benchmark reads
// their snapshots directly) but are exposed nowhere.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		TxLatency: reg.NewHistogram("deferstm_tx_latency_seconds",
			"End-to-end latency of successful top-level transactions (quiesce included, deferred ops excluded)."),
		Backoff: reg.NewHistogram("deferstm_tx_backoff_seconds",
			"Contention-manager backoff between an abort and re-execution."),
		QuiesceWait: reg.NewHistogram("deferstm_quiesce_wait_seconds",
			"Privatization-safety waits that actually blocked (matches the QuiesceWaits counter)."),
		DeferDepth: reg.NewGauge("deferstm_defer_queue_depth",
			"Deferred operations enqueued by committed transactions and not yet finished."),
		DeferExec: reg.NewHistogram("deferstm_defer_exec_seconds",
			"Post-commit execution latency of one deferred operation."),
		DeferLockHold: reg.NewHistogram("deferstm_defer_lock_hold_seconds",
			"Time a deferred operation holds its transaction-friendly locks after commit."),
		RetryWaiters: reg.NewGauge("deferstm_retry_waiters",
			"Transactions currently parked in watcher-based retry."),
		WatcherCount: reg.NewGauge("deferstm_retry_watchers",
			"Live watcher registrations across all transactional variables."),
		RetryBlocked: reg.NewHistogram("deferstm_retry_blocked_seconds",
			"Time one blocked Retry stayed parked before resuming."),
		WakeLatency: reg.NewHistogram("deferstm_retry_wake_latency_seconds",
			"Wakeup propagation delay: waking commit broadcast to parked transaction resuming."),
	}
}

// SetMetrics attaches (or detaches, with nil) the metrics set. Safe to
// call while transactions and background goroutines are running: the
// pointer is read atomically at each instrumentation site, so a
// benchmark can attach metrics to an already-warm runtime.
func (rt *Runtime) SetMetrics(m *Metrics) { rt.met.Store(m) }

// Metrics returns the attached metrics set, or nil. Package core uses
// this to reach the deferral instruments.
func (rt *Runtime) Metrics() *Metrics { return rt.met.Load() }

// metricsPtr is the Runtime field type (kept out of stm.go's struct
// literal noise).
type metricsPtr = atomic.Pointer[Metrics]

// RegisterStats exposes the runtime's monotonic counters as Prometheus
// series on reg, reading each value on demand from snap. Taking a
// snapshot function rather than a *Runtime lets callers that rebuild
// runtimes per phase (cmd/stmtorture) swap the underlying runtime behind a
// stable set of series.
func RegisterStats(reg *obs.Registry, snap func() StatsSnapshot) {
	if reg == nil {
		return
	}
	type series struct {
		name string
		get  func(StatsSnapshot) uint64
	}
	for _, sr := range []series{
		{"deferstm_tx_starts_total", func(s StatsSnapshot) uint64 { return s.Starts }},
		{"deferstm_tx_commits_total", func(s StatsSnapshot) uint64 { return s.Commits }},
		{`deferstm_aborts_total{reason="conflict"}`, func(s StatsSnapshot) uint64 { return s.AbortsConflict }},
		{`deferstm_aborts_total{reason="capacity"}`, func(s StatsSnapshot) uint64 { return s.AbortsCapacity }},
		{`deferstm_aborts_total{reason="syscall"}`, func(s StatsSnapshot) uint64 { return s.AbortsSyscall }},
		{`deferstm_aborts_total{reason="user"}`, func(s StatsSnapshot) uint64 { return s.UserAborts }},
		{"deferstm_tx_retries_total", func(s StatsSnapshot) uint64 { return s.Retries }},
		{"deferstm_retry_parks_total", func(s StatsSnapshot) uint64 { return s.RetryParks }},
		{"deferstm_retry_wakes_total", func(s StatsSnapshot) uint64 { return s.RetryWakes }},
		{"deferstm_tx_extensions_total", func(s StatsSnapshot) uint64 { return s.Extensions }},
		{"deferstm_serializations_total", func(s StatsSnapshot) uint64 { return s.Serializations }},
		{"deferstm_serial_runs_total", func(s StatsSnapshot) uint64 { return s.SerialRuns }},
		{"deferstm_quiesce_waits_total", func(s StatsSnapshot) uint64 { return s.QuiesceWaits }},
		{"deferstm_quiesce_wait_nanos_total", func(s StatsSnapshot) uint64 { return s.QuiesceNanos }},
		{"deferstm_deferred_ops_total", func(s StatsSnapshot) uint64 { return s.DeferredOps }},
		{"deferstm_injected_faults_total", func(s StatsSnapshot) uint64 { return s.InjectedFaults }},
		{"deferstm_snapshot_txs_total", func(s StatsSnapshot) uint64 { return s.Snapshots }},
		{"deferstm_snapshot_reads_total", func(s StatsSnapshot) uint64 { return s.SnapshotReads }},
		{"deferstm_snapshot_fallbacks_total", func(s StatsSnapshot) uint64 { return s.SnapshotFallbacks }},
		{"deferstm_snapshot_truncations_total", func(s StatsSnapshot) uint64 { return s.SnapshotTruncations }},
	} {
		get := sr.get
		help := "Runtime counter (see stm.StatsSnapshot)."
		switch {
		case strings.HasPrefix(sr.name, "deferstm_aborts_total"):
			help = "Aborted transaction attempts by reason."
		case sr.name == "deferstm_deferred_ops_total":
			help = "Atomic deferrals finished, one per AtomicDefer operation (other commit hooks are not counted)."
		}
		reg.Counter(sr.name, help, func() uint64 { return get(snap()) })
	}
}
