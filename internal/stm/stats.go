package stm

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"unsafe"
)

// The runtime's monotonic event counters are striped: every logical
// counter is spread over a power-of-two number of cache-line-padded
// shards, and an increment touches only the calling goroutine's shard.
// Before striping, every transaction bumped Starts/Commits/abort
// counters in one shared block of atomic words, so committers on
// different CPUs invalidated each other's counter lines on every
// transaction — pure bookkeeping true-sharing on the hottest path.
// Reads (Snapshot, Counter.Load) sum all shards, so counter values
// stay exact; only the memory location of each increment changed.
//
// Counter indices into a shard. Keep this list, the counterSlots
// wiring in Stats.init, and StatsSnapshot in sync.
const (
	cStarts = iota
	cCommits
	cUserAborts
	cAbortsConflict
	cAbortsCapacity
	cAbortsSyscall
	cRetries
	cRetryParks
	cRetryWakes
	cExtensions
	cSerializations
	cSerialRuns
	cQuiesceWaits
	cQuiesceNanos
	cDeferredOps
	cInjectedFaults
	cSnapshots
	cSnapshotReads
	cSnapshotFallbacks
	cSnapshotTruncations
	nStatCounters
)

// statShard holds one stripe of every counter. Shards are padded to a
// 64-byte multiple with at least one pad byte, so two shards never
// share a cache line; counters within one shard may share lines, but
// one shard is (statistically) written by one goroutine. The padding
// expression deliberately yields a full line (64, not 0) when the
// counter payload is itself an exact multiple of 64 bytes — the
// previous `(64 - x%64) % 64` form collapsed to zero padding in that
// case, making the last counter of one shard and the first counter of
// the next share a line. See TestStatShardLayout.
type statShard struct {
	c [nStatCounters]atomic.Uint64
	_ [64 - (nStatCounters*8)%64]byte
}

// Counter is one striped runtime counter. It keeps the incrementing
// API the unpadded atomic fields had (`rt.Stats().Commits.Add(1)`),
// so cooperating packages (core, mempool) did not change. The
// zero Counter is invalid; counters live inside a Runtime's Stats.
type Counter struct {
	s *Stats
	i uint32
}

// Add increments the counter by n on the calling goroutine's stripe.
func (c Counter) Add(n uint64) {
	s := c.s
	s.shards[stripeIdx()&s.mask].c[c.i].Add(n)
}

// addAt is Add on the stripe a registry slot index selects, for the
// counters run bumps on every transaction. stripeIdx hashes a stack
// address, so with the 4 stripes of a 2-CPU host two goroutines landed
// on one stripe one run in four and bounced its line for the whole run;
// transactions that run at the same time hold different slots, and
// begins fill the registry from slot 0 up, so they share a stripe only
// when more slots are in use than there are stripes.
func (c Counter) addAt(slot int, n uint64) {
	s := c.s
	s.shards[uint32(slot)&s.mask].c[c.i].Add(n)
}

// Load returns the counter's exact current value (the sum over all
// stripes).
func (c Counter) Load() uint64 {
	s := c.s
	var t uint64
	for i := range s.shards {
		t += s.shards[i].c[c.i].Load()
	}
	return t
}

// stripeIdx derives a goroutine-affine stripe hint from the address of
// a stack variable: distinct goroutines run on distinct stacks, so the
// mixed address separates concurrent committers without runtime
// support (no procPin, no goroutine IDs). The value is stable within a
// call frame and merely *tends* to differ across goroutines — any
// distribution is correct, only contention varies.
func stripeIdx() uint32 {
	var b byte
	p := uintptr(unsafe.Pointer(&b))
	return uint32((uint64(p) * 0x9e3779b97f4a7c15) >> 33)
}

// Stats holds the runtime's monotonic event counters. All counters are
// updated atomically; Snapshot produces a consistent-enough copy for
// reporting (individual counters are exact; cross-counter skew is
// bounded by in-flight transactions).
//
// Every counter is the STM's own, except DeferredOps: an atomic deferral
// runs as an stm commit hook, and core has no object of its own to hang
// a counter on.
// The layers above the STM (wal, kv, server, repl) count their own work.
type Stats struct {
	shards []statShard
	mask   uint32

	Starts         Counter // transaction attempts begun
	Commits        Counter // top-level commits (incl. serial)
	UserAborts     Counter // fn returned a non-nil error
	AbortsConflict Counter // validation / lock-acquire conflicts
	AbortsCapacity Counter // simulated HTM footprint overflow
	AbortsSyscall  Counter // irrevocability requested under HTM
	Retries        Counter // explicit Retry calls (condition sync)
	RetryParks     Counter // retries that parked on watchers (watch.go)
	RetryWakes     Counter // parked retries woken by a writing commit
	Extensions     Counter // successful read-version extensions
	Serializations Counter // escalations to serial mode
	SerialRuns     Counter // serial-mode executions (incl. AtomicSerial)
	QuiesceWaits   Counter // quiesce calls that actually waited
	QuiesceNanos   Counter // total nanoseconds spent waiting in quiesce
	DeferredOps    Counter // atomic deferrals finished, one per AtomicDefer op (set by core)
	InjectedFaults Counter // faults fired by Config.Inject

	// Snapshot-mode counters (snapshot.go). SnapshotFallbacks counts
	// snapshot attempts that re-ran on the validating path (chain
	// overflow or Retry at a pinned timestamp); SnapshotTruncations
	// counts version-chain nodes the depth bound dropped while some
	// registered snapshot could still have needed them.
	Snapshots           Counter // committed snapshot-mode transactions
	SnapshotReads       Counter // reads resolved at a pinned version
	SnapshotFallbacks   Counter // snapshot attempts that fell back
	SnapshotTruncations Counter // still-needed chain nodes depth-dropped
}

// init sizes the stripe array and wires every Counter field to its
// slot. Called once from New, before the Runtime is shared.
//
// Stripes are sized from the machine's CPU count, not GOMAXPROCS:
// hardware parallelism bounds how many increments can truly race, and
// GOMAXPROCS is both mutable after New (a runtime built under
// GOMAXPROCS(1) would keep 4 stripes forever) and routinely lowered by
// benchmarks without any intent to shrink counter striping. The count
// is floored at 4 and capped at 64 stripes: beyond 64, the per-read
// merge cost (Snapshot sums every stripe) outgrows any contention
// relief more CPUs could buy on pure counter increments.
func (s *Stats) init() {
	stripes := 2 * runtime.NumCPU()
	if stripes < 4 {
		stripes = 4
	}
	if stripes > 64 {
		stripes = 64
	}
	// Round up to a power of two for mask indexing.
	p := 1
	for p < stripes {
		p <<= 1
	}
	s.shards = make([]statShard, p)
	s.mask = uint32(p - 1)
	counterSlots := [nStatCounters]*Counter{
		cStarts:              &s.Starts,
		cCommits:             &s.Commits,
		cUserAborts:          &s.UserAborts,
		cAbortsConflict:      &s.AbortsConflict,
		cAbortsCapacity:      &s.AbortsCapacity,
		cAbortsSyscall:       &s.AbortsSyscall,
		cRetries:             &s.Retries,
		cRetryParks:          &s.RetryParks,
		cRetryWakes:          &s.RetryWakes,
		cExtensions:          &s.Extensions,
		cSerializations:      &s.Serializations,
		cSerialRuns:          &s.SerialRuns,
		cQuiesceWaits:        &s.QuiesceWaits,
		cQuiesceNanos:        &s.QuiesceNanos,
		cDeferredOps:         &s.DeferredOps,
		cInjectedFaults:      &s.InjectedFaults,
		cSnapshots:           &s.Snapshots,
		cSnapshotReads:       &s.SnapshotReads,
		cSnapshotFallbacks:   &s.SnapshotFallbacks,
		cSnapshotTruncations: &s.SnapshotTruncations,
	}
	for i, c := range counterSlots {
		*c = Counter{s: s, i: uint32(i)}
	}
}

// StatsSnapshot is a plain-value copy of Stats.
type StatsSnapshot struct {
	Starts         uint64
	Commits        uint64
	UserAborts     uint64
	AbortsConflict uint64
	AbortsCapacity uint64
	AbortsSyscall  uint64
	Retries        uint64
	RetryParks     uint64
	RetryWakes     uint64
	Extensions     uint64
	Serializations uint64
	SerialRuns     uint64
	QuiesceWaits   uint64
	QuiesceNanos   uint64
	DeferredOps    uint64
	InjectedFaults uint64

	Snapshots           uint64
	SnapshotReads       uint64
	SnapshotFallbacks   uint64
	SnapshotTruncations uint64
}

// Stats returns a pointer to the live counters (for incrementing by
// cooperating packages such as core).
func (rt *Runtime) Stats() *Stats { return &rt.stats }

// Snapshot copies the current counter values, summing every stripe in
// one pass over the shard array.
func (rt *Runtime) Snapshot() StatsSnapshot {
	s := &rt.stats
	var t [nStatCounters]uint64
	for i := range s.shards {
		sh := &s.shards[i]
		for j := 0; j < nStatCounters; j++ {
			t[j] += sh.c[j].Load()
		}
	}
	return StatsSnapshot{
		Starts:         t[cStarts],
		Commits:        t[cCommits],
		UserAborts:     t[cUserAborts],
		AbortsConflict: t[cAbortsConflict],
		AbortsCapacity: t[cAbortsCapacity],
		AbortsSyscall:  t[cAbortsSyscall],
		Retries:        t[cRetries],
		RetryParks:     t[cRetryParks],
		RetryWakes:     t[cRetryWakes],
		Extensions:     t[cExtensions],
		Serializations: t[cSerializations],
		SerialRuns:     t[cSerialRuns],
		QuiesceWaits:   t[cQuiesceWaits],
		QuiesceNanos:   t[cQuiesceNanos],
		DeferredOps:    t[cDeferredOps],
		InjectedFaults: t[cInjectedFaults],

		Snapshots:           t[cSnapshots],
		SnapshotReads:       t[cSnapshotReads],
		SnapshotFallbacks:   t[cSnapshotFallbacks],
		SnapshotTruncations: t[cSnapshotTruncations],
	}
}

// Delta returns the per-field difference s - prev: the counter activity of
// the interval between the two snapshots. It is the canonical way to report
// per-workload or per-phase statistics (cmd/stmtorture).
func (s StatsSnapshot) Delta(prev StatsSnapshot) StatsSnapshot {
	return StatsSnapshot{
		Starts:         s.Starts - prev.Starts,
		Commits:        s.Commits - prev.Commits,
		UserAborts:     s.UserAborts - prev.UserAborts,
		AbortsConflict: s.AbortsConflict - prev.AbortsConflict,
		AbortsCapacity: s.AbortsCapacity - prev.AbortsCapacity,
		AbortsSyscall:  s.AbortsSyscall - prev.AbortsSyscall,
		Retries:        s.Retries - prev.Retries,
		RetryParks:     s.RetryParks - prev.RetryParks,
		RetryWakes:     s.RetryWakes - prev.RetryWakes,
		Extensions:     s.Extensions - prev.Extensions,
		Serializations: s.Serializations - prev.Serializations,
		SerialRuns:     s.SerialRuns - prev.SerialRuns,
		QuiesceWaits:   s.QuiesceWaits - prev.QuiesceWaits,
		QuiesceNanos:   s.QuiesceNanos - prev.QuiesceNanos,
		DeferredOps:    s.DeferredOps - prev.DeferredOps,
		InjectedFaults: s.InjectedFaults - prev.InjectedFaults,

		Snapshots:           s.Snapshots - prev.Snapshots,
		SnapshotReads:       s.SnapshotReads - prev.SnapshotReads,
		SnapshotFallbacks:   s.SnapshotFallbacks - prev.SnapshotFallbacks,
		SnapshotTruncations: s.SnapshotTruncations - prev.SnapshotTruncations,
	}
}

// Sub is a deprecated alias for Delta.
func (s StatsSnapshot) Sub(prev StatsSnapshot) StatsSnapshot { return s.Delta(prev) }

// Aborts returns the total number of aborted attempts of all kinds
// (excluding user aborts, which are final).
func (s StatsSnapshot) Aborts() uint64 {
	return s.AbortsConflict + s.AbortsCapacity + s.AbortsSyscall
}

func (s StatsSnapshot) String() string {
	base := fmt.Sprintf(
		"commits=%d aborts(conflict=%d capacity=%d syscall=%d) retries=%d serializations=%d serialRuns=%d quiesce(waits=%d ms=%.1f) deferred(ops=%d) injected=%d",
		s.Commits, s.AbortsConflict, s.AbortsCapacity, s.AbortsSyscall,
		s.Retries, s.Serializations, s.SerialRuns,
		s.QuiesceWaits, float64(s.QuiesceNanos)/1e6,
		s.DeferredOps, s.InjectedFaults)
	if s.RetryParks != 0 || s.RetryWakes != 0 {
		base += fmt.Sprintf(" retryPark(parks=%d wakes=%d)",
			s.RetryParks, s.RetryWakes)
	}
	if s.Snapshots != 0 || s.SnapshotFallbacks != 0 {
		base += fmt.Sprintf(" snapshot(txs=%d reads=%d fallbacks=%d truncations=%d)",
			s.Snapshots, s.SnapshotReads, s.SnapshotFallbacks, s.SnapshotTruncations)
	}
	return base
}
