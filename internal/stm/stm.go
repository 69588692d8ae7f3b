// Package stm implements a software transactional memory runtime in the
// style of TL2 (Dice, Shalev, Shavit), extended with the machinery the
// atomic-deferral paper (Zhou, Luchangco, Spear; SPAA/OPODIS 2017) requires:
//
//   - transactional variables (Var[T]) protected by versioned locks,
//   - a global version clock with timestamp extension,
//   - retry-based condition synchronization (Harris et al.) with
//     wake-on-write watchers: blocked retries park on their read set
//     and are woken by the first commit writing any of it (watch.go),
//   - irrevocability via a serial mode that drains all concurrent
//     transactions (GCC libitm's "serial" method group),
//   - a contention manager that escalates to serial mode after repeated
//     aborts (default 100 attempts for STM, 2 for HTM, the GCC defaults
//     quoted in the paper's Section 2),
//   - privatization-safe quiescence: after every writing commit the
//     committer waits until all transactions that began before its commit
//     have completed (committed or aborted),
//   - an ordered post-commit hook pipeline (used by package core to run
//     atomically deferred operations after quiescence); Listing 1's
//     deferred reclamation (tm_free_list) has no counterpart here, as the
//     garbage collector keeps freed memory alive (DESIGN.md §5, "No free
//     list"),
//   - a simulated best-effort hardware TM mode (ModeHTM) with capacity
//     aborts and no in-transaction irrevocability, modelling Intel TSX as
//     driven by GCC's HTM fast path.
//
// The runtime is explicit rather than compiler-driven: transactional data
// lives in Var[T] cells and transactions run as closures passed to
// (*Runtime).Atomic. This preserves every algorithmic effect the paper
// measures (conflict aborts, serialization stalls, quiescence stalls, lock
// subscription) without compiler instrumentation.
package stm

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Mode selects the execution engine for transactions started on a Runtime.
type Mode int

const (
	// ModeSTM is the software path: TL2 validation, quiescence after
	// writer commits, serialization after Config.SerializeAfter failed
	// attempts (default 100).
	ModeSTM Mode = iota
	// ModeHTM simulates a best-effort hardware TM: transactions abort
	// when their simulated cache footprint exceeds the configured
	// capacity or when they request irrevocability, and fall back to the
	// serial path after Config.SerializeAfter failed attempts (default
	// 2). Committed HTM transactions do not quiesce: hardware TM is
	// privatization-safe.
	ModeHTM
)

func (m Mode) String() string {
	switch m {
	case ModeSTM:
		return "STM"
	case ModeHTM:
		return "HTM"
	default:
		return "Mode(?)"
	}
}

// Default capacity limits for the simulated HTM, expressed in 64-byte
// cache lines. They approximate a TSX-era core: writes are bounded by the
// L1 data cache (32 KiB, 512 lines) and reads by a larger tracking
// structure.
const (
	DefaultHTMWriteLines = 512
	DefaultHTMReadLines  = 4096
)

// Config parameterizes a Runtime. The zero value is a usable STM
// configuration.
type Config struct {
	// Mode selects STM or simulated HTM execution.
	Mode Mode

	// SerializeAfter is the number of failed attempts after which the
	// contention manager escalates a transaction to serial (irrevocable)
	// mode. 0 selects the GCC default for the mode: 100 for STM, 2 for
	// HTM.
	SerializeAfter int

	// SpinRetry is an explicit opt-out of watcher-based retry: instead
	// of registering on its read set and parking until a commit writes
	// one of the vars (the default; see watch.go), a retrying
	// transaction aborts and immediately re-executes, burning CPU
	// re-evaluating its condition. This is the paper's polling
	// implementation — Section 6.1 attributes part of the defer
	// overhead to exactly this — kept as a config so ablation A3
	// (BenchmarkAblationRetry) can measure the difference.
	SpinRetry bool

	// HTMReadLines and HTMWriteLines bound the simulated HTM footprint,
	// in cache lines. 0 selects the defaults above. Ignored in ModeSTM.
	HTMReadLines  int
	HTMWriteLines int

	// Recorder, when non-nil, receives an Event for every transactional
	// action (begin, read, write, commit, abort, quiesce, lock and
	// deferral transitions), timestamped with version-clock values so
	// the history can be checked offline by internal/check. Nil (the
	// default) disables recording; every emission site is guarded by a
	// single nil test, so the disabled cost is one predictable branch.
	Recorder Recorder

	// Inject, when non-nil, enables seeded fault injection (forced
	// aborts and stalls at adversarial points). See Inject.
	Inject *Inject
}

func (c Config) withDefaults() Config {
	if c.SerializeAfter <= 0 {
		if c.Mode == ModeHTM {
			c.SerializeAfter = 2
		} else {
			c.SerializeAfter = 100
		}
	}
	if c.HTMReadLines <= 0 {
		c.HTMReadLines = DefaultHTMReadLines
	}
	if c.HTMWriteLines <= 0 {
		c.HTMWriteLines = DefaultHTMWriteLines
	}
	return c
}

// snapshotChainDepth bounds each Var's version chain: how many superseded
// values writers retain for active snapshot readers (see snapshot.go). A
// snapshot slower than that many overwrites of a var it reads falls back
// to the validating path; each retained version costs one small node plus
// the value box it pins.
const snapshotChainDepth = 8

// OwnerID identifies a lock-owning agent to transaction-friendly locks
// (package txlock). Each top-level Atomic execution is assigned a fresh
// OwnerID unless it inherits one via AtomicAs; deferred operations inherit
// the OwnerID of their deferring transaction so that reentrant lock
// acquisition works across the commit boundary, exactly as thread identity
// does in the paper's C++ runtime.
//
// The zero OwnerID means "nobody" and is never assigned.
type OwnerID uint64

// Runtime is a transactional memory domain: a global version clock, an
// active-transaction registry, a serial-mode gate, and statistics. Vars are
// not bound to a Runtime, but all transactions that access a given Var must
// run on the same Runtime for conflict detection and quiescence to be
// meaningful.
type Runtime struct {
	// Read by every transaction, written only by New, SetMetrics and the
	// serial gate: these share cache lines with each other and with
	// nothing a begin or a commit stores to (TestRuntimeLayout).
	cfg   Config
	slots []slot // active-transaction registry (quiescence, draining)
	// slotsUsed is the highest slot ever claimed, plus one: quiesce sweeps
	// slots[:slotsUsed]. It only grows, and only the first claim of a new
	// highest slot stores to it (markSlotUsed).
	slotsUsed atomic.Int32
	snapDepth int // version-chain bound: snapshotChainDepth, or a test's own

	serialWant atomic.Int32 // >0: a serial transaction is pending/running
	// serialClear is closed when serialWant drops to zero, so blocked
	// transaction begins wake immediately instead of polling.
	serialClear atomic.Pointer[chan struct{}]

	rec Recorder  // nil = recording disabled
	inj *injector // nil = fault injection disabled

	// met is the attached latency instrumentation (nil = disabled).
	// Atomic because benchmarks attach metrics to warm runtimes whose
	// background goroutines (map migrators, WAL flushers) already read it.
	met metricsPtr

	// quiesceTestHook, when non-nil, runs between quiesce's snapshot
	// pass and its re-poll loop, so tests can deterministically finish
	// (or prolong) pending transactions in that window.
	quiesceTestHook func()

	txPool sync.Pool
	stats  Stats // the counters live in separately allocated stripes

	// The global version clock (TL2) has a line to itself: every begin
	// loads it and every writing commit ticks it, so whatever shared its
	// line would be evicted from every core once per writing commit.
	_     [cacheLine]byte
	clock atomic.Uint64
	_     [cacheLine - 8]byte

	// Written while transactions run, none of it by every transaction.

	serialMu sync.Mutex // serializes serial-mode transactions

	// parked counts transactions currently blocked in watcher-based
	// retry (diagnostics; the waiters themselves live in per-var
	// watch sets, see watch.go).
	parked atomic.Int64

	// Snapshot registry (snapshot.go): active snapshot pins and the
	// truncation horizon writers consult when publishing. The map is
	// mutated only at snapshot begin/end — never on the read path — so
	// a mutex is cheap; snapHorizon is the lock-free digest writers
	// load once per commit.
	snapMu      sync.Mutex
	snapActive  map[uint64]uint64 // token → floor (registered pre-pin clock)
	snapCtr     uint64            // token source, under snapMu
	snapHorizon atomic.Uint64     // min active floor, or noSnapshotHorizon

	// ownerCtr is the source of lock-owner identities: NewOwner takes
	// one, a descriptor takes ownerBlock at a time (Tx.freshOwner).
	ownerCtr atomic.Uint64
	txIDCtr  atomic.Uint64 // history transaction IDs (recording only)
}

// cacheLine is the unit the Runtime and the registry are laid out in.
const cacheLine = 64

// New creates a Runtime with the given configuration.
func New(cfg Config) *Runtime {
	cfg = cfg.withDefaults()
	// The active-transaction registry (quiescence, serial-mode draining)
	// has 4 slots per P, at least 64.
	slots := max(4*runtime.GOMAXPROCS(0), 64)
	rt := &Runtime{
		cfg:        cfg,
		slots:      make([]slot, slots),
		snapDepth:  snapshotChainDepth,
		rec:        cfg.Recorder,
		snapActive: make(map[uint64]uint64),
	}
	rt.snapHorizon.Store(noSnapshotHorizon)
	rt.stats.init()
	if cfg.Inject != nil {
		rt.inj = newInjector(*cfg.Inject)
	}
	sc := make(chan struct{})
	close(sc) // initially clear: no serial transaction pending
	rt.serialClear.Store(&sc)
	rt.txPool.New = func() any { return newTx(rt) }
	return rt
}

// NewDefault creates an STM Runtime with default configuration.
func NewDefault() *Runtime { return New(Config{}) }

// Config returns the (defaulted) configuration the Runtime was built with.
func (rt *Runtime) Config() Config { return rt.cfg }

// Mode reports the runtime's execution mode.
func (rt *Runtime) Mode() Mode { return rt.cfg.Mode }

// NewOwner allocates a fresh lock-owner identity. Use this when a
// transaction-friendly lock must be held across multiple transactions by
// the same logical thread (e.g. acquire in one transaction, release in a
// later one).
func (rt *Runtime) NewOwner() OwnerID {
	return OwnerID(rt.ownerCtr.Add(1))
}

// GlobalClock returns the current value of the global version clock.
// It is exported for tests and diagnostics.
func (rt *Runtime) GlobalClock() uint64 { return rt.clock.Load() }

// nextWriteVersion draws a commit timestamp for a writing transaction
// that holds its commit locks — TL2's GV4 ("pass on failure") clock:
// one CAS attempt, and on failure the committer adopts the value the
// winning committer just installed instead of re-fighting for the
// line. Under K concurrent committers the clock line takes one
// successful RMW instead of K serialized ones, and the clock advances
// more slowly, so concurrent readers extend/validate less often.
//
// Sharing a timestamp is safe because both committers held their
// commit locks across the same instant (the winner's increment falls
// between the adopter's load and its reload), so their write sets are
// necessarily disjoint, and any transaction that could observe the
// difference aborts on validation. The second return value reports
// whether the caller won the increment itself: only then may it use
// the TL2 "nothing committed since begin" validation fast path —
// an adopted timestamp *means* another writer committed concurrently.
func (rt *Runtime) nextWriteVersion() (uint64, bool) {
	cur := rt.clock.Load()
	if rt.clock.CompareAndSwap(cur, cur+1) {
		return cur + 1, true
	}
	// The CAS failed, so the clock moved past cur after our load; the
	// reload is the (monotonic) value some concurrent winner installed
	// while we held our locks. Adopt it.
	return rt.clock.Load(), false
}
