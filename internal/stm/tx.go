package stm

import (
	"cmp"
	"fmt"
	"slices"
)

// abortReason classifies why an attempt failed; it feeds the contention
// manager and the statistics counters.
type abortReason int

const (
	abortNone          abortReason = iota
	abortConflict                  // read/validation/lock-acquire conflict
	abortCapacity                  // simulated HTM footprint overflow
	abortSyscall                   // irrevocability requested under HTM
	abortExplicitRetry             // user called Retry (condition sync)
	abortEscalate                  // user called Irrevocable under STM
	abortSnapshot                  // snapshot read outran the version chain
)

func (r abortReason) String() string {
	switch r {
	case abortConflict:
		return "conflict"
	case abortCapacity:
		return "capacity"
	case abortSyscall:
		return "syscall"
	case abortExplicitRetry:
		return "retry"
	case abortEscalate:
		return "escalate"
	case abortSnapshot:
		return "snapshot"
	default:
		return "none"
	}
}

// txSignal is the panic payload used for internal control flow (abort,
// retry, escalation). Atomic recovers it; any other panic propagates.
type txSignal struct {
	reason abortReason
}

type readEntry struct {
	m   *varMeta
	ver uint64 // raw lock word observed (unlocked, so even)
}

type writeEntry struct {
	v       txVar
	m       *varMeta
	pending any // *T box
	prevW   uint64
}

// smallWriteSet is the write-set size up to which read-after-write
// lookups use an inline linear scan over tx.writes instead of a map.
// Typical transactions write a handful of vars; for those the scan is
// both faster than hashing and allocation-free. Past this bound a map
// is built lazily (and its storage cached on the descriptor, so even
// repeated large transactions allocate it once).
const smallWriteSet = 8

// Tx is a transaction descriptor. A Tx is only valid inside the closure
// passed to Atomic and must not be retained or used from other goroutines.
type Tx struct {
	rt *Runtime

	rv     uint64 // read version (TL2 snapshot timestamp)
	reads  []readEntry
	writes []writeEntry
	// wmap indexes writes by var once the write set outgrows
	// smallWriteSet; nil while the linear-scan fast path is in use.
	// wmapCache keeps the (cleared) map across transactions so the
	// overflow path allocates at most once per descriptor.
	wmap      map[*varMeta]int
	wmapCache map[*varMeta]int

	active bool
	serial bool
	htm    bool
	slow   bool // htm mode or recorder attached: per-read slow path
	snap   bool // snapshot mode: reads resolve at the pinned rv (snapshot.go)
	// ro marks the whole Atomic call read-only: set for snapshot entry
	// points and kept across fallback attempts, so Set fails the same
	// way whether or not the snapshot fell back.
	ro bool

	snapReads uint64 // reads resolved in snapshot mode (flushed to stats)

	owner    OwnerID
	attempts int

	// slot is the registry slot this descriptor used last; the next
	// begin tries it first (acquireSlot). It is held — active in the
	// registry — only during an optimistic attempt; serial and snapshot
	// attempts hold none and leave it alone. It also picks the stats
	// stripe for Starts and Commits.
	slot int

	// ownerNext..ownerEnd is the unused part of the block of lock-owner
	// identities this descriptor last drew from rt.ownerCtr (freshOwner).
	ownerNext, ownerEnd OwnerID

	// simulated HTM footprint, in cache lines
	htmReadLines  int
	htmWriteLines int

	// post-commit pipeline: ordered deferred operations (package core)
	hooks []func()

	// history recording (Config.Recorder non-nil)
	id      uint64  // per-attempt transaction ID
	pendEvs []Event // events flushed only if this attempt commits

	rng uint64 // xorshift for backoff jitter

	// Descriptors are allocated back to back, and every transaction
	// stores to both ends of its own (rv and the read set at the head,
	// the hook and event lists at the tail). A line of padding keeps the
	// head of the next descriptor, which another core may be running on,
	// off the last line this one writes.
	_ [cacheLine]byte
}

func newTx(rt *Runtime) *Tx {
	return &Tx{
		rt:  rt,
		rng: 0x9e3779b97f4a7c15,
	}
}

// ownerBlock is how many lock-owner identities a descriptor reserves per
// visit to rt.ownerCtr: one shared RMW per 4096 transactions instead of
// one each. A descriptor the pool drops takes its unused identities with
// it; the counter is 64 bits wide.
const ownerBlock = 4096

// freshOwner returns a lock-owner identity no other transaction and no
// NewOwner call has or will be given: blocks and NewOwner's single
// identities are disjoint ranges of the same counter.
func (tx *Tx) freshOwner() OwnerID {
	if tx.ownerNext == tx.ownerEnd {
		tx.ownerEnd = OwnerID(tx.rt.ownerCtr.Add(ownerBlock)) + 1
		tx.ownerNext = tx.ownerEnd - ownerBlock
	}
	id := tx.ownerNext
	tx.ownerNext++
	return id
}

// Runtime returns the runtime this transaction executes on.
func (tx *Tx) Runtime() *Runtime { return tx.rt }

// Owner returns the lock-owner identity of this transaction. Deferred
// operations inherit it, so transaction-friendly locks acquired by a
// transaction can be released (and reentered) by its deferred operations.
func (tx *Tx) Owner() OwnerID { return tx.owner }

func (tx *Tx) mustBeActive() {
	if !tx.active {
		panic("stm: use of Tx outside its transaction")
	}
}

func (tx *Tx) recordRead(m *varMeta, word uint64) {
	tx.reads = append(tx.reads, readEntry{m: m, ver: word})
	if tx.slow {
		tx.recordReadSlow(m, word)
	}
}

// recordReadSlow carries the recording and simulated-HTM sides of a
// read. tx.slow is precomputed at begin (htm mode, or a recorder
// attached) so the common path — no recorder, ModeSTM — costs one
// predictable branch and stays within the inlining budget.
func (tx *Tx) recordReadSlow(m *varMeta, word uint64) {
	if tx.rt.rec != nil {
		tx.rt.rec.Record(Event{Kind: EvRead, TxID: tx.id, Owner: tx.owner,
			Var: m.idLoad(), Ver: wordVersion(word)})
	}
	if tx.htm {
		tx.htmReadLines++
		if tx.rt.inj != nil {
			tx.injectCapacity()
		}
		tx.checkCapacity()
	}
}

// snapRead accounts one snapshot-mode read; ver is the commit version
// of the value the pin resolved to (what the consistent-cut checker
// verifies against the pinned timestamp).
func (tx *Tx) snapRead(m *varMeta, ver uint64) {
	tx.snapReads++
	if tx.slow && tx.rt.rec != nil {
		tx.rt.rec.Record(Event{Kind: EvRead, TxID: tx.id, Owner: tx.owner,
			Var: m.idLoad(), Ver: ver})
	}
}

func (tx *Tx) recordWrite(v txVar, m *varMeta, pending any) {
	if tx.ro {
		panic("stm: write inside a snapshot (read-only) transaction")
	}
	tx.writes = append(tx.writes, writeEntry{v: v, m: m, pending: pending})
	if tx.wmap != nil {
		tx.wmap[m] = len(tx.writes) - 1
	} else if len(tx.writes) > smallWriteSet {
		tx.spillWrites()
	}
	if tx.htm {
		tx.htmWriteLines++
		tx.checkCapacity()
	}
}

// findWrite returns the index of m's entry in tx.writes, or -1. Small
// write sets scan the slice backward (recent writes are re-read most
// often); large ones use the overflow map built by spillWrites.
func (tx *Tx) findWrite(m *varMeta) int {
	if tx.wmap != nil {
		if i, ok := tx.wmap[m]; ok {
			return i
		}
		return -1
	}
	for i := len(tx.writes) - 1; i >= 0; i-- {
		if tx.writes[i].m == m {
			return i
		}
	}
	return -1
}

// spillWrites switches the write set from linear scan to map lookup,
// reusing the descriptor's cached map when one exists.
func (tx *Tx) spillWrites() {
	m := tx.wmapCache
	if m == nil {
		m = make(map[*varMeta]int, 4*smallWriteSet)
		tx.wmapCache = m
	}
	for i := range tx.writes {
		m[tx.writes[i].m] = i
	}
	tx.wmap = m
}

// HTMTouch models non-transactional memory touched inside a hardware
// transaction (e.g. a large private buffer filled by a compression call).
// Real HTM tracks every cache line a transaction touches, so touching more
// than the capacity aborts the transaction even if the data is thread
// private. readBytes and writeBytes are converted to 64-byte lines and
// added to the simulated footprint. In ModeSTM (and serial mode) this is a
// no-op, mirroring the paper's observation that the same code merely
// lengthens an STM transaction but overflows an HTM one.
func (tx *Tx) HTMTouch(readBytes, writeBytes int) {
	tx.mustBeActive()
	if !tx.htm {
		return
	}
	tx.htmReadLines += (readBytes + 63) / 64
	tx.htmWriteLines += (writeBytes + 63) / 64
	tx.checkCapacity()
}

func (tx *Tx) checkCapacity() {
	if tx.htmReadLines > tx.rt.cfg.HTMReadLines ||
		tx.htmWriteLines > tx.rt.cfg.HTMWriteLines {
		tx.rt.stats.AbortsCapacity.Add(1)
		panic(txSignal{abortCapacity})
	}
}

// injectCapacity fires a forced capacity abort with probability
// Inject.CapacityPct, from the per-read slow path of HTM transactions.
func (tx *Tx) injectCapacity() {
	if tx.rt.inj.hitCapacity() {
		tx.rt.stats.InjectedFaults.Add(1)
		tx.rt.stats.AbortsCapacity.Add(1)
		panic(txSignal{abortCapacity})
	}
}

func (tx *Tx) abortConflict() {
	tx.rt.stats.AbortsConflict.Add(1)
	panic(txSignal{abortConflict})
}

// Retry aborts the transaction and blocks until another commit changes a
// location in its read set, then re-executes it — the condition
// synchronization of Harris et al. described in the paper's Section 2. The
// transaction's effects are discarded; it will appear to have executed only
// from a state where it did not call Retry.
func (tx *Tx) Retry() {
	tx.mustBeActive()
	if tx.snap {
		// A pinned snapshot can never be woken: nothing it reads will
		// ever change at its timestamp. Fall back to the validating
		// read-only path, which registers on its read set and parks.
		panic(txSignal{abortSnapshot})
	}
	if tx.serial {
		// A serial transaction runs alone; waiting for another commit
		// would deadlock. Abort serial mode and re-run as a normal
		// transaction that can legitimately wait.
		panic(txSignal{abortExplicitRetry})
	}
	tx.rt.stats.Retries.Add(1)
	panic(txSignal{abortExplicitRetry})
}

// Irrevocable requests that the remainder of the transaction be executed
// irrevocably. Under STM the transaction restarts in serial mode (all other
// transactions drain first), modelling a GCC `synchronized` block reaching
// an unsafe operation. Under simulated HTM the request aborts the hardware
// transaction (privilege changes abort TSX); the contention manager will
// fall back to the serial path after SerializeAfter attempts.
func (tx *Tx) Irrevocable() {
	tx.mustBeActive()
	if tx.serial {
		return // already irrevocable
	}
	if tx.htm {
		tx.rt.stats.AbortsSyscall.Add(1)
		panic(txSignal{abortSyscall})
	}
	panic(txSignal{abortEscalate})
}

// AfterCommit schedules fn to run after the transaction commits and the
// runtime has quiesced, in registration order. If the transaction aborts,
// scheduled hooks are discarded (the re-executed closure registers them
// again). This is the primitive package core builds atomic_defer on.
//
// Hooks run after the transaction descriptor is released, so they may
// freely start new transactions.
func (tx *Tx) AfterCommit(fn func()) {
	tx.mustBeActive()
	if tx.ro {
		// Snapshot transactions commit without quiescing (they hold no
		// registry slot), so the "after quiescence" contract hooks rely
		// on cannot be honored; same answer on the fallback path so the
		// failure is deterministic.
		panic("stm: AfterCommit inside a snapshot (read-only) transaction")
	}
	tx.hooks = append(tx.hooks, fn)
}

// Nested runs fn as a flat-nested transaction: its reads and writes merge
// into tx, and an error aborts the whole flattened transaction (Atomic
// returns the error). This mirrors C++ TM's flattened nesting, which the
// paper relies on for deadlock-free multi-lock acquisition inside
// atomic_defer. It is the flat-nesting entry point that README and
// Atomic's doc point users to; code in this module nests by passing tx
// down instead.
func (tx *Tx) Nested(fn func(tx *Tx) error) error {
	tx.mustBeActive()
	return fn(tx)
}

// extend attempts to advance the transaction's read version to the current
// global clock by revalidating every read. Returns false if any read is no
// longer valid.
func (tx *Tx) extend() bool {
	newRV := tx.rt.clock.Load()
	for i := range tx.reads {
		e := &tx.reads[i]
		cur := e.m.lock.Load()
		if cur != e.ver {
			return false
		}
	}
	tx.rv = newRV
	tx.rt.slots[tx.slot].setRV(newRV)
	tx.rt.stats.Extensions.Add(1)
	return true
}

// validateReads checks the read set at commit time, with the whole write
// set locked: every entry must be unchanged, and unlocked or locked by
// this transaction — which holds exactly the locks of its write set, so a
// locked entry with the version unchanged beneath the bit is ours if and
// only if the var is one we are writing.
func (tx *Tx) validateReads() bool {
	for i := range tx.reads {
		e := &tx.reads[i]
		cur := e.m.lock.Load()
		if cur == e.ver {
			continue
		}
		if cur == e.ver|lockedBit && tx.findWrite(e.m) >= 0 {
			continue
		}
		return false
	}
	return true
}

// sortWrites orders the write set by var ID so that commit-time lock
// acquisition is globally ordered (deadlock- and livelock-free against
// other committers). slices.SortFunc allocates nothing at any size. After
// sorting, wmap's indices are stale but its keys are not: validateReads
// still asks findWrite whether a var is in the write set, never where.
func (tx *Tx) sortWrites() {
	slices.SortFunc(tx.writes, func(a, b writeEntry) int {
		return cmp.Compare(a.m.idLoad(), b.m.idLoad())
	})
}

// reset prepares the descriptor for another attempt or for reuse.
func (tx *Tx) reset() {
	clear(tx.reads) // a stale entry would pin its Var, and the array it sits in
	tx.reads = tx.reads[:0]
	clear(tx.writes) // drop pending-value boxes so the GC can reclaim them
	tx.writes = tx.writes[:0]
	if tx.wmap != nil {
		clear(tx.wmap)
		tx.wmap = nil // back to the linear-scan fast path
	}
	if len(tx.hooks) != 0 {
		// An aborted attempt's: discarded, the array kept. (A commit
		// takes its own before it resets; see run.)
		clear(tx.hooks)
		tx.hooks = tx.hooks[:0]
	}
	tx.pendEvs = tx.pendEvs[:0]
	tx.htmReadLines = 0
	tx.htmWriteLines = 0
	tx.active = false
	tx.serial = false
	tx.htm = false
	tx.slow = false
	tx.snap = false
	tx.ro = false
	tx.snapReads = 0
}

func (tx *Tx) String() string {
	return fmt.Sprintf("Tx(rv=%d reads=%d writes=%d serial=%v)",
		tx.rv, len(tx.reads), len(tx.writes), tx.serial)
}

// xorshift64 for backoff jitter.
func (tx *Tx) nextRand() uint64 {
	x := tx.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	tx.rng = x
	return x
}
