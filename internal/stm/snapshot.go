package stm

import "sync/atomic"

// Snapshot reads: multi-version concurrency for long read-only
// transactions.
//
// A TL2 read-only transaction of any real length is doomed under write
// traffic: every commit that overwrites something it read forces an
// extend-or-abort, and in the worst case the transaction escalates to
// serial mode and stalls every writer. Snapshot mode removes both
// failure modes by letting writers keep a short per-Var version chain
// (the superseded value and its commit window) and letting a read-only
// transaction pin the global clock once at begin and resolve every read
// against that pinned timestamp:
//
//   - the transaction never validates and never extends — each read is
//     independently consistent at the pinned version, so the whole
//     transaction is trivially serializable there;
//   - writers never see it — it occupies no registry slot, so commits
//     neither quiesce on it nor drain it for serial mode, and it takes
//     no locks a writer could collide with.
//
// Memory stays bounded two ways. The *truncation horizon* — the oldest
// pinned version over all active snapshots, maintained below — lets
// writers drop chain entries no active snapshot can need (and drop the
// chain entirely while no snapshot is active). The configured depth
// bound (snapshotChainDepth) caps each chain regardless; a
// snapshot that reads past a depth-truncated chain never sees a wrong
// value — it misses, aborts with abortSnapshot, and the Atomic loop
// falls back to the ordinary validating read-only path.
//
// Visibility (why a pinned reader never misses a committed-in-time
// value): beginSnapshot registers the snapshot's floor (a clock load)
// and publishes it into snapHorizon *before* loading the clock a second
// time to obtain the pin sv. With Go's sequentially consistent
// atomics, any writer whose commit timestamp wv exceeds sv performed
// its clock increment after our second load, hence loads snapHorizon
// after our store, hence sees horizon ≤ floor ≤ sv and links the value
// it supersedes onto the chain. Writers with wv ≤ sv drew their
// timestamps before the pin, and their publishes hold the var's lock
// bit — a snapshot read spins while the lock bit is set, so in-flight
// publishes at or below sv are waited out, never torn.

// noSnapshotHorizon is snapHorizon's value while no snapshot is active:
// greater than every possible pin, so writers drop chains entirely.
const noSnapshotHorizon = ^uint64(0)

// histNode is one superseded version of a Var: val (a boxed *T) was the
// committed value for clock times in [ver, until). Nodes are immutable
// once linked except for next, which the (per-var, lock-serialized)
// writer may cut to nil during truncation; readers therefore load next
// atomically and tolerate walking a just-cut suffix — its values are
// still correct for their windows, only retention changed.
type histNode struct {
	val   any    // boxed *T, exactly as Var.val stores it
	ver   uint64 // commit version this value was published at
	until uint64 // commit version of the write that superseded it
	next  atomic.Pointer[histNode]
}

// beginSnapshot registers a new snapshot and returns its registry token
// and pinned read version. See the two-load protocol note above: the
// floor is registered and published into snapHorizon strictly before
// the pin is drawn.
func (rt *Runtime) beginSnapshot() (token, sv uint64) {
	rt.snapMu.Lock()
	floor := rt.clock.Load()
	rt.snapCtr++
	token = rt.snapCtr
	rt.snapActive[token] = floor
	if floor < rt.snapHorizon.Load() {
		rt.snapHorizon.Store(floor)
	}
	rt.snapMu.Unlock()
	return token, rt.clock.Load()
}

// endSnapshot deregisters a snapshot and recomputes the truncation
// horizon (the minimum floor over the snapshots still active, or
// noSnapshotHorizon when none remain).
func (rt *Runtime) endSnapshot(token uint64) {
	rt.snapMu.Lock()
	delete(rt.snapActive, token)
	min := uint64(noSnapshotHorizon)
	for _, f := range rt.snapActive {
		if f < min {
			min = f
		}
	}
	rt.snapHorizon.Store(min)
	rt.snapMu.Unlock()
}

// ActiveSnapshots reports how many snapshot transactions are currently
// registered (diagnostics and tests).
func (rt *Runtime) ActiveSnapshots() int {
	rt.snapMu.Lock()
	n := len(rt.snapActive)
	rt.snapMu.Unlock()
	return n
}

// runSnapshot executes one attempt in snapshot mode: pin, run, done.
// There is no commit protocol — the transaction wrote nothing and each
// read was individually consistent at the pin, so the whole execution
// is serializable at sv. It holds no registry slot, so writers neither
// quiesce on it nor drain it; its only footprint is the registered
// floor that holds the truncation horizon down while it runs.
func (rt *Runtime) runSnapshot(tx *Tx, fn func(tx *Tx) error) (out txOutcome) {
	token, sv := rt.beginSnapshot()
	defer rt.endSnapshot(token)
	rt.stats.Starts.addAt(tx.slot, 1)
	tx.rv = sv
	tx.snap = true
	tx.ro = true
	tx.htm = false
	tx.slow = rt.rec != nil
	tx.active = true
	if rt.rec != nil {
		tx.beginRecord(sv, AuxSnapshot)
	}

	defer func() {
		tx.active = false
		if r := recover(); r != nil {
			if sig, ok := r.(txSignal); ok {
				out = txOutcome{sig: sig}
				return
			}
			tx.reset()
			panic(r)
		}
	}()

	err := fn(tx)
	if err != nil {
		return txOutcome{userErr: err}
	}
	rt.stats.Snapshots.Add(1)
	if tx.snapReads > 0 {
		rt.stats.SnapshotReads.Add(tx.snapReads)
		tx.snapReads = 0
	}
	// EvCommit carries Ver 0 (nothing was written) and AuxSnapshot; the
	// pin is on the attempt's EvBegin, which the snapshot-consistency
	// checker reads it from.
	tx.flushCommitEvents(0, AuxSnapshot)
	return txOutcome{committed: true}
}

// AtomicSnapshot executes fn as a snapshot (multi-version) read-only
// transaction: every Get resolves to the value committed at the global
// clock as of the transaction's start, however long fn runs and however
// heavily writers commit meanwhile. fn must not write (Set panics), and
// must be safe to re-execute: if a read outruns the bounded version
// chains (or fn calls Retry), the closure transparently re-runs on the
// ordinary validating read-only path.
func (rt *Runtime) AtomicSnapshot(fn func(tx *Tx) error) error {
	return rt.run(nil, 0, fn, false, true)
}
