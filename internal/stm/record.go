package stm

import "fmt"

// EventKind discriminates history events. The runtime emits events only
// when a Recorder is attached (Config.Recorder); cooperating packages
// (core, txlock) emit their own kinds through RecordEvent/RecordOnCommit.
type EventKind uint8

const (
	_ EventKind = iota // the zero kind is no event

	// EvBegin marks the start of one transaction attempt. Ver is the
	// attempt's read version (its TL2 begin snapshot).
	EvBegin
	// EvRead records a transactional read that returned to the user:
	// Var is the variable, Ver the commit version of the value observed.
	// Serial-mode reads are not recorded (the transaction runs alone).
	EvRead
	// EvWrite records one published write of a committing transaction.
	// Ver is the commit (write) version shared by all of the
	// transaction's writes.
	EvWrite
	// EvCommit marks a successful commit. Ver is the write version (0
	// for a read-only commit with no hooks); Aux is AuxSerial for a
	// serial-mode commit.
	EvCommit
	// EvAbort marks the end of a failed attempt. Aux is an AbortCause*
	// constant. The attempt's EvRead events precede it with the same
	// TxID; the opacity checker validates that read set.
	EvAbort
	// EvQuiesceStart/End bracket a committer's privatization-safety
	// wait. Ver is the commit version being quiesced for.
	EvQuiesceStart
	EvQuiesceEnd
	// EvDirectWrite records a non-transactional StoreDirect publish
	// (used by deferred operations). Var/Ver as for EvWrite; TxID is 0.
	EvDirectWrite

	// Lock events are queued by package txlock during the attempt and
	// flushed only if the attempt commits, carrying the commit version.
	// Var is the lock's owner-variable ID, Owner the acting identity.
	EvLockAcquire   // Aux = resulting reentrancy depth
	EvLockRelease   // Aux = remaining depth (0 = fully released)
	EvLockSubscribe // Aux = owner observed (0 or the subscriber itself)

	// Deferral events are emitted by package core. Aux is the deferred
	// operation ID in all four.
	EvDeferEnqueue // queued at the deferring transaction's commit
	EvDeferLock    // one per protected object: Var = lock owner-var ID
	EvDeferStart   // the deferred λ begins executing
	EvDeferEnd     // the λ finished and its locks were released

	// WAL events are emitted by package wal. EvWALAppend is queued on the
	// appending transaction (flushed only if it commits): Aux is the LSN
	// it reserved, Var the log's lock owner-variable ID, and Aux2 the
	// commit's global commit sequence number, which every kv store
	// commit draws, on one lane or many (0 only for a bare wal.Log
	// append — GSNs start at 1). A commit that touches several lanes
	// emits one EvWALAppend per lane, all sharing the TxID and the GSN.
	// EvWALDurable is emitted by a flush after its fsync returned: Aux is
	// the new durable watermark — every record with LSN ≤ Aux is on
	// stable storage — and Owner the flusher, which holds the log's lock
	// (Var). The durability checker (internal/check) consumes both.
	EvWALAppend
	EvWALDurable

	// Watcher events are emitted by the watcher-based retry path
	// (watch.go). EvWatchRegister records one registration of a blocked
	// retry on a read-set var: Var is the var's ID, Ver the (unlocked)
	// version the aborted attempt observed there — any commit of that
	// var with a greater version must wake the waiter. EvWake records
	// the waiter resuming: Ver is the global clock at wake time and Aux
	// an AuxWake* cause. TxID ties both to the aborted attempt's
	// EvAbort(retry). The retry-wakeup checker (internal/check)
	// consumes both.
	EvWatchRegister
	EvWake

	// EvSnapTruncate records a depth-bound version-chain truncation
	// during a publish (see snapshot.go): Var is the truncated var, Ver
	// the truncation horizon the publisher used, Aux the number of
	// chain nodes dropped that some registered snapshot could still
	// have needed (each such snapshot will miss and fall back). TxID is
	// the publishing transaction's attempt (0 for StoreDirect). The
	// snapshot-consistency checker verifies the horizon never ran ahead
	// of a registered reader's pin.
	EvSnapTruncate
)

func (k EventKind) String() string {
	switch k {
	case EvBegin:
		return "begin"
	case EvRead:
		return "read"
	case EvWrite:
		return "write"
	case EvCommit:
		return "commit"
	case EvAbort:
		return "abort"
	case EvQuiesceStart:
		return "quiesce-start"
	case EvQuiesceEnd:
		return "quiesce-end"
	case EvDirectWrite:
		return "direct-write"
	case EvLockAcquire:
		return "lock-acquire"
	case EvLockRelease:
		return "lock-release"
	case EvLockSubscribe:
		return "lock-subscribe"
	case EvDeferEnqueue:
		return "defer-enqueue"
	case EvDeferLock:
		return "defer-lock"
	case EvDeferStart:
		return "defer-start"
	case EvDeferEnd:
		return "defer-end"
	case EvWALAppend:
		return "wal-append"
	case EvWALDurable:
		return "wal-durable"
	case EvWatchRegister:
		return "watch-register"
	case EvWake:
		return "wake"
	case EvSnapTruncate:
		return "snap-truncate"
	default:
		return "event(?)"
	}
}

// Abort causes reported in EvAbort.Aux.
const (
	AbortCauseConflict = uint64(abortConflict)
	AbortCauseCapacity = uint64(abortCapacity)
	AbortCauseSyscall  = uint64(abortSyscall)
	AbortCauseRetry    = uint64(abortExplicitRetry)
	AbortCauseEscalate = uint64(abortEscalate)
	AbortCauseSnapshot = uint64(abortSnapshot)
	AbortCauseUser     = 64 // fn returned a non-nil error
)

// AuxSerial marks a serial-mode commit in EvCommit.Aux.
const AuxSerial = 1

// AuxSnapshot marks a snapshot-mode attempt: on its EvBegin (whose Ver
// is the pinned read version every read must be consistent at) and on
// its EvCommit. See snapshot.go and internal/check's snapshot rule.
const AuxSnapshot = 2

// Wake causes reported in EvWake.Aux.
const (
	// AuxWakeCommit: the waiter parked and a writing commit (or
	// StoreDirect) to a watched var broadcast it.
	AuxWakeCommit = 0
	// AuxWakeImmediate: post-registration validation found the read set
	// already changed; the waiter never parked.
	AuxWakeImmediate = 1
	// AuxWakeCancel: the context was cancelled (or its deadline
	// expired) while parked.
	AuxWakeCancel = 2
)

// Event is one entry of a recorded execution history. Fields not
// meaningful for a kind are zero. Seq is assigned by the Recorder (the
// runtime leaves it 0) in arrival order. Every event of a commit or
// direct store is recorded before any of its writes is visible (the
// publish protocol records while the write set is locked; see
// atomic.go), so whatever another goroutine records after acting on
// such a write has a larger Seq. Commits that never observe each other
// still interleave in arrival order; checkers order those by Ver
// (version-clock timestamps), not Seq.
type Event struct {
	Seq   uint64
	Kind  EventKind
	TxID  uint64 // per-attempt unique ID (0 for non-transactional events)
	Owner OwnerID
	Var   uint64 // variable ID (see Var.ID)
	Ver   uint64 // version-clock timestamp
	Aux   uint64 // kind-specific (see the kind constants)
	Aux2  uint64 // second kind-specific slot (EvWALAppend: the GSN)
}

func (e Event) String() string {
	s := fmt.Sprintf("#%d %s tx=%d owner=%d var=%d ver=%d aux=%d",
		e.Seq, e.Kind, e.TxID, e.Owner, e.Var, e.Ver, e.Aux)
	if e.Aux2 != 0 {
		s += fmt.Sprintf(" aux2=%d", e.Aux2)
	}
	return s
}

// Recorder consumes runtime events. Implementations must be safe for
// concurrent use; Record is called from transaction goroutines on hot
// paths, so it should be cheap (package history provides an append-only
// log). A nil Config.Recorder disables recording entirely — every hook
// site guards with a single pointer test.
type Recorder interface {
	Record(Event)
}

// recEvent emits ev to the attached recorder, if any.
func (rt *Runtime) recEvent(ev Event) {
	if rt.rec != nil {
		rt.rec.Record(ev)
	}
}

// RecordEvent lets cooperating packages (core, txlock) emit events into
// the runtime's recorder. It is a no-op when no recorder is attached.
func (rt *Runtime) RecordEvent(ev Event) { rt.recEvent(ev) }

// Recording reports whether a recorder is attached.
func (rt *Runtime) Recording() bool { return rt.rec != nil }

// RecordOnCommit queues ev to be emitted if and when the current
// attempt commits. The flush fills in TxID and, if ev.Ver is zero, the
// commit version. Queued events are discarded if the attempt aborts —
// this is how txlock records only lock transitions that took effect.
func (tx *Tx) RecordOnCommit(ev Event) {
	if tx.rt.rec == nil {
		return
	}
	tx.pendEvs = append(tx.pendEvs, ev)
}

// beginRecord assigns a fresh transaction ID and emits EvBegin; aux is
// AuxSnapshot for snapshot attempts (whose Ver is the pin, not a TL2
// read version). Called once per attempt, only while recording.
func (tx *Tx) beginRecord(rv, aux uint64) {
	tx.id = tx.rt.txIDCtr.Add(1)
	tx.rt.rec.Record(Event{Kind: EvBegin, TxID: tx.id, Owner: tx.owner, Ver: rv, Aux: aux})
}

// flushCommitEvents emits the attempt's buffered writes, queued lock and
// deferral events, and the final EvCommit. wv is the commit version (0
// for a hook-free read-only commit); aux tags serial commits.
func (tx *Tx) flushCommitEvents(wv uint64, aux uint64) {
	rec := tx.rt.rec
	if rec == nil {
		return
	}
	for i := range tx.writes {
		e := &tx.writes[i]
		rec.Record(Event{Kind: EvWrite, TxID: tx.id, Owner: tx.owner, Var: e.m.idLoad(), Ver: wv})
	}
	fill := wv
	if fill == 0 {
		fill = tx.rv // read-only commit: stamp queued events with the snapshot
	}
	for _, ev := range tx.pendEvs {
		ev.TxID = tx.id
		if ev.Ver == 0 {
			ev.Ver = fill
		}
		rec.Record(ev)
	}
	tx.pendEvs = tx.pendEvs[:0]
	rec.Record(Event{Kind: EvCommit, TxID: tx.id, Owner: tx.owner, Ver: wv, Aux: aux})
}
