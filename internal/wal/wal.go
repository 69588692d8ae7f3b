// Package wal implements a durable write-ahead log whose group commit is
// built from the paper's atomic deferral (package core): every flush is
// an ordinary AtomicDefer over the log's transaction-friendly lock, and
// no committing transaction ever waits for one.
//
// The construction: a Log is a Deferrable object whose lock (Listing 2)
// guards the segment files and the published durability watermark. An
// appending transaction reserves the next LSN and pushes its record onto
// a transactional queue (pending) — pure Var writes — and, only if the
// lane's transactional flushing flag is false in its snapshot, sets the
// flag and starts the lane's flusher goroutine after it commits. It then
// returns: the append is a commit, never an fsync.
//
// The flusher loops over one small transaction: if pending is empty it
// clears flushing and exits; otherwise it defers drain+write+fsync+
// publish with AtomicDefer(tx, flush, log), acquiring the log lock
// atomically at its commit and releasing it when the watermark is
// published. Between a flush's commit and its publish no other owner can
// observe the log's durability state — the paper's deferral-atomicity
// guarantee, applied to fsync. Group commit falls out: every record
// committed while one fsync is in flight rides the next, whether it came
// from sixteen connections or from one connection sixteen requests deep.
//
// Four invariants carry the design (DESIGN.md §6 names the test pinning
// each):
//
//  1. Ack after durable. Nothing here acknowledges anything; callers wait
//     on the watermark (WaitDurable), which a flush publishes only after
//     its fsync returned.
//  2. No stranded record. flushing is cleared only by a transaction that
//     read pending == nil, and set by the appender that enqueues while it
//     is false — one transaction each, so an append serializes either
//     before the flusher's emptiness check (the flusher sees it) or after
//     the clear (the appender starts a new flusher). No record needs a
//     later append to become durable.
//  3. One flusher per lane. Only the false→true transition starts one,
//     and only the flusher makes the true→false transition, as its last
//     act. Per lane, LSN order = serialization order (appenders conflict
//     on nextLSN) = on-disk order (drains hold the lock).
//  4. The lock is held per fsync, not per busy period: the flusher
//     re-acquires it for every batch and yields the processor after every
//     release, so LastDurable subscribers, Checkpoint and Flush get their
//     turn on a saturated lane — and whichever of them drains, drains
//     this queue through the same drainAndFlush.
//
// Lanes of one store (JoinLanes) flush independently, and a commit
// spanning several enqueues one record on each. One gate keeps it
// all-or-nothing across a crash: a batch holding a multi-lane record
// with GSN g publishes its watermark only once every lane has fsynced
// all of its records with GSN ≤ g (awaitFrontier).
//
// Records carry CRC-32C and their LSN (record.go); recovery (Open)
// replays segments in order, verifies every record, truncates a torn
// tail, and restores the checkpoint/segment structure. Checkpoints write
// an application snapshot through the same record format and prune fully
// covered segments.
package wal

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"deferstm/internal/core"
	"deferstm/internal/obs"
	"deferstm/internal/stm"
)

// Options parameterizes a Log. The zero value is usable.
type Options struct {
	// SegmentBytes bounds a segment file. A flush whose batch does not
	// fit in what is left of the current segment starts the next one and
	// writes the whole batch there, so segments may end short of this
	// size; only a batch larger than SegmentBytes is split, filling each
	// segment before it rotates. 0 means 1 MiB.
	SegmentBytes int
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 1 << 20
	}
	return o
}

// Record is one replayed log record. Seg and Off locate the record on
// storage (the segment file and the byte offset of the record's first
// byte within it) so recovery layers that must surgically drop a suffix
// — e.g. the KV store's cross-shard atomicity pass — can call
// TruncateTail without re-scanning.
type Record struct {
	LSN     uint64
	Payload []byte
	Seg     string
	Off     int64
}

// Recovery describes what Open found on storage.
type Recovery struct {
	// CheckpointLSN and Checkpoint are the newest valid checkpoint (LSN 0
	// and nil when none exists).
	CheckpointLSN uint64
	Checkpoint    []byte
	// Records are the intact records with LSN > CheckpointLSN, ascending.
	Records []Record
	// LastLSN is the highest LSN the recovered state covers:
	// max(CheckpointLSN, last record LSN).
	LastLSN uint64
	// TornBytes counts bytes truncated from the final segment's torn
	// tail (0 for a clean shutdown).
	TornBytes int
}

// pnode is one entry of the transactional batch queue (a cons list,
// newest first; drains reverse it).
type pnode struct {
	lsn     uint64
	gsn     uint64 // global commit sequence number; 0 on a lone log
	cross   bool   // one of several records of a multi-lane commit
	payload []byte
	born    time.Time // enqueue time; zero unless the log has Metrics
	next    *pnode
}

// syncPoint is the last record a lane has fsynced: its LSN and GSN.
type syncPoint struct{ lsn, gsn uint64 }

type segMeta struct {
	name  string
	start uint64 // first LSN the segment may contain
}

// BatchStats summarizes group-commit behaviour since the Log was opened.
// The log's own counters are the only count of its work: a store's
// runtime-wide WAL series are sums of these over its lanes.
type BatchStats struct {
	Flushes     uint64     // drain+fsync cycles
	Records     uint64     // records written through those flushes
	Fsyncs      uint64     // every fsync: flushes + rotations of a dirty segment + checkpoints
	Rotations   uint64     // segments started after Open
	Checkpoints uint64     // checkpoints written
	MaxBatch    uint64     // largest single batch
	Hist        [17]uint64 // Hist[i] counts batches with bits.Len64(size) == i
}

// Mean returns the mean batch size (0 when no flush happened).
func (s BatchStats) Mean() float64 {
	if s.Flushes == 0 {
		return 0
	}
	return float64(s.Records) / float64(s.Flushes)
}

// Metrics is a log's latency instrumentation. A store builds one set and
// attaches it to every lane, so each histogram stays a single series.
type Metrics struct {
	// AppendDurable is the append→durable lag of one record: enqueued →
	// covering fsync returned (the latency group commit trades for
	// batching).
	AppendDurable *obs.Histogram
	// BatchWait is how long a group-commit batch waited for its flush:
	// oldest enqueued record → flush start.
	BatchWait *obs.Histogram
}

// NewMetrics builds the set, registered on reg (nil: recorded but
// exposed nowhere).
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		AppendDurable: reg.NewHistogram("deferstm_wal_append_durable_seconds",
			"WAL append->durable lag per record (group commit batching delay plus fsync)."),
		BatchWait: reg.NewHistogram("deferstm_wal_batch_wait_seconds",
			"Group-commit batch wait: oldest enqueued record to flush start."),
	}
}

// Log is a durable, group-committing write-ahead log. Create one with
// Open; all methods are safe for concurrent use by transactions on the
// Log's runtime.
type Log struct {
	core.Deferrable // the log's TxLock: guards files + watermark publishes

	rt   *stm.Runtime
	b    Backend
	opts Options
	met  *Metrics // nil: the log stamps, times and labels nothing (SetMetrics)

	nextLSN  stm.Var[uint64]    // next LSN to reserve
	pending  stm.Var[*pnode]    // committed-but-unflushed records
	flushing stm.Var[bool]      // the lane's flusher goroutine is live
	durable  stm.Var[uint64]    // published watermark; writes hold the log lock
	synced   stm.Var[syncPoint] // last fsynced record; writes hold the log lock

	lanes []*Log // the store's lane set (JoinLanes); nil for a lone log

	// File state. Mutators hold the log's TxLock; fmu makes the
	// happens-before explicit for the race detector and for Close.
	fmu      sync.Mutex
	cur      File
	curName  string
	curBytes int
	// dirty: cur may hold bytes no fsync has covered. A write sets it,
	// an fsync of cur clears it, and Open sets it for a reopened segment
	// (see rotateLocked).
	dirty  bool
	segs   []segMeta // ascending by start; last is cur
	wbuf   []byte    // batch encode buffer, reused across flushes
	closed bool

	flushes     atomic.Uint64
	records     atomic.Uint64
	fsyncs      atomic.Uint64
	rotations   atomic.Uint64
	checkpoints atomic.Uint64
	maxBatch    atomic.Uint64
	hist        [17]atomic.Uint64

	lastCkpt   atomic.Uint64 // upTo of the newest fsynced checkpoint (0 when none)
	streamRead atomic.Uint64 // segment bytes Tails read from the backend
}

const (
	segPrefix  = "seg-"
	ckptPrefix = "ckpt-"
)

func segName(start uint64) string { return fmt.Sprintf("%s%016x", segPrefix, start) }
func ckptName(lsn uint64) string  { return fmt.Sprintf("%s%016x", ckptPrefix, lsn) }
func parseName(name, prefix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) {
		return 0, false
	}
	v, err := strconv.ParseUint(name[len(prefix):], 16, 64)
	return v, err == nil
}

// ErrCorrupt reports unrecoverable log damage: an invalid record that is
// not a torn tail (i.e. not at the end of the final segment).
var ErrCorrupt = errors.New("wal: corrupt log")

// Open replays the log stored in b and returns a Log positioned to append
// after the last intact record. The caller replays Recovery (checkpoint
// blob, then records) into its own state before starting transactions.
func Open(rt *stm.Runtime, b Backend, opts Options) (*Log, *Recovery, error) {
	opts = opts.withDefaults()
	names, err := b.Names()
	if err != nil {
		return nil, nil, fmt.Errorf("wal: list backend: %w", err)
	}

	var segs []segMeta
	var ckpts []uint64
	for _, n := range names {
		if start, ok := parseName(n, segPrefix); ok {
			segs = append(segs, segMeta{name: n, start: start})
		} else if lsn, ok := parseName(n, ckptPrefix); ok {
			ckpts = append(ckpts, lsn)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].start < segs[j].start })

	rec := &Recovery{}
	// Newest checkpoint whose single record is intact and self-consistent
	// wins; older ones are fallbacks for a checkpoint torn by a crash.
	sort.Slice(ckpts, func(i, j int) bool { return ckpts[i] > ckpts[j] })
	for _, lsn := range ckpts {
		data, err := readWhole(b, ckptName(lsn))
		if err != nil {
			return nil, nil, fmt.Errorf("wal: read checkpoint: %w", err)
		}
		gotLSN, blob, rest, ok := decodeNext(data)
		if !ok || gotLSN != lsn || len(rest) != 0 {
			continue // torn checkpoint; fall back to an older one
		}
		rec.CheckpointLSN = lsn
		rec.Checkpoint = append([]byte(nil), blob...)
		break
	}

	prev := uint64(0)
	for i, s := range segs {
		data, err := readWhole(b, s.name)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: read segment %s: %w", s.name, err)
		}
		off := 0
		for off < len(data) {
			lsn, payload, _, ok := decodeNext(data[off:])
			if !ok {
				if i != len(segs)-1 {
					return nil, nil, fmt.Errorf("%w: invalid record at %s+%d with later segments present", ErrCorrupt, s.name, off)
				}
				rec.TornBytes = len(data) - off
				if err := b.Truncate(s.name, int64(off)); err != nil {
					return nil, nil, fmt.Errorf("wal: truncate torn tail: %w", err)
				}
				break
			}
			// LSNs must be contiguous, except that a gap entirely at or
			// below the checkpoint is legal: those records were captured
			// by the checkpoint before ever reaching a segment.
			if prev != 0 && lsn != prev+1 && lsn-1 > rec.CheckpointLSN {
				return nil, nil, fmt.Errorf("%w: LSN gap %d→%d above checkpoint %d", ErrCorrupt, prev, lsn, rec.CheckpointLSN)
			}
			if lsn <= prev {
				return nil, nil, fmt.Errorf("%w: LSN %d not increasing after %d", ErrCorrupt, lsn, prev)
			}
			if lsn > rec.CheckpointLSN {
				rec.Records = append(rec.Records, Record{
					LSN: lsn, Payload: append([]byte(nil), payload...),
					Seg: s.name, Off: int64(off),
				})
			}
			prev = lsn
			off += recordSize(len(payload))
		}
	}
	rec.LastLSN = max(prev, rec.CheckpointLSN)

	l := &Log{rt: rt, b: b, opts: opts, segs: segs}
	l.nextLSN.Init(rec.LastLSN + 1)
	l.durable.Init(rec.LastLSN)
	l.synced.Init(syncPoint{lsn: rec.LastLSN})
	l.lastCkpt.Store(rec.CheckpointLSN)
	if len(segs) == 0 {
		l.segs = []segMeta{{name: segName(rec.LastLSN + 1), start: rec.LastLSN + 1}}
		if l.cur, err = b.Create(l.segs[0].name); err != nil {
			return nil, nil, fmt.Errorf("wal: create segment: %w", err)
		}
		l.curName = l.segs[0].name
	} else {
		last := segs[len(segs)-1]
		if l.cur, err = b.OpenAppend(last.name); err != nil {
			return nil, nil, fmt.Errorf("wal: reopen segment: %w", err)
		}
		l.curName = last.name
		sz, err := l.cur.Size()
		if err != nil {
			return nil, nil, fmt.Errorf("wal: segment size: %w", err)
		}
		l.curBytes = int(sz)
		// Recovery may have truncated a torn tail here, or TruncateTail
		// cut it; on a real filesystem neither is durable before an
		// fsync. So the segment is not known to be durable, and the first
		// rotation fsyncs it before the next segment exists.
		l.dirty = true
	}
	return l, rec, nil
}

// Runtime returns the runtime the log's transactions run on.
func (l *Log) Runtime() *stm.Runtime { return l.rt }

// SetMetrics attaches met to the log. Call it before the first append:
// the log reads it unsynchronized.
func (l *Log) SetMetrics(met *Metrics) { l.met = met }

// Reserve reserves the next LSN within tx without writing a record. A
// commit reserves every touched lane's LSN first, because a multi-lane
// record's header carries the full lane/LSN vector, and then hands each
// lane its record: EnqueueReserved, or SyncReserved in a serial
// transaction. A Reserve must be followed by one of them in the same tx
// — a reserved-but-unwritten LSN would leave a permanent hole in the
// log.
//
// Reserving reads and writes the lane's nextLSN Var, so two commits
// appending to the same lane conflict and serialize: per lane, LSN
// order IS serialization order, which is what lets a GSN drawn after
// all of a commit's reservations stay monotone within every lane.
func (l *Log) Reserve(tx *stm.Tx) uint64 {
	lsn := l.nextLSN.Get(tx)
	l.nextLSN.Set(tx, lsn+1)
	return lsn
}

// EnqueueReserved enqueues payload under a previously Reserved lsn,
// records the append event and makes sure the lane's flusher will write
// it. If tx aborts, nothing happened; once it commits, the record is
// durable when a group-commit flush covers it (WaitDurable blocks for
// exactly that). EnqueueReserved never waits for I/O: the lane's flusher
// goroutine (started by deferFlush when none is live) writes and fsyncs
// the record, together with everything else committed since the
// previous fsync began.
//
// gsn is the commit's global commit sequence number (it rides
// Event.Aux2); on joined lanes every record carries one, and per lane
// GSN must rise with LSN. cross marks one of several records of the same
// commit: the flush covering it waits for the frontier (awaitFrontier)
// before it publishes. The log takes ownership of payload: it is written
// as it stands when the flush encodes it, so the caller must not modify
// it after the call.
func (l *Log) EnqueueReserved(tx *stm.Tx, lsn, gsn uint64, cross bool, payload []byte) {
	node := &pnode{lsn: lsn, gsn: gsn, cross: cross, payload: payload, next: l.pending.Get(tx)}
	if l.met != nil {
		// Stamp the enqueue so the covering flush can observe the
		// append→durable lag. Re-executions of an aborted tx restamp.
		node.born = time.Now()
	}
	l.pending.Set(tx, node)
	if l.rt.Recording() {
		tx.RecordOnCommit(stm.Event{Kind: stm.EvWALAppend, Owner: tx.Owner(), Var: l.Lock().VarID(), Aux: lsn, Aux2: gsn})
	}
	l.deferFlush(tx)
}

// deferFlush makes sure a flusher will pick up the record tx enqueued:
// if none is live in tx's snapshot, tx raises the flushing flag and
// starts one after it commits. The flag is transactional, so the raise
// serializes against the flusher's "queue empty → clear the flag" exit
// (see flusher) and a committed record is never left without one.
func (l *Log) deferFlush(tx *stm.Tx) {
	if l.flushing.Get(tx) {
		return
	}
	l.flushing.Set(tx, true)
	tx.AfterCommit(func() { go l.flusher() })
}

// flusher is the lane's on-demand group-commit goroutine: it exists only
// while records are pending. Every flush is one atomic deferral — the log
// lock is acquired at the flusher transaction's commit and released when
// the batch's watermark is published — so the lock is free between
// batches and the flusher competes for it like any other owner.
//
// The emptiness check and the flag's clear are ONE transaction: were they
// two, an append committing between them would see flushing still set,
// start nobody, and strand its record until the next append.
func (l *Log) flusher() {
	for {
		var idle bool
		_ = l.rt.Atomic(func(tx *stm.Tx) error {
			if idle = l.pending.Get(tx) == nil; idle {
				l.flushing.Set(tx, false)
			} else {
				core.AtomicDefer(tx, l.drainAndFlush, l)
			}
			return nil
		})
		if idle {
			return
		}
		// The release just woke whoever was parked on the lock
		// (subscribers, a checkpoint, Flush). Let them run before
		// competing for it again: the records that arrived during the
		// fsync are already queued, so without this the loop would
		// re-acquire within a microsecond, every time.
		runtime.Gosched()
	}
}

// SyncReserved writes and fsyncs payload under a previously Reserved
// lsn at once, inside a serial (irrevocable) transaction — the
// fsync-per-commit baseline the paper's irrevocability sections describe
// and the sync counterpart of EnqueueReserved. tx must be serial (call
// tx.Irrevocable() first); the write is safe exactly because the
// transaction can no longer abort. A log driven through SyncReserved
// must not also be driven through EnqueueReserved.
func (l *Log) SyncReserved(tx *stm.Tx, lsn, gsn uint64, payload []byte) error {
	if !tx.Serial() {
		panic("wal: SyncReserved outside a serial transaction")
	}
	if l.rt.Recording() {
		tx.RecordOnCommit(stm.Event{Kind: stm.EvWALAppend, Owner: tx.Owner(), Var: l.Lock().VarID(), Aux: lsn, Aux2: gsn})
	}
	l.fmu.Lock()
	err := l.writeLocked([]Record{{LSN: lsn, Payload: payload}})
	l.fmu.Unlock()
	if err != nil {
		return err
	}
	l.durable.Set(tx, lsn)
	l.noteBatch(1)
	if l.rt.Recording() {
		tx.RecordOnCommit(stm.Event{Kind: stm.EvWALDurable, Owner: tx.Owner(), Var: l.Lock().VarID(), Aux: lsn})
	}
	return nil
}

// LastDurable returns the durability watermark inside tx, subscribing to
// the log lock first: while a flush is in flight the transaction waits
// (via retry), and once it reads the watermark, any later flush conflicts
// with it — the subscription semantics of the paper's Listing 2 applied
// to durability state.
func (l *Log) LastDurable(tx *stm.Tx) uint64 {
	l.Subscribe(tx)
	return l.durable.Get(tx)
}

// DurableWatermark returns the published watermark without a transaction
// (diagnostics; it may be stale by the time the caller acts on it).
func (l *Log) DurableWatermark() uint64 { return l.durable.Load() }

// LastAssigned returns the newest reserved LSN in tx's snapshot.
func (l *Log) LastAssigned(tx *stm.Tx) uint64 { return l.nextLSN.Get(tx) - 1 }

// AssignedWatermark returns the newest reserved LSN without a
// transaction (diagnostics — e.g. the server's durable-lag gauge; it
// may be stale by the time the caller acts on it).
func (l *Log) AssignedWatermark() uint64 { return l.nextLSN.Load() - 1 }

// WaitDurable blocks until the watermark covers lsn, using retry-based
// condition synchronization: the waiter sleeps until a flush publishes a
// new watermark.
//
// Unlike LastDurable it deliberately does NOT subscribe to the log lock:
// the watermark is published (and retriers woken) while the flushing
// operation still holds the lock, so a waiter whose record is covered
// resumes immediately instead of also waiting out the release — and is
// not aborted by the next flush's acquisition while it is still running.
func (l *Log) WaitDurable(lsn uint64) {
	_ = l.WaitDurableCtx(nil, lsn)
}

// WaitDurableCtx is WaitDurable with cancellation and deadline support:
// it returns ctx.Err() if ctx ends before the watermark covers lsn (the
// record may still become durable later — cancellation abandons the
// wait, not the flush). A nil ctx never cancels.
func (l *Log) WaitDurableCtx(ctx context.Context, lsn uint64) error {
	return l.rt.AtomicCtx(ctx, func(tx *stm.Tx) error {
		if l.durable.Get(tx) < lsn {
			tx.Retry()
		}
		return nil
	})
}

// Flush forces a drain+fsync of everything appended so far (used by
// Close, checkpoints and tests; normal operation never needs it).
func (l *Log) Flush() {
	me := l.rt.NewOwner()
	l.Lock().AcquireOutside(l.rt, me)
	defer func() { _ = l.Lock().ReleaseOutside(l.rt, me) }()
	l.drainAndFlush(core.NewOpCtx(l.rt, me))
}

// drainAndFlush drains the batch queue, appends the records in LSN order,
// fsyncs once, publishes synced, waits for the frontier if the batch
// holds a multi-lane record, and publishes the new watermark. It is the
// only flush path: the flusher, Flush and Checkpoint all come here. The
// caller must hold the log's TxLock (via AtomicDefer or AcquireOutside)
// under ctx.Owner(). An unwritable backend is fatal: the log cannot lose
// a record it promised to flush, so a persistent write error panics —
// on the flusher goroutine, so it takes the process down rather than
// unwinding into some unlucky committer.
func (l *Log) drainAndFlush(ctx *core.OpCtx) {
	head, batch := l.drain(ctx)
	if head == nil {
		return
	}
	var flushStart time.Time
	if l.met != nil {
		flushStart = time.Now()
	}
	if err := l.flushBatch(batch); err != nil {
		panic(fmt.Sprintf("wal: flush failed, log would lose committed records: %v", err))
	}
	// synced goes out before any wait: a lane that is waiting has
	// already told the others how far it got (see awaitFrontier).
	core.Store(ctx, &l.synced, syncPoint{lsn: head.lsn, gsn: head.gsn})
	for p := head; p != nil; p = p.next {
		if p.cross { // the newest multi-lane record has the batch's highest such GSN
			l.awaitFrontier(ctx, p.gsn)
			break
		}
	}
	l.publish(ctx, head, batch, flushStart)
}

// JoinLanes makes logs the lanes of one store, so that a flush covering
// a multi-lane record waits for the frontier across all of them. Call
// it once, before the first append; a log never joined never waits.
func JoinLanes(logs []*Log) {
	for _, l := range logs {
		l.lanes = logs
	}
}

// awaitFrontier blocks, in one retry transaction, until the frontier
// reaches g: every lane has fsynced all of its records with GSN ≤ g. A
// lane with a committed record past its synced point holds the frontier
// at synced.gsn (per lane GSN rises with LSN); a lane with none does
// not. No chain of these waits closes into a cycle: every drainer
// publishes synced before it waits, so a lane waited on has
// synced.gsn < g, and its own wait is for at most its synced.gsn — GSN
// falls strictly along the chain (DESIGN.md §12).
func (l *Log) awaitFrontier(ctx *core.OpCtx, g uint64) {
	_ = ctx.Atomic(func(tx *stm.Tx) error {
		for _, o := range l.lanes {
			if s := o.synced.Get(tx); s.gsn < g && o.nextLSN.Get(tx)-1 > s.lsn {
				tx.Retry()
			}
		}
		return nil
	})
}

// drain empties the batch queue within a small transaction and returns
// the cons-list head plus the records in ascending LSN order (nil, nil
// when the queue was empty). Caller holds the log's TxLock.
func (l *Log) drain(ctx *core.OpCtx) (*pnode, []Record) {
	var head *pnode
	_ = ctx.Atomic(func(tx *stm.Tx) error {
		head = l.pending.Get(tx)
		if head != nil {
			l.pending.Set(tx, nil)
		}
		return nil
	})
	if head == nil {
		return nil, nil
	}
	n := 0
	for p := head; p != nil; p = p.next {
		n++
	}
	batch := make([]Record, n)
	for p := head; p != nil; p = p.next {
		n--
		batch[n] = Record{LSN: p.lsn, Payload: p.payload}
	}
	return head, batch
}

// flushBatch writes batch to the segment files and fsyncs, under fmu.
func (l *Log) flushBatch(batch []Record) error {
	l.fmu.Lock()
	var err error
	if l.met != nil {
		// Label the I/O so profiles taken through the debug endpoint
		// attribute fsync time to the group-commit flush.
		pprof.Do(context.Background(), pprof.Labels("deferstm", "wal-flush"),
			func(context.Context) { err = l.writeLocked(batch) })
	} else {
		err = l.writeLocked(batch)
	}
	l.fmu.Unlock()
	return err
}

// publish makes a flushed batch visible: watermark, batch statistics,
// latency metrics, and the EvWALDurable history event. Caller holds the
// log's TxLock under ctx.Owner() and must have fsynced batch already.
func (l *Log) publish(ctx *core.OpCtx, head *pnode, batch []Record, flushStart time.Time) {
	if met := l.met; met != nil {
		// Per-record append→durable lag, and how long the oldest record
		// of this batch waited for the flush to even start (the pure
		// group-commit batching delay, fsync excluded).
		end := time.Now()
		oldest := head.born
		for p := head; p != nil; p = p.next {
			if p.born.Before(oldest) {
				oldest = p.born
			}
			met.AppendDurable.Observe(end.Sub(p.born))
		}
		met.BatchWait.Observe(flushStart.Sub(oldest))
	}

	// Counters first: whoever the watermark wakes (the committer is no
	// longer the one running this) must find the batch already counted.
	l.noteBatch(uint64(len(batch)))
	watermark := batch[len(batch)-1].LSN
	core.Store(ctx, &l.durable, watermark)
	l.rt.RecordEvent(stm.Event{Kind: stm.EvWALDurable, Owner: ctx.Owner(), Var: l.Lock().VarID(), Aux: watermark})
}

// writeLocked appends batch to the segment files and fsyncs. The batch
// is encoded into one buffer and handed to the backend in one write per
// segment it touches. A batch that fits in a segment touches one: if it
// does not fit in what is left of the current segment, it rotates first
// — a rotation that costs no fsync, because the previous flush's fsync
// left cur clean — and so the flush is one write and one fsync. Only a
// batch larger than a segment is split, rotating wherever a segment
// fills. Caller holds fmu.
func (l *Log) writeLocked(batch []Record) error {
	if l.closed {
		return errors.New("wal: log closed")
	}
	size := 0
	for _, r := range batch {
		size += recordSize(len(r.Payload))
	}
	if l.curBytes > 0 && l.curBytes+size > l.opts.SegmentBytes && size <= l.opts.SegmentBytes {
		if err := l.rotateLocked(batch[0].LSN); err != nil {
			return err
		}
	}
	buf := l.wbuf[:0]
	for _, r := range batch {
		sz := recordSize(len(r.Payload))
		if l.curBytes > 0 && l.curBytes+sz > l.opts.SegmentBytes {
			if err := l.writeCur(buf); err != nil {
				return err
			}
			buf = buf[:0]
			if err := l.rotateLocked(r.LSN); err != nil {
				return err
			}
		}
		buf = appendRecord(buf, r.LSN, r.Payload)
		l.curBytes += sz
	}
	l.wbuf = buf[:0]
	if err := l.writeCur(buf); err != nil {
		return err
	}
	l.noteFsync()
	if err := l.cur.Fsync(); err != nil {
		return err
	}
	l.dirty = false
	return nil
}

// writeCur writes buf to the current segment, marking it dirty first: a
// failed write may have left bytes there too. Caller holds fmu.
func (l *Log) writeCur(buf []byte) error {
	if len(buf) == 0 {
		return nil
	}
	l.dirty = true
	return writeFull(l.cur, buf)
}

// rotateLocked closes the current segment and starts a new one whose
// name records the first LSN it will hold. Recovery relies on one
// invariant: a later segment exists only if every earlier segment is
// fully durable (an invalid record is a torn tail only in the last
// segment). So a dirty segment is fsynced before the next is created. A
// clean one needs no fsync: every byte in it, and its length, were
// covered by an earlier fsync — which is what lets a flush rotate before
// it writes at no extra cost. A segment Open reopened counts as dirty.
func (l *Log) rotateLocked(nextLSN uint64) error {
	if l.dirty {
		l.noteFsync()
		if err := l.cur.Fsync(); err != nil {
			return err
		}
		l.dirty = false
	}
	if err := l.cur.Close(); err != nil {
		return err
	}
	name := segName(nextLSN)
	f, err := l.b.Create(name)
	if err != nil {
		return err
	}
	l.cur, l.curName, l.curBytes = f, name, 0
	l.segs = append(l.segs, segMeta{name: name, start: nextLSN})
	l.rotations.Add(1)
	return nil
}

// writeFull writes buf completely, resuming after short writes (the
// paper's pipeline_out retry loop). An error with no forward progress is
// returned.
func writeFull(f File, buf []byte) error {
	sent := 0
	for sent < len(buf) {
		n, err := f.Write(buf[sent:])
		sent += n
		if err != nil && n == 0 {
			return err
		}
	}
	return nil
}

// noteFsync counts one fsync issued by this log, on whichever path —
// batch flush, segment rotation, or checkpoint — so that fsyncs per
// commit reconcile with the filesystem's ground truth, not just with the
// drain cycles (Flushes).
func (l *Log) noteFsync() { l.fsyncs.Add(1) }

func (l *Log) noteBatch(n uint64) {
	l.flushes.Add(1)
	l.records.Add(n)
	for {
		cur := l.maxBatch.Load()
		if n <= cur || l.maxBatch.CompareAndSwap(cur, n) {
			break
		}
	}
	b := bits.Len64(n)
	if b >= len(l.hist) {
		b = len(l.hist) - 1
	}
	l.hist[b].Add(1)
}

// BatchStats returns group-commit statistics since Open.
func (l *Log) BatchStats() BatchStats {
	s := BatchStats{
		Flushes:     l.flushes.Load(),
		Records:     l.records.Load(),
		Fsyncs:      l.fsyncs.Load(),
		Rotations:   l.rotations.Load(),
		Checkpoints: l.checkpoints.Load(),
		MaxBatch:    l.maxBatch.Load(),
	}
	for i := range l.hist {
		s.Hist[i] = l.hist[i].Load()
	}
	return s
}

// Checkpoint captures an application snapshot and installs it as the
// log's new recovery base, pruning fully covered segments and older
// checkpoints. snap runs inside a transaction and must return the
// snapshot blob plus the highest LSN whose effects it includes (for a
// store layered on the log, LastAssigned in the same transaction).
//
// The checkpoint holds the log lock throughout, so it excludes flushes —
// and, like a flush, transactions reading durability state wait behind
// it. After the snapshot it drains and fsyncs the queue through the
// frontier gate, so every record the checkpoint covers is on disk and
// past the frontier before the checkpoint file exists: a checkpoint never
// holds half of a multi-lane commit. Pruning happens only after the
// checkpoint record is fsynced, so a crash at any point leaves either
// the old or the new recovery base intact, never neither.
func (l *Log) Checkpoint(snap func(tx *stm.Tx) (blob []byte, upTo uint64, err error)) (uint64, error) {
	me := l.rt.NewOwner()
	l.Lock().AcquireOutside(l.rt, me)
	defer func() { _ = l.Lock().ReleaseOutside(l.rt, me) }()
	ctx := core.NewOpCtx(l.rt, me)

	var blob []byte
	var upTo uint64
	err := ctx.Atomic(func(tx *stm.Tx) error {
		var err error
		blob, upTo, err = snap(tx)
		return err
	})
	if err != nil {
		return 0, err
	}
	l.drainAndFlush(ctx)

	// Re-checkpointing an already-covered upTo would Create() the same
	// file name and truncate the only durable recovery base in place: a
	// crash between that truncation and the new fsync leaves NO valid
	// checkpoint while the segments it covered were already pruned by the
	// previous call — unrecoverable loss of every record ≤ upTo (and a
	// bootstrapping replica could ship the half-written blob). With no
	// new LSNs there is nothing to capture; keep the existing base.
	if upTo <= l.lastCkpt.Load() {
		return upTo, nil
	}

	name := ckptName(upTo)
	f, err := l.b.Create(name)
	if err != nil {
		return 0, fmt.Errorf("wal: create checkpoint: %w", err)
	}
	if err := writeFull(f, appendRecord(nil, upTo, blob)); err != nil {
		f.Close()
		return 0, fmt.Errorf("wal: write checkpoint: %w", err)
	}
	l.noteFsync()
	if err := f.Fsync(); err != nil {
		f.Close()
		return 0, fmt.Errorf("wal: fsync checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("wal: close checkpoint: %w", err)
	}
	l.lastCkpt.Store(upTo)

	// Prune: only now that the new base is durable. Older checkpoints
	// first, then segments every record of which is ≤ upTo.
	names, err := l.b.Names()
	if err == nil {
		for _, n := range names {
			if lsn, ok := parseName(n, ckptPrefix); ok && lsn < upTo {
				_ = l.b.Remove(n)
			}
		}
	}
	l.fmu.Lock()
	kept := l.segs[:0]
	for i, s := range l.segs {
		if i+1 < len(l.segs) && l.segs[i+1].start <= upTo+1 {
			_ = l.b.Remove(s.name)
			continue
		}
		kept = append(kept, s)
	}
	l.segs = kept
	l.fmu.Unlock()

	l.checkpoints.Add(1)
	return upTo, nil
}

// Close flushes pending records and closes the current segment. A
// flusher caught mid-fsync finishes first (Flush waits for the lock it
// holds) and then finds the queue empty; appends after Close panic the
// flusher, so stop all writers first.
func (l *Log) Close() error {
	l.Flush()
	// The flusher goroutine may still be on its way out: parked behind
	// the lock Flush held, or not yet at the transaction that finds the
	// queue empty and clears flushing. Wait for that transaction, so that
	// nothing of this log runs transactions (or records history events)
	// after Close returns. Atomic only returns the closure's error.
	_ = l.rt.Atomic(func(tx *stm.Tx) error {
		if l.flushing.Get(tx) {
			tx.Retry()
		}
		return nil
	})
	l.fmu.Lock()
	defer l.fmu.Unlock()
	if l.closed {
		return errors.New("wal: already closed")
	}
	l.closed = true
	return l.cur.Close()
}
