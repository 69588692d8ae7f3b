// Package kv is a durable transactional key/value store layered on the
// STM runtime and the group-committing WAL (package wal) — the paper's
// atomic-deferral story applied end to end: a store transaction mutates
// transactional state and appends one WAL record describing its
// mutations, all inside the same transaction; durability (the fsync) is
// the deferred operation, so commits never block on I/O and concurrent
// commits share flushes.
//
// Two durability modes:
//
//   - ModeGroup (default): the WAL append is transactional and the flush
//     is deferred via the log's atomic deferral — group commit. An
//     Update returns at commit; Update followed by WaitDurable(token) is
//     "durable on return".
//   - ModeNone: no WAL at all; an in-memory upper bound.
//
// The irrevocable fsync-per-commit baseline the paper measures against
// lives where the figures measure it (package iobench), not here.
//
// # Shards and WAL lanes
//
// The key space can be partitioned into N shards (Options.Shards, a
// power of two), each with its own map partition AND its own WAL lane —
// a private log with lane-scoped LSNs, its own flusher goroutine (from
// Open to Close), and its own durable watermark — so the fsyncs of
// commits touching different shards run in parallel. Keys route to shards by a
// fixed FNV-1a hash (deterministic across restarts, so a key's records
// always live in one lane and per-lane LSN order is per-key order).
//
// Every commit, on one shard or several, takes one path (commitLanes):
// it reserves an LSN on each touched lane, draws a global commit
// sequence number (GSN), and queues one record on each lane for the
// lane's own flusher. A sharded store's record carries the GSN and the
// full lane/LSN vector of its commit, so recovery can tell a complete
// cross-shard batch from one a crash cut in half and presume the latter
// aborted, truncating its lanes' tails; a 1-lane store's record is the
// bare op list (encodeRecord). Nothing acked is lost: a lane publishes a
// watermark over a cross-shard record only once every lane has fsynced
// everything at or below its GSN (the frontier gate of package wal).
// TestCrossShardCrashAtomicity, TestDependentCommitSurvivesCrash and
// TestCrossShardStressNoDeadlock pin it.
//
// Recovery (Open) feeds every lane's newest checkpoint and the intact
// WAL records after it, in LSN order, to an Applier — the same barrier a
// replica applies the primary's stream through — and drains it once:
// a record applies together with its cross-shard siblings or not at
// all, and what stays held is cut. Because LSNs are assigned inside the
// mutating transactions, lane LSN order IS the lane's serialization
// order, and a recovered store is always a prefix-consistent image of
// the committed history — per lane, and all-or-nothing across lanes for
// cross-shard batches.
package kv

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"deferstm/internal/ds"
	"deferstm/internal/obs"
	"deferstm/internal/stm"
	"deferstm/internal/wal"
)

// Mode selects the durability discipline.
type Mode int

const (
	// ModeGroup appends transactionally and defers the fsync through the
	// log's atomic deferral (group commit). The default.
	ModeGroup Mode = iota
	// ModeNone disables the WAL entirely.
	ModeNone
)

func (m Mode) String() string {
	switch m {
	case ModeGroup:
		return "group"
	case ModeNone:
		return "none"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Options configures a Store.
type Options struct {
	Mode    Mode
	Buckets int // hash buckets across the whole store (0 → 1024)
	// Shards is the number of key-space shards = WAL lanes (power of
	// two, at most MaxShards). 0 adopts whatever the directory's
	// manifest records (1 for a fresh or pre-manifest directory); a
	// nonzero value that disagrees with an existing manifest is an
	// error — lane routing is baked into the on-disk layout.
	Shards int
	WAL    wal.Options
	// Registry, when non-nil, receives the store's instruments: the
	// maps' resize-chunk histogram and, with a log, the WAL series
	// (registerWAL). Without one the store observes nothing. Give a
	// registry to one store only: it does not deduplicate names.
	Registry *obs.Registry
}

// LaneRecovery is one lane's slice of RecoveryInfo.
type LaneRecovery struct {
	Lane          int
	CheckpointLSN uint64 // 0 when the lane had no checkpoint
	Replayed      int    // records applied after the checkpoint
	LastLSN       uint64 // highest LSN the lane's recovered state covers
	TornBytes     int    // bytes truncated from the lane's torn tail
	// TruncatedAt is the first LSN dropped by cross-shard presumed
	// abort (0 = none): a batch this lane recorded was missing a
	// sibling record on another lane, so this record and the lane's
	// tail after it — none of which were ever acked — were cut.
	TruncatedAt uint64
}

// RecoveryInfo summarizes what Open replayed. For a multi-lane store
// the scalar fields aggregate across lanes (CheckpointLSN and LastLSN
// are sums of the per-lane values — totals of log positions, not
// single-log watermarks); Lanes carries the per-lane breakdown.
type RecoveryInfo struct {
	CheckpointLSN uint64 // 0 when no checkpoint existed
	Replayed      int    // WAL records applied after the checkpoint(s)
	LastLSN       uint64 // highest LSN (sum over lanes) recovery covers
	TornBytes     int    // bytes truncated from torn tails
	Keys          int    // keys present after recovery
	Shards        int    // lane count the store opened with
	MaxGSN        uint64 // highest global commit sequence number replayed
	// SkippedRecords counts records dropped by cross-shard presumed
	// abort (tail truncation of lanes with incomplete batches).
	SkippedRecords int
	Lanes          []LaneRecovery // per-lane breakdown, ascending
}

// shard pairs one key-space partition with its WAL lane.
type shard struct {
	m   *ds.HashMap[string, string]
	log *wal.Log // nil in ModeNone
}

// Store is a durable transactional key/value store. All methods are safe
// for concurrent use.
type Store struct {
	rt     *stm.Runtime
	mode   Mode
	shards []shard
	mask   uint64

	// batches recycles Update's *Batch and cuts Scan's *scanCut. Each is
	// per store, so a pooled Batch always belongs to this store and its
	// perShard to this lane count.
	batches sync.Pool
	cuts    sync.Pool

	closeOnce sync.Once
	closeErr  error
}

// shardOf routes key to its shard by FNV-1a. The hash is deliberately
// seedless: routing must be identical across restarts, or a key's
// records would migrate between lanes and per-lane replay order would
// stop being per-key order.
func (s *Store) shardOf(key string) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return int(h & s.mask)
}

func validShards(n int) error {
	if n < 1 || n > MaxShards || bits.OnesCount(uint(n)) != 1 {
		return fmt.Errorf("kv: shard count %d: must be a power of two in [1,%d]", n, MaxShards)
	}
	return nil
}

// Open recovers (or creates) a store on backend b. b may be nil only in
// ModeNone.
func Open(rt *stm.Runtime, b wal.Backend, opts Options) (*Store, *RecoveryInfo, error) {
	if opts.Buckets <= 0 {
		opts.Buckets = 1024
	}
	info := &RecoveryInfo{}

	if opts.Mode == ModeNone {
		lanes := opts.Shards
		if lanes == 0 {
			lanes = 1
		}
		if err := validShards(lanes); err != nil {
			return nil, nil, err
		}
		s := newStore(rt, opts, lanes)
		info.Shards = lanes
		return s, info, nil
	}
	if b == nil {
		return nil, nil, errors.New("kv: durable mode needs a backend")
	}

	// Pin the lane count: the manifest wins, a fresh directory takes
	// opts.Shards, and a disagreement is fatal — reopening a 4-lane
	// directory with -shards 2 would replay half its lanes and route
	// keys to the wrong logs.
	onDisk, needManifest, err := detectLanes(b)
	if err != nil {
		return nil, nil, err
	}
	lanes := opts.Shards
	switch {
	case lanes == 0 && onDisk == 0:
		lanes = 1
	case lanes == 0:
		lanes = onDisk
	case onDisk != 0 && onDisk != lanes:
		return nil, nil, fmt.Errorf(
			"kv: store was created with %d WAL lanes but reopened with -shards %d; the lane count is fixed at creation (pass %d, or 0 to adopt)",
			onDisk, lanes, onDisk)
	}
	if err := validShards(lanes); err != nil {
		return nil, nil, err
	}
	if needManifest {
		if err := writeManifest(b, lanes); err != nil {
			return nil, nil, err
		}
	}

	s := newStore(rt, opts, lanes)
	info.Shards = lanes
	if err := s.recover(b, opts.WAL, info); err != nil {
		return nil, nil, err
	}
	s.registerWAL(opts.Registry)
	_ = rt.Atomic(func(tx *stm.Tx) error {
		info.Keys = s.Len(tx)
		return nil
	})
	return s, info, nil
}

func newStore(rt *stm.Runtime, opts Options, lanes int) *Store {
	perShard := opts.Buckets / lanes
	if perShard < 64 {
		perShard = 64
	}
	s := &Store{rt: rt, mode: opts.Mode, mask: uint64(lanes - 1)}
	// The maps are timed from the start: recovery replay can resize them.
	var chunks *obs.Histogram
	if opts.Registry != nil {
		chunks = opts.Registry.NewHistogram("deferstm_resize_chunk_seconds",
			"Latency of one hashmap resize-migration chunk transaction.")
	}
	s.shards = make([]shard, lanes)
	for i := range s.shards {
		s.shards[i].m = ds.NewHashMap[string, string](perShard)
		s.shards[i].m.TimeResizes(chunks)
	}
	return s
}

// lastGSN is the last GSN issued, by any store in the process. One
// counter for all of them keeps a GSN unique across a reopen on the same
// runtime, which the history checker requires: a 1-lane store writes no
// GSN to disk, and aborted attempts leave gaps, so no recovered number
// bounds the GSNs a previous store issued. Recovery raises it past every
// GSN it replays (raiseGSN).
var lastGSN atomic.Uint64

func raiseGSN(g uint64) {
	for {
		cur := lastGSN.Load()
		if cur >= g || lastGSN.CompareAndSwap(cur, g) {
			return
		}
	}
}

// recover opens every lane and replays its checkpoint and records
// through one Applier. What the Applier still holds after one drain is
// a lane's cut: a cross-shard batch missing a sibling, and the lane's
// tail after it. recover presumes those aborted, truncates them and
// reopens the lane so LSN assignment resumes below the cut. The dropped
// records were never acked (the flush that would have published their
// watermark never finished), so presuming them aborted loses nothing
// that was promised.
func (s *Store) recover(b wal.Backend, wopts wal.Options, info *RecoveryInfo) error {
	lanes := len(s.shards)
	recs := make([]*wal.Recovery, lanes)
	a := NewApplier(s)
	for i := range s.shards {
		log, rec, err := wal.Open(s.rt, laneBackend(b, i, lanes), wopts)
		if err != nil {
			return fmt.Errorf("kv: lane %d: %w", i, err)
		}
		s.shards[i].log = log
		recs[i] = rec
		if err := a.Base(i, rec.CheckpointLSN, rec.Checkpoint); err != nil {
			return err
		}
		for _, r := range rec.Records {
			if err := a.Record(i, r.LSN, r.Payload); err != nil {
				return err
			}
		}
	}
	if err := a.Drain(); err != nil {
		return err
	}

	for i, rec := range recs {
		held := a.q[i]
		// The torn tail was cut by the first open: a reopen finds none.
		lr := LaneRecovery{Lane: i, CheckpointLSN: rec.CheckpointLSN, Replayed: len(rec.Records) - len(held), TornBytes: rec.TornBytes}
		if len(held) > 0 {
			lr.TruncatedAt = held[0].lsn
			info.SkippedRecords += len(held)
			if err := s.shards[i].log.Close(); err != nil {
				return fmt.Errorf("kv: lane %d: close for truncation: %w", i, err)
			}
			lb := laneBackend(b, i, lanes)
			if err := wal.TruncateTail(lb, rec, lr.TruncatedAt); err != nil {
				return fmt.Errorf("kv: lane %d: %w", i, err)
			}
			log, reopened, err := wal.Open(s.rt, lb, wopts)
			if err != nil {
				return fmt.Errorf("kv: lane %d: reopen after truncation: %w", i, err)
			}
			s.shards[i].log = log
			rec = reopened
		}
		lr.LastLSN = rec.LastLSN
		info.CheckpointLSN += rec.CheckpointLSN
		info.LastLSN += rec.LastLSN
		info.TornBytes += lr.TornBytes
		info.Replayed += lr.Replayed
		info.Lanes = append(info.Lanes, lr)
	}
	info.MaxGSN = a.GSN()
	raiseGSN(info.MaxGSN)
	wal.JoinLanes(s.Logs())
	return nil
}

func applyOps(tx *stm.Tx, m *ds.HashMap[string, string], ops []Op) {
	for _, op := range ops {
		if op.Put {
			m.Put(tx, op.Key, op.Value)
		} else {
			m.Delete(tx, op.Key)
		}
	}
}

// Batch accumulates one transaction's mutations: each Put/Delete applies
// to the store immediately (inside the transaction, so the transaction
// reads its own writes) and, when the store has a log, is recorded — per
// touched shard — for the commit's WAL record(s).
//
// A Batch is valid only while the fn it was handed to runs: Update
// recycles it, so a caller must not keep it, or call its methods, after
// fn returns.
type Batch struct {
	s  *Store
	tx *stm.Tx
	n  int
	// perShard holds the ops, indexed by shard; lanes counts its
	// non-empty entries.
	perShard [][]Op
	lanes    int
}

// reset starts an attempt on tx. It truncates the op lists, keeping
// their capacity, and clears the entries it drops so the pool holds no
// caller string; reset(nil) is the release when Update returns.
func (b *Batch) reset(tx *stm.Tx) {
	b.tx, b.n, b.lanes = tx, 0, 0
	for i, ops := range b.perShard {
		clear(ops)
		b.perShard[i] = ops[:0]
	}
}

func (b *Batch) add(sh int, op Op) {
	b.n++
	if b.s.shards[0].log == nil {
		return // ModeNone: no record will be written
	}
	if b.perShard == nil {
		b.perShard = make([][]Op, len(b.s.shards))
	}
	if len(b.perShard[sh]) == 0 {
		b.lanes++
	}
	b.perShard[sh] = append(b.perShard[sh], op)
}

// Get reads key inside the batch's transaction.
func (b *Batch) Get(key string) (string, bool) {
	return b.s.shards[b.s.shardOf(key)].m.Get(b.tx, key)
}

// Put sets key to value.
func (b *Batch) Put(key, value string) {
	sh := b.s.shardOf(key)
	b.s.shards[sh].m.Put(b.tx, key, value)
	b.add(sh, Op{Put: true, Key: key, Value: value})
}

// Delete removes key (a no-op delete is still logged; replay is
// idempotent about it).
func (b *Batch) Delete(key string) {
	sh := b.s.shardOf(key)
	b.s.shards[sh].m.Delete(b.tx, key)
	b.add(sh, Op{Key: key})
}

// Len reports the number of mutations so far.
func (b *Batch) Len() int { return b.n }

// Update runs fn as one atomic, durable mutation of the store and
// returns a durability token for its WAL record(s) — 0 for a read-only
// fn or in ModeNone. The token packs the home lane (the lowest touched
// lane) and that lane's LSN (see PackToken); on a 1-lane store it is the
// plain LSN. In ModeGroup every Update
// returns at commit, on one shard or several: the records are queued,
// each touched lane's flusher goroutine owes its fsync, and the token is
// not yet durable — call WaitDurable(token) for a synchronous guarantee.
// Waiting on a cross-shard commit's token covers the whole batch: the
// home lane publishes no watermark over a cross-shard record until the
// frontier passes it (see the package comment).
//
// fn may re-execute (optimistic retry); it must be idempotent apart from
// its Batch mutations, which reset on retry. b is valid only while fn
// runs: the store reuses it for a later Update once this one returns.
func (s *Store) Update(fn func(tx *stm.Tx, b *Batch) error) (uint64, error) {
	b, _ := s.batches.Get().(*Batch)
	if b == nil {
		b = &Batch{s: s}
	}
	// Released on every way out, a panic in fn included.
	defer func() {
		b.reset(nil)
		s.batches.Put(b)
	}()
	var token uint64
	run := func(tx *stm.Tx) error {
		token = 0
		b.reset(tx)
		if err := fn(tx, b); err != nil {
			return err
		}
		if s.shards[0].log != nil && b.n > 0 {
			token = s.commitLanes(tx, b)
		}
		return nil
	}
	if err := s.rt.Atomic(run); err != nil {
		return 0, err
	}
	return token, nil
}

// commitLanes writes a commit's records, one per touched lane, and
// returns its token. Each record is queued for its lane's flusher like
// any other. A commit touching several lanes marks its records cross,
// which is what the lane flushers' frontier gate keys on.
func (s *Store) commitLanes(tx *stm.Tx, b *Batch) uint64 {
	// One point per touched lane, ascending: pts[0] is the home lane.
	pts := make([]LanePoint, 0, b.lanes)
	for sh, ops := range b.perShard {
		if len(ops) > 0 {
			pts = append(pts, LanePoint{Lane: sh})
		}
	}

	// Reserve every touched lane's LSN first (the payload header needs
	// the complete vector), then draw the GSN. The order matters:
	// reserving conflicts with every other commit on the same lane, so
	// by the time this attempt can commit, every earlier commit on each
	// touched lane has already drawn its (smaller) GSN — GSNs are
	// monotone in LSN within every lane. Aborted attempts leave GSN
	// gaps; nothing cares.
	for i := range pts {
		pts[i].LSN = s.shards[pts[i].Lane].log.Reserve(tx)
	}
	gsn := lastGSN.Add(1)
	for _, p := range pts {
		payload := s.encodeRecord(gsn, pts, b.perShard[p.Lane])
		s.shards[p.Lane].log.EnqueueReserved(tx, p.LSN, gsn, len(pts) > 1, payload)
	}
	return PackToken(pts[0].Lane, pts[0].LSN)
}

// View runs fn as a read-only transaction over the store.
func (s *Store) View(fn func(tx *stm.Tx) error) error {
	return s.rt.Atomic(fn)
}

// SnapshotView runs fn as a snapshot-mode read-only transaction
// (stm.AtomicSnapshot): every read resolves at one pinned version-clock
// instant, so fn observes a consistent cut across all shards without
// validation and without aborting — or stalling — concurrent writers,
// no matter how long it runs. Writes inside fn panic. If the snapshot
// cannot be served (version-chain depth overflow on a hot var), the
// runtime re-runs fn on the ordinary validating path.
func (s *Store) SnapshotView(fn func(tx *stm.Tx) error) error {
	return s.rt.AtomicSnapshot(fn)
}

// Scan iterates every key/value pair as one consistent snapshot of the
// whole store (all shards at a single pinned version) until fn returns
// false. It is the abort-free way to run long full-store scans under
// write traffic; see SnapshotView for the mechanism. fn observes each
// key exactly once per call: the snapshot transaction may internally
// re-execute (validating fallback), so the cut is collected inside the
// transaction — resetting on re-execution — and delivered to fn only
// after it succeeded. Callers composing their own transactional scans
// via SnapshotView must do that reset themselves.
//
// The cut's buffer comes from the store's pool and goes back to it,
// cleared, after delivery.
func (s *Store) Scan(fn func(k, v string) bool) error {
	c, _ := s.cuts.Get().(*scanCut)
	if c == nil {
		c = new(scanCut)
	}
	err := s.SnapshotView(func(tx *stm.Tx) error {
		// Len is read at the same pin as the entries, so it is the cut's
		// exact size: a buffer too small is replaced once, never grown.
		if n := s.Len(tx); n > cap(c.e) {
			c.e = make([]scanEntry, 0, n)
		}
		c.e = c.e[:0]
		s.Range(tx, func(k, v string) bool {
			c.e = append(c.e, scanEntry{k: k, v: v})
			return true
		})
		return nil
	})
	if err == nil {
		for _, e := range c.e {
			if !fn(e.k, e.v) {
				break
			}
		}
	}
	clear(c.e)
	c.e = c.e[:0]
	s.cuts.Put(c)
	return err
}

// scanCut is Scan's pooled cut buffer, behind a pointer so that putting
// it back allocates nothing.
type scanCut struct{ e []scanEntry }

type scanEntry struct{ k, v string }

// Get reads key inside tx (for composing with other transactional state).
func (s *Store) Get(tx *stm.Tx, key string) (string, bool) {
	return s.shards[s.shardOf(key)].m.Get(tx, key)
}

// Len reports the number of keys inside tx.
func (s *Store) Len(tx *stm.Tx) int {
	n := 0
	for i := range s.shards {
		n += s.shards[i].m.Len(tx)
	}
	return n
}

// Range iterates all entries inside tx until fn returns false, shard by
// shard (iteration order is unspecified, as it always was).
func (s *Store) Range(tx *stm.Tx, fn func(k, v string) bool) {
	for i := range s.shards {
		done := false
		s.shards[i].m.Range(tx, func(k, v string) bool {
			if !fn(k, v) {
				done = true
				return false
			}
			return true
		})
		if done {
			return
		}
	}
}

// WaitDurable blocks until the WAL flush covering token has completed
// (returns immediately for token 0 or in ModeNone). For a cross-shard
// commit's token this covers the whole batch — see Update.
func (s *Store) WaitDurable(token uint64) {
	if s.shards[0].log == nil || token == 0 {
		return
	}
	s.laneOf(token).WaitDurable(TokenLSN(token))
}

// WaitDurableCtx is WaitDurable with cancellation and deadline support:
// it returns ctx.Err() if ctx ends before token is durable (the record
// may still become durable later — cancellation abandons the wait, not
// the flush). Returns nil immediately for token 0 or in ModeNone.
func (s *Store) WaitDurableCtx(ctx context.Context, token uint64) error {
	if s.shards[0].log == nil || token == 0 {
		return nil
	}
	return s.laneOf(token).WaitDurableCtx(ctx, TokenLSN(token))
}

// Durable reports whether token is already durable, without waiting and
// without a transaction: one watermark load. True for token 0 and in
// ModeNone.
func (s *Store) Durable(token uint64) bool {
	return s.shards[0].log == nil || token == 0 ||
		s.laneOf(token).DurableWatermark() >= TokenLSN(token)
}

func (s *Store) laneOf(token uint64) *wal.Log {
	lane := TokenLane(token)
	if lane < 0 || lane >= len(s.shards) {
		panic(fmt.Sprintf("kv: token names lane %d of a %d-lane store", lane, len(s.shards)))
	}
	return s.shards[lane].log
}

// Checkpoint snapshots every shard into its lane's new recovery base
// and prunes covered segments, one lane at a time. Returns the sum of
// the covered LSNs. A lane checkpoint can never capture half of a
// cross-shard batch: wal.Log.Checkpoint fsyncs what it covers through
// the frontier gate before it writes the file, so every sibling record
// of a covered batch is already on disk.
func (s *Store) Checkpoint() (uint64, error) {
	if s.shards[0].log == nil {
		return 0, errors.New("kv: checkpoint without a WAL")
	}
	var total uint64
	for i := range s.shards {
		m, log := s.shards[i].m, s.shards[i].log
		covered, err := log.Checkpoint(func(tx *stm.Tx) ([]byte, uint64, error) {
			kvs := make(map[string]string)
			m.Range(tx, func(k, v string) bool {
				kvs[k] = v
				return true
			})
			return encodeSnapshot(kvs), log.LastAssigned(tx), nil
		})
		if err != nil {
			return total, fmt.Errorf("kv: checkpoint lane %d: %w", i, err)
		}
		total += covered
	}
	return total, nil
}

// Logs returns every lane's WAL in lane order (nils in ModeNone).
func (s *Store) Logs() []*wal.Log {
	logs := make([]*wal.Log, len(s.shards))
	for i := range s.shards {
		logs[i] = s.shards[i].log
	}
	return logs
}

// Shards reports the store's shard (= WAL lane) count.
func (s *Store) Shards() int { return len(s.shards) }

// MapResizes reports how many resizes the shards' maps have completed
// (diagnostics).
func (s *Store) MapResizes() uint64 {
	var n uint64
	for i := range s.shards {
		n += s.shards[i].m.Resizes()
	}
	return n
}

// Mode reports the store's durability mode.
func (s *Store) Mode() Mode { return s.mode }

// Runtime returns the STM runtime the store's transactions run on.
func (s *Store) Runtime() *stm.Runtime { return s.rt }

// Close flushes and closes every WAL lane (no-op in ModeNone).
// Concurrent updates must have stopped. Close is idempotent and safe
// for concurrent use: every caller observes the first call's result, so
// overlapping shutdown paths (a server's signal handler racing its
// deferred cleanup) cannot double-close the WAL.
func (s *Store) Close() error {
	if s.shards[0].log == nil {
		return nil
	}
	s.closeOnce.Do(func() {
		for i := range s.shards {
			if err := s.shards[i].log.Close(); err != nil && s.closeErr == nil {
				s.closeErr = err
			}
		}
	})
	return s.closeErr
}
