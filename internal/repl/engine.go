// Package repl implements WAL shipping: a follower process that
// bootstraps from the primary's latest checkpoint, tails every WAL lane
// as a lane-tagged record stream over the kvserver transport, and
// replays the records into its own (WAL-less) kv.Store — applying a
// cross-shard batch only once every lane in its GSN vector has
// arrived, the replica-side mirror of the primary's multi-lane atomic
// deferral. The replica's store is always a prefix-consistent image of
// the primary's durable history: per lane a watermark-covered prefix,
// and all-or-nothing across lanes for cross-shard batches.
package repl

import (
	"fmt"
	"sync/atomic"
	"time"

	"deferstm/internal/kv"
	"deferstm/internal/obs"
	"deferstm/internal/server"
	"deferstm/internal/stm"
)

// pendingRec is one shipped record held back until it can apply: for a
// single-lane record that is immediately, for a cross-shard batch once
// every sibling lane's record (same GSN) is available.
type pendingRec struct {
	lsn uint64
	gsn uint64
	pts []kv.LanePoint
	ops []kv.Op
}

// engine owns the replica's apply state. Frames are fed by exactly one
// goroutine (the stream loop); the atomic fields exist so metrics and
// status snapshots can read concurrently.
type engine struct {
	rt    *stm.Runtime
	store *kv.Store
	lanes int

	applied []atomic.Uint64 // per-lane applied LSN (the resume cursors)
	horizon []atomic.Uint64 // per-lane primary durable watermark (WM frames)
	wmSeen  []bool          // lane has received ≥1 watermark frame

	gsnHorizon     atomic.Uint64 // highest GSN applied atomically
	appliedRecords atomic.Uint64
	appliedBatches atomic.Uint64
	pendingRecords atomic.Int64

	q      [][]pendingRec // per-lane hold-back queues (stream goroutine only)
	probes []lagProbe     // outstanding per-lane lag measurements

	lag *obs.Histogram
}

// lagProbe prices replication lag in wall time: a watermark frame
// carries its send instant; when the applied cursor reaches that mark
// the elapsed time is one lag sample.
type lagProbe struct {
	wm    uint64
	sent  time.Time
	armed bool
}

func newEngine(rt *stm.Runtime, store *kv.Store, lanes int, lag *obs.Histogram) *engine {
	return &engine{
		rt: rt, store: store, lanes: lanes,
		applied: make([]atomic.Uint64, lanes),
		horizon: make([]atomic.Uint64, lanes),
		wmSeen:  make([]bool, lanes),
		q:       make([][]pendingRec, lanes),
		probes:  make([]lagProbe, lanes),
		lag:     lag,
	}
}

// reset drops every held-back record. Called on disconnect: the applied
// cursors are the hello's resume point, so anything not yet applied
// will be shipped again.
func (e *engine) reset() {
	for lane := range e.q {
		e.q[lane] = e.q[lane][:0]
		e.probes[lane] = lagProbe{}
	}
	e.pendingRecords.Store(0)
}

// cursors snapshots the per-lane applied LSNs.
func (e *engine) cursors() []uint64 {
	out := make([]uint64, e.lanes)
	for i := range out {
		out[i] = e.applied[i].Load()
	}
	return out
}

// caughtUp reports whether every lane has heard a watermark and applied
// up to it — the replica is serving the primary's current durable cut.
func (e *engine) caughtUp() bool {
	for lane := 0; lane < e.lanes; lane++ {
		if !e.wmSeen[lane] || e.applied[lane].Load() < e.horizon[lane].Load() {
			return false
		}
	}
	return true
}

// frame applies one stream frame. Errors are protocol or state
// corruption: the caller drops the connection and re-handshakes from
// the applied cursors.
func (e *engine) frame(f server.ReplFrame) error {
	if f.Lane < 0 || f.Lane >= e.lanes {
		return fmt.Errorf("repl: frame names lane %d of %d", f.Lane, e.lanes)
	}
	switch f.Kind {
	case server.ReplCheckpoint:
		if err := e.checkpointFrame(f.Lane, f.LSN, f.Payload); err != nil {
			return err
		}
	case server.ReplRecord:
		if err := e.recordFrame(f.Lane, f.LSN, f.Payload); err != nil {
			return err
		}
	case server.ReplWatermark:
		e.watermarkFrame(f)
		return nil // no apply progress; probes fire from applies
	default:
		return fmt.Errorf("repl: unknown frame kind %d", f.Kind)
	}
	if err := e.drain(); err != nil {
		return err
	}
	e.fireProbes()
	return nil
}

func (e *engine) checkpointFrame(lane int, upTo uint64, blob []byte) error {
	if upTo <= e.applied[lane].Load() {
		return nil // stale base; everything it covers is already applied
	}
	kvs, err := kv.DecodeSnapshotBlob(blob)
	if err != nil {
		return fmt.Errorf("repl: lane %d checkpoint: %w", lane, err)
	}
	err = e.rt.Atomic(func(tx *stm.Tx) error {
		return e.store.ResetShardContents(tx, lane, kvs)
	})
	if err != nil {
		return err
	}
	e.applied[lane].Store(upTo)
	// Held-back records the base now covers are redundant (their
	// effects are inside the blob — checkpoints never contain partial
	// cross-shard batches, so dropping them cannot orphan a sibling).
	kept := e.q[lane][:0]
	for _, r := range e.q[lane] {
		if r.lsn > upTo {
			kept = append(kept, r)
		} else {
			e.pendingRecords.Add(-1)
		}
	}
	e.q[lane] = kept
	return nil
}

func (e *engine) recordFrame(lane int, lsn uint64, payload []byte) error {
	if lsn <= e.applied[lane].Load() {
		return nil // resend overlap after a re-base
	}
	next := e.applied[lane].Load() + 1
	if n := len(e.q[lane]); n > 0 {
		next = e.q[lane][n-1].lsn + 1
	}
	if lsn != next {
		return fmt.Errorf("repl: lane %d record gap: got LSN %d, expected %d", lane, lsn, next)
	}
	gsn, pts, ops, err := e.store.DecodeLaneRecord(payload)
	if err != nil {
		return fmt.Errorf("repl: lane %d record %d: %w", lane, lsn, err)
	}
	e.q[lane] = append(e.q[lane], pendingRec{lsn: lsn, gsn: gsn, pts: pts, ops: ops})
	e.pendingRecords.Add(1)
	return nil
}

func (e *engine) watermarkFrame(f server.ReplFrame) {
	e.horizon[f.Lane].Store(f.LSN)
	e.wmSeen[f.Lane] = true
	if len(f.Payload) == 8 {
		sent := time.Unix(0, int64(leU64(f.Payload)))
		if e.applied[f.Lane].Load() >= f.LSN {
			e.lag.Observe(time.Since(sent))
		} else {
			e.probes[f.Lane] = lagProbe{wm: f.LSN, sent: sent, armed: true}
		}
	}
}

func (e *engine) fireProbes() {
	for lane := range e.probes {
		p := &e.probes[lane]
		if p.armed && e.applied[lane].Load() >= p.wm {
			e.lag.Observe(time.Since(p.sent))
			p.armed = false
		}
	}
}

// drain applies every head record that is allowed to apply, to a fixed
// point. Single-lane records apply immediately in lane-LSN order. A
// cross-shard batch head applies only when every (lane, LSN) in its
// vector is satisfied — already applied (or folded into a checkpoint
// base), or sitting at that lane's queue head — and then all its
// still-pending lane records commit in ONE transaction: readers of the
// replica can never observe half a batch, exactly as on the primary,
// where the batch committed in one transaction.
//
// The fixed-point loop terminates: every pass either applies a record
// (finitely many are queued) or changes nothing. It cannot deadlock
// across lanes because GSNs are assigned monotonically with each
// lane's LSNs — two batches cannot be each other's missing sibling in
// opposite orders.
func (e *engine) drain() error {
	for changed := true; changed; {
		changed = false
		for lane := 0; lane < e.lanes; lane++ {
			for len(e.q[lane]) > 0 {
				head := e.q[lane][0]
				if head.lsn <= e.applied[lane].Load() {
					e.pop(lane)
					changed = true
					continue
				}
				if len(head.pts) <= 1 {
					err := e.rt.Atomic(func(tx *stm.Tx) error {
						return e.store.ApplyReplicated(tx, lane, head.ops)
					})
					if err != nil {
						return err
					}
					e.applied[lane].Store(head.lsn)
					e.pop(lane)
					e.appliedRecords.Add(1)
					if head.gsn > e.gsnHorizon.Load() {
						e.gsnHorizon.Store(head.gsn)
					}
					changed = true
					continue
				}
				ready, err := e.batchReady(lane, head)
				if err != nil {
					return err
				}
				if !ready {
					break // lane stalls until the missing sibling arrives
				}
				if err := e.applyBatch(head); err != nil {
					return err
				}
				changed = true
			}
		}
	}
	return nil
}

func (e *engine) pop(lane int) {
	e.q[lane] = e.q[lane][1:]
	e.pendingRecords.Add(-1)
}

// batchReady reports whether every lane point of a cross-shard batch is
// satisfied: applied already, or pending at its lane's queue head with
// the matching GSN.
func (e *engine) batchReady(lane int, head pendingRec) (bool, error) {
	for _, p := range head.pts {
		if p.Lane == lane {
			continue
		}
		if p.Lane < 0 || p.Lane >= e.lanes {
			return false, fmt.Errorf("repl: batch gsn %d names lane %d of %d", head.gsn, p.Lane, e.lanes)
		}
		if p.LSN <= e.applied[p.Lane].Load() {
			continue
		}
		if len(e.q[p.Lane]) == 0 || e.q[p.Lane][0].lsn != p.LSN {
			return false, nil
		}
		if e.q[p.Lane][0].gsn != head.gsn {
			return false, fmt.Errorf("repl: lane %d LSN %d carries gsn %d, sibling expected %d",
				p.Lane, p.LSN, e.q[p.Lane][0].gsn, head.gsn)
		}
	}
	return true, nil
}

// applyBatch commits every still-pending lane record of the batch in
// one transaction and advances their cursors.
func (e *engine) applyBatch(head pendingRec) error {
	type part struct {
		lane int
		rec  pendingRec
	}
	parts := make([]part, 0, len(head.pts))
	for _, p := range head.pts {
		if p.LSN <= e.applied[p.Lane].Load() {
			continue // that lane's slice is inside a checkpoint base
		}
		parts = append(parts, part{lane: p.Lane, rec: e.q[p.Lane][0]})
	}
	err := e.rt.Atomic(func(tx *stm.Tx) error {
		for _, pt := range parts {
			if err := e.store.ApplyReplicated(tx, pt.lane, pt.rec.ops); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, pt := range parts {
		e.applied[pt.lane].Store(pt.rec.lsn)
		e.pop(pt.lane)
		e.appliedRecords.Add(1)
	}
	e.appliedBatches.Add(1)
	if head.gsn > e.gsnHorizon.Load() {
		e.gsnHorizon.Store(head.gsn)
	}
	return nil
}

func leU64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}
