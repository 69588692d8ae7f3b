package kv

import (
	"fmt"
	"sync/atomic"

	"deferstm/internal/stm"
)

// Applier replays lane-tagged records into a store under the one rule
// that keeps a cross-shard commit all-or-nothing on the way back in
// (DESIGN §12, "Recovery: presumed abort"): a record applies only once
// every other (lane, LSN) point of its vector is applied or heads its
// lane's hold-back queue with the same GSN, and then it and those held
// siblings commit in one transaction. Recovery feeds it each lane's
// checkpoint and records and drains once; what is still held is the
// lanes' cut. A replica feeds it the primary's stream, frame by frame.
// It writes the shard maps directly and logs nothing.
//
// One goroutine drives an Applier; its counters may be read from any.
type Applier struct {
	s       *Store
	q       [][]laneRecord  // per-lane hold-back queues, ascending LSN
	applied []atomic.Uint64 // per-lane applied LSN (a replica's resume cursors)
	held    atomic.Int64    // records in q
	gsn     atomic.Uint64   // highest GSN applied
	records atomic.Uint64
	batches atomic.Uint64 // cross-shard batches applied
}

// laneRecord is one decoded record held until its batch can apply.
type laneRecord struct {
	lsn, gsn uint64
	pts      []LanePoint
	ops      []Op
}

// NewApplier returns an Applier with every lane's cursor at 0.
func NewApplier(s *Store) *Applier {
	n := len(s.shards)
	return &Applier{s: s, q: make([][]laneRecord, n), applied: make([]atomic.Uint64, n)}
}

// Base installs a checkpoint blob as lane's whole contents at upTo and
// drops the held records it covers. A base at or below the lane's
// cursor is stale and ignored. Dropping covered records orphans no
// sibling: a checkpoint never holds half a cross-shard batch.
func (a *Applier) Base(lane int, upTo uint64, blob []byte) error {
	if upTo <= a.applied[lane].Load() {
		return nil
	}
	kvs, err := decodeSnapshot(blob)
	if err != nil {
		return fmt.Errorf("kv: lane %d checkpoint: %w", lane, err)
	}
	m := a.s.shards[lane].m
	if err := a.s.rt.Atomic(func(tx *stm.Tx) error {
		var stale []string
		m.Range(tx, func(k, _ string) bool {
			if _, ok := kvs[k]; !ok {
				stale = append(stale, k)
			}
			return true
		})
		for _, k := range stale {
			m.Delete(tx, k)
		}
		for k, v := range kvs {
			m.Put(tx, k, v)
		}
		return nil
	}); err != nil {
		return err
	}
	a.applied[lane].Store(upTo)
	n := 0
	for n < len(a.q[lane]) && a.q[lane][n].lsn <= upTo {
		n++
	}
	a.q[lane] = a.q[lane][n:]
	a.held.Add(-int64(n))
	return nil
}

// Record decodes lane's record lsn and holds it. A record at or below
// the cursor is a resend and is ignored; any LSN but the lane's next is
// a gap.
func (a *Applier) Record(lane int, lsn uint64, payload []byte) error {
	next := a.applied[lane].Load() + 1
	if lsn < next {
		return nil
	}
	if n := len(a.q[lane]); n > 0 {
		next = a.q[lane][n-1].lsn + 1
	}
	if lsn != next {
		return fmt.Errorf("kv: lane %d record gap: got LSN %d, expected %d", lane, lsn, next)
	}
	gsn, pts, ops, err := a.s.decodeRecord(payload)
	if err != nil {
		return fmt.Errorf("kv: lane %d record %d: %w", lane, lsn, err)
	}
	for _, p := range pts {
		if p.Lane < 0 || p.Lane >= len(a.q) {
			return fmt.Errorf("kv: lane %d record %d: vector names lane %d of %d", lane, lsn, p.Lane, len(a.q))
		}
	}
	a.q[lane] = append(a.q[lane], laneRecord{lsn: lsn, gsn: gsn, pts: pts, ops: ops})
	a.held.Add(1)
	return nil
}

// Drain applies held records to a fixed point: a lane applies heads
// until one has a sibling that is neither applied nor at its lane's
// head, and the pass repeats while any lane made progress. A record
// without a sibling is a batch of one. The lanes cannot wait on each
// other in a cycle: per lane GSN rises with LSN, so two batches are
// never each other's missing sibling.
func (a *Applier) Drain() error {
	for changed := true; changed; {
		changed = false
		for lane := range a.q {
			for len(a.q[lane]) > 0 {
				ok, err := a.ready(lane)
				if err != nil {
					return err
				}
				if !ok {
					break
				}
				a.apply(lane)
				changed = true
			}
		}
	}
	return nil
}

// ready reports whether every sibling of lane's head is applied or at
// its lane's head. A sibling position holding another GSN is an error:
// the logs disagree about what was committed together.
func (a *Applier) ready(lane int) (bool, error) {
	head := &a.q[lane][0]
	for _, p := range head.pts {
		if p.Lane == lane || p.LSN <= a.applied[p.Lane].Load() {
			continue
		}
		q := a.q[p.Lane]
		if len(q) == 0 || q[0].lsn != p.LSN {
			return false, nil
		}
		if q[0].gsn != head.gsn {
			return false, fmt.Errorf("kv: lane %d LSN %d carries gsn %d, but lane %d LSN %d names it a sibling of gsn %d",
				p.Lane, p.LSN, q[0].gsn, lane, head.lsn, head.gsn)
		}
	}
	return true, nil
}

// apply commits lane's head and its held siblings in one transaction
// and advances their cursors.
func (a *Applier) apply(lane int) {
	head := a.q[lane][0]
	parts := []int{lane}
	for _, p := range head.pts {
		if p.Lane != lane && p.LSN > a.applied[p.Lane].Load() {
			parts = append(parts, p.Lane)
		}
	}
	_ = a.s.rt.Atomic(func(tx *stm.Tx) error {
		for _, l := range parts {
			applyOps(tx, a.s.shards[l].m, a.q[l][0].ops)
		}
		return nil
	})
	for _, l := range parts {
		a.pop(l)
	}
	if len(head.pts) > 1 {
		a.batches.Add(1)
	}
	if head.gsn > a.gsn.Load() {
		a.gsn.Store(head.gsn)
	}
}

func (a *Applier) pop(lane int) {
	a.applied[lane].Store(a.q[lane][0].lsn)
	a.q[lane] = a.q[lane][1:]
	a.held.Add(-1)
	a.records.Add(1)
}

// Reset drops every held record; the cursors stay.
func (a *Applier) Reset() {
	for lane := range a.q {
		a.q[lane] = nil
	}
	a.held.Store(0)
}

// Applied reports lane's applied LSN.
func (a *Applier) Applied(lane int) uint64 { return a.applied[lane].Load() }

// Cursors snapshots every lane's applied LSN.
func (a *Applier) Cursors() []uint64 {
	out := make([]uint64, len(a.applied))
	for i := range out {
		out[i] = a.applied[i].Load()
	}
	return out
}

// Held reports how many records wait for a sibling.
func (a *Applier) Held() int64 { return a.held.Load() }

// GSN reports the highest GSN applied.
func (a *Applier) GSN() uint64 { return a.gsn.Load() }

// Records reports how many records have applied.
func (a *Applier) Records() uint64 { return a.records.Load() }

// Batches reports how many cross-shard batches have applied.
func (a *Applier) Batches() uint64 { return a.batches.Load() }
