package wal

import (
	"context"
	"sync/atomic"
	"time"

	"deferstm/internal/core"
	"deferstm/internal/stm"
)

// Flush epochs: when the lanes of one store start their flushes.
//
// A flush is one AtomicDefer(drainAndFlush) under the lane's lock, and
// this file decides when the lane's flusher commits it. The decision is
// made in that same transaction, before it acquires the lock, and a wait
// aborts it: lock subscribers and Checkpoint are never held up by the
// decision (invariant 4).
//
// Started at once, a saturated closed loop settles into two cohorts per
// lane: an ack wave comes back while the lane already fsyncs the other
// cohort, so every request waits out the fsync in flight and then its
// own. A connection's acks leave in arrival order, so a wave spans the
// lanes and holding one lane back stalls the others' wave too: the
// unit that waits is the store, not the lane (DESIGN.md §6, "When a
// flush starts"). The rule, evaluated by a lane whose queue is not empty:
//
//  1. Unbatched traffic flushes at once. If no lane's last flush carried
//     more than one record, nothing is waiting to be gathered.
//  2. Batched traffic flushes in epochs. The lane waits until no lane is
//     in an epoch, then until the records committed but not durable,
//     summed over the lanes, reach the size of the last epoch — the wave
//     it acknowledged is back — or until deadlineShare of the last
//     measured fsync has passed since that epoch ended. It then starts an
//     epoch that enlists every lane with pending records.
//  3. Cross-lane records never wait. A lane holding one, or any lane
//     while a flush waits at the frontier, joins the running epoch (or
//     starts one) at once: a flush in awaitFrontier may be waiting for
//     exactly the records the wait would hold back. A closing lane does
//     the same, so Close waits for no wave.
//
// A lane is in an epoch from the transaction that enlists it to the one
// that leaves it: after its flush, or before its flusher parks if the
// queue was drained under it (a checkpoint). Only the lane's own flusher
// leaves; the last lane to leave ends the epoch.

// deadlineShare is the part of an fsync a flush may wait past the end
// of the last epoch: a wave returns within the round trip, well under an
// fsync on any device where group commit matters, so a quarter of one
// is enough for it to come back whole, and a wave that does not return
// (a client went away) costs at most that much. A longer deadline only
// delays the flush of a wave that shrank (a per-lane prototype read
// kv-write-sat worse at a full fsync than at a quarter, EXPERIMENTS.md).
const deadlineShare = 4

// group is the lane set of one store (JoinLanes) and the epoch state its
// flushers share.
type group struct {
	lanes []*Log
	state stm.Var[epochState]
	// waiting counts the flushes waiting at the frontier (rule 3).
	waiting stm.Var[int]
	fsync   atomic.Int64 // the lanes' last measured fsync, ns
}

// epochState is one immutable box: every field changes in the
// transaction that starts or ends an epoch.
type epochState struct {
	n     uint64    // epochs started since JoinLanes (the running one's number)
	base  uint64    // durable watermarks summed over the lanes when epoch n started
	size  uint64    // records the last finished epoch made durable
	ended time.Time // when it finished
}

// batched reports whether any lane's last flush carried more than one
// record (rule 1). It reads counters outside any transaction; a waiter
// that read it stale is woken by the publish that changed it, since every
// publish writes the lane's durable Var, which the wait reads.
func (g *group) batched() bool {
	for _, o := range g.lanes {
		if o.lastBatch.Load() > 1 {
			return true
		}
	}
	return false
}

// running reports whether any lane is in an epoch.
func (g *group) running(tx *stm.Tx) bool {
	for _, o := range g.lanes {
		if o.inEpoch.Get(tx) != 0 {
			return true
		}
	}
	return false
}

// durableSum sums the lanes' durable watermarks.
func (g *group) durableSum(tx *stm.Tx) (n uint64) {
	for _, o := range g.lanes {
		n += o.durable.Get(tx)
	}
	return n
}

// backlog sums the records committed but not yet durable over the lanes.
func (g *group) backlog(tx *stm.Tx) (n uint64) {
	for _, o := range g.lanes {
		n += o.nextLSN.Get(tx) - 1 - o.durable.Get(tx)
	}
	return n
}

// start begins epoch s.n+1 and enlists every lane with pending records,
// the caller's among them.
func (g *group) start(tx *stm.Tx, s epochState) uint64 {
	s.n++
	s.base = g.durableSum(tx)
	g.state.Set(tx, s)
	for _, o := range g.lanes {
		if o.pending.Get(tx) != nil {
			o.inEpoch.Set(tx, s.n)
		}
	}
	return s.n
}

// leave takes l out of its epoch, if it is in one; the last lane to
// leave ends the epoch and records its size and end.
func (g *group) leave(tx *stm.Tx, l *Log) {
	if l.inEpoch.Get(tx) == 0 {
		return
	}
	l.inEpoch.Set(tx, 0)
	if g.running(tx) {
		return
	}
	s := g.state.Get(tx)
	s.size = g.durableSum(tx) - s.base
	s.ended = time.Now()
	g.state.Set(tx, s)
}

// next blocks until l's flusher may flush and commits the flush: one
// transaction parks on an empty queue, waits out rule 2, or commits
// AtomicDefer(drainAndFlush, l) together with the epoch it starts or
// joins. It returns the epoch the flush runs in (0: none, rule 1), and
// false once Close has lowered live and the queue is empty. The idle park
// reads only the lane's pending, inEpoch and live, so a commit on another
// lane does not wake it; a lane an epoch still lists leaves it, in a
// transaction of its own, before it parks. The rule-2 wait runs under a
// context that carries its deadline.
func (g *group) next(l *Log) (e uint64, ok bool) {
	var ctx context.Context
	cancel := context.CancelFunc(func() {})
	var armed time.Time // the deadline ctx carries
	for {
		var want time.Time
		var flush, left bool
		var started, late bool // counted on the starting lane: BatchStats.Epochs, EpochDeadlines
		err := l.rt.AtomicCtx(ctx, func(tx *stm.Tx) error {
			want, flush, left, started, late = time.Time{}, true, false, false, false
			head, live := l.pending.Get(tx), l.live.Get(tx)
			e = l.inEpoch.Get(tx)
			switch {
			case head == nil && e != 0: // a checkpoint drained the queue under the epoch
				g.leave(tx, l)
				flush, left = false, true
			case head == nil && live:
				tx.Retry()
			case head == nil: // closed and drained
				flush = false
			case e != 0 || !g.batched(): // enlisted by another lane's start, or rule 1
			case head.anyCross || !live || g.waiting.Get(tx) > 0: // rule 3
				s := g.state.Get(tx)
				if g.running(tx) {
					e = s.n
					l.inEpoch.Set(tx, e)
				} else {
					e, started = g.start(tx, s), true
				}
			default: // rule 2
				if g.running(tx) {
					tx.Retry()
				}
				s := g.state.Get(tx)
				deadline := s.ended.Add(time.Duration(g.fsync.Load() / deadlineShare))
				switch {
				case g.backlog(tx) >= s.size:
					e, started = g.start(tx, s), true
				case !time.Now().Before(deadline):
					e, started, late = g.start(tx, s), true, true
				case !deadline.Equal(armed):
					want, flush = deadline, false // park again under a context that ends then
				default:
					tx.Retry()
				}
			}
			if flush {
				core.AtomicDefer(tx, l.drainAndFlush, l)
			}
			return nil
		})
		cancel()
		switch {
		case err != nil: // the deadline passed while parked
			ctx, armed = nil, time.Time{}
		case !want.IsZero():
			ctx, cancel = context.WithDeadline(context.Background(), want)
			armed = want
		case flush:
			if started {
				l.epochs.Add(1)
			}
			if late {
				l.epochDeadlines.Add(1)
			}
			return e, true
		case !left:
			return 0, false
		}
	}
}
