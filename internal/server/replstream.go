package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"time"

	"deferstm/internal/stm"
	"deferstm/internal/wal"
)

// replReadChunk bounds the payload bytes one Tail.Read returns. The
// read holds the lane's file mutex (segment files are append-shared
// with the flusher), so this is also the bound on how long one catch-up
// round can stall that lane's group commit; a caught-up stream reads
// only what the last flushes appended.
const replReadChunk = 1 << 20

// serveRepl runs the replication stream on a connection whose writer
// has already drained and exited (see the OpReplHello branch of the
// reader loop). It ships, per lane: a checkpoint bootstrap when the
// follower's cursor is fresh or pruned, then records in LSN order up to
// the published durable watermark — never past it, so a follower can
// only apply bytes the primary has fsynced — plus watermark heartbeats
// whenever a lane's mark moves. With nothing to ship it parks on the
// watermarks via retry (PeekDurable: no lock subscription, same
// rationale as WaitDurable) until any lane advances.
func (s *Server) serveRepl(nc net.Conn, req Request) {
	logs := s.store.Logs()
	bw := bufio.NewWriterSize(nc, 64<<10)
	fail := func(msg string) {
		_ = writeFrame(bw, EncodeResponse(Response{Status: StatusErr, Op: OpReplHello, ID: req.ID, Err: msg}))
		_ = bw.Flush()
	}
	if len(logs) == 0 || logs[0] == nil {
		fail("server: replication requires a WAL-backed store")
		return
	}
	if len(req.Cursors) != 0 && len(req.Cursors) != len(logs) {
		fail(fmt.Sprintf("server: cursor vector names %d lanes, store has %d", len(req.Cursors), len(logs)))
		return
	}
	cursors := make([]uint64, len(logs))
	copy(cursors, req.Cursors)
	tails := make([]*wal.Tail, len(logs))
	for lane, log := range logs {
		tails[lane] = log.NewTail()
		defer tails[lane].Close()
	}

	ctx, cancel := context.WithCancel(s.streamCtx)
	defer cancel()
	go func() {
		// The follower never speaks after the hello; a returned read
		// means hangup (protocol violations get the same treatment).
		// Without this watchdog a dead follower would leave the stream
		// parked on the watermarks until the next flush tried to write.
		var b [1]byte
		_, _ = nc.Read(b[:])
		cancel()
	}()

	if err := writeFrame(bw, EncodeResponse(Response{Status: StatusOK, Op: OpReplHello, ID: req.ID, Shards: len(logs)})); err != nil {
		return
	}

	send := func(f ReplFrame) bool {
		return writeFrame(bw, EncodeReplFrame(f)) == nil
	}
	bootstrap := func(lane int) bool {
		upTo, blob, err := logs[lane].LatestCheckpoint()
		if err != nil || upTo == 0 {
			s.logf("server: %s: repl lane %d: no checkpoint to bootstrap from (%v)", nc.RemoteAddr(), lane, err)
			return false
		}
		if upTo <= cursors[lane] {
			return true // raced with the pruner; the tail read will retry
		}
		if !send(ReplFrame{Kind: ReplCheckpoint, Lane: lane, LSN: upTo, Payload: blob}) {
			return false
		}
		cursors[lane] = upTo
		return true
	}

	lastWM := make([]uint64, len(logs))
	first := true
	for ctx.Err() == nil {
		progress := false
		for lane, log := range logs {
			if cursors[lane] == 0 && log.CheckpointLSN() > 0 {
				// Fresh follower on a checkpointed lane: ship the base
				// blob instead of replaying history from LSN 1.
				if !bootstrap(lane) {
					return
				}
				progress = true
			}
			d := log.DurableWatermark()
			if d <= cursors[lane] {
				continue
			}
			recs, err := tails[lane].Read(cursors[lane], d, replReadChunk)
			if errors.Is(err, wal.ErrPruned) {
				// A checkpoint pruned the tail out from under the
				// cursor: re-base the lane and resume from its upTo.
				if !bootstrap(lane) {
					return
				}
				progress = true
				continue
			}
			if err != nil {
				s.logf("server: %s: repl lane %d: %v", nc.RemoteAddr(), lane, err)
				return
			}
			for _, r := range recs {
				if !send(ReplFrame{Kind: ReplRecord, Lane: lane, LSN: r.LSN, Payload: r.Payload}) {
					return
				}
				cursors[lane] = r.LSN
			}
			if len(recs) > 0 {
				progress = true
			}
		}
		for lane, log := range logs {
			if d := log.DurableWatermark(); first || d != lastWM[lane] {
				var ts [8]byte
				binary.LittleEndian.PutUint64(ts[:], uint64(time.Now().UnixNano()))
				if !send(ReplFrame{Kind: ReplWatermark, Lane: lane, LSN: d, Payload: ts[:]}) {
					return
				}
				lastWM[lane] = d
			}
		}
		first = false
		if err := bw.Flush(); err != nil {
			return
		}
		if progress {
			continue
		}
		err := s.rt.AtomicCtx(ctx, func(tx *stm.Tx) error {
			for lane, log := range logs {
				if log.PeekDurable(tx) > cursors[lane] {
					return nil
				}
			}
			tx.Retry()
			return nil
		})
		if err != nil {
			_ = bw.Flush()
			return
		}
	}
}
