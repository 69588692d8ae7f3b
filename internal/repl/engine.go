// Package repl implements WAL shipping: a follower process that
// bootstraps from the primary's latest checkpoint, tails every WAL lane
// as a lane-tagged record stream over the kvserver transport, and
// replays the records into its own (WAL-less) kv.Store through a
// kv.Applier — the barrier the primary's recovery runs, which applies a
// cross-shard batch only once every lane in its GSN vector has arrived,
// the replica-side mirror of the primary's multi-lane atomic deferral.
// The replica's store is always a prefix-consistent image of
// the primary's durable history: per lane a watermark-covered prefix,
// and all-or-nothing across lanes for cross-shard batches.
package repl

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"

	"deferstm/internal/kv"
	"deferstm/internal/obs"
	"deferstm/internal/server"
)

// engine is the replica's side of the stream: a kv.Applier holds the
// records back and applies them, and the engine keeps what only the
// stream has — the primary's watermark horizons and the lag probes.
// Frames are fed by exactly one goroutine (the stream loop); the atomic
// fields exist so metrics and status snapshots can read concurrently.
type engine struct {
	*kv.Applier
	lanes int

	horizon []atomic.Uint64 // per-lane primary durable watermark (WM frames)
	wmSeen  []bool          // lane has received ≥1 watermark frame
	probes  []lagProbe      // outstanding per-lane lag measurements

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

func newEngine(store *kv.Store, lanes int, lag *obs.Histogram) *engine {
	return &engine{
		Applier: kv.NewApplier(store), lanes: lanes,
		horizon: make([]atomic.Uint64, lanes),
		wmSeen:  make([]bool, lanes),
		probes:  make([]lagProbe, lanes),
		lag:     lag,
	}
}

// reset drops every held-back record and lag probe. Called on
// disconnect: the applied cursors are the hello's resume point, so
// anything not yet applied will be shipped again.
func (e *engine) reset() {
	e.Reset()
	clear(e.probes)
}

// caughtUp reports whether every lane has heard a watermark and applied
// up to it — the replica is serving the primary's current durable cut.
func (e *engine) caughtUp() bool {
	for lane := 0; lane < e.lanes; lane++ {
		if !e.wmSeen[lane] || e.Applied(lane) < e.horizon[lane].Load() {
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
	var err error
	switch f.Kind {
	case server.ReplCheckpoint:
		err = e.Base(f.Lane, f.LSN, f.Payload)
	case server.ReplRecord:
		err = e.Record(f.Lane, f.LSN, f.Payload)
	case server.ReplWatermark:
		e.watermarkFrame(f)
		return nil // no apply progress; probes fire from applies
	default:
		return fmt.Errorf("repl: unknown frame kind %d", f.Kind)
	}
	if err == nil {
		err = e.Drain()
	}
	if err != nil {
		return err
	}
	e.fireProbes()
	return nil
}

func (e *engine) watermarkFrame(f server.ReplFrame) {
	e.horizon[f.Lane].Store(f.LSN)
	e.wmSeen[f.Lane] = true
	if len(f.Payload) == 8 {
		sent := time.Unix(0, int64(binary.LittleEndian.Uint64(f.Payload)))
		if e.Applied(f.Lane) >= f.LSN {
			e.lag.Observe(time.Since(sent))
		} else {
			e.probes[f.Lane] = lagProbe{wm: f.LSN, sent: sent, armed: true}
		}
	}
}

func (e *engine) fireProbes() {
	for lane := range e.probes {
		p := &e.probes[lane]
		if p.armed && e.Applied(lane) >= p.wm {
			e.lag.Observe(time.Since(p.sent))
			p.armed = false
		}
	}
}
