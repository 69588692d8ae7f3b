package repl

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"deferstm/internal/kv"
	"deferstm/internal/obs"
	"deferstm/internal/server"
	"deferstm/internal/stm"
)

// Options configures a Replica. Primary is required.
type Options struct {
	// Primary is the kvserver address to stream from.
	Primary string
	// Registry, when non-nil, receives the deferstm_repl_* instruments and
	// those of the store the replica opens.
	Registry *obs.Registry
	// Logf, when non-nil, receives one line per stream lifecycle event.
	Logf func(format string, args ...any)
	// Backoff is the first reconnect delay. It doubles per failed
	// attempt up to backoffCeiling times itself and resets after a
	// stream that shipped frames. 0 means 50ms (a 5s ceiling).
	Backoff time.Duration
}

// backoffCeiling caps the reconnect delay, as a multiple of Backoff.
const backoffCeiling = 100

// Status is one observation of the replica's replication state (the
// kvreplica -statusfile payload).
type Status struct {
	Lanes             int      `json:"lanes"`
	Applied           []uint64 `json:"applied_lsn"`
	Horizon           []uint64 `json:"horizon_lsn"`
	GSNHorizon        uint64   `json:"gsn_horizon"`
	AppliedRecords    uint64   `json:"applied_records"`
	AppliedBatches    uint64   `json:"applied_batches"`
	PendingRecords    int64    `json:"pending_records"`
	BytesShipped      uint64   `json:"bytes_shipped"`
	Reconnects        uint64   `json:"reconnects"`
	CaughtUp          bool     `json:"caught_up"`
	LagP50Ns          float64  `json:"lag_p50_ns"`
	LagP99Ns          float64  `json:"lag_p99_ns"`
	LagSamples        uint64   `json:"lag_samples"`
	SnapshotReads     uint64   `json:"snapshot_reads"`
	SnapshotFallbacks uint64   `json:"snapshot_fallbacks"`
}

// Replica tails a primary's WAL lanes into its own store. Create with
// New, drive with Run (blocks until ctx ends), read with Store — a
// normal kv.Store in ModeNone that the local server can serve GET/Scan
// from while Run keeps applying behind it.
type Replica struct {
	rt   *stm.Runtime
	opts Options

	mu      sync.Mutex
	primary string
	conn    net.Conn

	stateMu sync.Mutex
	store   *kv.Store
	eng     *engine

	caughtUp chan struct{} // closed once every lane applied its horizon

	reconnects   atomic.Uint64
	bytesShipped atomic.Uint64
	lag          *obs.Histogram
	regOnce      sync.Once
}

// New builds a replica on rt (its own runtime, independent of any
// primary in the same process). Run starts the stream.
func New(rt *stm.Runtime, opts Options) *Replica {
	r := &Replica{
		rt:       rt,
		opts:     opts,
		primary:  opts.Primary,
		caughtUp: make(chan struct{}),
	}
	r.lag = opts.Registry.NewHistogram("deferstm_repl_lag_seconds",
		"Watermark publish on the primary to the same LSN applied here.")
	opts.Registry.Counter("deferstm_repl_bytes_shipped_total",
		"Stream frame bytes received.", func() uint64 { return r.bytesShipped.Load() })
	opts.Registry.Counter("deferstm_repl_reconnects_total",
		"Stream disconnects (each one is followed by a reconnect attempt).",
		func() uint64 { return r.reconnects.Load() })
	return r
}

// Primary returns the current primary address.
func (r *Replica) Primary() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.primary
}

// Kick drops the current stream connection, forcing a reconnect and
// re-handshake from the applied cursors — fault injection for
// partition tests.
func (r *Replica) Kick() {
	r.mu.Lock()
	c := r.conn
	r.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

func (r *Replica) setConn(c net.Conn) {
	r.mu.Lock()
	r.conn = c
	r.mu.Unlock()
}

// Store returns the replica's store, nil before the first successful
// handshake.
func (r *Replica) Store() *kv.Store {
	r.stateMu.Lock()
	defer r.stateMu.Unlock()
	return r.store
}

// WaitCaughtUp blocks until the replica has, at least once, applied
// every lane up to a received watermark — initial catch-up complete;
// serve reads after this and they are watermark-consistent.
func (r *Replica) WaitCaughtUp(ctx context.Context) error {
	select {
	case <-r.caughtUp:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Cursors snapshots the per-lane applied LSNs (nil before the first
// hello).
func (r *Replica) Cursors() []uint64 {
	r.stateMu.Lock()
	defer r.stateMu.Unlock()
	if r.eng == nil {
		return nil
	}
	return r.eng.Cursors()
}

// Status snapshots the replication state.
func (r *Replica) Status() Status {
	st := Status{
		BytesShipped: r.bytesShipped.Load(),
		Reconnects:   r.reconnects.Load(),
	}
	hs := r.lag.Snapshot()
	st.LagP50Ns, st.LagP99Ns, st.LagSamples = hs.Quantile(0.50), hs.Quantile(0.99), hs.Count
	rs := r.rt.Snapshot()
	st.SnapshotReads, st.SnapshotFallbacks = rs.SnapshotReads, rs.SnapshotFallbacks
	select {
	case <-r.caughtUp:
		st.CaughtUp = true
	default:
	}
	r.stateMu.Lock()
	eng := r.eng
	r.stateMu.Unlock()
	if eng != nil {
		st.Lanes = eng.lanes
		st.Applied = eng.Cursors()
		st.Horizon = make([]uint64, eng.lanes)
		for i := range st.Horizon {
			st.Horizon[i] = eng.horizon[i].Load()
		}
		st.GSNHorizon = eng.GSN()
		st.AppliedRecords = eng.Records()
		st.AppliedBatches = eng.Batches()
		st.PendingRecords = eng.Held()
	}
	return st
}

func (r *Replica) logf(format string, args ...any) {
	if r.opts.Logf != nil {
		r.opts.Logf(format, args...)
	}
}

// Run connects, streams, and reconnects with exponential backoff until
// ctx ends. A stream that shipped at least one frame resets the
// backoff; the applied cursors survive disconnects, so every
// re-handshake resumes exactly where the replica's state left off.
func (r *Replica) Run(ctx context.Context) error {
	lo := r.opts.Backoff
	if lo <= 0 {
		lo = 50 * time.Millisecond
	}
	hi := backoffCeiling * lo
	backoff := lo
	for {
		frames, err := r.streamOnce(ctx)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		r.reconnects.Add(1)
		if frames > 0 {
			backoff = lo
		}
		r.logf("repl: stream ended after %d frames: %v (reconnect in %v)", frames, err, backoff)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > hi {
			backoff = hi
		}
	}
}

// streamOnce runs one connection: dial, hello with the applied cursors,
// then apply frames until the stream breaks.
func (r *Replica) streamOnce(ctx context.Context) (int, error) {
	d := net.Dialer{Timeout: 3 * time.Second}
	nc, err := d.DialContext(ctx, "tcp", r.Primary())
	if err != nil {
		return 0, err
	}
	defer nc.Close()
	r.setConn(nc)
	defer r.setConn(nil)
	stop := context.AfterFunc(ctx, func() { nc.Close() })
	defer stop()

	hello := server.Request{Op: server.OpReplHello, ID: 1, Cursors: r.Cursors()}
	if err := server.WriteFrame(nc, server.EncodeRequest(hello)); err != nil {
		return 0, err
	}
	br := bufio.NewReaderSize(nc, 64<<10)
	payload, err := server.ReadFrame(br, server.DefaultMaxFrame)
	if err != nil {
		return 0, err
	}
	resp, err := server.DecodeResponse(payload)
	if err != nil {
		return 0, err
	}
	if resp.Status != server.StatusOK || resp.Op != server.OpReplHello {
		return 0, fmt.Errorf("repl: hello refused: %s", resp.Err)
	}
	eng, err := r.ensureState(resp.Shards)
	if err != nil {
		return 0, err
	}
	eng.reset()

	frames := 0
	for {
		payload, err := server.ReadFrame(br, server.DefaultMaxFrame)
		if err != nil {
			return frames, err
		}
		f, err := server.DecodeReplFrame(payload)
		if err != nil {
			return frames, err
		}
		r.bytesShipped.Add(uint64(len(payload)) + 4)
		if err := eng.frame(f); err != nil {
			// Apply errors mean the stream and our queues disagree;
			// the cursors still describe exactly what was applied, so
			// a clean re-handshake re-ships the difference.
			return frames, err
		}
		frames++
		select {
		case <-r.caughtUp:
		default:
			if eng.caughtUp() {
				close(r.caughtUp)
			}
		}
	}
}

// ensureState builds the store and engine on the first hello and pins
// the lane count thereafter — a primary that restarts with a different
// shard count is a topology change, not something to replay over.
func (r *Replica) ensureState(lanes int) (*engine, error) {
	if lanes <= 0 || lanes > kv.MaxShards {
		return nil, fmt.Errorf("repl: primary reports %d lanes", lanes)
	}
	r.stateMu.Lock()
	defer r.stateMu.Unlock()
	if r.eng != nil {
		if r.eng.lanes != lanes {
			return nil, fmt.Errorf("repl: primary now has %d lanes, replica built for %d", lanes, r.eng.lanes)
		}
		return r.eng, nil
	}
	store, _, err := kv.Open(r.rt, nil, kv.Options{Mode: kv.ModeNone, Shards: lanes, Registry: r.opts.Registry})
	if err != nil {
		return nil, err
	}
	r.store = store
	r.eng = newEngine(store, lanes, r.lag)
	r.registerLaneMetrics(lanes)
	return r.eng, nil
}

func (r *Replica) registerLaneMetrics(lanes int) {
	r.regOnce.Do(func() {
		reg := r.opts.Registry
		eng := r.eng
		for lane := 0; lane < lanes; lane++ {
			lane := lane
			reg.GaugeFunc(fmt.Sprintf("deferstm_repl_applied_lsn{lane=\"%d\"}", lane),
				"Highest lane LSN applied to the replica store.",
				func() float64 { return float64(eng.Applied(lane)) })
			reg.GaugeFunc(fmt.Sprintf("deferstm_repl_horizon_lsn{lane=\"%d\"}", lane),
				"Primary durable watermark last heard for the lane.",
				func() float64 { return float64(eng.horizon[lane].Load()) })
		}
		reg.GaugeFunc("deferstm_repl_gsn_horizon",
			"Highest global commit sequence number applied atomically.",
			func() float64 { return float64(eng.GSN()) })
		reg.GaugeFunc("deferstm_repl_pending_records",
			"Records held back waiting for cross-shard siblings.",
			func() float64 { return float64(eng.Held()) })
		reg.Counter("deferstm_repl_applied_records_total",
			"Records applied to the replica store.",
			func() uint64 { return eng.Records() })
		reg.Counter("deferstm_repl_applied_batches_total",
			"Cross-shard batches applied atomically.",
			func() uint64 { return eng.Batches() })
	})
}
