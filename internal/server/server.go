package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"deferstm/internal/kv"
	"deferstm/internal/obs"
	"deferstm/internal/stm"
)

// Options configures a Server. The zero value is usable.
type Options struct {
	// Window is the per-connection in-flight response bound: how many
	// decoded-but-unacknowledged requests a connection may have before
	// the server stops reading its socket. It is the backpressure
	// mechanism — when durability lags, windows fill, readers park on
	// them, and TCP flow control pushes the stall back to the client.
	// 0 means 128.
	Window int
	// Registry, when non-nil, receives the server's instruments
	// (request counters, connection gauge, ack-latency histogram,
	// durable-lag gauge).
	Registry *obs.Registry
	// Logf, when non-nil, receives one line per noteworthy connection
	// event (accept failures, protocol errors).
	Logf func(format string, args ...any)
	// ReadOnly refuses mutations (PUT, DEL, BATCH) and serves GET on the
	// store's snapshot path — zero validation aborts, reads ordered at
	// the replica's applied (watermark-consistent) cut. This is the
	// replica serving mode: its store is written only by the replication
	// stream.
	ReadOnly bool
}

// errReadOnly is the refusal both the wire protocol and the HTTP
// fallback give mutations on a replica.
var errReadOnly = errors.New("server: read-only replica")

func (o Options) window() int {
	if o.Window <= 0 {
		return 128
	}
	return o.Window
}

// Server serves the store over TCP. Create with New, run with Serve,
// stop with Close. All exported methods are safe for concurrent use.
type Server struct {
	store *kv.Store
	rt    *stm.Runtime
	opts  Options

	ctx    context.Context
	cancel context.CancelFunc
	// streamCtx governs replication streams, which never end on their
	// own: Shutdown cancels it so streams drain out of the graceful
	// wait, while ordinary connections keep their durability waits.
	streamCtx    context.Context
	streamCancel context.CancelFunc

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	nConns     atomic.Int64
	totalConns atomic.Uint64
	reqs       [OpReplHello + 1]atomic.Uint64
	reqErrs    atomic.Uint64
	// Responses written, by the goroutine that wrote them (handleConn).
	readerResps, writerResps atomic.Uint64
	// Read calls on served connections' sockets.
	socketReads atomic.Uint64

	ackLatency *obs.Histogram
}

// Stats is the STATS response payload (and /kv/stats JSON): store and
// wire-level counters a load generator needs to compute fsyncs/commit
// and durable lag across a run. WALFlushes counts group-commit
// drain+fsync cycles and WALFsyncs every fsync issued (flushes plus
// segment rotations and checkpoints); WALRecords the commits those
// flushes covered. On a sharded store the WAL fields aggregate across
// lanes (LastAssigned and Durable are sums of per-lane watermarks —
// totals of log positions, not single-log LSNs).
type Stats struct {
	Mode         string            `json:"mode"`
	Shards       int               `json:"shards"`
	Keys         int               `json:"keys"`
	LastAssigned uint64            `json:"last_assigned_lsn"`
	Durable      uint64            `json:"durable_lsn"`
	WALFlushes   uint64            `json:"wal_flushes"`
	WALFsyncs    uint64            `json:"wal_fsyncs"`
	WALRecords   uint64            `json:"wal_records"`
	WALMeanBatch float64           `json:"wal_mean_batch"`
	WALMaxBatch  uint64            `json:"wal_max_batch"`
	Conns        int64             `json:"conns"`
	TotalConns   uint64            `json:"total_conns"`
	Requests     map[string]uint64 `json:"requests"`
	RequestErrs  uint64            `json:"request_errors"`
}

// New builds a server for store. The store stays owned by the caller:
// Close stops serving but does not close the store (kv.Store.Close is
// idempotent, so shutdown paths may close it redundantly anyway).
func New(store *kv.Store, opts Options) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	streamCtx, streamCancel := context.WithCancel(ctx)
	s := &Server{
		store:        store,
		rt:           store.Runtime(),
		opts:         opts,
		ctx:          ctx,
		cancel:       cancel,
		streamCtx:    streamCtx,
		streamCancel: streamCancel,
		conns:        map[net.Conn]struct{}{},
	}
	reg := opts.Registry
	s.ackLatency = reg.NewHistogram("deferstm_server_ack_seconds",
		"Request decoded to response written (durability wait included for mutations).")
	reg.GaugeFunc("deferstm_server_conns", "Open client connections.",
		func() float64 { return float64(s.nConns.Load()) })
	reg.GaugeFunc("deferstm_server_durable_lag_records",
		"Assigned-but-not-yet-durable WAL records (group-commit depth), summed over lanes.",
		func() float64 {
			var lag float64
			for _, log := range store.Logs() {
				if log == nil {
					return 0
				}
				if a, d := log.AssignedWatermark(), log.DurableWatermark(); a > d {
					lag += float64(a - d)
				}
			}
			return lag
		})
	for op, name := range opNames {
		op := op
		reg.Counter(fmt.Sprintf("deferstm_server_requests_total{op=%q}", name),
			"Requests served, by op.", func() uint64 { return s.reqs[op].Load() })
	}
	reg.Counter("deferstm_server_request_errors_total",
		"Requests answered with an error status.", func() uint64 { return s.reqErrs.Load() })
	const respHelp = "Responses written, by path: the connection's reader (waited for nothing, nothing owed ahead of it) or its writer goroutine."
	reg.Counter(`deferstm_server_responses_total{path="reader"}`, respHelp,
		func() uint64 { return s.readerResps.Load() })
	reg.Counter(`deferstm_server_responses_total{path="writer"}`, respHelp,
		func() uint64 { return s.writerResps.Load() })
	reg.Counter("deferstm_server_socket_reads_total",
		"Read calls on served connections' sockets: a pipelined burst of requests arrives in one.",
		func() uint64 { return s.socketReads.Load() })
	return s
}

var opNames = map[byte]string{
	OpGet: "get", OpPut: "put", OpDel: "del",
	OpBatch: "batch", OpWatch: "watch", OpStats: "stats",
	OpReplHello: "repl",
}

// Serve accepts connections on ln until Close or Shutdown. It returns
// nil after either shutdown path, or the accept error that stopped it.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: already closed")
	}
	s.ln = ln
	s.mu.Unlock()

	for {
		nc, err := ln.Accept()
		if err != nil {
			// Shutdown closes the listener without cancelling s.ctx (the
			// graceful path keeps durability waits alive), so "closed"
			// alone also means a clean stop — returning the accept error
			// there made every graceful drain look like a failure.
			if s.ctx.Err() != nil || s.stopping() {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return nil
		}
		s.conns[nc] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.nConns.Add(1)
		s.totalConns.Add(1)
		go s.handleConn(nc)
	}
}

// Shutdown stops accepting and drains gracefully: every response
// already owed to a client — including ones still waiting on the
// durable watermark — is written before its connection closes. This is
// the SIGTERM path; Close is the hard stop. The old drain (Close on
// signal) cancelled the per-connection contexts, so writer goroutines
// abandoned durable-but-unwritten acks below the watermark: the client
// saw a clean TCP close with its committed writes unacknowledged.
//
// Mechanically: the listener closes, replication streams are released
// (they never end on their own), and each connection's reader is kicked
// with an immediate read deadline — it enqueues its clean-shutdown
// sentinel and the writer drains the full ack window, durability waits
// intact, before teardown. If ctx ends first the remaining connections
// are hard-closed and ctx.Err() is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	if ln != nil {
		ln.Close()
	}
	s.streamCancel()
	past := time.Now().Add(-time.Second)
	for _, c := range conns {
		_ = c.SetReadDeadline(past)
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.cancel()
		for _, c := range conns {
			c.Close()
		}
		<-done
		return ctx.Err()
	}
}

// Close stops accepting, closes every connection, and waits for the
// per-connection goroutines to drain. Responses still waiting on the
// durable watermark are abandoned (their records stay committed and
// durable — only the acks are lost); use Shutdown to drain them.
// Idempotent; after a Shutdown already in flight it just waits.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	s.cancel()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return nil
}

// Stats snapshots the server and store counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Mode:        s.store.Mode().String(),
		Conns:       s.nConns.Load(),
		TotalConns:  s.totalConns.Load(),
		Requests:    map[string]uint64{},
		RequestErrs: s.reqErrs.Load(),
	}
	for op, name := range opNames {
		st.Requests[name] = s.reqs[op].Load()
	}
	st.Shards = s.store.Shards()
	_ = s.store.View(func(tx *stm.Tx) error {
		st.Keys = s.store.Len(tx)
		for _, log := range s.store.Logs() {
			if log != nil {
				st.LastAssigned += log.LastAssigned(tx)
			}
		}
		return nil
	})
	for _, log := range s.store.Logs() {
		if log != nil {
			st.Durable += log.DurableWatermark()
		}
	}
	ws := s.store.WALStats()
	st.WALFlushes, st.WALFsyncs, st.WALRecords = ws.Flushes, ws.Fsyncs, ws.Records
	st.WALMeanBatch, st.WALMaxBatch = ws.Mean(), ws.MaxBatch
	return st
}

// stopping reports whether Close or Shutdown has begun.
func (s *Server) stopping() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// pend is one executed request's response, on its way to the wire.
type pend struct {
	resp     Response
	received time.Time
	sentinel bool // reader finished cleanly: flush and stop
}

// watch reports whether p is a WATCH that waits for its token.
func (p *pend) watch() bool { return p.resp.Status == StatusOK && p.resp.Op == OpWatch }

// waits reports whether p's response must wait for the durable
// watermark: a mutation's (it carries an LSN) or a WATCH's.
func (p *pend) waits() bool { return p.resp.LSN > 0 || p.watch() }

// connOut is a connection's response side, shared by its reader and its
// writer goroutine: both encode responses into frame and write them into
// bw under mu. owed counts the responses the reader has handed to the
// writer that are not yet in bw. The reader writes a response itself
// only when owed is 0 — every earlier response is then already in bw —
// so responses leave in arrival order whichever goroutine writes them.
type connOut struct {
	mu    sync.Mutex
	bw    *bufio.Writer
	frame []byte
	owed  atomic.Int64
}

func (o *connOut) flush() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.bw.Flush()
}

// respond writes p's response into o's buffer, flushing it when flush is
// set, and counts it on path.
func (s *Server) respond(o *connOut, p *pend, flush bool, path *atomic.Uint64) error {
	o.mu.Lock()
	o.frame = responseFrame(reusable(o.frame), p.resp)
	_, err := o.bw.Write(o.frame)
	if err == nil && flush {
		err = o.bw.Flush()
	}
	o.mu.Unlock()
	if err != nil {
		return err
	}
	s.ackLatency.Observe(time.Since(p.received))
	path.Add(1)
	return nil
}

// await blocks until p's response may be written: the durability-ack
// rule. A mutation's response exists only once the watermark covers its
// LSN; a WATCH waits for the watched token, then reports the fresh
// watermark of the token's lane (as a token, so a sharded client can
// keep chaining watches). Cancellation (shutdown) abandons the
// response, never early-acks it.
func (s *Server) await(ctx context.Context, p *pend) error {
	if p.watch() {
		if err := s.store.WaitDurableCtx(ctx, p.resp.Water); err != nil {
			return err
		}
		lane := kv.TokenLane(p.resp.Water)
		if log := s.store.Logs()[lane]; log != nil {
			p.resp.Water = kv.PackToken(lane, log.DurableWatermark())
		}
	}
	if p.resp.LSN > 0 {
		return s.store.WaitDurableCtx(ctx, p.resp.LSN)
	}
	return nil
}

// ready reports whether await would return for p at once.
func (s *Server) ready(p *pend) bool {
	if p.watch() && !s.store.Durable(p.resp.Water) {
		return false
	}
	return s.store.Durable(p.resp.LSN)
}

// handleConn runs a connection's reader loop, with a paired writer
// goroutine draining the ack window.
//
// Pipelining contract: the reader decodes and EXECUTES each request
// immediately — a PUT's transaction commits (reserving its LSN and
// queueing its record for the lane's flusher; a commit never waits for
// an fsync) long before its response is writable — and only the
// RESPONSE is held back, until the durable watermark covers the
// request's LSN. The contract holds within ONE connection: the PUTs it
// sends during one fsync ride the next, so a single pipelined client
// fills group-commit batches by itself. Requests are answered strictly
// in arrival order. A response whose token is already durable is
// written with no transaction; before the writer blocks on one whose
// fsync is still owed, it flushes what it has buffered: on a sharded
// store the next response may wait on another lane's fsync, and an ack
// already written never waits that out. The ack window is a channel of
// capacity Options.Window, which needs no atomicity with the store:
// when durability lags it fills, the reader parks on it, the socket
// stops being read, and TCP pushes the backpressure to the client.
//
// A response that waits for nothing (a GET, STATS, an error) with
// nothing owed ahead of it is written by the reader itself, with no
// hand-off and no writer wake-up. The reader flushes only when no
// further request is already buffered, and flushes what it wrote before
// it hands the next response to the writer: a pipelined GET burst costs
// one socket write, and no GET waits out a later PUT's fsync.
func (s *Server) handleConn(nc net.Conn) {
	ctx, cancel := context.WithCancel(s.ctx)
	acks := make(chan pend, s.opts.window())
	out := &connOut{bw: bufio.NewWriterSize(nc, 32<<10)}
	writerDone := make(chan struct{})

	go func() {
		defer close(writerDone)
		defer cancel() // a writer exit must unpark the reader
		for {
			var p pend
			select {
			case p = <-acks:
			default:
				// Nothing pending: flush buffered responses before
				// parking so a half-full buffer never stalls a client.
				if err := out.flush(); err != nil {
					return
				}
				select {
				case p = <-acks:
				case <-ctx.Done():
					return
				}
			}
			if p.sentinel {
				out.flush()
				return
			}
			ready := s.ready(&p)
			if !ready && out.flush() != nil {
				return
			}
			// A WATCH awaits even when ready: await also refreshes the
			// watermark its response reports.
			if (!ready || p.watch()) && s.await(ctx, &p) != nil {
				return
			}
			if s.respond(out, &p, false, &s.writerResps) != nil {
				return
			}
			out.owed.Add(-1)
		}
	}()

	br := bufio.NewReaderSize(countReads{nc, &s.socketReads}, 32<<10)
	var buf []byte     // the frame buffer, reused: decoding copies out of it
	unflushed := false // the reader wrote responses it has not flushed yet
	handOff := func(p pend) error {
		if unflushed {
			unflushed = false
			if err := out.flush(); err != nil {
				return err
			}
		}
		if !p.sentinel {
			out.owed.Add(1)
		}
		select {
		case acks <- p:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	answer := func(p pend) error {
		if p.waits() || out.owed.Load() != 0 {
			return handOff(p)
		}
		flush := !frameBuffered(br)
		if err := s.respond(out, &p, flush, &s.readerResps); err != nil {
			return err
		}
		unflushed = !flush
		return nil
	}
	for {
		payload, err := readFrameInto(br, DefaultMaxFrame, buf)
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) && ctx.Err() == nil && !s.stopping() {
				s.logf("server: %s: read: %v", nc.RemoteAddr(), err)
			}
			_ = handOff(pend{sentinel: true})
			break
		}
		buf = reusable(payload)
		req, err := DecodeRequest(payload)
		if err != nil {
			// Framing survived but the payload didn't parse: the stream
			// is no longer trustworthy. Answer the one bad request and
			// close.
			s.reqErrs.Add(1)
			s.logf("server: %s: %v", nc.RemoteAddr(), err)
			_ = answer(pend{
				received: time.Now(),
				resp:     Response{Status: StatusErr, Op: req.Op, ID: req.ID, Err: err.Error()},
			})
			_ = handOff(pend{sentinel: true})
			break
		}
		if req.Op == OpReplHello {
			// The connection stops being request/response here: flush
			// everything the writer still owes (in order, durability
			// waits included), retire it, and hand the socket to the
			// replication stream.
			s.reqs[OpReplHello].Add(1)
			_ = handOff(pend{sentinel: true})
			<-writerDone
			s.serveRepl(nc, req)
			break
		}
		p, _ := s.execute(req) // a failure travels in p.resp
		if answer(p) != nil {
			// A dead socket, or shutdown while parked on a full window:
			// either way the writer must stop too.
			cancel()
			break
		}
	}

	<-writerDone
	cancel()
	nc.Close()
	s.mu.Lock()
	delete(s.conns, nc)
	s.mu.Unlock()
	s.nConns.Add(-1)
	s.wg.Done()
}

// countReads counts the Read calls made on a connection's socket.
type countReads struct {
	r io.Reader
	n *atomic.Uint64
}

func (c countReads) Read(p []byte) (int, error) {
	c.n.Add(1)
	return c.r.Read(p)
}

// frameBuffered reports whether br already holds the whole next frame,
// so reading it will not block on the socket.
func frameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < 4 {
		return false
	}
	hdr, _ := br.Peek(4)
	return br.Buffered()-4 >= int(binary.LittleEndian.Uint32(hdr))
}

// execute runs one request against the store and returns its pending
// response. Mutations commit here; their durability is the writer's
// problem (that is the whole design). A failed request's error is
// already in the response; it is also returned, for the HTTP fallback
// to pick a status code from.
func (s *Server) execute(req Request) (pend, error) {
	p := pend{received: time.Now()}
	if int(req.Op) < len(s.reqs) {
		s.reqs[req.Op].Add(1)
	}
	fail := func(err error) (pend, error) {
		s.reqErrs.Add(1)
		p.resp = Response{Status: StatusErr, Op: req.Op, ID: req.ID, Err: err.Error()}
		return p, err
	}
	p.resp = Response{Status: StatusOK, Op: req.Op, ID: req.ID}
	if s.opts.ReadOnly && (req.Op == OpPut || req.Op == OpDel || req.Op == OpBatch) {
		return fail(errReadOnly)
	}
	switch req.Op {
	case OpGet:
		view := s.store.View
		if s.opts.ReadOnly {
			// Replica reads ride the snapshot path: abort-free, ordered
			// at the applied (watermark-consistent) cut.
			view = s.store.SnapshotView
		}
		err := view(func(tx *stm.Tx) error {
			p.resp.Val, p.resp.Found = s.store.Get(tx, req.Key)
			return nil
		})
		if err != nil {
			return fail(err)
		}
	case OpPut:
		lsn, err := s.store.Update(func(tx *stm.Tx, b *kv.Batch) error {
			b.Put(req.Key, req.Val)
			return nil
		})
		if err != nil {
			return fail(err)
		}
		p.resp.LSN = lsn
	case OpDel:
		lsn, err := s.store.Update(func(tx *stm.Tx, b *kv.Batch) error {
			b.Delete(req.Key)
			return nil
		})
		if err != nil {
			return fail(err)
		}
		p.resp.LSN = lsn
	case OpBatch:
		if len(req.Ops) == 0 {
			return fail(errors.New("server: empty batch"))
		}
		lsn, err := s.store.Update(func(tx *stm.Tx, b *kv.Batch) error {
			for _, op := range req.Ops {
				if op.Put {
					b.Put(op.Key, op.Value)
				} else {
					b.Delete(op.Key)
				}
			}
			return nil
		})
		if err != nil {
			return fail(err)
		}
		p.resp.LSN = lsn
	case OpWatch:
		if s.store.Logs()[0] == nil {
			if req.LSN > 0 {
				return fail(errors.New("server: WATCH on a store with no WAL"))
			}
			return p, nil
		}
		// The watched value is a durability token: its top bits route to
		// a WAL lane. A token naming a lane the store does not have is a
		// client bug, not a reason to wait (or panic).
		lane := kv.TokenLane(req.LSN)
		if lane >= s.store.Shards() {
			return fail(fmt.Errorf("server: WATCH token names lane %d of a %d-lane store", lane, s.store.Shards()))
		}
		log := s.store.Logs()[lane]
		var assigned uint64
		_ = s.store.View(func(tx *stm.Tx) error {
			assigned = log.LastAssigned(tx)
			return nil
		})
		if kv.TokenLSN(req.LSN) > assigned {
			// A watch past the assigned history would block this
			// connection's response stream forever; refuse it.
			return fail(fmt.Errorf("server: WATCH %d beyond assigned LSN %d on lane %d", kv.TokenLSN(req.LSN), assigned, lane))
		}
		p.resp.Water = req.LSN
	case OpStats:
		b, err := json.Marshal(s.Stats())
		if err != nil {
			return fail(err)
		}
		p.resp.Stats = string(b)
	default:
		return fail(fmt.Errorf("server: unknown op %d", req.Op))
	}
	return p, nil
}
