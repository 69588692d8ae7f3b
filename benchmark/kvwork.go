package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"deferstm/internal/check"
	"deferstm/internal/kv"
	"deferstm/internal/obs"
	"deferstm/internal/repl"
	"deferstm/internal/server"
	"deferstm/internal/simio"
	"deferstm/internal/stm"
	"deferstm/internal/wal"
)

// durableOpts is the flush policy of every durable store in the
// benchmark: group commit, 2 shards = 2 WAL lanes.
var durableOpts = kv.Options{Mode: kv.ModeGroup, Shards: 2, WAL: wal.Options{SegmentBytes: 64 << 10}}

// preload writes every key once, in batches, through the store's own
// Update path, and waits for each batch to be durable.
func preload(store *kv.Store, in *inputs, val func(i int) string) error {
	const batch = 512
	for lo := 0; lo < len(in.keys); lo += batch {
		hi := min(lo+batch, len(in.keys))
		tok, err := store.Update(func(tx *stm.Tx, b *kv.Batch) error {
			for i := lo; i < hi; i++ {
				b.Put(in.keys[i], val(i))
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		store.WaitDurable(tok)
	}
	return nil
}

// service is an in-process kvserver on the simulated device with its
// client connections and, optionally, one attached read replica.
type service struct {
	fs      *simio.FS
	io      *ioStats
	store   *kv.Store
	srv     *server.Server
	served  chan error
	clients []*server.Client

	rep       *repl.Replica
	repReg    *obs.Registry
	repCancel context.CancelFunc
	repDone   chan struct{}
}

func startService(in *inputs, tr *tracer, conns int, withReplica bool) (_ *service, err error) {
	s := &service{}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	var backend timedBackend
	s.fs, backend = newSimBackend(simDevice, tr)
	s.io = backend.st
	if s.store, _, err = kv.Open(stm.NewDefault(), backend, durableOpts); err != nil {
		return nil, err
	}
	if err = preload(s.store, in, in.preloadValue); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.srv = server.New(s.store, server.Options{})
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	addr := ln.Addr().String()
	for i := 0; i < conns; i++ {
		c, err := server.Dial(addr)
		if err != nil {
			return nil, err
		}
		s.clients = append(s.clients, c)
	}
	if withReplica {
		ctx, cancel := context.WithCancel(context.Background())
		s.repCancel, s.repDone, s.repReg = cancel, make(chan struct{}), obs.NewRegistry()
		s.rep = repl.New(stm.NewDefault(), repl.Options{Primary: addr, Registry: s.repReg})
		go func() { defer close(s.repDone); _ = s.rep.Run(ctx) }() // Run returns ctx's error at teardown
		wctx, wcancel := context.WithTimeout(ctx, 30*time.Second)
		defer wcancel()
		if err = s.rep.WaitCaughtUp(wctx); err != nil {
			return nil, fmt.Errorf("replica catch-up: %w", err)
		}
	}
	return s, nil
}

// stopServing closes the connections, the replica and the server, in
// that order, leaving the store open for the output checks.
func (s *service) stopServing() {
	for _, c := range s.clients {
		_ = c.Close() // the run is over; a close error changes nothing
	}
	s.clients = nil
	if s.repCancel != nil {
		s.repCancel()
		<-s.repDone
		s.repCancel = nil
	}
	if s.srv != nil {
		_ = s.srv.Close()
		<-s.served
		s.srv = nil
	}
}

func (s *service) close() {
	s.stopServing()
	if s.store != nil {
		_ = s.store.Close()
		s.store = nil
	}
}

// walTotals sums the group-commit counters over both lanes.
func walTotals(store *kv.Store) (t wal.BatchStats) {
	for _, log := range store.Logs() {
		bs := log.BatchStats()
		t.Flushes += bs.Flushes
		t.Records += bs.Records
		t.Fsyncs += bs.Fsyncs
	}
	return t
}

// serviceMark is the service's counters at the start of a window.
type serviceMark struct {
	rt      stm.StatsSnapshot
	wal     wal.BatchStats
	io      ioMark
	reqErrs uint64
	applied uint64
	lag     lagBuckets
}

func (s *service) mark() serviceMark {
	m := serviceMark{
		rt: s.store.Runtime().Snapshot(), wal: walTotals(s.store),
		io: s.io.mark(), reqErrs: s.srv.Stats().RequestErrs,
	}
	if s.rep != nil {
		m.applied, m.lag = s.rep.Status().AppliedRecords, scrapeLag(s.repReg)
	}
	return m
}

// lagBuckets is the replica's replication-lag histogram: observations per
// power-of-two bucket, keyed by the bucket's upper bound in seconds.
type lagBuckets map[float64]uint64

// scrapeLag reads the histogram out of the registry's Prometheus
// exposition, the only public view of it that has the buckets.
func scrapeLag(reg *obs.Registry) lagBuckets {
	var text strings.Builder
	reg.WritePrometheus(&text)
	var les []float64
	cum := map[float64]uint64{}
	for _, line := range strings.Split(text.String(), "\n") {
		var le float64
		var n uint64
		if _, err := fmt.Sscanf(line, `deferstm_repl_lag_seconds_bucket{le="%g"} %d`, &le, &n); err == nil && !math.IsInf(le, 0) {
			les, cum[le] = append(les, le), n
		}
	}
	sort.Float64s(les)
	out, below := lagBuckets{}, uint64(0)
	for _, le := range les {
		out[le], below = cum[le]-below, cum[le]
	}
	return out
}

// quantileSince is the q-quantile, in µs, of the observations made since
// the earlier scrape, placed within its bucket by linear interpolation.
func (b lagBuckets) quantileSince(earlier lagBuckets, q float64) float64 {
	var les []float64
	var total uint64
	for le, n := range b {
		les, total = append(les, le), total+n-earlier[le]
	}
	sort.Float64s(les)
	rank, seen := q*float64(total), 0.0
	for _, le := range les {
		n := float64(b[le] - earlier[le])
		if n > 0 && seen+n >= rank {
			return (le/2 + (rank-seen)/n*le/2) * 1e6
		}
		seen += n
	}
	return 0
}

// layers turns counter deltas over a window into the per-layer metrics
// of the server, stm, wal, simio, core and repl layers.
func (s *service) layers(m serviceMark, elapsed time.Duration, userBytes uint64) map[string]float64 {
	out := stmLayers(s.store.Runtime().Snapshot().Sub(m.rt))
	w, io := walTotals(s.store), s.io.since(m.io)
	records := float64(w.Records - m.wal.Records)
	out["server.request_errs"] = float64(s.srv.Stats().RequestErrs - m.reqErrs)
	out["wal.fsyncs_per_commit"] = ratio(float64(w.Fsyncs-m.wal.Fsyncs), records)
	out["wal.mean_batch"] = ratio(records, float64(w.Flushes-m.wal.Flushes))
	out["wal.bytes_per_user_byte"] = ratio(float64(io.bytes), float64(userBytes))
	out["simio.writes_per_commit"] = ratio(float64(io.writes), records)
	var busy time.Duration
	for _, d := range io.fsyncDur {
		busy += d
	}
	out["simio.fsync_busy_frac"] = ratio(busy.Seconds(), elapsed.Seconds()*float64(s.store.Shards()))
	out["simio.fsync_actual_p50_us"] = quantile(durationsUS(io.fsyncDur), 0.5)
	if s.rep != nil {
		out["repl.applied_per_s"] = ratio(float64(s.rep.Status().AppliedRecords-m.applied), elapsed.Seconds())
		lag := scrapeLag(s.repReg)
		out["repl.lag_p50_us"] = lag.quantileSince(m.lag, 0.50)
		out["repl.lag_p90_us"] = lag.quantileSince(m.lag, 0.90)
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// stmLayers derives the stm and core per-commit ratios from a delta of
// the runtime's own counters.
func stmLayers(d stm.StatsSnapshot) map[string]float64 {
	c := float64(d.Commits)
	return map[string]float64{
		"stm.aborts_per_commit":        ratio(float64(d.Aborts()), c),
		"stm.serial_per_commit":        ratio(float64(d.SerialRuns), c),
		"stm.quiesce_ns_per_commit":    ratio(float64(d.QuiesceNanos), c),
		"stm.snapshot_fallbacks":       float64(d.SnapshotFallbacks),
		"stm.snapshot_truncations":     float64(d.SnapshotTruncations),
		"core.deferred_ops_per_commit": ratio(float64(d.DeferredOps), c),
	}
}

// ---- kv-write-sat ----

const (
	satConns    = 2
	satInFlight = 16
	satWarmOps  = 256 // per connection
)

// putRec is one acknowledged PUT of the saturation workload.
type putRec struct {
	key int
	seq uint64
	tok uint64 // durability token: lane + lane-local LSN
}

// satConn is one connection's log. puts is appended by the connection's
// goroutine only; acked publishes its length so the crash check can cut
// "acknowledged before the crash" without touching the slice.
type satConn struct {
	r     *rand.Rand
	seq   uint64
	puts  []putRec
	acked atomic.Int64
	lat   []time.Duration
	sent  uint64
	errs  uint64
}

type kvWriteSat struct {
	cfg  *config
	in   *inputs
	svc  *service
	conn [satConns]satConn
}

func setupKVWriteSat(cfg *config, in *inputs, tr *tracer) (instance, error) {
	svc, err := startService(in, tr, satConns, false)
	if err != nil {
		return nil, err
	}
	w := &kvWriteSat{cfg: cfg, in: in, svc: svc}
	var l load
	warm := make([]func(), satConns)
	for ci := range warm {
		w.conn[ci].r = in.rng(uint64(ci) + 1)
		warm[ci] = func() { w.loop(ci, &l, nil, uint64(cfg.warm(satWarmOps))) }
	}
	runWorkers(warm...)
	for ci := range w.conn {
		c := &w.conn[ci]
		if c.errs > 0 {
			svc.close()
			return nil, errors.New("kv-write-sat: warm-up request failed")
		}
		// The warm-up's PUTs stay in the log: recovery must replay them too.
		c.lat, c.sent = nil, 0
	}
	return w, nil
}

// loop is one connection's closed loop: keep satInFlight PUTs in flight,
// timing each from its send to its durable ack. It stops after limit
// requests (warm-up) or, with limit 0, when the window ends, and always
// drains what it sent.
func (w *kvWriteSat) loop(ci int, l *load, tr *tracer, limit uint64) {
	type inflight struct {
		ch   <-chan server.Response
		sent time.Time
		key  int
		seq  uint64
	}
	c, log := w.svc.clients[ci], &w.conn[ci]
	tag := byte('a' + ci)
	pending := make([]inflight, 0, satInFlight)
	recv := func() {
		p := pending[0]
		pending = pending[:copy(pending, pending[1:])]
		resp, err := c.Recv(p.ch)
		now := time.Now()
		if err != nil || resp.LSN == 0 {
			log.errs++
			return
		}
		log.lat = append(log.lat, now.Sub(p.sent))
		log.puts = append(log.puts, putRec{key: p.key, seq: p.seq, tok: resp.LSN})
		log.acked.Store(int64(len(log.puts)))
		l.count[ci].n.Add(1)
		if tr.sampled(p.seq) {
			id := tr.add("gen.request", p.sent, now, 0, p.seq, ci)
			tr.add("server.roundtrip", p.sent, now, id, p.seq, ci)
		}
	}
	for !l.done.Load() && (limit == 0 || log.sent < limit) {
		key := log.r.IntN(len(w.in.keys))
		log.seq++
		sent := time.Now()
		ch, err := c.Send(server.Request{Op: server.OpPut, Key: w.in.keys[key], Val: w.in.value(tag, log.seq)})
		log.sent++
		if err != nil {
			log.errs++
			break
		}
		pending = append(pending, inflight{ch: ch, sent: sent, key: key, seq: log.seq})
		if len(pending) == satInFlight {
			recv()
		}
	}
	for len(pending) > 0 {
		recv()
	}
}

func (w *kvWriteSat) run(tr *tracer) (*result, error) {
	var l load
	mark := w.svc.mark()

	// Arm the crash in the window's last slice, under full load: the next
	// fsync captures the device image. Each connection's log is cut just
	// before arming, so everything in the cut was acknowledged before the
	// crash instant. (The plan's OnCrash callback runs after the capture,
	// not atomically with it, and would let later acks into the cut.)
	var ackedAtCrash [satConns]int64
	var arm *time.Timer
	workers := make([]func(), satConns)
	for ci := range workers {
		workers[ci] = func() { w.loop(ci, &l, tr, 0) }
	}
	ws := runWindow(w.cfg, &l, func(part time.Duration, last bool) []func() {
		if last {
			arm = time.AfterFunc(part-w.cfg.slice/2, func() {
				for ci := range w.conn {
					ackedAtCrash[ci] = w.conn[ci].acked.Load()
				}
				w.svc.fs.SetCrashPlan(simio.CrashPlan{Point: simio.CrashPreFsync, N: 1})
			})
		}
		return workers
	})
	arm.Stop()

	res := &result{ws: ws}
	var userBytes uint64
	for ci := range w.conn {
		c := &w.conn[ci]
		res.lat = append(res.lat, c.lat...)
		res.attempted += c.sent
		res.fail(c.errs, "connection %d: %d requests failed or returned no LSN", ci, c.errs)
		userBytes += uint64(len(c.lat)) * uint64(len(w.in.keys[0])+valueLen)
	}
	res.layer = w.svc.layers(mark, ws.elapsed, userBytes)
	res.layer["server.roundtrip_p50_us"] = quantile(latenciesUS(res), 0.5)

	w.svc.stopServing()
	w.checkRecovery(res, ackedAtCrash)
	return res, nil
}

// checkRecovery reopens the store from the crash image and requires it
// to be exactly the replay of every PUT at or below each lane's
// recovered LSN — which, with a clean AckedPrefixLanes, makes every PUT
// acknowledged before the crash readable.
func (w *kvWriteSat) checkRecovery(res *result, ackedAtCrash [satConns]int64) {
	img := w.svc.fs.CrashImage()
	if img == nil {
		res.fail(1, "crash plan never fired")
		return
	}
	fs2 := simio.FSFromImage(img, simio.Latency{}, w.in.seed)
	store2, info, err := kv.Open(stm.NewDefault(), wal.NewSimBackend(fs2), durableOpts)
	if err != nil {
		res.fail(1, "recovery from the crash image: %v", err)
		return
	}
	defer store2.Close()

	lanes := store2.Shards()
	held, acked := make([]uint64, lanes), make([]uint64, lanes)
	for _, lr := range info.Lanes {
		held[lr.Lane] = lr.LastLSN
	}
	type winner struct {
		lsn uint64
		val string
	}
	want := map[int]winner{}
	for ci := range w.conn {
		tag := byte('a' + ci)
		for i, p := range w.conn[ci].puts {
			lane, lsn := kv.TokenLane(p.tok), kv.TokenLSN(p.tok)
			if int64(i) < ackedAtCrash[ci] && lsn > acked[lane] {
				acked[lane] = lsn
			}
			if lsn <= held[lane] && lsn > want[p.key].lsn {
				want[p.key] = winner{lsn: lsn, val: w.in.value(tag, p.seq)}
			}
		}
	}
	for _, v := range check.AckedPrefixLanes(acked, held) {
		res.fail(1, "acked prefix: %v", v)
	}
	seen, wrong := 0, uint64(0)
	err = store2.Scan(func(k, v string) bool {
		var i int
		if _, err := fmt.Sscanf(k, "k%07d", &i); err != nil || i >= len(w.in.keys) {
			wrong++
			return true
		}
		seen++
		exp := w.in.preloadValue(i)
		if win, ok := want[i]; ok {
			exp = win.val
		}
		if v != exp {
			wrong++
		}
		return true
	})
	if err != nil {
		res.fail(1, "scan of the recovered store: %v", err)
	}
	res.fail(wrong, "%d recovered keys differ from the replay of the acknowledged prefix", wrong)
	if seen != len(w.in.keys) {
		res.fail(1, "recovered store holds %d keys, want %d", seen, len(w.in.keys))
	}
}

func (w *kvWriteSat) close() { w.svc.close() }

// ---- kv-paced-mixed ----

const (
	pacedConns   = 2
	pacedRate    = 2000 // requests per second over both connections
	pacedPutFrac = 0.10
	pacedWarmOps = 512 // per connection
	// pacedSlack is how many scheduled requests may still be in flight
	// when a part of the window closes before the shortfall counts as
	// failures: 20 ms of the schedule.
	pacedSlack = pacedRate / 50
)

// pacedReq is one request handed from a connection's sender to its
// receiver.
type pacedReq struct {
	ch        <-chan server.Response // nil when the send itself failed
	due, sent time.Time
	op        op
	seq       uint64 // PUTs: the writer's sequence number
	n         uint64 // request number on this connection
	behindPut bool   // GETs: a PUT of this connection was unacknowledged at send
}

// pacedMeasure is what one connection's receiver measured in one window.
type pacedMeasure struct {
	lat                 []time.Duration
	rtt, late           []time.Duration
	getBehind, getClear []time.Duration
	done, puts          uint64
	errs, stale         uint64
}

// pacedConn is one connection's state across warm-up and window. The
// sender owns stream, n, seq and putsSent; the receiver owns seen and m.
type pacedConn struct {
	client    *server.Client
	stream    *opStream
	n, seq    uint64
	putsSent  uint64
	putsAcked atomic.Uint64
	seen      [][pacedConns]uint64 // per key: highest sequence seen from each writer
	m         pacedMeasure
}

type kvPacedMixed struct {
	cfg  *config
	in   *inputs
	svc  *service
	conn [pacedConns]*pacedConn
}

func setupKVPacedMixed(cfg *config, in *inputs, tr *tracer) (instance, error) {
	svc, err := startService(in, tr, pacedConns, true)
	if err != nil {
		return nil, err
	}
	w := &kvPacedMixed{cfg: cfg, in: in, svc: svc}
	for ci := range w.conn {
		w.conn[ci] = &pacedConn{
			client: svc.clients[ci],
			stream: mixOf(in, pacedPutFrac, true, uint64(ci)+1),
			seen:   make([][pacedConns]uint64, len(in.keys)),
		}
	}
	// Warm-up: a fixed number of requests at the workload's own pace.
	runWorkers(w.workers(nil, cfg.warm(pacedWarmOps), &load{})...)
	for ci, c := range w.conn {
		if c.m.errs+c.m.stale > 0 {
			svc.close()
			return nil, fmt.Errorf("kv-paced-mixed: warm-up failed on connection %d", ci)
		}
	}
	return w, nil
}

// workers builds each connection's sender and receiver for n requests
// per connection on the open-loop schedule; connection 1 runs half an
// interval out of phase with connection 0.
func (w *kvPacedMixed) workers(tr *tracer, n int, l *load) []func() {
	interval := time.Second * pacedConns / pacedRate
	start := time.Now()
	var workers []func()
	for ci, c := range w.conn {
		// Sized to the number of sends: the sender must never wait for
		// the receiver, only for the connection.
		pending := make(chan pacedReq, n)
		first := start.Add(interval * time.Duration(ci) / pacedConns)
		workers = append(workers,
			func() { w.send(ci, c, first, interval, n, pending) },
			func() { w.recv(ci, c, tr, l, pending) })
	}
	return workers
}

func (w *kvPacedMixed) send(ci int, c *pacedConn, start time.Time, interval time.Duration, n int, pending chan<- pacedReq) {
	defer close(pending)
	openLoop(wallClock{}, start, interval, n, func(_ int, due time.Time) {
		o := c.stream.next()
		p := pacedReq{due: due, op: o, n: c.n}
		c.n++
		req := server.Request{Op: server.OpGet, Key: w.in.keys[o.key]}
		if o.put {
			c.seq++
			p.seq = c.seq
			req.Op, req.Val = server.OpPut, w.in.value(byte('a'+ci), c.seq)
		} else {
			p.behindPut = c.putsSent > c.putsAcked.Load()
		}
		p.sent = time.Now()
		ch, err := c.client.Send(req)
		if err == nil {
			p.ch = ch
			if o.put {
				c.putsSent++
			}
		}
		pending <- p
	})
}

func (w *kvPacedMixed) recv(ci int, c *pacedConn, tr *tracer, l *load, pending <-chan pacedReq) {
	m := &c.m
	for p := range pending {
		if p.ch == nil {
			m.errs++
			continue
		}
		resp, err := c.client.Recv(p.ch)
		now := time.Now()
		if p.op.put {
			c.putsAcked.Add(1)
		}
		if err != nil {
			m.errs++
			continue
		}
		m.lat = append(m.lat, now.Sub(p.due))
		m.rtt = append(m.rtt, now.Sub(p.sent))
		m.late = append(m.late, p.sent.Sub(p.due))
		switch {
		case p.op.put && resp.LSN == 0:
			m.errs++
		case p.op.put:
			m.puts++
			c.seen[p.op.key][ci] = p.seq
		default:
			if p.behindPut {
				m.getBehind = append(m.getBehind, now.Sub(p.sent))
			} else {
				m.getClear = append(m.getClear, now.Sub(p.sent))
			}
			if !resp.Found || !c.observe(p.op.key, resp.Val) {
				m.stale++
			}
		}
		m.done++
		l.count[ci].n.Add(1)
		if tr.sampled(p.n) {
			id := tr.add("gen.request", p.due, now, 0, p.n, ci)
			tr.add("server.roundtrip", p.sent, now, id, p.n, ci)
		}
	}
}

// observe checks a value read from key against what this connection has
// already seen there: the preload value only while no write has been
// seen, and each writer's sequence numbers never going backwards.
func (c *pacedConn) observe(key int, val string) bool {
	tag, n, ok := parseValue(val)
	seen := &c.seen[key]
	switch {
	case !ok:
		return false
	case tag == 'p':
		return n == uint64(key) && *seen == [pacedConns]uint64{}
	case tag >= 'a' && tag < 'a'+pacedConns:
		if n < seen[tag-'a'] {
			return false
		}
		seen[tag-'a'] = n
		return true
	}
	return false
}

func (w *kvPacedMixed) run(tr *tracer) (*result, error) {
	var l load
	mark := w.svc.mark()
	for _, c := range w.conn {
		c.m = pacedMeasure{} // drop the warm-up's samples
	}
	res := &result{}
	var scheduled uint64 // per part
	ws := runWindow(w.cfg, &l, func(part time.Duration, _ bool) []func() {
		n := int(part.Seconds() * pacedRate / pacedConns)
		scheduled = uint64(n * pacedConns)
		res.attempted += scheduled
		return w.workers(tr, n, &l)
	})
	res.ws = ws
	var rtt, getBehind, getClear []time.Duration
	var puts uint64
	for ci, c := range w.conn {
		m := &c.m
		res.lat = append(res.lat, m.lat...)
		res.late = append(res.late, m.late...)
		rtt = append(rtt, m.rtt...)
		getBehind = append(getBehind, m.getBehind...)
		getClear = append(getClear, m.getClear...)
		puts += m.puts
		res.fail(m.errs, "connection %d: %d requests failed", ci, m.errs)
		res.fail(m.stale, "connection %d: %d reads went back in a key's version order", ci, m.stale)
	}
	// The rate is part of the workload: a system that does not keep up
	// with it has requests outstanding, beyond what is normally in flight,
	// whenever a part of the window closes. The median part decides: one
	// part that closes on a stall is a latency, and is counted as one.
	var short []float64
	for i := 0; i+partSlices <= len(ws.slices); i += partSlices {
		done := uint64(0)
		for _, s := range ws.slices[i : i+partSlices] {
			done += s.ops
		}
		short = append(short, float64(scheduled)-float64(done))
	}
	if m := median(short); m > pacedSlack {
		res.fail(uint64(m-pacedSlack)*uint64(len(short)), "fell %.0f requests behind the %d/s schedule in the median part", m, pacedRate)
	}
	res.layer = w.svc.layers(mark, ws.elapsed, puts*uint64(len(w.in.keys[0])+valueLen))
	res.layer["server.roundtrip_p50_us"] = quantile(durationsUS(rtt), 0.5)
	res.layer["server.get_behind_put_p50_us"] = quantile(durationsUS(getBehind), 0.5)
	res.layer["server.get_clear_p50_us"] = quantile(durationsUS(getClear), 0.5)

	w.checkReplica(res)
	return res, nil
}

// checkReplica waits for the replica's cursors to reach the primary's
// durable watermarks and requires identical contents.
func (w *kvPacedMixed) checkReplica(res *result) {
	logs := w.svc.store.Logs()
	deadline := time.Now().Add(10 * time.Second)
	for caughtUp := false; !caughtUp; {
		cur := w.svc.rep.Cursors()
		caughtUp = len(cur) == len(logs)
		for lane := 0; caughtUp && lane < len(logs); lane++ {
			caughtUp = cur[lane] >= logs[lane].DurableWatermark()
		}
		if !caughtUp {
			if time.Now().After(deadline) {
				res.fail(1, "replica did not reach the primary's durable watermarks")
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
	primary, err := contents(w.svc.store)
	if err != nil {
		res.fail(1, "scan of the primary: %v", err)
		return
	}
	replica, err := contents(w.svc.rep.Store())
	if err != nil {
		res.fail(1, "scan of the replica: %v", err)
		return
	}
	diff := uint64(0)
	for k, v := range primary {
		if replica[k] != v {
			diff++
		}
	}
	if len(replica) > len(primary) {
		diff += uint64(len(replica) - len(primary))
	}
	res.fail(diff, "%d keys differ between the primary and the caught-up replica", diff)
}

func contents(s *kv.Store) (map[string]string, error) {
	out := map[string]string{}
	err := s.Scan(func(k, v string) bool { out[k] = v; return true })
	return out, err
}

func (w *kvPacedMixed) close() { w.svc.close() }
