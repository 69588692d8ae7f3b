package server

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deferstm/internal/kv"
	"deferstm/internal/simio"
	"deferstm/internal/stm"
	"deferstm/internal/wal"
)

// countingListener counts the socket writes the server makes on every
// connection it accepts.
type countingListener struct {
	net.Listener
	writes *atomic.Int64
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.writes}, nil
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// startCountingServer is startServer on a group-mode store whose
// listener counts socket writes.
func startCountingServer(t *testing.T, lat simio.Latency) (*Server, *kv.Store, string, *atomic.Int64) {
	t.Helper()
	store, _, err := kv.Open(stm.NewDefault(), wal.NewSimBackend(simio.NewFS(lat)), kv.Options{Mode: kv.ModeGroup})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(store, Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	writes := new(atomic.Int64)
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(countingListener{ln, writes}) }()
	t.Cleanup(func() {
		srv.Close()
		<-serveDone
		store.Close()
	})
	return srv, store, ln.Addr().String(), writes
}

// sendFrames writes reqs to nc in ONE socket write.
func sendFrames(t *testing.T, nc net.Conn, reqs ...Request) {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range reqs {
		_ = writeFrame(&buf, EncodeRequest(r))
	}
	if _, err := nc.Write(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
}

func recvResponse(t *testing.T, nc net.Conn, br *bufio.Reader) Response {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	payload, err := ReadFrame(br, DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := DecodeResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestIdleGetOneTransaction: a GET on an idle connection runs exactly
// one STM transaction — its own read. The reader answers it itself, with
// no hand-off to the writer goroutine; none of the connection's plumbing
// is transactional (TestPutBurstTransactions pins the same for PUTs).
func TestIdleGetOneTransaction(t *testing.T) {
	srv, store, addr := startServer(t, kv.ModeGroup, simio.Latency{}, Options{})
	c := dial(t, addr)
	if _, err := c.Put("k", "v"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get("k"); err != nil { // warm the connection
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let the writer park
	rt := store.Runtime()
	before, readerBefore := rt.Snapshot(), srv.readerResps.Load()
	if v, found, err := c.Get("k"); err != nil || !found || v != "v" {
		t.Fatalf("Get = %q %v %v", v, found, err)
	}
	time.Sleep(20 * time.Millisecond) // count anything the GET left running
	d := rt.Snapshot().Delta(before)
	if d.Starts != 1 || d.Commits != 1 {
		t.Fatalf("an idle GET ran %d transaction starts and %d commits, want 1 and 1", d.Starts, d.Commits)
	}
	if got := srv.readerResps.Load() - readerBefore; got != 1 {
		t.Fatalf("reader-written responses moved by %d, want 1", got)
	}
}

// TestResponsesInArrivalOrder: on one connection, a PUT held by a 20 ms
// fsync and then 8 GETs — all sent in one write — are answered in send
// order: no GET overtakes the PUT whose durability it is queued behind,
// and the PUT is acknowledged only once durable.
func TestResponsesInArrivalOrder(t *testing.T) {
	_, store, addr := startServer(t, kv.ModeGroup, simio.Latency{Fsync: 20 * time.Millisecond}, Options{})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)
	for round := 0; round < 3; round++ {
		base := uint64(round * 100)
		reqs := []Request{{Op: OpGet, ID: base + 1, Key: "k"}, {Op: OpPut, ID: base + 2, Key: "k", Val: "v"}}
		for i := uint64(3); i <= 10; i++ {
			reqs = append(reqs, Request{Op: OpGet, ID: base + i, Key: "k"})
		}
		sendFrames(t, nc, reqs...)
		for _, want := range reqs {
			resp := recvResponse(t, nc, br)
			if resp.ID != want.ID || resp.Status != StatusOK {
				t.Fatalf("round %d: got response %d (status %d), want %d: responses left arrival order", round, resp.ID, resp.Status, want.ID)
			}
			if want.Op == OpPut {
				if w := store.Logs()[0].DurableWatermark(); w < resp.LSN {
					t.Fatalf("PUT lsn %d acknowledged at watermark %d", resp.LSN, w)
				}
			}
		}
	}
}

// TestReaderFlushRule: a burst of 64 GETs in one client write is
// answered in a handful of socket writes, not one per response; and a
// GET the reader answered just before a PUT is on the wire while that
// PUT's fsync is still running, not held behind it.
func TestReaderFlushRule(t *testing.T) {
	_, store, addr, writes := startCountingServer(t, simio.Latency{Fsync: 300 * time.Millisecond})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)

	var burst []Request
	for i := 1; i <= 64; i++ {
		burst = append(burst, Request{Op: OpGet, ID: uint64(i), Key: "absent"})
	}
	sendFrames(t, nc, burst...)
	for i := 1; i <= 64; i++ {
		if resp := recvResponse(t, nc, br); resp.ID != uint64(i) {
			t.Fatalf("burst response %d has id %d", i, resp.ID)
		}
	}
	if n := writes.Load(); n > 4 {
		t.Fatalf("64 pipelined GETs took %d socket writes, want <= 4", n)
	}

	sendFrames(t, nc, Request{Op: OpGet, ID: 100, Key: "k"}, Request{Op: OpPut, ID: 101, Key: "k", Val: "v"})
	if resp := recvResponse(t, nc, br); resp.ID != 100 {
		t.Fatalf("first response id %d, want the GET's 100", resp.ID)
	}
	if w := store.Logs()[0].DurableWatermark(); w != 0 {
		t.Fatalf("the GET arrived only after the PUT's fsync (watermark %d)", w)
	}
	if resp := recvResponse(t, nc, br); resp.ID != 101 || resp.LSN != 1 {
		t.Fatalf("PUT response = %+v", resp)
	}
}

// gateBackend holds every fsync of a lane's files, once armed, until
// that lane's release channel is closed.
type gateBackend struct {
	wal.Backend
	armed   *atomic.Bool
	release []chan struct{} // per lane
}

type gatedFile struct {
	wal.File
	release chan struct{}
	armed   *atomic.Bool
}

func (b gateBackend) gate(f wal.File, name string, err error) (wal.File, error) {
	for lane, ch := range b.release {
		if err == nil && strings.HasPrefix(name, wal.LanePrefix(lane)) {
			return gatedFile{File: f, release: ch, armed: b.armed}, nil
		}
	}
	return f, err
}

func (b gateBackend) Create(name string) (wal.File, error) {
	f, err := b.Backend.Create(name)
	return b.gate(f, name, err)
}

func (b gateBackend) OpenAppend(name string) (wal.File, error) {
	f, err := b.Backend.OpenAppend(name)
	return b.gate(f, name, err)
}

func (f gatedFile) Fsync() error {
	if f.armed.Load() {
		<-f.release
	}
	return f.File.Fsync()
}

// startGatedServer is startServer on a group-mode store of lanes lanes
// whose fsyncs a test can hold: once armed is set, every fsync of a lane
// blocks until release(lane) is called, and none blocks after it. Cleanup
// releases every lane before it closes the server and the store.
func startGatedServer(t *testing.T, lanes int, opts Options) (srv *Server, store *kv.Store, addr string, armed *atomic.Bool, release func(lane int)) {
	t.Helper()
	gb := gateBackend{Backend: wal.NewSimBackend(simio.NewFS(simio.Latency{})), armed: new(atomic.Bool)}
	once := make([]sync.Once, lanes)
	for range lanes {
		gb.release = append(gb.release, make(chan struct{}))
	}
	release = func(lane int) { once[lane].Do(func() { close(gb.release[lane]) }) }
	store, _, err := kv.Open(stm.NewDefault(), gb, kv.Options{Mode: kv.ModeGroup, Shards: lanes})
	if err != nil {
		t.Fatal(err)
	}
	srv = New(store, opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	t.Cleanup(func() {
		for lane := range lanes {
			release(lane)
		}
		srv.Close()
		<-serveDone
		store.Close()
	})
	return srv, store, ln.Addr().String(), gb.armed, release
}

// waitAssigned waits until lane's log has assigned through lsn: the
// PUT that reserved it has committed.
func waitAssigned(t *testing.T, store *kv.Store, lane int, lsn uint64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); store.Logs()[lane].AssignedWatermark() < lsn; {
		if time.Now().After(deadline) {
			t.Fatalf("lane %d assigned through %d, want %d", lane, store.Logs()[lane].AssignedWatermark(), lsn)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBufferedAckNotHeldByLaterFsync: on a 2-lane store with both lanes'
// fsyncs held, one connection pipelines a PUT to lane 0 and then a PUT
// to lane 1. Releasing lane 0 alone must deliver the first ack: the
// writer flushes it before it blocks on the second PUT's fsync, which is
// still held.
func TestBufferedAckNotHeldByLaterFsync(t *testing.T) {
	_, store, addr, armed, release := startGatedServer(t, 2, Options{})
	var laneKey [2]string // a key on each lane, found through the tokens
	for i := 0; laneKey[0] == "" || laneKey[1] == ""; i++ {
		k := fmt.Sprintf("k%d", i)
		tok, err := store.Update(func(tx *stm.Tx, b *kv.Batch) error { b.Put(k, "v"); return nil })
		if err != nil {
			t.Fatal(err)
		}
		store.WaitDurable(tok)
		laneKey[kv.TokenLane(tok)] = k
	}
	armed.Store(true)

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)
	lane1 := store.Logs()[1]
	held := lane1.AssignedWatermark() + 1 // the lane-1 PUT's LSN
	sendFrames(t, nc, Request{Op: OpPut, ID: 1, Key: laneKey[0], Val: "a"},
		Request{Op: OpPut, ID: 2, Key: laneKey[1], Val: "b"})
	// Both PUTs have committed once lane 1 has assigned the second one's
	// LSN; the reader hands its response to the writer right after, so
	// the writer finds it queued behind the first.
	waitAssigned(t, store, 1, held)
	time.Sleep(20 * time.Millisecond)

	release(0)
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	payload, err := ReadFrame(br, DefaultMaxFrame)
	if err != nil {
		t.Fatalf("no ack for the lane-0 PUT while lane 1's fsync is held: %v", err)
	}
	if resp, err := DecodeResponse(payload); err != nil || resp.ID != 1 || resp.Status != StatusOK {
		t.Fatalf("first response = %+v, %v; want the lane-0 PUT's ack", resp, err)
	}
	if w := lane1.DurableWatermark(); w >= held {
		t.Fatalf("lane 1's fsync was not held (watermark %d)", w)
	}
	release(1)
	if resp := recvResponse(t, nc, br); resp.ID != 2 || resp.Status != StatusOK {
		t.Fatalf("second response = %+v, want the lane-1 PUT's ack", resp)
	}
}

// TestPutBurstTransactions: a burst of PUTs pipelined in one socket
// write while the lane's fsync is held runs the store's transactions and
// nothing else: its Updates, the writer's durability waits (one a flush)
// and the flusher's own. Responses leave in arrival order.
func TestPutBurstTransactions(t *testing.T) {
	const n = 64
	_, store, addr, armed, release := startGatedServer(t, 1, Options{})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)
	sendFrames(t, nc, Request{Op: OpPut, ID: 1, Key: "warm", Val: "v"})
	recvResponse(t, nc, br)
	time.Sleep(20 * time.Millisecond) // let the writer and the flusher park
	armed.Store(true)

	rt := store.Runtime()
	before, walBefore := rt.Snapshot(), store.WALStats()
	burst := make([]Request, n)
	for i := range burst {
		burst[i] = Request{Op: OpPut, ID: uint64(i + 2), Key: fmt.Sprintf("k%d", i), Val: "v"}
	}
	sendFrames(t, nc, burst...)
	waitAssigned(t, store, 0, 1+n)
	time.Sleep(20 * time.Millisecond) // let the writer park on the first held ack
	release(0)
	for _, want := range burst {
		if resp := recvResponse(t, nc, br); resp.ID != want.ID || resp.Status != StatusOK {
			t.Fatalf("got response %+v, want the ack of PUT %d", resp, want.ID)
		}
	}
	time.Sleep(20 * time.Millisecond) // count anything the burst left running
	d := rt.Snapshot().Delta(before)
	flushes := store.WALStats().Flushes - walBefore.Flushes

	// The bound the mechanism gives. The reader runs one Update per PUT,
	// and a conflict-aborted attempt is re-run: one start more. The first
	// flush drains what is pending when it starts and is held until the
	// whole burst has committed, so one more flush drains the rest. Per
	// flush, the writer parks at most once on a response that is not yet
	// durable and is woken by the publish (2 starts), and writes every
	// response that publish covers with none; the lane's flusher runs at
	// most 7: the attempt that commits the flush, its drain, its epoch
	// leave, the park after it, and, in rule 2, up to three more (arming
	// the deadline, parking under it, the attempt the deadline ends). The
	// ack window's hand-off and take run none.
	if flushes > 2 {
		t.Fatalf("the burst took %d flushes, want <= 2", flushes)
	}
	const writerPerFlush, flusherPerFlush = 2, 7
	bound := n + d.AbortsConflict + flushes*(writerPerFlush+flusherPerFlush)
	if d.Starts > bound {
		t.Fatalf("%d PUTs ran %d transaction starts (%d commits, %d conflict aborts, %d flushes), want <= %d",
			n, d.Starts, d.Commits, d.AbortsConflict, flushes, bound)
	}
}
