package server

import (
	"bufio"
	"context"
	"io"
	"net"
	"testing"
	"time"

	"deferstm/internal/kv"
	"deferstm/internal/simio"
	"deferstm/internal/stm"
	"deferstm/internal/wal"
)

// TestShutdownDrainsAcks is the graceful-drain regression: a SIGTERM
// (srv.Shutdown) arriving while a connection has a full window of
// pipelined writes parked on the durable watermark must not drop their
// acks. Every decoded request gets its response — with the durability
// wait intact — before the connection is torn down.
func TestShutdownDrainsAcks(t *testing.T) {
	const puts = 32
	// A visible fsync cost keeps the window genuinely parked on the
	// watermark when Shutdown lands, instead of racing it.
	lat := simio.Latency{Fsync: 2 * time.Millisecond}
	srv, store, addr := startServer(t, kv.ModeGroup, lat, Options{Window: puts})

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	for i := 0; i < puts; i++ {
		req := Request{Op: OpPut, ID: uint64(i + 1), Key: "k", Val: "v"}
		if err := WriteFrame(nc, EncodeRequest(req)); err != nil {
			t.Fatal(err)
		}
	}
	// Shutdown must land after the reader decoded every request — the
	// guarantee under test is "decoded implies acked", so make sure all
	// of them crossed the decode line first.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Requests["put"] != puts {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d puts decoded", srv.Stats().Requests["put"], puts)
		}
		time.Sleep(time.Millisecond)
	}

	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer scancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// Every pipelined write must have been acked durable, in order,
	// before the server hung up.
	br := bufio.NewReader(nc)
	for i := 0; i < puts; i++ {
		payload, err := ReadFrame(br, DefaultMaxFrame)
		if err != nil {
			t.Fatalf("ack %d/%d lost in shutdown: %v", i, puts, err)
		}
		resp, err := DecodeResponse(payload)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != StatusOK || resp.ID != uint64(i+1) {
			t.Fatalf("ack %d = %+v", i, resp)
		}
		if w := store.Logs()[0].DurableWatermark(); w < resp.LSN {
			t.Fatalf("drained ack lsn=%d above durable watermark %d", resp.LSN, w)
		}
	}
	if _, err := ReadFrame(br, DefaultMaxFrame); err != io.EOF {
		t.Fatalf("connection still open after drain: %v", err)
	}
}

// TestCloseMidFlushKeepsAckedRecords: a hard Close (acks abandoned)
// followed by the store's Close, both landing while the lane's flusher
// is mid-fsync with a queue behind it. The flusher must neither find the
// log closed under it (it would panic, and take the test binary along)
// nor leave anything behind: every PUT the server executed — a superset
// of those it acknowledged — is on storage when the store reopens.
func TestCloseMidFlushKeepsAckedRecords(t *testing.T) {
	const puts = 64
	fs := simio.NewFS(simio.Latency{Fsync: time.Millisecond})
	store, _, err := kv.Open(stm.NewDefault(), wal.NewSimBackend(fs), kv.Options{Mode: kv.ModeGroup})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(store, Options{Window: 16})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	put := Request{Op: OpPut, Key: "k", Val: "v"}
	first, err := c.Send(put)
	if err != nil {
		t.Fatal(err)
	}
	go func() { // outruns the window; TCP holds the rest back until Close cuts it
		for i := 1; i < puts; i++ {
			if _, err := c.Send(put); err != nil {
				return
			}
		}
	}()
	resp, err := c.Recv(first)
	if err != nil {
		t.Fatal(err)
	}
	acked := resp.LSN
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	executed := store.Logs()[0].AssignedWatermark()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	_, info, err := kv.Open(stm.NewDefault(), wal.NewSimBackend(fs), kv.Options{Mode: kv.ModeGroup})
	if err != nil {
		t.Fatal(err)
	}
	if info.LastLSN < acked || info.LastLSN != executed {
		t.Fatalf("recovered through LSN %d; %d was acknowledged and %d executed before Close", info.LastLSN, acked, executed)
	}
}

// TestShutdownIdleImmediate: with no traffic in flight Shutdown returns
// promptly and Serve exits nil (a deadline-kicked reader is a clean
// stop, not an accept error).
func TestShutdownIdleImmediate(t *testing.T) {
	srv, _, addr := startServer(t, kv.ModeGroup, simio.Latency{}, Options{})
	c := dial(t, addr)
	if _, err := c.Put("a", "1"); err != nil {
		t.Fatal(err)
	}
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("idle shutdown: %v", err)
	}
	// And again: idempotent.
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
}

func replHello(t *testing.T, addr string, cursors []uint64) (net.Conn, *bufio.Reader, Response) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	req := Request{Op: OpReplHello, ID: 9, Cursors: cursors}
	if err := WriteFrame(nc, EncodeRequest(req)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(nc)
	payload, err := ReadFrame(br, DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := DecodeResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	return nc, br, resp
}

// TestReplHelloRefusals: a WAL-less store cannot be a primary, and a
// cursor vector that names the wrong lane count is a protocol error.
func TestReplHelloRefusals(t *testing.T) {
	_, _, addr := startServer(t, kv.ModeNone, simio.Latency{}, Options{})
	if _, _, resp := replHello(t, addr, nil); resp.Status != StatusErr {
		t.Fatalf("WAL-less hello accepted: %+v", resp)
	}

	_, _, addr2 := startServer(t, kv.ModeGroup, simio.Latency{}, Options{})
	if _, _, resp := replHello(t, addr2, []uint64{0, 0, 0}); resp.Status != StatusErr {
		t.Fatalf("3-lane cursor vector on a 1-lane store accepted: %+v", resp)
	}
}

// TestReplStreamShipsRecords speaks the stream protocol by hand: after
// the hello, the lane's durable records arrive in LSN order followed by
// a watermark heartbeat, and nothing past the watermark is ever shipped.
func TestReplStreamShipsRecords(t *testing.T) {
	srv, store, addr := startServer(t, kv.ModeGroup, simio.Latency{}, Options{})
	c := dial(t, addr)
	for i, kvp := range [][2]string{{"a", "1"}, {"b", "2"}, {"a", "3"}} {
		lsn, err := c.Put(kvp[0], kvp[1])
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("put %d got lsn %d", i, lsn)
		}
	}
	store.WaitDurable(3)

	nc, br, resp := replHello(t, addr, nil)
	if resp.Status != StatusOK || resp.Shards != 1 {
		t.Fatalf("hello = %+v", resp)
	}
	var recs []ReplFrame
	sawWM := false
	for !sawWM || len(recs) < 3 {
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		payload, err := ReadFrame(br, DefaultMaxFrame)
		if err != nil {
			t.Fatalf("stream died after %d records (wm=%v): %v", len(recs), sawWM, err)
		}
		f, err := DecodeReplFrame(payload)
		if err != nil {
			t.Fatal(err)
		}
		switch f.Kind {
		case ReplRecord:
			recs = append(recs, ReplFrame{Kind: f.Kind, Lane: f.Lane, LSN: f.LSN, Payload: append([]byte(nil), f.Payload...)})
		case ReplWatermark:
			if f.LSN >= 3 {
				sawWM = true
			}
		default:
			t.Fatalf("unexpected frame kind %d on a checkpoint-less lane", f.Kind)
		}
	}
	for i, f := range recs {
		if f.Lane != 0 || f.LSN != uint64(i+1) {
			t.Fatalf("record %d = lane %d lsn %d", i, f.Lane, f.LSN)
		}
		ops, err := kv.DecodeOps(f.Payload)
		if err != nil || len(ops) != 1 {
			t.Fatalf("record %d payload: %v (%d ops)", i, err, len(ops))
		}
	}
	if w := store.Logs()[0].DurableWatermark(); recs[len(recs)-1].LSN > w {
		t.Fatalf("stream shipped lsn %d past durable watermark %d", recs[len(recs)-1].LSN, w)
	}
	// The follower hanging up must not wedge the server.
	nc.Close()
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown with a dead stream: %v", err)
	}
}

// TestReadOnlyServer: the replica serving mode refuses mutations and
// still answers reads.
func TestReadOnlyServer(t *testing.T) {
	store, _, err := kv.Open(stm.NewDefault(), nil, kv.Options{Mode: kv.ModeNone})
	if err != nil {
		t.Fatal(err)
	}
	// Seed the store directly — on a real replica this is the stream's
	// job; the server itself must never write.
	if _, err := store.Update(func(tx *stm.Tx, b *kv.Batch) error {
		b.Put("a", "1")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	srv := New(store, Options{ReadOnly: true})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Error(err)
		}
		if err := <-done; err != nil {
			t.Error(err)
		}
	})

	c := dial(t, ln.Addr().String())
	if v, found, err := c.Get("a"); err != nil || !found || v != "1" {
		t.Fatalf("Get on read-only server = %q %v %v", v, found, err)
	}
	if _, err := c.Put("a", "2"); err == nil {
		t.Fatal("read-only server accepted a PUT")
	}
	if _, err := c.Del("a"); err == nil {
		t.Fatal("read-only server accepted a DEL")
	}
	if _, err := c.Batch([]kv.Op{{Put: true, Key: "b", Value: "2"}}); err == nil {
		t.Fatal("read-only server accepted a BATCH")
	}
	if v, found, _ := c.Get("a"); !found || v != "1" {
		t.Fatalf("refused writes still mutated the store: %q %v", v, found)
	}
}
