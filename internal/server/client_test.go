package server

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"deferstm/internal/kv"
	"deferstm/internal/simio"
)

// TestPipelinedSendsCoalesce: a closed loop that keeps 16 PUTs in flight
// refills its window in bursts — one per fsync — and each burst leaves in
// one socket write, not one write per request.
func TestPipelinedSendsCoalesce(t *testing.T) {
	const puts, window = 2000, 16
	_, _, addr := startServer(t, kv.ModeGroup, simio.Latency{Fsync: 2 * time.Millisecond}, Options{})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	writes := new(atomic.Int64)
	c := newClient(countingConn{nc, writes})
	t.Cleanup(func() { c.Close() })

	val := strings.Repeat("v", 32)
	inflight := make([]<-chan Response, 0, window)
	recv := func() {
		if _, err := c.Recv(inflight[0]); err != nil {
			t.Fatal(err)
		}
		inflight = inflight[:copy(inflight, inflight[1:])]
	}
	for i := 0; i < puts; i++ {
		ch, err := c.Send(Request{Op: OpPut, Key: fmt.Sprintf("k%02d", i%50), Val: val})
		if err != nil {
			t.Fatal(err)
		}
		if inflight = append(inflight, ch); len(inflight) == window {
			recv()
		}
	}
	for len(inflight) > 0 {
		recv()
	}
	perReq := float64(writes.Load()) / puts
	t.Logf("%d client writes for %d requests: %.3f per request", writes.Load(), puts, perReq)
	if perReq > 0.25 {
		t.Fatalf("%.3f client socket writes per pipelined request, want <= 0.25", perReq)
	}
}

// TestSendReadableWithoutRecv: Send's channel delivers the response to
// a caller that reads it directly, without Recv — the frame goes out
// without anyone waiting in the client.
func TestSendReadableWithoutRecv(t *testing.T) {
	_, _, addr := startServer(t, kv.ModeGroup, simio.Latency{}, Options{})
	c := dial(t, addr)
	ch, err := c.Send(Request{Op: OpPut, Key: "k", Val: "v"})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case resp, ok := <-ch:
		if !ok || resp.Status != StatusOK || resp.LSN == 0 {
			t.Fatalf("response = %+v, ok=%v", resp, ok)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no response on Send's channel within 5 s")
	}
}

// failAfterFirstWrite is a conn whose first Write goes through and every
// later one fails.
type failAfterFirstWrite struct {
	net.Conn
	writes atomic.Int64
}

func (c *failAfterFirstWrite) Write(p []byte) (int, error) {
	if c.writes.Add(1) > 1 {
		return 0, errors.New("injected write failure")
	}
	return c.Conn.Write(p)
}

// TestFlushFailureFailsPending: a failed write fails every call still
// waiting for a response — the one whose frame reached the peer (which
// never answers) and the ones buffered behind the failure — instead of
// leaving them parked on a connection whose reads still block.
func TestFlushFailureFailsPending(t *testing.T) {
	cli, peer := net.Pipe()
	go io.Copy(io.Discard, peer) // accepts every byte, answers nothing
	t.Cleanup(func() { peer.Close() })
	fc := &failAfterFirstWrite{Conn: cli}
	c := newClient(fc)
	t.Cleanup(func() { c.Close() })

	send := func() (<-chan Response, bool) {
		ch, err := c.Send(Request{Op: OpPut, Key: "k", Val: "v"})
		return ch, err == nil
	}
	first, ok := send()
	if !ok {
		t.Fatal("first Send failed")
	}
	for deadline := time.Now().Add(5 * time.Second); fc.writes.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the first frame was never written")
		}
		time.Sleep(time.Millisecond)
	}
	pending := []<-chan Response{first}
	for i := 0; i < 8; i++ {
		if ch, ok := send(); ok {
			pending = append(pending, ch)
		}
	}
	for i, ch := range pending {
		errc := make(chan error, 1)
		go func() {
			_, err := c.Recv(ch)
			errc <- err
		}()
		select {
		case err := <-errc:
			if err == nil {
				t.Fatalf("pending call %d succeeded on a connection that never answers", i)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("pending call %d of %d still waiting 5 s after the write failed", i, len(pending))
		}
	}
}

// TestCloseStopsFlusher: Close leaves no flusher goroutine behind.
func TestCloseStopsFlusher(t *testing.T) {
	_, _, addr := startServer(t, kv.ModeGroup, simio.Latency{}, Options{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put("k", "v"); err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() {
		c.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return within 5 s")
	}
	select {
	case <-c.flusherDone:
	default:
		t.Fatal("the flusher is still running after Close")
	}
}
