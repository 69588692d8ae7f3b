package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"deferstm/internal/kv"
	"deferstm/internal/obs"
	"deferstm/internal/simio"
	"deferstm/internal/stm"
	"deferstm/internal/wal"
)

// startServer brings up a sim-backed store and a serving listener on an
// ephemeral loopback port, and tears both down at test end.
func startServer(t *testing.T, mode kv.Mode, lat simio.Latency, opts Options) (*Server, *kv.Store, string) {
	t.Helper()
	var backend wal.Backend
	if mode != kv.ModeNone {
		backend = wal.NewSimBackend(simio.NewFS(lat))
	}
	store, _, err := kv.Open(stm.NewDefault(), backend, kv.Options{Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(store, opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
		if err := <-serveDone; err != nil {
			t.Errorf("serve: %v", err)
		}
		if err := store.Close(); err != nil {
			t.Errorf("store close: %v", err)
		}
	})
	return srv, store, ln.Addr().String()
}

func dial(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestEndToEnd drives every op through a real TCP connection and checks
// the durability-ack rule: when a mutation's response arrives, the
// store's durable watermark already covers its LSN.
func TestEndToEnd(t *testing.T) {
	_, store, addr := startServer(t, kv.ModeGroup, simio.Latency{}, Options{})
	c := dial(t, addr)

	if _, found, err := c.Get("missing"); err != nil || found {
		t.Fatalf("Get(missing) = found=%v err=%v", found, err)
	}
	lsn, err := c.Put("a", "1")
	if err != nil {
		t.Fatal(err)
	}
	if w := store.Logs()[0].DurableWatermark(); w < lsn {
		t.Fatalf("acked PUT lsn=%d before durable watermark %d", lsn, w)
	}
	if v, found, err := c.Get("a"); err != nil || !found || v != "1" {
		t.Fatalf("Get(a) = %q found=%v err=%v", v, found, err)
	}

	blsn, err := c.Batch([]kv.Op{
		{Put: true, Key: "b", Value: "2"},
		{Put: true, Key: "c", Value: "3"},
		{Put: false, Key: "a"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if blsn <= lsn {
		t.Fatalf("batch lsn %d not after put lsn %d", blsn, lsn)
	}
	if w := store.Logs()[0].DurableWatermark(); w < blsn {
		t.Fatalf("acked BATCH lsn=%d before durable watermark %d", blsn, w)
	}
	if _, found, _ := c.Get("a"); found {
		t.Fatal("batch delete of a did not apply")
	}

	dlsn, err := c.Del("b")
	if err != nil {
		t.Fatal(err)
	}
	water, err := c.Watch(dlsn)
	if err != nil {
		t.Fatal(err)
	}
	if water < dlsn {
		t.Fatalf("Watch(%d) reported watermark %d", dlsn, water)
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Keys != 1 || st.Mode != "group" || st.Durable < dlsn {
		t.Fatalf("stats = %+v", st)
	}
	if st.Requests["put"] != 1 || st.Requests["batch"] != 1 {
		t.Fatalf("request counters = %v", st.Requests)
	}
}

// TestPipelinedGroupCommit is the tentpole property: many connections
// issuing pipelined writes share fsyncs, so the flush count stays well
// below the record count even though every ack is durable.
func TestPipelinedGroupCommit(t *testing.T) {
	const conns, perConn, window = 8, 50, 32
	// A visible fsync cost is what makes commits pile up behind the
	// flush in flight; without it the sim backend flushes too fast to
	// batch.
	lat := simio.Latency{Fsync: 500 * time.Microsecond}
	_, store, addr := startServer(t, kv.ModeGroup, lat, Options{Window: window})

	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for ci := 0; ci < conns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			chs := make([]<-chan Response, 0, perConn)
			for i := 0; i < perConn; i++ {
				ch, err := c.Send(Request{
					Op:  OpPut,
					Key: fmt.Sprintf("k%d-%d", ci, i%10),
					Val: strings.Repeat("v", 32),
				})
				if err != nil {
					errs <- err
					return
				}
				chs = append(chs, ch)
			}
			var last uint64
			for _, ch := range chs {
				resp, err := c.Recv(ch)
				if err != nil {
					errs <- err
					return
				}
				if resp.LSN <= last {
					errs <- fmt.Errorf("conn %d: non-monotone LSNs %d after %d", ci, resp.LSN, last)
					return
				}
				last = resp.LSN
			}
			errs <- nil
		}(ci)
	}
	wg.Wait()
	for i := 0; i < conns; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	bs := store.Logs()[0].BatchStats()
	if bs.Records < conns*perConn {
		t.Fatalf("records = %d, want >= %d", bs.Records, conns*perConn)
	}
	if bs.Flushes >= bs.Records {
		t.Errorf("group commit never batched: %d flushes for %d records", bs.Flushes, bs.Records)
	}
	t.Logf("records=%d flushes=%d fsyncs/commit=%.3f max batch=%d",
		bs.Records, bs.Flushes, float64(bs.Flushes)/float64(bs.Records), bs.MaxBatch)
}

// TestOneConnectionFillsBatch is the pipelining contract within ONE
// connection: the reader executes the next request while the previous
// ones wait for their fsync, so a single client with 16 requests in
// flight fills group-commit batches by itself. While the fsync ran in the
// committing goroutine — the reader — this shape executed one PUT per
// fsync however deep the client pipelined.
func TestOneConnectionFillsBatch(t *testing.T) {
	const puts, window = 400, 16
	lat := simio.Latency{Fsync: time.Millisecond}
	_, store, addr := startServer(t, kv.ModeGroup, lat, Options{Window: window})
	c := dial(t, addr)

	inflight := make([]<-chan Response, 0, window)
	var last uint64
	recv := func() {
		resp, err := c.Recv(inflight[0])
		inflight = inflight[:copy(inflight, inflight[1:])]
		if err != nil {
			t.Fatal(err)
		}
		if resp.LSN <= last {
			t.Fatalf("non-monotone LSNs on one connection: %d after %d", resp.LSN, last)
		}
		if d := store.Logs()[0].DurableWatermark(); d < resp.LSN {
			t.Fatalf("LSN %d acknowledged at watermark %d", resp.LSN, d)
		}
		last = resp.LSN
	}
	for i := 0; i < puts; i++ {
		ch, err := c.Send(Request{Op: OpPut, Key: fmt.Sprintf("k%03d", i%50), Val: strings.Repeat("v", 32)})
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

	bs := store.Logs()[0].BatchStats()
	if bs.Records != puts {
		t.Fatalf("records = %d, want %d", bs.Records, puts)
	}
	if bs.Mean() < 4 {
		t.Fatalf("one connection, %d in flight: mean batch %.2f (%d flushes for %d records), want >= 4",
			window, bs.Mean(), bs.Flushes, bs.Records)
	}
	t.Logf("records=%d flushes=%d mean batch=%.1f max=%d", bs.Records, bs.Flushes, bs.Mean(), bs.MaxBatch)
}

// TestSmallWindow: a window of 1 serializes the pipeline but must not
// deadlock or drop responses. With the fsync held, a full window parks
// the reader, so the server stops reading the socket; Close then tears
// the connection down at once, and Shutdown, once the fsync is released,
// drains every ack it owes, in order.
func TestSmallWindow(t *testing.T) {
	t.Run("pipeline", func(t *testing.T) {
		_, _, addr := startServer(t, kv.ModeGroup, simio.Latency{}, Options{Window: 1})
		c := dial(t, addr)
		chs := make([]<-chan Response, 0, 100)
		for i := 0; i < 100; i++ {
			ch, err := c.Send(Request{Op: OpPut, Key: fmt.Sprintf("k%d", i%7), Val: "v"})
			if err != nil {
				t.Fatal(err)
			}
			chs = append(chs, ch)
		}
		for i, ch := range chs {
			if _, err := c.Recv(ch); err != nil {
				t.Fatalf("response %d: %v", i, err)
			}
		}
	})

	t.Run("close", func(t *testing.T) {
		srv, _, _, _ := fillSmallWindow(t)
		start := time.Now()
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("Close took %v with a full window and the fsync held", d)
		}
		// Close returns once each handleConn has called wg.Done, its last
		// statement; the goroutine may not have returned yet.
		buf := make([]byte, 1<<20)
		for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
			stacks := string(buf[:runtime.Stack(buf, true)])
			if !strings.Contains(stacks, ").handleConn") {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("a handleConn goroutine outlived Close:\n%s", stacks)
			}
		}
	})

	t.Run("shutdown", func(t *testing.T) {
		srv, store, nc, release := fillSmallWindow(t)
		done := make(chan error, 1)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			done <- srv.Shutdown(ctx)
		}()
		time.Sleep(20 * time.Millisecond)
		select {
		case err := <-done:
			t.Fatalf("Shutdown returned (%v) while it still owed acks behind a held fsync", err)
		default:
		}
		release(0)
		if err := <-done; err != nil {
			t.Fatalf("shutdown: %v", err)
		}
		// The reader executed what it had buffered before the kicked read
		// failed; each of those PUTs is owed its ack.
		owed := srv.reqs[OpPut].Load()
		br := bufio.NewReader(nc)
		for id := uint64(1); id <= owed; id++ {
			resp := recvResponse(t, nc, br)
			if resp.ID != id || resp.Status != StatusOK {
				t.Fatalf("ack %d of %d = %+v", id, owed, resp)
			}
			if w := store.Logs()[0].DurableWatermark(); w < resp.LSN {
				t.Fatalf("drained ack lsn=%d above durable watermark %d", resp.LSN, w)
			}
		}
		// The server closes with requests it never read still in its
		// socket buffer, so the close may arrive as a reset.
		if _, err := ReadFrame(br, DefaultMaxFrame); err != io.EOF && !errors.Is(err, syscall.ECONNRESET) {
			t.Fatalf("after %d acks: %v, want the connection closed", owed, err)
		}
	})
}

// fillSmallWindow starts a 1-lane server with a window of 1 and its
// fsync held, and pipelines more PUTs at it than its reader's buffer
// holds. It returns once the window is full and checks that the server
// then stops reading: the first PUT waits at the writer, the second
// fills the window and the third parks the reader in its hand-off, so
// exactly three are executed and the socket's read count stops moving.
func fillSmallWindow(t *testing.T) (*Server, *kv.Store, net.Conn, func(lane int)) {
	t.Helper()
	const window, puts = 1, 256
	srv, store, addr, armed, release := startGatedServer(t, 1, Options{Window: window})
	armed.Store(true)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	val := strings.Repeat("v", 1000) // 256 KiB in all, 8 times the reader's buffer
	go func() {
		for i := 1; i <= puts; i++ {
			if WriteFrame(nc, EncodeRequest(Request{Op: OpPut, ID: uint64(i), Key: "k", Val: val})) != nil {
				return // the server closed the connection
			}
		}
	}()
	waitAssigned(t, store, 0, window+2)
	time.Sleep(20 * time.Millisecond)
	reads := srv.socketReads.Load()
	time.Sleep(50 * time.Millisecond)
	if n := srv.reqs[OpPut].Load(); n != window+2 {
		t.Fatalf("%d PUTs executed with a window of %d and the fsync held, want %d", n, window, window+2)
	}
	if r := srv.socketReads.Load(); r != reads {
		t.Fatalf("the server read its socket %d more times with the window full", r-reads)
	}
	return srv, store, nc, release
}

// TestSharedClient: one Client used by many goroutines demuxes every
// response to its caller.
func TestSharedClient(t *testing.T) {
	_, _, addr := startServer(t, kv.ModeGroup, simio.Latency{}, Options{})
	c := dial(t, addr)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := fmt.Sprintf("g%d", g)
			for i := 0; i < 25; i++ {
				want := fmt.Sprintf("v%d-%d", g, i)
				if _, err := c.Put(key, want); err != nil {
					errs <- err
					return
				}
				got, found, err := c.Get(key)
				if err != nil || !found || got != want {
					errs <- fmt.Errorf("g%d: got %q found=%v err=%v want %q", g, got, found, err, want)
					return
				}
			}
			errs <- nil
		}(g)
	}
	wg.Wait()
	for g := 0; g < 16; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestErrorResponses: application-level errors come back as StatusErr
// without killing the connection... except protocol-level garbage,
// which answers once and closes.
func TestErrorResponses(t *testing.T) {
	_, _, addr := startServer(t, kv.ModeGroup, simio.Latency{}, Options{})

	t.Run("empty batch", func(t *testing.T) {
		c := dial(t, addr)
		if _, err := c.Batch(nil); err == nil || !strings.Contains(err.Error(), "empty batch") {
			t.Fatalf("err = %v", err)
		}
		// Connection survives an application error.
		if _, err := c.Put("after", "ok"); err != nil {
			t.Fatalf("connection dead after app error: %v", err)
		}
	})

	t.Run("watch beyond assigned", func(t *testing.T) {
		c := dial(t, addr)
		if _, err := c.Watch(1 << 40); err == nil || !strings.Contains(err.Error(), "beyond assigned") {
			t.Fatalf("err = %v", err)
		}
		if _, err := c.Put("after2", "ok"); err != nil {
			t.Fatalf("connection dead after app error: %v", err)
		}
	})

	t.Run("unknown op closes", func(t *testing.T) {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		payload := append([]byte{77}, make([]byte, 8)...)
		if err := WriteFrame(nc, payload); err != nil {
			t.Fatal(err)
		}
		frame, err := ReadFrame(nc, DefaultMaxFrame)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := DecodeResponse(frame)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != StatusErr || !strings.Contains(resp.Err, "unknown op") {
			t.Fatalf("resp = %+v", resp)
		}
		if _, err := ReadFrame(nc, DefaultMaxFrame); err != io.EOF {
			t.Fatalf("stream after protocol error: err = %v, want EOF", err)
		}
	})

	t.Run("oversized frame closes", func(t *testing.T) {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		// Header claims more than MaxFrame; the server must hang up
		// without waiting for (or allocating) the body.
		if _, err := nc.Write([]byte{0xff, 0xff, 0xff, 0xff}); err != nil {
			t.Fatal(err)
		}
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := ReadFrame(nc, DefaultMaxFrame); err == nil {
			t.Fatal("server answered an oversized frame")
		}
	})
}

// TestModeNone: a WAL-less store serves reads and writes with LSN 0 and
// no durability waits; WATCH of a positive LSN is refused.
func TestModeNone(t *testing.T) {
	_, _, addr := startServer(t, kv.ModeNone, simio.Latency{}, Options{})
	c := dial(t, addr)
	lsn, err := c.Put("a", "1")
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 0 {
		t.Fatalf("ModeNone put lsn = %d", lsn)
	}
	if v, found, err := c.Get("a"); err != nil || !found || v != "1" {
		t.Fatalf("Get = %q %v %v", v, found, err)
	}
	if _, err := c.Watch(7); err == nil || !strings.Contains(err.Error(), "no WAL") {
		t.Fatalf("Watch on ModeNone: err = %v", err)
	}
}

// TestCloseDuringLoad: server shutdown mid-pipeline releases parked
// readers and writers; in-flight calls fail rather than hang, and a
// redundant store close stays idempotent.
func TestCloseDuringLoad(t *testing.T) {
	var backend wal.Backend = wal.NewSimBackend(simio.NewFS(simio.Latency{Fsync: 2 * time.Millisecond}))
	store, _, err := kv.Open(stm.NewDefault(), backend, kv.Options{Mode: kv.ModeGroup})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(store, Options{Window: 4})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	const loaders = 4
	var wg sync.WaitGroup
	for g := 0; g < loaders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := Dial(ln.Addr().String())
			if err != nil {
				return
			}
			defer c.Close()
			for i := 0; ; i++ {
				if _, err := c.Put(fmt.Sprintf("k%d", g), "v"); err != nil {
					return // shutdown reached us
				}
				_ = i
			}
		}(g)
	}

	time.Sleep(20 * time.Millisecond) // let the load get going
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("clients hung after server close")
	}

	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatalf("redundant store close: %v", err)
	}
}

// TestHTTPFallback exercises the JSON API mounted on the metrics mux.
func TestHTTPFallback(t *testing.T) {
	srv, store, addr := startServer(t, kv.ModeGroup, simio.Latency{}, Options{Registry: obs.NewRegistry()})
	mux := http.NewServeMux()
	srv.RegisterHTTP(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	put := func(key, val string) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPut, ts.URL+"/kv/put?key="+key, strings.NewReader(val))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("put %s: %d %s", key, resp.StatusCode, body)
		}
	}
	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, resp.StatusCode, body)
		}
		return string(body)
	}

	put("h1", "hello")
	if w := store.Logs()[0].DurableWatermark(); w == 0 {
		t.Fatal("HTTP put acked before anything was durable")
	}
	if body := get("/kv/get?key=h1"); !strings.Contains(body, `"found":true`) || !strings.Contains(body, "hello") {
		t.Fatalf("get body = %s", body)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/kv/del?key=h1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("del: %d", resp.StatusCode)
	}
	if body := get("/kv/get?key=h1"); !strings.Contains(body, `"found":false`) {
		t.Fatalf("after del: %s", body)
	}
	if body := get("/kv/stats"); !strings.Contains(body, `"mode":"group"`) {
		t.Fatalf("stats: %s", body)
	}

	// Wrong method on a mutation route.
	if resp, err := http.Get(ts.URL + "/kv/put?key=x"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET /kv/put = %d", resp.StatusCode)
		}
	}

	// The fallback runs the wire protocol's op handler: a PUT over HTTP
	// and a PUT over the wire bump the same request counter.
	before := srv.Stats().Requests["put"]
	put("h2", "again")
	if _, err := dial(t, addr).Put("h3", "wire"); err != nil {
		t.Fatal(err)
	}
	if got := srv.Stats().Requests["put"]; got != before+2 {
		t.Fatalf("put counter moved %d -> %d over one HTTP and one wire PUT, want +2", before, got)
	}
}

// TestHTTPFallbackReadOnly: a read-only server refuses HTTP mutations
// with 403 through the same path that refuses them on the wire — the
// refusal is counted as a request and as a request error — and still
// answers reads.
func TestHTTPFallbackReadOnly(t *testing.T) {
	srv, store, _ := startServer(t, kv.ModeNone, simio.Latency{}, Options{ReadOnly: true})
	if _, err := store.Update(func(tx *stm.Tx, b *kv.Batch) error {
		b.Put("a", "1")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	srv.RegisterHTTP(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	for _, m := range []struct{ method, path string }{
		{http.MethodPut, "/kv/put?key=a"},
		{http.MethodDelete, "/kv/del?key=a"},
	} {
		req, _ := http.NewRequest(m.method, ts.URL+m.path, strings.NewReader("2"))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden || !strings.Contains(string(body), errReadOnly.Error()) {
			t.Fatalf("%s %s on a read-only server = %d %s, want 403 %q", m.method, m.path, resp.StatusCode, body, errReadOnly)
		}
	}
	if st := srv.Stats(); st.Requests["put"] != 1 || st.Requests["del"] != 1 || st.RequestErrs != 2 {
		t.Fatalf("refusals not counted by the shared handler: requests %v, errors %d", st.Requests, st.RequestErrs)
	}
	resp, err := http.Get(ts.URL + "/kv/get?key=a")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"value":"1"`) {
		t.Fatalf("get on a read-only server = %d %s", resp.StatusCode, body)
	}
}
