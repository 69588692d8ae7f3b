package server

import (
	"bytes"
	"runtime"
	"testing"

	"deferstm/internal/kv"
)

var (
	pinRequests = []Request{
		{Op: OpGet, ID: 1, Key: "key-000001"},
		{Op: OpPut, ID: 2, Key: "key-000002", Val: "value-of-some-length"},
		{Op: OpBatch, ID: 3, Ops: []kv.Op{{Put: true, Key: "a", Value: "b"}, {Key: "c"}}},
		{Op: OpWatch, ID: 4, LSN: 99},
		{Op: OpReplHello, ID: 5, Cursors: []uint64{1, 2, 3}},
	}
	pinResponses = []Response{
		{Op: OpGet, ID: 1, Found: true, Val: "value-of-some-length"},
		{Op: OpPut, ID: 2, LSN: 42},
		{Status: StatusErr, Op: OpDel, ID: 3, Err: "server: no"},
		{Op: OpStats, ID: 4, Stats: `{"mode":"group"}`},
		{Op: OpReplHello, ID: 5, Shards: 4},
	}
)

// TestAppendCodecsAllocFree: encoding into a warm buffer allocates
// nothing, and the exported encoders allocate exactly their result.
func TestAppendCodecsAllocFree(t *testing.T) {
	buf := make([]byte, 0, 256)
	for _, req := range pinRequests {
		if n := testing.AllocsPerRun(100, func() { buf = appendRequest(buf[:0], req) }); n != 0 {
			t.Errorf("appendRequest(op %d) into a warm buffer: %.1f allocs, want 0", req.Op, n)
		}
		if n := testing.AllocsPerRun(100, func() { buf = requestFrame(buf, req) }); n != 0 {
			t.Errorf("requestFrame(op %d) into a warm buffer: %.1f allocs, want 0", req.Op, n)
		}
		if n := testing.AllocsPerRun(100, func() { _ = EncodeRequest(req) }); n != 1 {
			t.Errorf("EncodeRequest(op %d): %.1f allocs, want 1", req.Op, n)
		}
	}
	for _, resp := range pinResponses {
		if n := testing.AllocsPerRun(100, func() { buf = appendResponse(buf[:0], resp) }); n != 0 {
			t.Errorf("appendResponse(op %d) into a warm buffer: %.1f allocs, want 0", resp.Op, n)
		}
		if n := testing.AllocsPerRun(100, func() { buf = responseFrame(buf, resp) }); n != 0 {
			t.Errorf("responseFrame(op %d) into a warm buffer: %.1f allocs, want 0", resp.Op, n)
		}
		if n := testing.AllocsPerRun(100, func() { _ = EncodeResponse(resp) }); n != 1 {
			t.Errorf("EncodeResponse(op %d): %.1f allocs, want 1", resp.Op, n)
		}
	}
}

// TestFramesMatchEncoders: a frame is the length prefix and the exported
// encoder's payload, byte for byte.
func TestFramesMatchEncoders(t *testing.T) {
	for _, req := range pinRequests {
		var want bytes.Buffer
		_ = writeFrame(&want, EncodeRequest(req))
		if got := requestFrame([]byte("stale"), req); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("requestFrame(op %d) = %x, want %x", req.Op, got, want.Bytes())
		}
	}
	for _, resp := range pinResponses {
		var want bytes.Buffer
		_ = writeFrame(&want, EncodeResponse(resp))
		if got := responseFrame([]byte("stale"), resp); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("responseFrame(op %d) = %x, want %x", resp.Op, got, want.Bytes())
		}
	}
}

// TestReadFrameIntoReuses: a warm buffer takes the next frame without an
// allocation, a larger frame grows it (and a buffer grown past
// maxKeptFrame is not kept), and an oversized header is refused before
// anything is allocated for it.
func TestReadFrameIntoReuses(t *testing.T) {
	frame := requestFrame(nil, pinRequests[1])
	r := bytes.NewReader(frame)
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() {
		r.Reset(frame)
		payload, err := readFrameInto(r, DefaultMaxFrame, buf)
		if err != nil || !bytes.Equal(payload, frame[4:]) {
			t.Fatalf("readFrameInto = %x, %v", payload, err)
		}
	}); n != 0 {
		t.Errorf("readFrameInto on a warm buffer: %.1f allocs, want 0", n)
	}

	big := requestFrame(nil, Request{Op: OpPut, Key: "k", Val: string(bytes.Repeat([]byte{'v'}, maxKeptFrame))})
	payload, err := readFrameInto(bytes.NewReader(big), DefaultMaxFrame, buf)
	if err != nil || !bytes.Equal(payload, big[4:]) {
		t.Fatalf("readFrameInto of a frame larger than the buffer = %x, %v", payload, err)
	}

	if reusable(payload) != nil {
		t.Error("a buffer grown past maxKeptFrame is kept for reuse")
	}
	if reusable(buf) == nil {
		t.Error("a small buffer is dropped instead of reused")
	}

	// A header claiming 1 GiB is refused before anything is sized by it.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = readFrameInto(bytes.NewReader([]byte{0, 0, 0, 0x40}), DefaultMaxFrame, buf)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("readFrameInto accepted a 1 GiB frame")
	}
	if d := after.TotalAlloc - before.TotalAlloc; d > 1<<20 {
		t.Errorf("refusing a 1 GiB frame allocated %d bytes", d)
	}
}
