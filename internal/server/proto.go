// Package server puts the durable transactional KV store (internal/kv)
// behind a TCP wire protocol, turning the paper's atomic-deferral story
// into a system that serves real traffic: many client connections
// funnel their writes into the WAL's group commit, the fsync runs as
// the deferred operation it always was, and a client's response is held
// until the durable watermark covers its record — the ack IS the
// durability guarantee.
//
// # Wire format
//
// Both directions speak length-prefixed frames, little-endian, the same
// framing discipline as the WAL record format and the kv codecs:
//
//	frame:     u32 len | payload          (len counts the payload only)
//	request:   u8 op | u64 id | body
//	response:  u8 status | u8 op | u64 id | body
//	string:    u32 len | bytes            (kv codec framing)
//
// Request bodies by op:
//
//	GET    str key
//	PUT    str key, str value
//	DEL    str key
//	BATCH  kv.AppendOps op list — byte-identical to the ops of the WAL
//	       record the server will append for it
//	WATCH  u64 lsn — respond once the durable watermark covers lsn
//	STATS  (empty)
//	REPL   u32 n, n × u64 — per-lane resume cursors (n = 0 on a fresh
//	       bootstrap; otherwise n must equal the store's lane count)
//
// Response bodies (status OK) by op:
//
//	GET    u8 found, str value
//	PUT    u64 lsn
//	DEL    u64 lsn
//	BATCH  u64 lsn
//	WATCH  u64 watermark (≥ the requested lsn)
//	STATS  str JSON (server.Stats)
//	REPL   u32 lanes — the store's lane count
//
// An error response (status 1) carries `str message` regardless of op.
// The id is an opaque client token echoed verbatim; the server answers
// a connection's requests strictly in arrival order, so ids exist for
// client bookkeeping, not reordering.
//
// REPL is special: after its OK response the connection stops being a
// request/response channel and becomes a one-way server→client stream
// of replication frames (see ReplFrame) — the same u32 length prefix,
// carrying lane-tagged checkpoint blobs, WAL record payloads, and
// durable-watermark heartbeats. The client must send nothing further;
// it resumes after a disconnect by reconnecting and sending a new REPL
// hello with its per-lane cursors.
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"deferstm/internal/kv"
)

// Op codes (request). Response frames echo them so a response is
// self-describing.
const (
	OpGet   = 1
	OpPut   = 2
	OpDel   = 3
	OpBatch = 4
	OpWatch = 5
	OpStats = 6
	// OpReplHello upgrades the connection to a replication stream: the
	// request carries the follower's per-lane resume cursors, the OK
	// response the lane count, and every frame after that is an encoded
	// ReplFrame flowing server→client only.
	OpReplHello = 7
)

// Response status codes.
const (
	StatusOK  = 0
	StatusErr = 1
)

// DefaultMaxFrame bounds a single frame (either direction). A frame
// this size is already pathological for a KV workload; the bound is a
// garbage-input defence, not a tuning knob.
const DefaultMaxFrame = 16 << 20

var errFrameTooBig = errors.New("server: frame exceeds size limit")

// Request is one decoded client request.
type Request struct {
	Op      byte
	ID      uint64
	Key     string   // GET, PUT, DEL
	Val     string   // PUT
	Ops     []kv.Op  // BATCH
	LSN     uint64   // WATCH
	Cursors []uint64 // REPL: per-lane resume cursors (empty = bootstrap)
}

// Response is one decoded server response.
type Response struct {
	Status byte
	Op     byte
	ID     uint64
	Found  bool   // GET
	Val    string // GET
	LSN    uint64 // PUT, DEL, BATCH
	Water  uint64 // WATCH
	Stats  string // STATS (JSON)
	Shards int    // REPL: the store's lane count
	Err    string // status Err
}

func takeU32(b []byte) (uint32, []byte, error) {
	if len(b) < 4 {
		return 0, nil, fmt.Errorf("server: truncated u32")
	}
	return binary.LittleEndian.Uint32(b), b[4:], nil
}

func takeU64(b []byte) (uint64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, fmt.Errorf("server: truncated u64")
	}
	return binary.LittleEndian.Uint64(b), b[8:], nil
}

// EncodeRequest renders req as a frame payload (no length prefix), in
// one allocation: its capacity covers the header and every field any op
// carries.
func EncodeRequest(req Request) []byte {
	n := 29 + len(req.Key) + len(req.Val) + kv.OpsSize(req.Ops) + 8*len(req.Cursors)
	return appendRequest(make([]byte, 0, n), req)
}

// appendRequest appends req's payload to dst.
func appendRequest(dst []byte, req Request) []byte {
	out := append(dst, req.Op)
	out = binary.LittleEndian.AppendUint64(out, req.ID)
	switch req.Op {
	case OpGet, OpDel:
		out = kv.AppendStr(out, req.Key)
	case OpPut:
		out = kv.AppendStr(out, req.Key)
		out = kv.AppendStr(out, req.Val)
	case OpBatch:
		out = kv.AppendOps(out, req.Ops)
	case OpWatch:
		out = binary.LittleEndian.AppendUint64(out, req.LSN)
	case OpStats:
	case OpReplHello:
		out = binary.LittleEndian.AppendUint32(out, uint32(len(req.Cursors)))
		for _, c := range req.Cursors {
			out = binary.LittleEndian.AppendUint64(out, c)
		}
	}
	return out
}

// DecodeRequest parses a frame payload into a Request.
func DecodeRequest(b []byte) (Request, error) {
	var req Request
	if len(b) < 9 {
		return req, fmt.Errorf("server: request header truncated (%d bytes)", len(b))
	}
	req.Op = b[0]
	req.ID = binary.LittleEndian.Uint64(b[1:9])
	b = b[9:]
	var err error
	switch req.Op {
	case OpGet, OpDel:
		if req.Key, b, err = kv.TakeStr(b); err != nil {
			return req, err
		}
	case OpPut:
		if req.Key, b, err = kv.TakeStr(b); err != nil {
			return req, err
		}
		if req.Val, b, err = kv.TakeStr(b); err != nil {
			return req, err
		}
	case OpBatch:
		if req.Ops, err = kv.DecodeOps(b); err != nil {
			return req, err
		}
		b = nil
	case OpWatch:
		if req.LSN, b, err = takeU64(b); err != nil {
			return req, err
		}
	case OpStats:
	case OpReplHello:
		var n uint32
		if n, b, err = takeU32(b); err != nil {
			return req, err
		}
		if uint64(len(b)) < uint64(n)*8 {
			return req, fmt.Errorf("server: truncated cursor vector (%d of %d lanes)", len(b)/8, n)
		}
		for i := uint32(0); i < n; i++ {
			var c uint64
			c, b, _ = takeU64(b)
			req.Cursors = append(req.Cursors, c)
		}
	default:
		return req, fmt.Errorf("server: unknown op %d", req.Op)
	}
	if len(b) != 0 {
		return req, fmt.Errorf("server: %d trailing request bytes", len(b))
	}
	return req, nil
}

// EncodeResponse renders resp as a frame payload (no length prefix), in
// one allocation: its capacity covers the header and every field any op
// carries.
func EncodeResponse(resp Response) []byte {
	n := 31 + len(resp.Val) + len(resp.Stats) + len(resp.Err)
	return appendResponse(make([]byte, 0, n), resp)
}

// appendResponse appends resp's payload to dst.
func appendResponse(dst []byte, resp Response) []byte {
	out := append(dst, resp.Status, resp.Op)
	out = binary.LittleEndian.AppendUint64(out, resp.ID)
	if resp.Status != StatusOK {
		return kv.AppendStr(out, resp.Err)
	}
	switch resp.Op {
	case OpGet:
		found := byte(0)
		if resp.Found {
			found = 1
		}
		out = append(out, found)
		out = kv.AppendStr(out, resp.Val)
	case OpPut, OpDel, OpBatch:
		out = binary.LittleEndian.AppendUint64(out, resp.LSN)
	case OpWatch:
		out = binary.LittleEndian.AppendUint64(out, resp.Water)
	case OpStats:
		out = kv.AppendStr(out, resp.Stats)
	case OpReplHello:
		out = binary.LittleEndian.AppendUint32(out, uint32(resp.Shards))
	}
	return out
}

// DecodeResponse parses a frame payload into a Response.
func DecodeResponse(b []byte) (Response, error) {
	var resp Response
	if len(b) < 10 {
		return resp, fmt.Errorf("server: response header truncated (%d bytes)", len(b))
	}
	resp.Status = b[0]
	resp.Op = b[1]
	resp.ID = binary.LittleEndian.Uint64(b[2:10])
	b = b[10:]
	var err error
	if resp.Status != StatusOK {
		if resp.Err, b, err = kv.TakeStr(b); err != nil {
			return resp, err
		}
		if len(b) != 0 {
			return resp, fmt.Errorf("server: %d trailing response bytes", len(b))
		}
		return resp, nil
	}
	switch resp.Op {
	case OpGet:
		if len(b) < 1 {
			return resp, fmt.Errorf("server: GET response truncated")
		}
		resp.Found = b[0] == 1
		if resp.Val, b, err = kv.TakeStr(b[1:]); err != nil {
			return resp, err
		}
	case OpPut, OpDel, OpBatch:
		if resp.LSN, b, err = takeU64(b); err != nil {
			return resp, err
		}
	case OpWatch:
		if resp.Water, b, err = takeU64(b); err != nil {
			return resp, err
		}
	case OpStats:
		if resp.Stats, b, err = kv.TakeStr(b); err != nil {
			return resp, err
		}
	case OpReplHello:
		var n uint32
		if n, b, err = takeU32(b); err != nil {
			return resp, err
		}
		resp.Shards = int(n)
	default:
		return resp, fmt.Errorf("server: unknown response op %d", resp.Op)
	}
	if len(b) != 0 {
		return resp, fmt.Errorf("server: %d trailing response bytes", len(b))
	}
	return resp, nil
}

// WriteFrame writes one length-prefixed frame (exported for the
// replication follower, which speaks raw frames instead of the
// request/response Client).
func WriteFrame(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// requestFrame renders req into buf as one whole frame: the length
// prefix, then the payload.
func requestFrame(buf []byte, req Request) []byte {
	b := appendRequest(append(buf[:0], 0, 0, 0, 0), req)
	binary.LittleEndian.PutUint32(b, uint32(len(b)-4))
	return b
}

// responseFrame renders resp into buf as one whole frame.
func responseFrame(buf []byte, resp Response) []byte {
	b := appendResponse(append(buf[:0], 0, 0, 0, 0), resp)
	binary.LittleEndian.PutUint32(b, uint32(len(b)-4))
	return b
}

// ReadFrame reads one length-prefixed frame into a buffer of its own,
// enforcing maxFrame.
func ReadFrame(r io.Reader, maxFrame int) ([]byte, error) { return readFrameInto(r, maxFrame, nil) }

// maxKeptFrame bounds the frame buffers a connection keeps between
// frames: one huge BATCH or value must not pin its size for the
// connection's lifetime.
const maxKeptFrame = 64 << 10

// reusable returns buf for the next frame to reuse, or nil if one large
// frame grew it past maxKeptFrame.
func reusable(buf []byte) []byte {
	if cap(buf) > maxKeptFrame {
		return nil
	}
	return buf
}

// readFrameInto reads one frame into buf, growing it if the frame does
// not fit, and returns the payload — valid until buf's next use. The
// size limit is checked BEFORE anything is allocated or grown: a lying
// header must not cost memory.
func readFrameInto(r io.Reader, maxFrame int, buf []byte) ([]byte, error) {
	if cap(buf) < 4 {
		buf = make([]byte, 4)
	}
	hdr := buf[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if int(n) > maxFrame {
		return nil, fmt.Errorf("%w: %d > %d", errFrameTooBig, n, maxFrame)
	}
	if int(n) > cap(buf) {
		buf = make([]byte, n)
	}
	payload := buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}
