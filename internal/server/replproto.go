package server

import (
	"encoding/binary"
	"fmt"
)

// Replication stream frames. After an OpReplHello handshake every frame
// on the connection is one of these, length-prefixed like every other
// frame:
//
//	repl frame: u8 kind | u8 lane | u64 lsn | payload
//
// Kinds:
//
//	CKPT   lsn = the checkpoint's upTo, payload = the snapshot blob.
//	       The follower replaces the lane's contents with the blob and
//	       sets its cursor to upTo — sent on bootstrap and whenever the
//	       follower's cursor has been pruned out from under it.
//	REC    lsn = the record's lane LSN, payload = the WAL record payload
//	       byte-identical to storage. Frames of one lane arrive in LSN
//	       order; the primary never ships a record past the lane's
//	       published durable watermark.
//	WM     lsn = the lane's durable watermark at send time, payload =
//	       u64 send-time unix nanos. A heartbeat: the follower knows how
//	       far behind it is, and the timestamp prices that lag in wall
//	       time once the follower's applied cursor catches the mark.
const (
	ReplCheckpoint byte = 1
	ReplRecord     byte = 2
	ReplWatermark  byte = 3
)

// replFrameHeader is the fixed prefix: kind, lane, lsn.
const replFrameHeader = 1 + 1 + 8

// ReplFrame is one decoded replication stream frame.
type ReplFrame struct {
	Kind    byte
	Lane    int
	LSN     uint64
	Payload []byte
}

// EncodeReplFrame renders f as a frame payload (no length prefix).
func EncodeReplFrame(f ReplFrame) []byte {
	out := make([]byte, 0, replFrameHeader+len(f.Payload))
	out = append(out, f.Kind, byte(f.Lane))
	out = binary.LittleEndian.AppendUint64(out, f.LSN)
	return append(out, f.Payload...)
}

// DecodeReplFrame parses a frame payload into a ReplFrame. The payload
// aliases b.
func DecodeReplFrame(b []byte) (ReplFrame, error) {
	var f ReplFrame
	if len(b) < replFrameHeader {
		return f, fmt.Errorf("server: repl frame truncated (%d bytes)", len(b))
	}
	f.Kind = b[0]
	if f.Kind != ReplCheckpoint && f.Kind != ReplRecord && f.Kind != ReplWatermark {
		return f, fmt.Errorf("server: unknown repl frame kind %d", f.Kind)
	}
	f.Lane = int(b[1])
	f.LSN = binary.LittleEndian.Uint64(b[2:10])
	f.Payload = b[replFrameHeader:]
	return f, nil
}
