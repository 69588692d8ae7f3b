package kv

import (
	"encoding/binary"
	"fmt"
)

// WAL payload codecs. An op list is the ordered mutation list of one
// transaction (a WAL record carries it behind its lane header, lane.go);
// a checkpoint blob is a full key/value dump. Both use length-prefixed
// strings, little-endian:
//
//	op list:        repeat{ u8 op (1=put 2=delete), u32 klen, key,
//	                        [u32 vlen, value  — put only] }
//	checkpoint:     u32 count, repeat{ u32 klen, key, u32 vlen, value }
//
// Integrity (CRC, LSN binding, torn-tail handling) lives a layer down in
// package wal's record format; these payloads assume intact bytes but
// still validate structure so a logic bug cannot silently misapply.

const (
	opPut    = 1
	opDelete = 2
)

// Op is one mutation of a committed transaction.
type Op struct {
	Put   bool // false = delete
	Key   string
	Value string // empty for deletes
}

func appendStr(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

func takeStr(b []byte) (string, []byte, error) {
	if len(b) < 4 {
		return "", nil, fmt.Errorf("kv: truncated length")
	}
	n := binary.LittleEndian.Uint32(b)
	if uint32(len(b)-4) < n {
		return "", nil, fmt.Errorf("kv: truncated string (%d of %d bytes)", len(b)-4, n)
	}
	return string(b[4 : 4+n]), b[4+n:], nil
}

// AppendOps appends the op-list bytes of ops to dst. Exported, it is
// also the BATCH body of the wire protocol (internal/server), so a batch
// that arrived over a socket carries the ops of the record that replays
// it byte for byte.
func AppendOps(dst []byte, ops []Op) []byte {
	for _, op := range ops {
		if op.Put {
			dst = append(dst, opPut)
			dst = appendStr(dst, op.Key)
			dst = appendStr(dst, op.Value)
		} else {
			dst = append(dst, opDelete)
			dst = appendStr(dst, op.Key)
		}
	}
	return dst
}

// OpsSize is the length of the AppendOps bytes of ops.
func OpsSize(ops []Op) int {
	n := 0
	for _, op := range ops {
		n += 5 + len(op.Key)
		if op.Put {
			n += 4 + len(op.Value)
		}
	}
	return n
}

// DecodeOps parses an op list (a record's ops, or a wire BATCH body). It
// validates structure only; intact-bytes integrity is the caller's
// layer (WAL CRCs, or the frame length of the wire protocol).
func DecodeOps(b []byte) ([]Op, error) {
	var ops []Op
	for len(b) > 0 {
		code := b[0]
		b = b[1:]
		var op Op
		var err error
		switch code {
		case opPut:
			op.Put = true
			if op.Key, b, err = takeStr(b); err != nil {
				return nil, err
			}
			if op.Value, b, err = takeStr(b); err != nil {
				return nil, err
			}
		case opDelete:
			if op.Key, b, err = takeStr(b); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("kv: unknown op code %d", code)
		}
		ops = append(ops, op)
	}
	return ops, nil
}

// encodeSnapshot serializes a full store image.
func encodeSnapshot(kvs map[string]string) []byte {
	var out []byte
	var l [4]byte
	binary.LittleEndian.PutUint32(l[:], uint32(len(kvs)))
	out = append(out, l[:]...)
	for k, v := range kvs {
		out = appendStr(out, k)
		out = appendStr(out, v)
	}
	return out
}

// decodeSnapshot parses a checkpoint blob.
func decodeSnapshot(b []byte) (map[string]string, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("kv: truncated snapshot header")
	}
	n := binary.LittleEndian.Uint32(b)
	b = b[4:]
	// Clamp the map's size hint to what the remaining bytes could
	// possibly hold (each entry needs two length prefixes, ≥ 8 bytes):
	// a corrupt count must produce a decode error, not a giant
	// allocation before the first takeStr ever runs.
	hint := n
	if maxEntries := uint32(len(b) / 8); hint > maxEntries {
		hint = maxEntries
	}
	kvs := make(map[string]string, hint)
	for i := uint32(0); i < n; i++ {
		var k, v string
		var err error
		if k, b, err = takeStr(b); err != nil {
			return nil, err
		}
		if v, b, err = takeStr(b); err != nil {
			return nil, err
		}
		kvs[k] = v
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("kv: %d trailing snapshot bytes", len(b))
	}
	return kvs, nil
}
