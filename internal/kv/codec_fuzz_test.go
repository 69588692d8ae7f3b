package kv

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

// The codecs now carry bytes that crossed a network, not just bytes the
// WAL's CRC already vouched for: DecodeOps is the BATCH body parser of
// the wire protocol (internal/server), so every decoder must reject
// arbitrary garbage with an error — never a panic, never a huge
// allocation, never a silent misparse that round-trips differently.

// FuzzDecodeOps: any input either fails to decode or round-trips to the
// exact same bytes (the encoding is canonical — no padding, no
// order freedom — so decode∘encode must be the identity on valid input).
func FuzzDecodeOps(f *testing.F) {
	f.Add([]byte(nil))
	f.Add(AppendOps(nil, []Op{{Put: true, Key: "k", Value: "v"}}))
	f.Add(AppendOps(nil, []Op{{Key: "gone"}, {Put: true, Key: "", Value: ""}}))
	f.Add(AppendOps(nil, []Op{
		{Put: true, Key: strings.Repeat("k", 300), Value: strings.Repeat("v", 1000)},
		{Key: "x"},
	}))
	f.Add([]byte{opPut, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, b []byte) {
		ops, err := DecodeOps(b)
		if err != nil {
			return
		}
		re := AppendOps(nil, ops)
		if !bytes.Equal(re, b) {
			t.Fatalf("decode/encode not canonical:\n in  %x\n out %x", b, re)
		}
	})
}

// FuzzDecodeSnapshot: valid input must re-encode to an equal map (byte
// order differs — map iteration — so compare decoded contents).
func FuzzDecodeSnapshot(f *testing.F) {
	f.Add(encodeSnapshot(nil))
	f.Add(encodeSnapshot(map[string]string{"a": "1", "b": "2"}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, b []byte) {
		kvs, err := decodeSnapshot(b)
		if err != nil {
			return
		}
		again, err := decodeSnapshot(encodeSnapshot(kvs))
		if err != nil {
			t.Fatalf("re-decode of re-encoded snapshot failed: %v", err)
		}
		if len(again) != len(kvs) {
			t.Fatalf("round trip changed size: %d != %d", len(again), len(kvs))
		}
		for k, v := range kvs {
			if again[k] != v {
				t.Fatalf("round trip changed %q: %q != %q", k, again[k], v)
			}
		}
	})
}

// TestDecodeOpsCorrupt pins the error behaviour on hand-built damage.
func TestDecodeOpsCorrupt(t *testing.T) {
	valid := AppendOps(nil, []Op{{Put: true, Key: "key", Value: "value"}})
	cases := map[string][]byte{
		"unknown opcode":       {42},
		"opcode only":          {opPut},
		"truncated key length": {opPut, 3, 0},
		"truncated key bytes":  {opPut, 5, 0, 0, 0, 'k', 'e'},
		"put missing value":    {opPut, 1, 0, 0, 0, 'k'},
		"delete truncated":     {opDelete, 9, 0, 0, 0, 'k'},
		"huge declared length": {opPut, 0xff, 0xff, 0xff, 0xff, 'k'},
		"trailing opcode":      append(append([]byte(nil), valid...), opDelete),
		"valid then truncated": valid[:len(valid)-1],
		"zero opcode":          {0},
	}
	for name, b := range cases {
		if _, err := DecodeOps(b); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	if ops, err := DecodeOps(nil); err != nil || len(ops) != 0 {
		t.Errorf("empty payload: ops=%v err=%v, want none/nil", ops, err)
	}
}

// TestDecodeSnapshotCorrupt: structural damage errors out, and a lying
// count header must not pre-allocate gigabytes before failing.
func TestDecodeSnapshotCorrupt(t *testing.T) {
	valid := encodeSnapshot(map[string]string{"k": "v"})
	cases := map[string][]byte{
		"empty":             nil,
		"short header":      {1, 0},
		"count too large":   {2, 0, 0, 0, 1, 0, 0, 0, 'k', 1, 0, 0, 0, 'v'},
		"trailing bytes":    append(append([]byte(nil), valid...), 'x'),
		"truncated value":   valid[:len(valid)-1],
		"huge count header": {0xff, 0xff, 0xff, 0xff, 1, 0, 0, 0, 'k'},
	}
	for name, b := range cases {
		if _, err := decodeSnapshot(b); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}

	// The clamp itself: a 4 GiB-entry claim over an 8-byte body must be
	// rejected quickly. Guard with an allocation measurement so a
	// regression (removing the hint clamp) fails deterministically
	// rather than by OOM on small CI machines.
	hdr := make([]byte, 12)
	binary.LittleEndian.PutUint32(hdr, 0xffffffff)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := decodeSnapshot(hdr); err == nil {
			t.Fatal("huge count decoded")
		}
	})
	if allocs > 64 {
		t.Errorf("huge count header cost %.0f allocs per decode; hint clamp missing?", allocs)
	}
}
