package server

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"

	"deferstm/internal/kv"
)

// TestRequestRoundTrip: every op encodes and decodes back to itself.
func TestRequestRoundTrip(t *testing.T) {
	cases := []Request{
		{Op: OpGet, ID: 1, Key: "alpha"},
		{Op: OpGet, ID: 2, Key: ""},
		{Op: OpPut, ID: 3, Key: "k", Val: "v"},
		{Op: OpPut, ID: 4, Key: "", Val: ""},
		{Op: OpDel, ID: 5, Key: "gone"},
		{Op: OpBatch, ID: 6, Ops: []kv.Op{
			{Put: true, Key: "a", Value: "1"},
			{Put: false, Key: "b"},
		}},
		{Op: OpWatch, ID: 7, LSN: 42},
		{Op: OpStats, ID: 8},
	}
	for _, want := range cases {
		got, err := DecodeRequest(EncodeRequest(want))
		if err != nil {
			t.Fatalf("op %d: %v", want.Op, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("op %d: got %+v want %+v", want.Op, got, want)
		}
	}
}

// TestResponseRoundTrip: every response shape, OK and error.
func TestResponseRoundTrip(t *testing.T) {
	cases := []Response{
		{Status: StatusOK, Op: OpGet, ID: 1, Found: true, Val: "v"},
		{Status: StatusOK, Op: OpGet, ID: 2, Found: false, Val: ""},
		{Status: StatusOK, Op: OpPut, ID: 3, LSN: 9},
		{Status: StatusOK, Op: OpDel, ID: 4, LSN: 10},
		{Status: StatusOK, Op: OpBatch, ID: 5, LSN: 11},
		{Status: StatusOK, Op: OpWatch, ID: 6, Water: 12},
		{Status: StatusOK, Op: OpStats, ID: 7, Stats: `{"keys":3}`},
		{Status: StatusErr, Op: OpPut, ID: 8, Err: "server: boom"},
		{Status: StatusErr, Op: 200, ID: 9, Err: ""},
	}
	for _, want := range cases {
		got, err := DecodeResponse(EncodeResponse(want))
		if err != nil {
			t.Fatalf("op %d status %d: %v", want.Op, want.Status, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("op %d: got %+v want %+v", want.Op, got, want)
		}
	}
}

// TestDecodeRequestCorrupt: malformed payloads must error, never panic
// or silently succeed.
func TestDecodeRequestCorrupt(t *testing.T) {
	cases := map[string][]byte{
		"empty":               {},
		"header short":        {OpGet, 0, 0, 0},
		"unknown op":          append([]byte{99}, make([]byte, 8)...),
		"zero op":             append([]byte{0}, make([]byte, 8)...),
		"get no key":          append([]byte{OpGet}, make([]byte, 8)...),
		"get short key len":   append(append([]byte{OpGet}, make([]byte, 8)...), 1, 0),
		"get lying key len":   append(append([]byte{OpGet}, make([]byte, 8)...), 50, 0, 0, 0, 'x'),
		"put missing value":   EncodeRequest(Request{Op: OpPut, Key: "k", Val: "v"})[:14],
		"watch short lsn":     append(append([]byte{OpWatch}, make([]byte, 8)...), 1, 2, 3),
		"stats trailing":      append(EncodeRequest(Request{Op: OpStats}), 0xff),
		"get trailing":        append(EncodeRequest(Request{Op: OpGet, Key: "k"}), 0xff),
		"batch corrupt blob":  append(append([]byte{OpBatch}, make([]byte, 8)...), 0xff, 0xff),
		"watch trailing byte": append(EncodeRequest(Request{Op: OpWatch, LSN: 1}), 0),
	}
	for name, b := range cases {
		if _, err := DecodeRequest(b); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestDecodeResponseCorrupt mirrors the request corruption battery.
func TestDecodeResponseCorrupt(t *testing.T) {
	ok := func(op byte) []byte {
		return append([]byte{StatusOK, op}, make([]byte, 8)...)
	}
	cases := map[string][]byte{
		"empty":              {},
		"header short":       {StatusOK, OpGet, 0},
		"unknown op":         ok(99),
		"get empty body":     ok(OpGet),
		"get no value":       append(ok(OpGet), 1),
		"get lying val len":  append(ok(OpGet), 1, 9, 0, 0, 0, 'x'),
		"put short lsn":      append(ok(OpPut), 1, 2),
		"watch short":        append(ok(OpWatch), 1),
		"stats truncated":    append(ok(OpStats), 8, 0, 0, 0, 'x'),
		"err truncated":      append([]byte{StatusErr, OpPut}, make([]byte, 8)...),
		"err trailing":       append(EncodeResponse(Response{Status: StatusErr, Op: OpPut, Err: "e"}), 0),
		"ok trailing":        append(EncodeResponse(Response{Status: StatusOK, Op: OpPut, LSN: 1}), 0),
		"get trailing bytes": append(EncodeResponse(Response{Status: StatusOK, Op: OpGet, Val: "v"}), 1, 2),
	}
	for name, b := range cases {
		if _, err := DecodeResponse(b); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestFrameRoundTrip: frames survive the wire; readFrame enforces the
// size cap before allocating and rejects short reads.
func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{{}, {1}, bytes.Repeat([]byte{0xab}, 1000)}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range payloads {
		got, err := ReadFrame(&buf, DefaultMaxFrame)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("frame %d: got %d bytes want %d", i, len(got), len(want))
		}
	}
	if _, err := ReadFrame(&buf, DefaultMaxFrame); err != io.EOF {
		t.Errorf("drained reader: err = %v, want io.EOF", err)
	}

	// Oversized header refused without reading (or allocating) the body.
	buf.Reset()
	if err := WriteFrame(&buf, bytes.Repeat([]byte{1}, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrame(&buf, 10); err == nil || !strings.Contains(err.Error(), "exceeds size limit") {
		t.Errorf("oversized frame: err = %v", err)
	}

	// Lying header over a truncated body.
	buf.Reset()
	buf.Write([]byte{0xff, 0, 0, 0, 'x'})
	if _, err := ReadFrame(&buf, DefaultMaxFrame); err == nil {
		t.Error("truncated frame decoded without error")
	}
}

// FuzzDecodeRequest: arbitrary bytes never panic, and anything that
// decodes must re-encode canonically.
func FuzzDecodeRequest(f *testing.F) {
	f.Add(EncodeRequest(Request{Op: OpPut, ID: 7, Key: "k", Val: "v"}))
	f.Add(EncodeRequest(Request{Op: OpBatch, ID: 1, Ops: []kv.Op{{Put: true, Key: "a", Value: "b"}}}))
	f.Add([]byte{OpWatch, 1, 2, 3})
	f.Fuzz(func(t *testing.T, b []byte) {
		req, err := DecodeRequest(b)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeRequest(req), b) {
			t.Errorf("non-canonical request decoded: %+v", req)
		}
	})
}

// FuzzDecodeResponse: same property for the response direction.
func FuzzDecodeResponse(f *testing.F) {
	f.Add(EncodeResponse(Response{Status: StatusOK, Op: OpGet, ID: 3, Found: true, Val: "v"}))
	f.Add(EncodeResponse(Response{Status: StatusErr, Op: OpPut, ID: 4, Err: "e"}))
	f.Fuzz(func(t *testing.T, b []byte) {
		resp, err := DecodeResponse(b)
		if err != nil {
			return
		}
		// Found is the one lossy field: any nonzero byte decodes as a
		// bool, so only byte values 0/1 re-encode canonically.
		if !bytes.Equal(EncodeResponse(resp), b) {
			if resp.Op == OpGet && len(b) >= 11 && b[10] > 1 {
				return
			}
			t.Errorf("non-canonical response decoded: %+v", resp)
		}
	})
}
