package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

func TestRecordRoundtrip(t *testing.T) {
	var buf []byte
	payloads := [][]byte{[]byte("hello"), {}, bytes.Repeat([]byte{0xAB}, 1000)}
	for i, p := range payloads {
		buf = appendRecord(buf, uint64(i+1), p)
	}
	rest := buf
	for i, p := range payloads {
		lsn, payload, r, ok := decodeNext(rest)
		if !ok {
			t.Fatalf("record %d: decode failed", i)
		}
		if lsn != uint64(i+1) || !bytes.Equal(payload, p) {
			t.Fatalf("record %d: got lsn=%d payload=%q", i, lsn, payload)
		}
		rest = r
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
}

// TestRecordCRCCoversLSNThenPayload pins the on-disk checksum: CRC-32C
// over the little-endian LSN followed by the payload, however it is
// computed.
func TestRecordCRCCoversLSNThenPayload(t *testing.T) {
	payload := []byte("checksummed payload")
	rec := appendRecord([]byte("prefix"), 0x0102030405060708, payload)[len("prefix"):]
	var lsn [8]byte
	binary.LittleEndian.PutUint64(lsn[:], 0x0102030405060708)
	want := crc32.Update(crc32.Checksum(lsn[:], castagnoli), castagnoli, payload)
	if got := binary.LittleEndian.Uint32(rec[4:8]); got != want {
		t.Fatalf("record CRC %#x, want %#x", got, want)
	}
}

func TestRecordTornDetection(t *testing.T) {
	whole := appendRecord(nil, 7, []byte("payload"))
	// Every proper prefix must decode as not-ok (torn).
	for cut := 0; cut < len(whole); cut++ {
		if _, _, _, ok := decodeNext(whole[:cut]); ok {
			t.Fatalf("prefix of %d bytes decoded as a whole record", cut)
		}
	}
	// A flipped bit anywhere must fail the CRC (or the length check).
	for i := 0; i < len(whole); i++ {
		mut := append([]byte(nil), whole...)
		mut[i] ^= 0x01
		if lsn, payload, _, ok := decodeNext(mut); ok {
			t.Fatalf("bit flip at %d still decoded (lsn=%d payload=%q)", i, lsn, payload)
		}
	}
}

func TestRecordImplausibleLength(t *testing.T) {
	b := make([]byte, recordHeader+4)
	b[0] = 0xFF
	b[1] = 0xFF
	b[2] = 0xFF
	b[3] = 0x7F // length ≫ maxPayload
	if _, _, _, ok := decodeNext(b); ok {
		t.Fatal("implausible length accepted")
	}
}
