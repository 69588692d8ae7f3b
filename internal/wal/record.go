package wal

import (
	"encoding/binary"
	"hash/crc32"
)

// On-disk record format, little-endian:
//
//	u32 payload length
//	u32 CRC-32C over (lsn ‖ payload)
//	u64 LSN
//	payload bytes
//
// The CRC covers the LSN so a record can never be attributed to the wrong
// position in the log, and the length field is validated against the
// remaining bytes so a torn header is detected as reliably as a torn
// payload. Checkpoint files reuse the same format with the checkpoint
// blob as payload and the covered LSN as lsn.

const recordHeader = 16

// maxPayload bounds a single record (and therefore a decoded length
// field); anything larger in a header is treated as a torn write.
const maxPayload = 1 << 30

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// recordCRC returns the CRC of an encoded record: the LSN field and the
// payload are its last bytes and contiguous, so the checksum reads them
// in place (a scratch copy of the LSN would escape to the heap through
// crc32's indirect update call).
func recordCRC(rec []byte) uint32 { return crc32.Checksum(rec[8:], castagnoli) }

// appendRecord appends the encoding of (lsn, payload) to dst.
func appendRecord(dst []byte, lsn uint64, payload []byte) []byte {
	start := len(dst)
	var hdr [recordHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint64(hdr[8:16], lsn)
	dst = append(dst, hdr[:]...)
	dst = append(dst, payload...)
	binary.LittleEndian.PutUint32(dst[start+4:start+8], recordCRC(dst[start:]))
	return dst
}

// recordSize returns the encoded size of a record with the given payload
// length.
func recordSize(payloadLen int) int { return recordHeader + payloadLen }

// decodeNext parses the record at the head of b. ok=false means the bytes
// at this position are not a whole, intact record — a torn tail if this is
// the end of the final segment, corruption otherwise. The returned payload
// aliases b.
func decodeNext(b []byte) (lsn uint64, payload []byte, rest []byte, ok bool) {
	if len(b) < recordHeader {
		return 0, nil, b, false
	}
	plen := binary.LittleEndian.Uint32(b[0:4])
	if plen > maxPayload || int(plen) > len(b)-recordHeader {
		return 0, nil, b, false
	}
	crc := binary.LittleEndian.Uint32(b[4:8])
	lsn = binary.LittleEndian.Uint64(b[8:16])
	payload = b[recordHeader : recordHeader+int(plen)]
	if recordCRC(b[:recordHeader+int(plen)]) != crc {
		return 0, nil, b, false
	}
	return lsn, payload, b[recordHeader+int(plen):], true
}
