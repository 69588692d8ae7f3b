// Lane support: the record codec that stamps every multi-lane WAL
// record with its global commit sequence number (GSN) and the full
// lane/LSN vector of its commit, the durability token that routes waits
// to the right lane, and the manifest file that pins a directory to its
// lane count.
package kv

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"

	"deferstm/internal/wal"
)

// MaxShards bounds the shard count: lane indices must fit the token's
// 8-bit lane field with room to spare, and a commit's lane vector must
// stay small enough to ride in every record header.
const MaxShards = 64

// LanePoint names one lane's record of a commit: the lane index and
// the LSN the commit reserved there. A multi-lane commit's records all
// carry the commit's complete vector, so recovery can decide — from any
// single lane — exactly where the batch's siblings must be.
type LanePoint struct {
	Lane int
	LSN  uint64
}

// Durability tokens. Update returns one token per durable commit; it
// packs the home lane (the lowest touched lane) in the top 8 bits and
// that lane's LSN in the low 56. Lane 0 tokens equal the plain LSN, so
// a single-lane store's tokens are byte-identical to the unsharded
// format — on the wire and in ackfiles.
//
// Waiting on the token of a cross-shard commit suffices for the whole
// batch: the home lane publishes no watermark over a cross-shard record
// (and therefore satisfies no wait) until every lane has fsynced
// everything at or below its GSN — the frontier gate of package wal.

const tokenLSNBits = 56

// PackToken builds a durability token from a lane index and its LSN.
func PackToken(lane int, lsn uint64) uint64 {
	return uint64(lane)<<tokenLSNBits | lsn
}

// TokenLane extracts the lane index of a token.
func TokenLane(t uint64) int { return int(t >> tokenLSNBits) }

// TokenLSN extracts the lane-local LSN of a token.
func TokenLSN(t uint64) uint64 { return t & (1<<tokenLSNBits - 1) }

// Multi-lane WAL record payload: a fixed header in front of the
// EncodeOps bytes.
//
//	u64 gsn, u8 nLanes, repeat nLanes { u8 lane, u64 lsn }, ops...
//
// Single-lane stores write bare EncodeOps payloads (no header), which
// keeps their on-disk format identical to the pre-lane store. The rule
// lives in one encode/decode pair, encodeRecord and decodeRecord;
// TestRecordFormatPinned pins it.

// encodeRecord renders one lane's record of a commit in this store's
// format: the bare op list on a 1-lane store, which has no vector to
// carry and drops the GSN, the lane record otherwise.
func (s *Store) encodeRecord(gsn uint64, pts []LanePoint, ops []Op) []byte {
	if len(s.shards) == 1 {
		return EncodeOps(ops)
	}
	return encodeLaneRecord(gsn, pts, ops)
}

// decodeRecord parses one record payload of this store, for the Applier
// in recovery and on a replica alike — the inverse of encodeRecord: a
// 1-lane store's bare op list decodes as gsn 0 with a nil vector.
func (s *Store) decodeRecord(payload []byte) (gsn uint64, pts []LanePoint, ops []Op, err error) {
	if len(s.shards) == 1 {
		ops, err = DecodeOps(payload)
		return 0, nil, ops, err
	}
	return decodeLaneRecord(payload)
}

// encodeLaneRecord serializes one lane's record of a commit, header and
// ops in one allocation.
func encodeLaneRecord(gsn uint64, pts []LanePoint, ops []Op) []byte {
	out := make([]byte, 0, 9+9*len(pts)+OpsSize(ops))
	out = binary.LittleEndian.AppendUint64(out, gsn)
	out = append(out, byte(len(pts)))
	for _, p := range pts {
		out = append(out, byte(p.Lane))
		out = binary.LittleEndian.AppendUint64(out, p.LSN)
	}
	return AppendOps(out, ops)
}

// EncodeLaneRecord renders a multi-lane WAL record payload, for tests
// and tools that synthesize stream traffic.
func EncodeLaneRecord(gsn uint64, pts []LanePoint, ops []Op) []byte {
	return encodeLaneRecord(gsn, pts, ops)
}

// decodeLaneRecord parses a multi-lane record payload.
func decodeLaneRecord(b []byte) (gsn uint64, pts []LanePoint, ops []Op, err error) {
	if len(b) < 9 {
		return 0, nil, nil, fmt.Errorf("kv: truncated lane header (%d bytes)", len(b))
	}
	gsn = binary.LittleEndian.Uint64(b)
	n := int(b[8])
	b = b[9:]
	if n == 0 || len(b) < 9*n {
		return 0, nil, nil, fmt.Errorf("kv: truncated lane vector (%d lanes, %d bytes)", n, len(b))
	}
	pts = make([]LanePoint, n)
	for i := 0; i < n; i++ {
		pts[i] = LanePoint{Lane: int(b[0]), LSN: binary.LittleEndian.Uint64(b[1:])}
		b = b[9:]
	}
	ops, err = DecodeOps(b)
	return gsn, pts, ops, err
}

// The manifest pins a store directory to its lane count. It is written
// once, fsynced, when the directory is first initialized; reopening
// with a -shards value that disagrees fails loudly instead of silently
// replaying whatever subset of lanes the new routing would look at.
const manifestName = "manifest"

// writeManifest creates and fsyncs the manifest file.
func writeManifest(b wal.Backend, lanes int) error {
	f, err := b.Create(manifestName)
	if err != nil {
		return fmt.Errorf("kv: create manifest: %w", err)
	}
	data := []byte(fmt.Sprintf("deferstm-kv v1\nlanes %d\n", lanes))
	for sent := 0; sent < len(data); {
		n, err := f.Write(data[sent:])
		sent += n
		if err != nil && n == 0 {
			f.Close()
			return fmt.Errorf("kv: write manifest: %w", err)
		}
	}
	if err := f.Fsync(); err != nil {
		f.Close()
		return fmt.Errorf("kv: fsync manifest: %w", err)
	}
	return f.Close()
}

// readManifest parses the manifest, returning its lane count.
func readManifest(b wal.Backend) (int, error) {
	f, err := b.Open(manifestName)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() || sc.Text() != "deferstm-kv v1" {
		return 0, fmt.Errorf("kv: manifest: bad header")
	}
	if !sc.Scan() {
		return 0, fmt.Errorf("kv: manifest: missing lanes line")
	}
	fields := strings.Fields(sc.Text())
	if len(fields) != 2 || fields[0] != "lanes" {
		return 0, fmt.Errorf("kv: manifest: bad lanes line %q", sc.Text())
	}
	n, err := strconv.Atoi(fields[1])
	if err != nil || n < 1 || n > MaxShards {
		return 0, fmt.Errorf("kv: manifest: bad lane count %q", fields[1])
	}
	return n, nil
}

// detectLanes determines the on-disk lane count of backend b: lanes is
// 0 for a fresh directory (the caller picks), and needManifest reports
// that a manifest must be written once the count is decided. A
// directory with WAL files but no readable manifest is an error — with
// one exception: pre-manifest directories (unprefixed segment files
// only) are adopted as single-lane stores, since their layout is
// exactly what a 1-lane store writes.
func detectLanes(b wal.Backend) (lanes int, needManifest bool, err error) {
	names, err := b.Names()
	if err != nil {
		return 0, false, fmt.Errorf("kv: list backend: %w", err)
	}
	hasManifest, hasRoot, hasLane := false, false, false
	for _, n := range names {
		switch {
		case n == manifestName:
			hasManifest = true
		case strings.HasPrefix(n, "lane"):
			hasLane = true
		case strings.HasPrefix(n, "seg-") || strings.HasPrefix(n, "ckpt-"):
			hasRoot = true
		}
	}
	if hasManifest {
		n, err := readManifest(b)
		if err != nil {
			if !hasRoot && !hasLane {
				// A crash can tear the manifest of a store that never
				// wrote a record; nothing is lost by re-initializing.
				return 0, true, nil
			}
			return 0, false, err
		}
		return n, false, nil
	}
	if hasLane {
		return 0, false, fmt.Errorf("kv: lane files present but manifest missing (corrupt or mixed-layout directory)")
	}
	if hasRoot {
		return 1, true, nil // pre-manifest single-lane directory: adopt it
	}
	return 0, true, nil
}

// laneBackend returns the backend namespace of one lane: the shared
// backend itself for a single-lane store (pre-lane layout), a
// "laneNN-"-prefixed namespace otherwise.
func laneBackend(b wal.Backend, lane, lanes int) wal.Backend {
	if lanes == 1 {
		return b
	}
	return wal.SubBackend(b, wal.LanePrefix(lane))
}
