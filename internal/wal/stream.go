package wal

import (
	"errors"
	"fmt"
	"io"
	"slices"

	"deferstm/internal/stm"
)

// This file is the log's replication surface: everything a follower
// process needs to bootstrap from the latest checkpoint and then tail
// the segment files as an LSN-ordered record stream, without any new
// on-disk format — the stream reads the same segments and checkpoint
// records recovery does. Each stream holds a Tail, which reads every
// segment byte once: a caught-up stream's read costs the bytes appended
// since its last one, not the whole live segment.

// ErrPruned reports that a requested LSN range is no longer on storage:
// a checkpoint has pruned the covering segments since the caller's
// cursor was valid. The caller should re-bootstrap from LatestCheckpoint
// and resume tailing from its upTo.
var ErrPruned = errors.New("wal: range pruned by checkpoint")

// CheckpointLSN returns the upTo of the newest fsynced checkpoint, 0
// when none exists. Monotone over the log's lifetime.
func (l *Log) CheckpointLSN() uint64 { return l.lastCkpt.Load() }

// PeekDurable reads the durability watermark inside tx WITHOUT
// subscribing to the log lock. This is the watermark read for stream
// tails parked in retry: like WaitDurable (see its comment), a tail
// must wake when a flush publishes — not when the lock frees — or every
// publish would stampede the parked tails through the lock's release
// window. Unlike a subscribed read it gives no flush-exclusion
// guarantee, which a tail does not need: it only ever reads bytes ≤ the
// watermark.
func (l *Log) PeekDurable(tx *stm.Tx) uint64 { return l.durable.Get(tx) }

// StreamReadBytes returns the segment bytes every Tail of this log has
// read from the backend since Open. A caught-up stream reads each byte
// once, so this tracks the bytes shipped, not a multiple of them.
func (l *Log) StreamReadBytes() uint64 { return l.streamRead.Load() }

// Tail is one replication stream's read position on a Log. It remembers
// where its last Read ended — segment, byte offset and LSN — and keeps
// that segment's read handle open, so a Read that resumes there reads
// from the backend only the bytes appended since. Every other call (the
// first one, a cursor that moved because the caller re-based after
// ErrPruned, or a segment pruned away) locates the segment holding
// after+1 and scans it from its start.
//
// A Tail is not safe for concurrent use; give each stream its own.
// Close releases the read handle.
type Tail struct {
	l   *Log
	f   File   // read handle on seg, positioned at the end of buf; nil when unplaced
	seg string // segment f reads
	lsn uint64 // LSN of the last record returned: the cursor a resuming Read passes
	// buf holds bytes of seg read from f: buf[pos:] is the unreturned
	// rest (records past the last call's upTo or maxBytes), whose first
	// byte sits at file offset base+pos. Bytes before pos back the
	// payloads the last Read returned.
	buf  []byte
	pos  int
	base int64
	out  []Record
}

// NewTail returns an unplaced Tail on l; its first Read locates the
// segment holding after+1.
func (l *Log) NewTail() *Tail { return &Tail{l: l} }

// Read returns intact records with LSN in (after, upTo], ascending,
// reading at most maxBytes of payload past the first record (at least
// one record is always returned when any is available). The caller
// must keep upTo at or below the published durable watermark: bytes
// beyond it may not have been fsynced and must never be shipped.
//
// The returned records, and the payloads they carry, alias the Tail's
// buffer: they are valid until the next Read or Close.
//
// Read holds fmu — segment files are append-shared with the flusher (sim
// backends share the byte slice), so reading a live segment concurrently
// with a write is a data race. A resuming Read holds it for the new
// bytes only; callers bound maxBytes to keep a catch-up scan's flush
// stall short.
//
// Returns ErrPruned when the range starts below the oldest record still
// on storage (a concurrent checkpoint pruned it); the caller
// re-bootstraps from LatestCheckpoint and reads on from its upTo.
func (t *Tail) Read(after, upTo uint64, maxBytes int) ([]Record, error) {
	if upTo <= after {
		return nil, nil
	}
	l := t.l
	l.fmu.Lock()
	defer l.fmu.Unlock()
	if l.closed {
		return nil, errors.New("wal: log closed")
	}
	idx := -1
	if t.f != nil && after == t.lsn {
		idx = l.segIndex(t.seg) // -1: pruned away since the last call
	}
	if idx >= 0 {
		// Resume: drop what the last call returned, keep its rest.
		n := copy(t.buf, t.buf[t.pos:])
		t.base += int64(t.pos)
		t.buf, t.pos = t.buf[:n], 0
	} else {
		// Locate: the segment holding after+1 is the last one starting at
		// or below it; if even the oldest segment starts past after+1 the
		// range has been pruned (its records live only inside a
		// checkpoint now).
		t.reset()
		for i, s := range l.segs {
			if s.start > after+1 {
				break
			}
			idx = i
		}
		if idx < 0 {
			return nil, ErrPruned
		}
		if err := t.open(l.segs[idx].name); err != nil {
			return nil, err
		}
		t.lsn = after
	}
	t.out = t.out[:0]
	bytes := 0
	for {
		if err := t.fill(); err != nil {
			t.reset()
			return nil, fmt.Errorf("wal: read segment %s: %w", t.seg, err)
		}
		for t.pos < len(t.buf) {
			lsn, payload, _, ok := decodeNext(t.buf[t.pos:])
			if !ok {
				// Live logs have no torn tails (recovery truncated them
				// and fmu excludes in-flight writes); anything here is
				// damage the next Open will classify.
				break
			}
			if lsn > upTo {
				return t.result()
			}
			if lsn > after {
				t.out = append(t.out, Record{LSN: lsn, Payload: payload, Seg: t.seg, Off: t.base + int64(t.pos)})
				t.lsn = lsn
				bytes += len(payload)
			}
			t.pos += recordSize(len(payload))
			if lsn > after && bytes >= maxBytes {
				return t.result()
			}
		}
		if idx++; idx >= len(l.segs) {
			return t.result()
		}
		// On to the next segment. New bytes are appended after the ones
		// already returned, never over them, so those payloads stay valid.
		t.buf = t.buf[:t.pos]
		if err := t.open(l.segs[idx].name); err != nil {
			return nil, err
		}
	}
}

// result ends a Read. Caller holds fmu.
func (t *Tail) result() ([]Record, error) {
	if len(t.out) == 0 {
		// upTo > after promised records, the segments had none at or
		// after the cursor: the gap sits below a checkpoint cut.
		t.reset()
		return nil, ErrPruned
	}
	return t.out, nil
}

// fill reads the rest of t.seg onto buf: up to the log's byte count for
// the live segment (fmu excludes writers, so that is the file's length),
// to the file's size for a rotated one. Caller holds fmu.
func (t *Tail) fill() error {
	have := t.base + int64(len(t.buf))
	end := int64(t.l.curBytes)
	if t.seg != t.l.curName {
		sz, err := t.f.Size()
		if err != nil {
			return err
		}
		end = sz
	}
	if end <= have {
		return nil
	}
	n := int(end - have)
	t.buf = slices.Grow(t.buf, n)
	got, err := io.ReadFull(t.f, t.buf[len(t.buf):len(t.buf)+n])
	t.buf = t.buf[:len(t.buf)+got]
	t.l.streamRead.Add(uint64(got))
	return err
}

// open points the Tail at the start of segment name, keeping buf's
// bytes (the file offset of buf's end becomes 0). Caller holds fmu.
func (t *Tail) open(name string) error {
	t.closeFile()
	f, err := t.l.b.Open(name)
	if err != nil {
		t.reset()
		return fmt.Errorf("wal: open segment %s: %w", name, err)
	}
	t.f, t.seg, t.base = f, name, -int64(len(t.buf))
	return nil
}

// reset unplaces the Tail: the next Read locates its segment afresh.
func (t *Tail) reset() {
	t.closeFile()
	t.seg, t.lsn = "", 0
	t.buf, t.pos, t.base = t.buf[:0], 0, 0
}

func (t *Tail) closeFile() {
	if t.f != nil {
		_ = t.f.Close()
		t.f = nil
	}
}

// Close releases the Tail's read handle. The Tail stays usable: a later
// Read re-locates its segment.
func (t *Tail) Close() { t.reset() }

// segIndex returns the index of segment name in l.segs, -1 when it has
// been pruned. Caller holds fmu.
func (l *Log) segIndex(name string) int {
	for i := len(l.segs) - 1; i >= 0; i-- {
		if l.segs[i].name == name {
			return i
		}
	}
	return -1
}

// LatestCheckpoint returns the newest intact checkpoint's upTo and blob
// (0, nil when the log has never checkpointed). It validates with the
// same decode recovery uses and falls back to older checkpoints on a
// torn read, tolerating a concurrent Checkpoint pruning under it.
func (l *Log) LatestCheckpoint() (uint64, []byte, error) {
	names, err := l.b.Names()
	if err != nil {
		return 0, nil, fmt.Errorf("wal: list backend: %w", err)
	}
	var ckpts []uint64
	for _, n := range names {
		if lsn, ok := parseName(n, ckptPrefix); ok {
			ckpts = append(ckpts, lsn)
		}
	}
	best := uint64(0)
	var blob []byte
	for _, lsn := range ckpts {
		if lsn <= best {
			continue
		}
		data, err := readWhole(l.b, ckptName(lsn))
		if err != nil {
			continue // pruned from under us; an older (or newer) one will do
		}
		gotLSN, b, rest, ok := decodeNext(data)
		if !ok || gotLSN != lsn || len(rest) != 0 {
			continue
		}
		best, blob = lsn, append([]byte(nil), b...)
	}
	return best, blob, nil
}
