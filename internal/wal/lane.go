// Lane plumbing for sharded stores: several Logs share one Backend
// (and therefore one crash domain — a simio crash plan's fsync counter
// spans every lane) by namespacing their files with a per-lane prefix,
// and JoinLanes (wal.go) ties their flushes to one GSN frontier.
// The KV store's recovery additionally needs to drop a suffix of a lane
// when a cross-shard batch turns out to be incomplete on a sibling
// lane; TruncateTail performs that surgical cut on storage.
package wal

import (
	"fmt"
	"strings"
)

// LanePrefix returns the file-name prefix lane files live under.
// Lane 0 of a multi-lane store uses "lane00-", lane 1 "lane01-", and
// so on; a single-lane store uses no prefix at all, which keeps its
// directory layout byte-identical to the unsharded format (and lets it
// adopt pre-lane directories).
func LanePrefix(lane int) string { return fmt.Sprintf("lane%02d-", lane) }

// SubBackend namespaces b under prefix: every file the returned
// backend creates, opens or removes is stored in b as prefix+name, and
// Names lists only (and strips the prefix from) files under prefix.
// Logs for different lanes of one store each get a SubBackend of the
// same underlying Backend, so they share one filesystem — and, in
// tests, one simio crash plan.
func SubBackend(b Backend, prefix string) Backend {
	return prefixBackend{b: b, prefix: prefix}
}

type prefixBackend struct {
	b      Backend
	prefix string
}

func (p prefixBackend) Create(name string) (File, error)     { return p.b.Create(p.prefix + name) }
func (p prefixBackend) OpenAppend(name string) (File, error) { return p.b.OpenAppend(p.prefix + name) }
func (p prefixBackend) Open(name string) (File, error)       { return p.b.Open(p.prefix + name) }
func (p prefixBackend) Remove(name string) error             { return p.b.Remove(p.prefix + name) }
func (p prefixBackend) Truncate(name string, size int64) error {
	return p.b.Truncate(p.prefix+name, size)
}

func (p prefixBackend) Names() ([]string, error) {
	all, err := p.b.Names()
	if err != nil {
		return nil, err
	}
	var out []string
	for _, n := range all {
		if strings.HasPrefix(n, p.prefix) {
			out = append(out, n[len(p.prefix):])
		}
	}
	return out, nil
}

// TruncateTail removes every record with LSN >= cut from the storage
// rec was recovered from: the segment holding cut is truncated at the
// record's first byte and all later segments are deleted. b must be
// the same backend the Recovery came from (for a lane, its SubBackend),
// and the Log must not have been reopened for appending yet — callers
// truncate between recovery passes, then Open the lane again so LSN
// assignment resumes below the cut.
//
// The KV store uses this for presumed-abort of cross-shard batches: a
// batch whose record is missing from a sibling lane was never fully
// durable — and, because a flush covering a multi-lane record publishes
// no watermark until the frontier passes it (drainAndFlush), neither it
// nor anything after it on the lane was ever acked — so dropping its
// records and the lane's tail after them restores a consistent
// per-lane prefix.
func TruncateTail(b Backend, rec *Recovery, cut uint64) error {
	if cut == 0 || cut <= rec.CheckpointLSN {
		return fmt.Errorf("wal: truncate tail at %d would cut into checkpoint %d", cut, rec.CheckpointLSN)
	}
	var at *Record
	for i := range rec.Records {
		if rec.Records[i].LSN == cut {
			at = &rec.Records[i]
			break
		}
	}
	if at == nil {
		return fmt.Errorf("wal: truncate tail: no recovered record with LSN %d", cut)
	}
	if err := b.Truncate(at.Seg, at.Off); err != nil {
		return fmt.Errorf("wal: truncate tail of %s: %w", at.Seg, err)
	}
	// Any segment that starts at or after the cut holds only dropped
	// records; remove it so recovery's contiguity checks see a clean
	// prefix and new appends reuse the LSN space.
	names, err := b.Names()
	if err != nil {
		return err
	}
	for _, n := range names {
		if start, ok := parseName(n, segPrefix); ok && start >= cut && n != at.Seg {
			if err := b.Remove(n); err != nil {
				return fmt.Errorf("wal: truncate tail: remove %s: %w", n, err)
			}
		}
	}
	return nil
}
