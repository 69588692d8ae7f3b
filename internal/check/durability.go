package check

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"deferstm/internal/stm"
)

// Durability checking over the WAL events (EvWALAppend / EvWALDurable)
// that package wal records. Two layers:
//
//   - History (via checkDurability) verifies the live-execution axioms:
//     LSNs are unique and their order agrees with the serialization
//     order (commit-version order) of the appending transactions; the
//     durable watermark only ever covers appended records, never
//     retreats, is never published before the record it covers was
//     committed, and is published only by the holder of the log's lock.
//     The last makes the lane's flush path the watermark's one writer:
//     a publisher outside the lock races the flush that holds it, and
//     the two can publish out of order — the watermark retreats, or
//     covers records that flush has not yet fsynced.
//
//   - RecoveredPrefixLanes relates a recovered state to the history it was
//     recovered from: everything acknowledged durable before the crash
//     must be present after replay, and the recovered state must be a
//     prefix of the serialization order — no gap, and nothing beyond
//     what was ever appended.

// RuleDurability names durability violations in reports.
const RuleDurability = "durability"

type walAppend struct {
	lsn   uint64
	gsn   uint64 // global commit sequence number (0: the appender drew none)
	ver   uint64 // commit version of the appending transaction
	seq   uint64
	txID  uint64
	owner stm.OwnerID
}

type walDurable struct {
	watermark uint64
	seq       uint64
	owner     stm.OwnerID
}

// checkDurability verifies the live-history WAL axioms, per log (events
// are grouped by the log's lock variable, so histories with several logs
// check independently).
func checkDurability(p *parsed) []Violation {
	var out []Violation
	for logVar, apps := range p.walAppends {
		byLSN := make(map[uint64]*walAppend, len(apps))
		for i := range apps {
			a := &apps[i]
			if prev, dup := byLSN[a.lsn]; dup {
				out = append(out, Violation{
					Rule: RuleDurability, TxID: a.txID, Seq: a.seq,
					Msg: fmt.Sprintf("LSN %d of log %d appended by two committed transactions (tx %d and tx %d)",
						a.lsn, logVar, prev.txID, a.txID),
				})
				continue
			}
			byLSN[a.lsn] = a
		}
		// LSN order must be serialization order: ascending LSN ⇒ strictly
		// ascending commit version.
		sorted := make([]*walAppend, 0, len(byLSN))
		for _, a := range byLSN {
			sorted = append(sorted, a)
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].lsn < sorted[j].lsn })
		for i := 1; i < len(sorted); i++ {
			lo, hi := sorted[i-1], sorted[i]
			if hi.ver <= lo.ver {
				out = append(out, Violation{
					Rule: RuleDurability, TxID: hi.txID, Seq: hi.seq,
					Msg: fmt.Sprintf("LSN order disagrees with serialization order on log %d: LSN %d committed at version %d but LSN %d at version %d",
						logVar, lo.lsn, lo.ver, hi.lsn, hi.ver),
				})
			}
		}
		// GSN order must agree with lane LSN order: a kv store
		// draws each commit's GSN after reserving every touched lane's
		// LSN, so within one lane ascending LSN ⇒ strictly ascending GSN
		// (records without a GSN — a test's hand-made ones — are exempt).
		var prevG *walAppend
		for _, a := range sorted {
			if a.gsn == 0 {
				continue
			}
			if prevG != nil && a.gsn <= prevG.gsn {
				out = append(out, Violation{
					Rule: RuleDurability, TxID: a.txID, Seq: a.seq,
					Msg: fmt.Sprintf("GSN order disagrees with lane LSN order on log %d: LSN %d carries GSN %d but LSN %d carries GSN %d",
						logVar, prevG.lsn, prevG.gsn, a.lsn, a.gsn),
				})
			}
			prevG = a
		}
		var maxLSN uint64
		for lsn := range byLSN {
			if lsn > maxLSN {
				maxLSN = lsn
			}
		}
		out = append(out, unheldPublishes(p, logVar)...)
		prevWM := uint64(0)
		for _, d := range p.walDurables[logVar] {
			if d.watermark < prevWM {
				out = append(out, Violation{
					Rule: RuleDurability, Seq: d.seq,
					Msg: fmt.Sprintf("durable watermark of log %d retreated from %d to %d", logVar, prevWM, d.watermark),
				})
			}
			prevWM = d.watermark
			if d.watermark > maxLSN {
				out = append(out, Violation{
					Rule: RuleDurability, Seq: d.seq,
					Msg: fmt.Sprintf("log %d acknowledged LSN %d durable but only %d records were ever appended by committed transactions",
						logVar, d.watermark, maxLSN),
				})
				continue
			}
			if a, ok := byLSN[d.watermark]; !ok {
				out = append(out, Violation{
					Rule: RuleDurability, Seq: d.seq,
					Msg: fmt.Sprintf("log %d acknowledged watermark %d, which no committed transaction appended", logVar, d.watermark),
				})
			} else if d.seq < a.seq {
				out = append(out, Violation{
					Rule: RuleDurability, TxID: a.txID, Seq: d.seq,
					Msg: fmt.Sprintf("log %d acknowledged LSN %d durable before the appending transaction's commit flushed it", logVar, d.watermark),
				})
			}
		}
	}
	// GSNs are per-commit, across lanes: every append of one transaction
	// carries the same GSN, and no two transactions share one.
	gsnOf := make(map[uint64]uint64)   // txID -> gsn
	txOfGSN := make(map[uint64]uint64) // gsn -> txID
	for logVar, apps := range p.walAppends {
		for _, a := range apps {
			if a.gsn == 0 {
				continue
			}
			if g, ok := gsnOf[a.txID]; ok && g != a.gsn {
				out = append(out, Violation{
					Rule: RuleDurability, TxID: a.txID, Seq: a.seq,
					Msg: fmt.Sprintf("transaction %d appended records with two GSNs (%d and %d on log %d) — one commit, one GSN",
						a.txID, g, a.gsn, logVar),
				})
				continue
			}
			gsnOf[a.txID] = a.gsn
			if other, ok := txOfGSN[a.gsn]; ok && other != a.txID {
				out = append(out, Violation{
					Rule: RuleDurability, TxID: a.txID, Seq: a.seq,
					Msg: fmt.Sprintf("GSN %d issued to two committed transactions (tx %d and tx %d)",
						a.gsn, other, a.txID),
				})
				continue
			}
			txOfGSN[a.gsn] = a.txID
		}
	}
	return out
}

// unheldPublishes replays logVar's lock events in sequence order and
// flags every EvWALDurable whose Owner did not hold the lock at that
// point. Every acquisition is recorded at its commit, before the lock
// is visibly held, and every release before it is visibly given up, so
// the replay never shows a holder later, or a release earlier, than the
// runtime did.
func unheldPublishes(p *parsed, logVar uint64) []Violation {
	var out []Violation
	var holder stm.OwnerID
	locks := p.lockEvs
	for _, d := range p.walDurables[logVar] {
		for ; len(locks) > 0 && locks[0].Seq < d.seq; locks = locks[1:] {
			switch ev := locks[0]; {
			case ev.Var != logVar:
			case ev.Kind == stm.EvLockAcquire:
				holder = ev.Owner
			case ev.Aux == 0: // a release that leaves depth 0
				holder = 0
			}
		}
		if d.owner == 0 || d.owner != holder {
			out = append(out, Violation{
				Rule: RuleDurability, Seq: d.seq,
				Msg: fmt.Sprintf("owner %d published log %d's watermark %d without holding the log's lock (held by %d)",
					d.owner, logVar, d.watermark, holder),
			})
		}
	}
	return out
}

// RecoveredLane names one WAL lane's recovery cut for
// RecoveredPrefixLanes: LogVar is the lane's log lock variable in the
// events, BaseLSN the LSN the lane started at in this history (0 for a
// lane created fresh) and LastLSN the highest LSN the recovered state
// covers on that lane.
type RecoveredLane struct {
	LogVar  uint64
	BaseLSN uint64
	LastLSN uint64
}

// RecoveredPrefixLanes checks a recovered state against the pre-crash
// history it was recovered from. The history holds one or several lanes'
// WAL events, distinguished by log lock variable, and the recovered state
// names a cut per lane (wal.Recovery.LastLSN / kv's LaneRecovery.LastLSN);
// an unsharded store is the one-lane case. The axioms:
//
//   - completeness, per lane: every record acknowledged durable in the
//     history (any EvWALDurable watermark) is present after replay;
//   - prefix-ness, per lane: the recovered state is a prefix of the
//     serialization order — it does not extend past the appended
//     history, and every LSN up to the cut was appended (no holes —
//     lanes recover by tail truncation, never by hole-punching);
//   - cross-shard commits (several EvWALAppend sharing a TxID and a
//     GSN) are atomic across the cuts: all of a commit's records are
//     inside their lanes' cuts, or all are outside. A half-recovered
//     batch is exactly the state the lane flushers' frontier gate plus
//     presumed-abort truncation exist to rule out.
func RecoveredPrefixLanes(events []stm.Event, lanes []RecoveredLane) []Violation {
	var out []Violation
	byVar := make(map[uint64]*RecoveredLane, len(lanes))
	for i := range lanes {
		byVar[lanes[i].LogVar] = &lanes[i]
	}
	type appendRec struct {
		lane *RecoveredLane
		lsn  uint64
	}
	acked := make(map[uint64]uint64)             // logVar -> max watermark
	appended := make(map[uint64]map[uint64]bool) // logVar -> LSN set
	maxLSN := make(map[uint64]uint64)
	commits := make(map[uint64][]appendRec) // txID -> its lane records
	for _, ev := range events {
		switch ev.Kind {
		case stm.EvWALAppend:
			lane, ok := byVar[ev.Var]
			if !ok {
				out = append(out, Violation{
					Rule: RuleDurability, TxID: ev.TxID,
					Msg: fmt.Sprintf("append to log %d, which no recovered lane claims", ev.Var),
				})
				continue
			}
			if appended[ev.Var] == nil {
				appended[ev.Var] = make(map[uint64]bool)
				maxLSN[ev.Var] = lane.BaseLSN
			}
			appended[ev.Var][ev.Aux] = true
			if ev.Aux > maxLSN[ev.Var] {
				maxLSN[ev.Var] = ev.Aux
			}
			commits[ev.TxID] = append(commits[ev.TxID], appendRec{lane: lane, lsn: ev.Aux})
		case stm.EvWALDurable:
			if ev.Aux > acked[ev.Var] {
				acked[ev.Var] = ev.Aux
			}
		}
	}
	for i := range lanes {
		lane := &lanes[i]
		if lane.LastLSN < acked[lane.LogVar] {
			out = append(out, Violation{
				Rule: RuleDurability,
				Msg: fmt.Sprintf("lane %d lost acknowledged records: recovered through LSN %d but LSN %d was acked durable",
					lane.LogVar, lane.LastLSN, acked[lane.LogVar]),
			})
		}
		hi := maxLSN[lane.LogVar]
		if hi == 0 {
			hi = lane.BaseLSN
		}
		if lane.LastLSN > hi {
			out = append(out, Violation{
				Rule: RuleDurability,
				Msg: fmt.Sprintf("lane %d recovered through LSN %d, past its appended history (through LSN %d) — not a prefix",
					lane.LogVar, lane.LastLSN, hi),
			})
		}
		for lsn := lane.BaseLSN + 1; lsn <= lane.LastLSN; lsn++ {
			if !appended[lane.LogVar][lsn] {
				out = append(out, Violation{
					Rule: RuleDurability,
					Msg: fmt.Sprintf("lane %d recovered LSN %d, which no committed transaction appended — not a prefix of the lane's serialization order",
						lane.LogVar, lsn),
				})
			}
		}
	}
	for txID, recs := range commits {
		if len(recs) < 2 {
			continue
		}
		in := 0
		for _, r := range recs {
			if r.lsn <= r.lane.LastLSN {
				in++
			}
		}
		if in != 0 && in != len(recs) {
			out = append(out, Violation{
				Rule: RuleDurability, TxID: txID,
				Msg: fmt.Sprintf("cross-shard commit %d recovered on %d of its %d lanes — batch atomicity broken",
					txID, in, len(recs)),
			})
		}
	}
	return out
}

// AckedPrefixLanes is the offline-verify entry point shared by the
// kvserver and kvreplica -verify modes: given, per lane, the highest
// LSN some client was durably acked and the highest LSN the process
// under test actually holds (recovery's LastLSN, or a replica's applied
// cursor), it reports every lane that holds less than was acked.
// Completeness is all two such vectors can attest to: they say nothing
// of which records were appended or formed cross-shard batches, so
// prefix-ness and batch atomicity are checked by RecoveredPrefixLanes
// over recorded histories, in process.
func AckedPrefixLanes(acked, held []uint64) []Violation {
	if len(acked) != len(held) {
		return []Violation{{
			Rule: RuleDurability,
			Msg: fmt.Sprintf("ack vector names %d lanes, state under test has %d",
				len(acked), len(held)),
		}}
	}
	var out []Violation
	for lane := range held {
		if held[lane] < acked[lane] {
			out = append(out, Violation{
				Rule: RuleDurability,
				Msg: fmt.Sprintf("lane %d lost acknowledged records: recovered through LSN %d but LSN %d was acked durable",
					lane, held[lane], acked[lane]),
			})
		}
	}
	return out
}

// ParseAckfile reads a loadgen ack record, one "lane lsn" pair per
// line, returning the max durably-acked LSN per lane. Both kvserver
// -verify (against recovery) and kvreplica -verify (against the applied
// cursors) feed the result to AckedPrefixLanes.
func ParseAckfile(content string, lanes int) ([]uint64, error) {
	acked := make([]uint64, lanes)
	for _, line := range strings.Split(strings.TrimSpace(content), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 2 {
			return nil, fmt.Errorf("bad ackfile line %q (want \"lane lsn\")", line)
		}
		lane, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, err
		}
		if lane < 0 || lane >= lanes {
			return nil, fmt.Errorf("ack for lane %d of a %d-lane store", lane, lanes)
		}
		lsn, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return nil, err
		}
		acked[lane] = max(acked[lane], lsn)
	}
	return acked, nil
}
