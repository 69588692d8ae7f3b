package check

import (
	"testing"

	"deferstm/internal/stm"
)

// A well-formed snapshot history: a snapshot transaction pinned at
// version 2 reads one var at its pre-pin version and one at exactly the
// pin, overlapping a later writer it correctly does not observe. The
// checker must accept it — including the serializability rule, which
// sees the snapshot as a read-only commit.
func TestSnapshotGoodHistoryAccepted(t *testing.T) {
	h := []stm.Event{
		ev(stm.EvBegin, 1, 1, 0, 0, 0),
		ev(stm.EvWrite, 1, 1, 10, 1, 0),
		ev(stm.EvWrite, 1, 1, 11, 1, 0),
		ev(stm.EvCommit, 1, 1, 0, 1, 0),
		ev(stm.EvBegin, 2, 2, 0, 1, 0),
		ev(stm.EvWrite, 2, 2, 11, 2, 0),
		ev(stm.EvCommit, 2, 2, 0, 2, 0),
		// Snapshot pinned at 2; a concurrent writer commits var 10 at 3.
		ev(stm.EvBegin, 3, 3, 0, 2, stm.AuxSnapshot),
		ev(stm.EvBegin, 4, 4, 0, 2, 0),
		ev(stm.EvWrite, 4, 4, 10, 3, 0),
		ev(stm.EvCommit, 4, 4, 0, 3, 0),
		ev(stm.EvRead, 3, 3, 10, 1, 0), // chain-resolved: pre-overwrite value
		ev(stm.EvRead, 3, 3, 11, 2, 0), // current value, committed at the pin
		ev(stm.EvCommit, 3, 3, 0, 0, stm.AuxSnapshot),
	}
	r := History(h)
	if !r.OK() {
		t.Fatalf("good snapshot history rejected: %s", r)
	}
}

// Torn snapshot: the transaction pinned at version 3 reads var 10 at
// version 1, but var 10 was overwritten at version 2 ≤ pin — the read
// is not the value committed at the pin.
func TestSnapshotRejectsTornRead(t *testing.T) {
	h := []stm.Event{
		ev(stm.EvBegin, 1, 1, 0, 0, 0),
		ev(stm.EvWrite, 1, 1, 10, 1, 0),
		ev(stm.EvCommit, 1, 1, 0, 1, 0),
		ev(stm.EvBegin, 2, 2, 0, 1, 0),
		ev(stm.EvWrite, 2, 2, 10, 2, 0),
		ev(stm.EvCommit, 2, 2, 0, 2, 0),
		ev(stm.EvBegin, 3, 3, 0, 3, stm.AuxSnapshot),
		ev(stm.EvRead, 3, 3, 10, 1, 0), // stale: version 2 exists ≤ pin
		ev(stm.EvCommit, 3, 3, 0, 0, stm.AuxSnapshot),
	}
	wantRule(t, History(h), RuleSnapshot)
}

// A write at exactly the pin is inside the cut (GV4 writers finish
// drawing their timestamp before the pin is read), so missing it is a
// violation too.
func TestSnapshotRejectsMissedWriteAtPin(t *testing.T) {
	h := []stm.Event{
		ev(stm.EvBegin, 1, 1, 0, 0, 0),
		ev(stm.EvWrite, 1, 1, 10, 1, 0),
		ev(stm.EvCommit, 1, 1, 0, 1, 0),
		ev(stm.EvBegin, 2, 2, 0, 1, 0),
		ev(stm.EvWrite, 2, 2, 10, 2, 0),
		ev(stm.EvCommit, 2, 2, 0, 2, 0),
		ev(stm.EvBegin, 3, 3, 0, 2, stm.AuxSnapshot),
		ev(stm.EvRead, 3, 3, 10, 1, 0), // missed the write at the pin itself
		ev(stm.EvCommit, 3, 3, 0, 0, stm.AuxSnapshot),
	}
	wantRule(t, History(h), RuleSnapshot)
}

// The serial-commit tear (the stm.runSerial bug: tick first, then lock
// and publish one var at a time): a serial writer commits vars 10 and 11
// at version 2; a snapshot that pinned 2 mid-publish reads var 10 at the
// new version but var 11 — not yet locked when it looked — at version 1.
// Both reads are individually plausible; only the pair is torn, and the
// pinned-cut axiom must name the stale half.
func TestSnapshotRejectsSerialCommitTear(t *testing.T) {
	h := []stm.Event{
		ev(stm.EvBegin, 1, 1, 0, 0, 0),
		ev(stm.EvWrite, 1, 1, 10, 1, 0),
		ev(stm.EvWrite, 1, 1, 11, 1, 0),
		ev(stm.EvCommit, 1, 1, 0, 1, 0),
		ev(stm.EvBegin, 2, 2, 0, 1, 0), // the serial writer
		ev(stm.EvBegin, 3, 3, 0, 2, stm.AuxSnapshot),
		ev(stm.EvRead, 3, 3, 10, 2, 0), // already published at wv
		ev(stm.EvRead, 3, 3, 11, 1, 0), // tail of the write set: still old
		ev(stm.EvCommit, 3, 3, 0, 0, stm.AuxSnapshot),
		ev(stm.EvWrite, 2, 2, 10, 2, 0),
		ev(stm.EvWrite, 2, 2, 11, 2, 0),
		ev(stm.EvCommit, 2, 2, 0, 2, stm.AuxSerial),
	}
	r := History(h)
	wantRule(t, r, RuleSnapshot)
	for _, v := range r.Violations {
		if v.Rule == RuleSnapshot && v.TxID != 3 {
			t.Fatalf("violation blames tx %d, want the snapshot (3): %s", v.TxID, r)
		}
	}
}

// A snapshot read newer than its own pin is impossible in a correct
// execution (the resolver only returns versions ≤ sv).
func TestSnapshotRejectsReadNewerThanPin(t *testing.T) {
	h := []stm.Event{
		ev(stm.EvBegin, 1, 1, 0, 0, 0),
		ev(stm.EvWrite, 1, 1, 10, 5, 0),
		ev(stm.EvCommit, 1, 1, 0, 5, 0),
		ev(stm.EvBegin, 2, 2, 0, 3, stm.AuxSnapshot),
		ev(stm.EvRead, 2, 2, 10, 5, 0),
		ev(stm.EvCommit, 2, 2, 0, 0, stm.AuxSnapshot),
	}
	wantRule(t, History(h), RuleSnapshot)
}

// Truncation ahead of a registered reader: a chain truncation uses
// horizon 5 while a committed snapshot pinned at 3 is registered
// (its begin/commit bracket the truncation event).
func TestSnapshotRejectsTruncationAheadOfReader(t *testing.T) {
	h := []stm.Event{
		ev(stm.EvBegin, 1, 1, 0, 0, 0),
		ev(stm.EvWrite, 1, 1, 10, 3, 0),
		ev(stm.EvCommit, 1, 1, 0, 3, 0),
		ev(stm.EvBegin, 2, 2, 0, 3, stm.AuxSnapshot),
		ev(stm.EvSnapTruncate, 0, 0, 10, 5, 2), // horizon 5 > pin 3
		ev(stm.EvRead, 2, 2, 10, 3, 0),
		ev(stm.EvCommit, 2, 2, 0, 0, stm.AuxSnapshot),
	}
	wantRule(t, History(h), RuleSnapshot)
}

// The same truncation is legal when its horizon does not pass any
// registered pin, or when the spanning snapshot attempt aborted (the
// intended overflow-fallback path deregisters before EvAbort).
func TestSnapshotAcceptsLegalTruncation(t *testing.T) {
	h := []stm.Event{
		ev(stm.EvBegin, 1, 1, 0, 0, 0),
		ev(stm.EvWrite, 1, 1, 10, 3, 0),
		ev(stm.EvCommit, 1, 1, 0, 3, 0),
		// Horizon 3 ≤ the active pin 3: legal.
		ev(stm.EvBegin, 2, 2, 0, 3, stm.AuxSnapshot),
		ev(stm.EvSnapTruncate, 0, 0, 10, 3, 1),
		ev(stm.EvRead, 2, 2, 10, 3, 0),
		ev(stm.EvCommit, 2, 2, 0, 0, stm.AuxSnapshot),
		// Horizon ahead of an ABORTED snapshot attempt: the overflow
		// fallback, not a violation.
		ev(stm.EvBegin, 3, 3, 0, 3, stm.AuxSnapshot),
		ev(stm.EvSnapTruncate, 0, 0, 10, 9, 4),
		ev(stm.EvAbort, 3, 3, 0, 0, stm.AbortCauseSnapshot),
	}
	r := History(h)
	if !r.OK() {
		t.Fatalf("legal truncation history rejected: %s", r)
	}
}
