package check

import (
	"strings"
	"testing"

	"deferstm/internal/stm"
)

// ev builds events tersely for hand-written histories.
func ev(kind stm.EventKind, txID uint64, owner stm.OwnerID, varID, ver, aux uint64) stm.Event {
	return stm.Event{Kind: kind, TxID: txID, Owner: owner, Var: varID, Ver: ver, Aux: aux}
}

func wantRule(t *testing.T, r *Report, rule string) {
	t.Helper()
	if r.OK() {
		t.Fatalf("checker accepted a known-bad history; want %s violation", rule)
	}
	for _, v := range r.Violations {
		if v.Rule == rule {
			return
		}
	}
	t.Fatalf("no %s violation; got: %s", rule, r)
}

// A straightforwardly correct history: two sequential writers and a
// consistent read-only transaction. The checker must accept it.
func TestGoodHistoryAccepted(t *testing.T) {
	h := []stm.Event{
		ev(stm.EvBegin, 1, 1, 0, 0, 0),
		ev(stm.EvRead, 1, 1, 10, 0, 0),
		ev(stm.EvWrite, 1, 1, 10, 1, 0),
		ev(stm.EvCommit, 1, 1, 0, 1, 0),
		ev(stm.EvBegin, 2, 2, 0, 1, 0),
		ev(stm.EvRead, 2, 2, 10, 1, 0),
		ev(stm.EvWrite, 2, 2, 10, 2, 0),
		ev(stm.EvCommit, 2, 2, 0, 2, 0),
		ev(stm.EvBegin, 3, 3, 0, 2, 0),
		ev(stm.EvRead, 3, 3, 10, 2, 0),
		ev(stm.EvCommit, 3, 3, 0, 0, 0), // read-only
	}
	r := History(h)
	if !r.OK() {
		t.Fatalf("good history rejected: %s", r)
	}
	if r.Commits != 3 || r.Writes != 2 || r.Reads != 3 {
		t.Fatalf("bad counts: %+v", r)
	}
}

// Known-bad history 1: a lost update. T1 and T2 both read x at version
// 0 and both commit writes to x (versions 1 and 2) — the commit order
// is not serializable (T2's read should have seen version 1).
func TestRejectsNonSerializableCommitOrder(t *testing.T) {
	h := []stm.Event{
		ev(stm.EvBegin, 1, 1, 0, 0, 0),
		ev(stm.EvRead, 1, 1, 10, 0, 0),
		ev(stm.EvBegin, 2, 2, 0, 0, 0),
		ev(stm.EvRead, 2, 2, 10, 0, 0),
		ev(stm.EvWrite, 1, 1, 10, 1, 0),
		ev(stm.EvCommit, 1, 1, 0, 1, 0),
		ev(stm.EvWrite, 2, 2, 10, 2, 0),
		ev(stm.EvCommit, 2, 2, 0, 2, 0),
	}
	wantRule(t, History(h), RuleSerializability)
}

// A shared commit version is only legal when the co-timestamped writers
// have disjoint write sets: two writers publishing the SAME var at the
// same version is a lost update no serial order can explain.
func TestRejectsSharedVersionOverlappingWrites(t *testing.T) {
	h := []stm.Event{
		ev(stm.EvBegin, 1, 1, 0, 0, 0),
		ev(stm.EvWrite, 1, 1, 10, 1, 0),
		ev(stm.EvCommit, 1, 1, 0, 1, 0),
		ev(stm.EvBegin, 2, 2, 0, 0, 0),
		ev(stm.EvWrite, 2, 2, 10, 1, 0),
		ev(stm.EvCommit, 2, 2, 0, 1, 0),
	}
	wantRule(t, History(h), RuleSerializability)
}

// Disjoint write sets at a shared commit version are exactly what the
// GV4 "pass on failure" clock produces (the CAS loser adopts the
// winner's timestamp while both hold their commit locks) and must be
// accepted.
func TestAcceptsSharedVersionDisjointWrites(t *testing.T) {
	h := []stm.Event{
		ev(stm.EvBegin, 1, 1, 0, 0, 0),
		ev(stm.EvWrite, 1, 1, 10, 1, 0),
		ev(stm.EvCommit, 1, 1, 0, 1, 0),
		ev(stm.EvBegin, 2, 2, 0, 0, 0),
		ev(stm.EvWrite, 2, 2, 11, 1, 0),
		ev(stm.EvCommit, 2, 2, 0, 1, 0),
	}
	if r := History(h); !r.OK() {
		t.Fatalf("disjoint shared-version commit rejected: %s", r)
	}
}

// Disjoint co-timestamped writers whose reads order them against each
// other both ways: T2 read T3's var old (T2 before T3) and T3 read
// T2's var old (T3 before T2) — a write skew inside one timestamp that
// no serial order explains. The per-writer reads-latest rule cannot see
// it (the conflicting writes are not older than either commit version),
// so the version-group cycle check must.
func TestRejectsSharedVersionReadCycle(t *testing.T) {
	h := []stm.Event{
		ev(stm.EvBegin, 1, 1, 0, 0, 0),
		ev(stm.EvWrite, 1, 1, 10, 1, 0),
		ev(stm.EvWrite, 1, 1, 11, 1, 0),
		ev(stm.EvCommit, 1, 1, 0, 1, 0),
		ev(stm.EvBegin, 2, 2, 0, 1, 0),
		ev(stm.EvRead, 2, 2, 11, 1, 0), // reads T3's var pre-T3
		ev(stm.EvWrite, 2, 2, 10, 2, 0),
		ev(stm.EvCommit, 2, 2, 0, 2, 0),
		ev(stm.EvBegin, 3, 3, 0, 1, 0),
		ev(stm.EvRead, 3, 3, 10, 1, 0), // reads T2's var pre-T2
		ev(stm.EvWrite, 3, 3, 11, 2, 0),
		ev(stm.EvCommit, 3, 3, 0, 2, 0),
	}
	wantRule(t, History(h), RuleSerializability)
}

// A read-only transaction straddling a shared version: it observed one
// co-timestamped writer's value and the OTHER writer's var at the older
// version. Legal — serialize the unobserved writer after the reader
// (order: T2, T4, T3).
func TestAcceptsReaderStraddlingSharedVersion(t *testing.T) {
	h := []stm.Event{
		ev(stm.EvBegin, 1, 1, 0, 0, 0),
		ev(stm.EvWrite, 1, 1, 10, 1, 0),
		ev(stm.EvWrite, 1, 1, 11, 1, 0),
		ev(stm.EvCommit, 1, 1, 0, 1, 0),
		ev(stm.EvBegin, 2, 2, 0, 1, 0),
		ev(stm.EvWrite, 2, 2, 10, 2, 0),
		ev(stm.EvCommit, 2, 2, 0, 2, 0),
		ev(stm.EvBegin, 3, 3, 0, 1, 0),
		ev(stm.EvWrite, 3, 3, 11, 2, 0),
		ev(stm.EvCommit, 3, 3, 0, 2, 0),
		ev(stm.EvBegin, 4, 4, 0, 2, 0),
		ev(stm.EvRead, 4, 4, 10, 2, 0), // T2's write: observed
		ev(stm.EvRead, 4, 4, 11, 1, 0), // T3's var, still old: fine
		ev(stm.EvCommit, 4, 4, 0, 0, 0),
	}
	if r := History(h); !r.OK() {
		t.Fatalf("reader straddling a shared version rejected: %s", r)
	}
}

// The same reader is torn if the old-version var belongs to the SAME
// writer it observed at the shared version: it saw part of that
// writer's commit and missed the rest.
func TestRejectsReaderTornAcrossOneWriter(t *testing.T) {
	h := []stm.Event{
		ev(stm.EvBegin, 1, 1, 0, 0, 0),
		ev(stm.EvWrite, 1, 1, 10, 1, 0),
		ev(stm.EvWrite, 1, 1, 11, 1, 0),
		ev(stm.EvCommit, 1, 1, 0, 1, 0),
		ev(stm.EvBegin, 2, 2, 0, 1, 0),
		ev(stm.EvWrite, 2, 2, 10, 2, 0),
		ev(stm.EvWrite, 2, 2, 11, 2, 0),
		ev(stm.EvCommit, 2, 2, 0, 2, 0),
		ev(stm.EvBegin, 4, 4, 0, 2, 0),
		ev(stm.EvRead, 4, 4, 10, 2, 0), // T2's write: observed
		ev(stm.EvRead, 4, 4, 11, 1, 0), // T2 overwrote this too: torn
		ev(stm.EvCommit, 4, 4, 0, 0, 0),
	}
	wantRule(t, History(h), RuleSerializability)
}

// Known-bad history 2: an opacity violation by an aborted reader. The
// attempt read x before W1's commit and y after W2's commit — a
// snapshot that never existed — and then aborted. TL2 must never let a
// transaction observe such state, even transiently.
func TestRejectsOpacityViolationByAbortedReader(t *testing.T) {
	h := []stm.Event{
		ev(stm.EvBegin, 1, 1, 0, 0, 0),
		ev(stm.EvWrite, 1, 1, 10, 1, 0), // W1: x@1
		ev(stm.EvCommit, 1, 1, 0, 1, 0),
		ev(stm.EvBegin, 2, 2, 0, 1, 0),
		ev(stm.EvWrite, 2, 2, 11, 2, 0), // W2: y@2
		ev(stm.EvCommit, 2, 2, 0, 2, 0),
		ev(stm.EvBegin, 3, 3, 0, 0, 0),
		ev(stm.EvRead, 3, 3, 10, 0, 0), // read x before W1
		ev(stm.EvRead, 3, 3, 11, 2, 0), // read y after W2: inconsistent
		ev(stm.EvAbort, 3, 3, 0, 0, stm.AbortCauseConflict),
	}
	wantRule(t, History(h), RuleOpacity)
}

// The same aborted reader with a consistent snapshot must be accepted:
// aborting is fine, observing an impossible state is not.
func TestAcceptsConsistentAbortedReader(t *testing.T) {
	h := []stm.Event{
		ev(stm.EvBegin, 1, 1, 0, 0, 0),
		ev(stm.EvWrite, 1, 1, 10, 1, 0),
		ev(stm.EvCommit, 1, 1, 0, 1, 0),
		ev(stm.EvBegin, 3, 3, 0, 1, 0),
		ev(stm.EvRead, 3, 3, 10, 1, 0),
		ev(stm.EvRead, 3, 3, 11, 0, 0),
		ev(stm.EvAbort, 3, 3, 0, 0, stm.AbortCauseConflict),
	}
	if r := History(h); !r.OK() {
		t.Fatalf("consistent aborted reader rejected: %s", r)
	}
}

// Known-bad history 3: a deferral-atomicity violation. Owner 7 commits
// a transaction that acquired deferral lock var 5 (at commit version 1)
// for deferred op 1. Before the λ completes and releases the lock,
// owner 9 commits a transaction that read the lock variable at version
// 1 — it observed the deferrable object mid-deferral and committed
// anyway instead of retrying.
func TestRejectsDeferralAtomicityViolation(t *testing.T) {
	h := []stm.Event{
		ev(stm.EvBegin, 1, 7, 0, 0, 0),
		ev(stm.EvWrite, 1, 7, 5, 1, 0), // lock owner-var := 7
		ev(stm.EvLockAcquire, 1, 7, 5, 1, 1),
		ev(stm.EvDeferEnqueue, 1, 7, 0, 1, 1),
		ev(stm.EvDeferLock, 1, 7, 5, 1, 1),
		ev(stm.EvCommit, 1, 7, 0, 1, 0),
		ev(stm.EvDeferStart, 0, 7, 0, 0, 1),
		// the illegal observer:
		ev(stm.EvBegin, 2, 9, 0, 1, 0),
		ev(stm.EvRead, 2, 9, 5, 1, 0), // sees the lock held by 7
		ev(stm.EvCommit, 2, 9, 0, 0, 0),
		// release and completion:
		ev(stm.EvBegin, 3, 7, 0, 1, 0),
		ev(stm.EvRead, 3, 7, 5, 1, 0),
		ev(stm.EvWrite, 3, 7, 5, 2, 0), // lock owner-var := 0
		ev(stm.EvLockRelease, 3, 7, 5, 2, 0),
		ev(stm.EvCommit, 3, 7, 0, 2, 0),
		ev(stm.EvDeferEnd, 0, 7, 0, 0, 1),
	}
	wantRule(t, History(h), RuleDeferral)
}

// The retired group-commit join: the observer of the held lock is itself
// a WAL appender on that log (EvWALAppend with the log's lock var). The
// leader/follower protocol used to elect its durability path by reading
// the lock owner mid-flush and the checker exempted exactly this shape;
// appenders no longer read the lock at all (they only queue their record
// for the lane's flusher), so a committed observer of a held deferral
// lock is a violation, appender or not.
func TestRejectsGroupCommitJoin(t *testing.T) {
	h := []stm.Event{
		ev(stm.EvBegin, 1, 7, 0, 0, 0),
		ev(stm.EvWrite, 1, 7, 5, 1, 0), // lock owner-var := 7
		ev(stm.EvLockAcquire, 1, 7, 5, 1, 1),
		ev(stm.EvDeferEnqueue, 1, 7, 0, 1, 1),
		ev(stm.EvDeferLock, 1, 7, 5, 1, 1),
		ev(stm.EvWALAppend, 1, 7, 5, 1, 1), // the flushing owner appends LSN 1
		ev(stm.EvCommit, 1, 7, 0, 1, 0),
		ev(stm.EvDeferStart, 0, 7, 0, 0, 1),
		// the observer: sees the lock held, and appended to the same log
		ev(stm.EvBegin, 2, 9, 0, 1, 0),
		ev(stm.EvRead, 2, 9, 5, 1, 0),      // sees the lock held by 7
		ev(stm.EvWALAppend, 2, 9, 5, 2, 2), // appends LSN 2
		ev(stm.EvCommit, 2, 9, 0, 2, 0),
		// release and completion:
		ev(stm.EvBegin, 3, 7, 0, 2, 0),
		ev(stm.EvRead, 3, 7, 5, 1, 0),
		ev(stm.EvWrite, 3, 7, 5, 3, 0), // lock owner-var := 0
		ev(stm.EvLockRelease, 3, 7, 5, 3, 0),
		ev(stm.EvCommit, 3, 7, 0, 3, 0),
		ev(stm.EvDeferEnd, 0, 7, 0, 0, 1),
	}
	wantRule(t, History(h), RuleDeferral)
}

// The same schedule without the illegal observer must be accepted in both
// shapes a release takes: the holder's direct publish, which is what a
// deferral's own release is (the lock event sequenced before the direct
// write), and a Listing 2 release transaction reading the held lock.
func TestAcceptsCorrectDeferralSchedule(t *testing.T) {
	releases := map[string][]stm.Event{
		"direct publish": {
			ev(stm.EvLockRelease, 0, 7, 5, 0, 0),
			ev(stm.EvDirectWrite, 0, 0, 5, 2, 0),
		},
		"release transaction": {
			ev(stm.EvBegin, 3, 7, 0, 1, 0),
			ev(stm.EvRead, 3, 7, 5, 1, 0),
			ev(stm.EvWrite, 3, 7, 5, 2, 0),
			ev(stm.EvLockRelease, 3, 7, 5, 2, 0),
			ev(stm.EvCommit, 3, 7, 0, 2, 0),
		},
	}
	for name, release := range releases {
		h := []stm.Event{
			ev(stm.EvBegin, 1, 7, 0, 0, 0),
			ev(stm.EvWrite, 1, 7, 5, 1, 0),
			ev(stm.EvLockAcquire, 1, 7, 5, 1, 1),
			ev(stm.EvDeferEnqueue, 1, 7, 0, 1, 1),
			ev(stm.EvDeferLock, 1, 7, 5, 1, 1),
			ev(stm.EvCommit, 1, 7, 0, 1, 0),
			ev(stm.EvDeferStart, 0, 7, 0, 0, 1),
		}
		h = append(h, release...)
		h = append(h,
			ev(stm.EvDeferEnd, 0, 7, 0, 0, 1),
			// a reader that correctly waited for the release:
			ev(stm.EvBegin, 4, 9, 0, 2, 0),
			ev(stm.EvRead, 4, 9, 5, 2, 0),
			ev(stm.EvCommit, 4, 9, 0, 0, 0),
		)
		if r := History(h); !r.OK() {
			t.Errorf("correct deferral schedule (%s) rejected: %s", name, r)
		}
	}
}

// A λ that starts before its transaction's commit breaks the deferral
// ordering contract.
func TestRejectsDeferRunBeforeCommit(t *testing.T) {
	h := []stm.Event{
		ev(stm.EvBegin, 1, 7, 0, 0, 0),
		ev(stm.EvDeferStart, 0, 7, 0, 0, 1), // before the commit!
		ev(stm.EvWrite, 1, 7, 5, 1, 0),
		ev(stm.EvLockAcquire, 1, 7, 5, 1, 1),
		ev(stm.EvDeferEnqueue, 1, 7, 0, 1, 1),
		ev(stm.EvDeferLock, 1, 7, 5, 1, 1),
		ev(stm.EvCommit, 1, 7, 0, 1, 0),
		ev(stm.EvBegin, 3, 7, 0, 1, 0),
		ev(stm.EvWrite, 3, 7, 5, 2, 0),
		ev(stm.EvLockRelease, 3, 7, 5, 2, 0),
		ev(stm.EvCommit, 3, 7, 0, 2, 0),
		ev(stm.EvDeferEnd, 0, 7, 0, 0, 1),
	}
	wantRule(t, History(h), RuleDeferral)
}

// Known-bad history 4: a two-phase-locking violation. After the unit
// begins releasing its deferral locks, the same owner acquires a fresh
// lock before the unit completes — the acquire phase reopened.
func TestRejectsTwoPhaseLockingViolation(t *testing.T) {
	h := []stm.Event{
		ev(stm.EvBegin, 1, 7, 0, 0, 0),
		ev(stm.EvWrite, 1, 7, 5, 1, 0),
		ev(stm.EvLockAcquire, 1, 7, 5, 1, 1),
		ev(stm.EvDeferEnqueue, 1, 7, 0, 1, 1),
		ev(stm.EvDeferLock, 1, 7, 5, 1, 1),
		ev(stm.EvCommit, 1, 7, 0, 1, 0),
		ev(stm.EvDeferStart, 0, 7, 0, 0, 1),
		// release the deferral lock...
		ev(stm.EvBegin, 2, 7, 0, 1, 0),
		ev(stm.EvWrite, 2, 7, 5, 2, 0),
		ev(stm.EvLockRelease, 2, 7, 5, 2, 0),
		ev(stm.EvCommit, 2, 7, 0, 2, 0),
		// ...then acquire a different lock inside the same unit:
		ev(stm.EvBegin, 3, 7, 0, 2, 0),
		ev(stm.EvWrite, 3, 7, 6, 3, 0),
		ev(stm.EvLockAcquire, 3, 7, 6, 3, 1),
		ev(stm.EvCommit, 3, 7, 0, 3, 0),
		ev(stm.EvDeferEnd, 0, 7, 0, 0, 1),
	}
	wantRule(t, History(h), RuleTwoPhase)
}

// A deferred op recorded as enqueued but never run is a harness bug or
// a runtime bug; either way the history is incomplete and rejected.
func TestRejectsDeferNeverRan(t *testing.T) {
	h := []stm.Event{
		ev(stm.EvBegin, 1, 7, 0, 0, 0),
		ev(stm.EvWrite, 1, 7, 5, 1, 0),
		ev(stm.EvLockAcquire, 1, 7, 5, 1, 1),
		ev(stm.EvDeferEnqueue, 1, 7, 0, 1, 1),
		ev(stm.EvDeferLock, 1, 7, 5, 1, 1),
		ev(stm.EvCommit, 1, 7, 0, 1, 0),
	}
	wantRule(t, History(h), RuleDeferral)
}

func TestReportFormatting(t *testing.T) {
	r := History([]stm.Event{
		ev(stm.EvBegin, 1, 1, 0, 0, 0),
		ev(stm.EvWrite, 1, 1, 10, 1, 0),
		ev(stm.EvCommit, 1, 1, 0, 1, 0),
	})
	if !strings.Contains(r.String(), "all properties hold") {
		t.Fatalf("unexpected report: %s", r)
	}
	bad := History([]stm.Event{
		ev(stm.EvBegin, 1, 1, 0, 0, 0),
		ev(stm.EvRead, 1, 1, 10, 0, 0),
		ev(stm.EvBegin, 2, 2, 0, 0, 0),
		ev(stm.EvRead, 2, 2, 10, 0, 0),
		ev(stm.EvWrite, 1, 1, 10, 1, 0),
		ev(stm.EvCommit, 1, 1, 0, 1, 0),
		ev(stm.EvWrite, 2, 2, 10, 2, 0),
		ev(stm.EvCommit, 2, 2, 0, 2, 0),
	})
	if !strings.Contains(bad.String(), RuleSerializability) {
		t.Fatalf("violation missing from report: %s", bad)
	}
}
