// Package check verifies recorded STM execution histories offline. It
// consumes the event stream produced by stm.Config.Recorder (see
// internal/history) and mechanically checks the four properties the
// runtime — and the atomic-deferral paper built on it — promises:
//
//  1. Final-state serializability: committed transactions, ordered by
//     the version clock, form a serial history. Every read of a
//     committed writer must be of the latest version older than its
//     commit version; read-only transactions must have read one
//     consistent snapshot. Each (var, version) pair has at most one
//     writer; a commit version may be shared by several writers (TL2's
//     GV4 "pass on failure" clock hands the CAS loser the winner's
//     timestamp) only if their write sets are pairwise disjoint and
//     the read-before constraints among them admit a serial order.
//  2. Opacity for aborted transactions: even an attempt that aborts
//     must never have observed an inconsistent snapshot (TL2's
//     incremental validation guarantees this; the checker verifies it).
//  3. Deferral atomicity (the paper's core theorem): no transaction of
//     another owner observes a deferrable object's lock between the
//     owning transaction's commit and the deferred λ's completion, and
//     each λ runs after its commit and before its locks are released.
//  4. Two-phase locking of TxLocks for deferral units: once a unit
//     (deferring transaction plus its λs) has begun releasing its
//     deferral locks, its owner acquires no further lock before the
//     unit completes.
//
// Cross-transaction facts are ordered by version-clock timestamps
// (Event.Ver), never by recorder arrival order, because concurrent
// transactions interleave in the log nondeterministically. Sequence
// numbers are only used within a single owner's emission order, which
// is goroutine-monotonic.
package check

import (
	"fmt"
	"sort"
	"strings"

	"deferstm/internal/stm"
)

// Rule names used in Violations.
const (
	RuleSerializability = "serializability"
	RuleOpacity         = "opacity"
	RuleDeferral        = "deferral-atomicity"
	RuleTwoPhase        = "two-phase-locking"
	// RuleDurability is declared in durability.go; RuleRetryWake in
	// retry.go.
)

// Violation is one property failure found in a history.
type Violation struct {
	Rule string
	TxID uint64
	Seq  uint64 // sequence of the offending event when known
	Msg  string
}

func (v Violation) String() string {
	return fmt.Sprintf("[%s] tx=%d seq=%d: %s", v.Rule, v.TxID, v.Seq, v.Msg)
}

// Report is the checker's result over one history.
type Report struct {
	Violations []Violation
	Commits    int
	Aborts     int
	Reads      int
	Writes     int
	DeferOps   int
	WALAppends int
	WALAcks    int
	WatchRegs  int
	Wakes      int
}

// OK reports whether no property was violated.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "checked %d commits, %d aborts, %d reads, %d writes, %d deferred ops",
		r.Commits, r.Aborts, r.Reads, r.Writes, r.DeferOps)
	if r.WALAppends > 0 || r.WALAcks > 0 {
		fmt.Fprintf(&b, ", %d WAL appends, %d durability acks", r.WALAppends, r.WALAcks)
	}
	if r.WatchRegs > 0 || r.Wakes > 0 {
		fmt.Fprintf(&b, ", %d watch registrations, %d wakes", r.WatchRegs, r.Wakes)
	}
	b.WriteString(": ")
	if r.OK() {
		b.WriteString("all properties hold")
		return b.String()
	}
	fmt.Fprintf(&b, "%d violations", len(r.Violations))
	for i, v := range r.Violations {
		if i == 20 {
			fmt.Fprintf(&b, "\n  ... %d more", len(r.Violations)-i)
			break
		}
		b.WriteString("\n  ")
		b.WriteString(v.String())
	}
	return b.String()
}

// History checks all five properties (the four above plus the WAL
// durability axioms of durability.go) over the given events. Events are
// interpreted in slice order; Seq fields are renumbered from 1 so
// hand-written histories need not fill them in.
func History(events []stm.Event) *Report {
	p := parse(events)
	r := &Report{
		Commits:  p.commits,
		Aborts:   p.aborts,
		Reads:    p.reads,
		Writes:   p.writeCount,
		DeferOps: len(p.unitOrder),
	}
	for _, apps := range p.walAppends {
		r.WALAppends += len(apps)
	}
	for _, acks := range p.walDurables {
		r.WALAcks += len(acks)
	}
	for _, regs := range p.watchRegs {
		r.WatchRegs += len(regs)
	}
	for _, wakes := range p.wakes {
		r.Wakes += len(wakes)
	}
	r.Violations = append(r.Violations, checkSerializability(p)...)
	r.Violations = append(r.Violations, checkOpacity(p)...)
	r.Violations = append(r.Violations, checkDeferral(p)...)
	r.Violations = append(r.Violations, checkTwoPhase(p)...)
	r.Violations = append(r.Violations, checkDurability(p)...)
	r.Violations = append(r.Violations, checkRetryWake(p)...)
	r.Violations = append(r.Violations, checkSnapshot(p)...)
	return r
}

type readRec struct {
	varID uint64
	ver   uint64
	seq   uint64
}

type txInfo struct {
	id         uint64
	owner      stm.OwnerID
	reads      []readRec
	nWrites    int
	committed  bool
	commitVer  uint64
	commitSeq  uint64
	serial     bool
	aborted    bool
	abortCause uint64
	abortSeq   uint64
	snapshot   bool   // snapshot-mode attempt (EvBegin/EvCommit Aux)
	beginVer   uint64 // EvBegin.Ver: the pin for snapshot attempts
	beginSeq   uint64
}

type deferUnit struct {
	op       uint64
	txID     uint64
	owner    stm.OwnerID
	lockVars []uint64
	startSeq uint64
	endSeq   uint64
}

type varVer struct{ varID, ver uint64 }

// verWriter is one writer inside a commit-version group: the writing
// transaction (or directWriter) and the vars it wrote at that version.
type verWriter struct {
	id   uint64 // txID, or directWriter
	vars []uint64
}

type parsed struct {
	txs        map[uint64]*txInfo
	order      []*txInfo               // first-seen order
	writes     map[uint64][]uint64     // varID -> ascending commit versions
	writerOf   map[varVer]uint64       // (var, ver) -> writer (^0 = direct write)
	verWriters map[uint64][]*verWriter // commit version -> its writer group
	units      map[uint64]*deferUnit
	unitOrder  []*deferUnit
	lockEvs    []stm.Event // acquire/release events, in sequence order

	walAppends  map[uint64][]walAppend // log lock var -> committed appends
	walDurables map[uint64][]walDurable

	watchRegs map[uint64][]watchReg // retrying txID -> its registrations
	wakes     map[uint64][]wakeRec  // retrying txID -> its wake events

	truncs []truncRec // depth-bound version-chain truncations (snapshot.go)

	commits, aborts, reads, writeCount int
}

const directWriter = ^uint64(0)

func parse(events []stm.Event) *parsed {
	p := &parsed{
		txs:         make(map[uint64]*txInfo),
		writes:      make(map[uint64][]uint64),
		writerOf:    make(map[varVer]uint64),
		verWriters:  make(map[uint64][]*verWriter),
		units:       make(map[uint64]*deferUnit),
		walAppends:  make(map[uint64][]walAppend),
		walDurables: make(map[uint64][]walDurable),
		watchRegs:   make(map[uint64][]watchReg),
		wakes:       make(map[uint64][]wakeRec),
	}
	tx := func(id uint64, owner stm.OwnerID) *txInfo {
		t, ok := p.txs[id]
		if !ok {
			t = &txInfo{id: id, owner: owner}
			p.txs[id] = t
			p.order = append(p.order, t)
		}
		if t.owner == 0 {
			t.owner = owner
		}
		return t
	}
	unit := func(op uint64) *deferUnit {
		u, ok := p.units[op]
		if !ok {
			u = &deferUnit{op: op}
			p.units[op] = u
			p.unitOrder = append(p.unitOrder, u)
		}
		return u
	}
	noteWrite := func(writer uint64, varID, ver, _ uint64) {
		p.writes[varID] = append(p.writes[varID], ver)
		p.writeCount++
		if _, ok := p.writerOf[varVer{varID, ver}]; !ok {
			p.writerOf[varVer{varID, ver}] = writer
		}
		g := p.verWriters[ver]
		for _, w := range g {
			if w.id == writer {
				w.vars = append(w.vars, varID)
				return
			}
		}
		p.verWriters[ver] = append(g, &verWriter{id: writer, vars: []uint64{varID}})
	}

	for i, ev := range events {
		seq := uint64(i + 1)
		switch ev.Kind {
		case stm.EvBegin:
			t := tx(ev.TxID, ev.Owner)
			t.beginVer = ev.Ver
			t.beginSeq = seq
			if ev.Aux == stm.AuxSnapshot {
				t.snapshot = true
			}
		case stm.EvRead:
			t := tx(ev.TxID, ev.Owner)
			t.reads = append(t.reads, readRec{varID: ev.Var, ver: ev.Ver, seq: seq})
			p.reads++
		case stm.EvWrite:
			t := tx(ev.TxID, ev.Owner)
			t.nWrites++
			noteWrite(ev.TxID, ev.Var, ev.Ver, seq)
		case stm.EvDirectWrite:
			noteWrite(directWriter, ev.Var, ev.Ver, seq)
		case stm.EvCommit:
			t := tx(ev.TxID, ev.Owner)
			t.committed = true
			t.commitVer = ev.Ver
			t.commitSeq = seq
			t.serial = ev.Aux == stm.AuxSerial
			if ev.Aux == stm.AuxSnapshot {
				t.snapshot = true
			}
			p.commits++
		case stm.EvAbort:
			t := tx(ev.TxID, ev.Owner)
			t.aborted = true
			t.abortCause = ev.Aux
			t.abortSeq = seq
			p.aborts++
		case stm.EvLockAcquire, stm.EvLockRelease:
			ev.Seq = seq
			p.lockEvs = append(p.lockEvs, ev)
		case stm.EvDeferEnqueue:
			u := unit(ev.Aux)
			u.txID = ev.TxID
			u.owner = ev.Owner
		case stm.EvDeferLock:
			u := unit(ev.Aux)
			u.lockVars = append(u.lockVars, ev.Var)
		case stm.EvDeferStart:
			unit(ev.Aux).startSeq = seq
		case stm.EvDeferEnd:
			unit(ev.Aux).endSeq = seq
		case stm.EvWALAppend:
			// Flushed only on commit, so every append seen here took
			// effect; Ver is the appending transaction's commit version.
			p.walAppends[ev.Var] = append(p.walAppends[ev.Var],
				walAppend{lsn: ev.Aux, gsn: ev.Aux2, ver: ev.Ver, seq: seq, txID: ev.TxID, owner: ev.Owner})
		case stm.EvWALDurable:
			p.walDurables[ev.Var] = append(p.walDurables[ev.Var],
				walDurable{watermark: ev.Aux, seq: seq, owner: ev.Owner})
		case stm.EvWatchRegister:
			p.watchRegs[ev.TxID] = append(p.watchRegs[ev.TxID],
				watchReg{varID: ev.Var, ver: ev.Ver, seq: seq})
		case stm.EvWake:
			p.wakes[ev.TxID] = append(p.wakes[ev.TxID],
				wakeRec{ver: ev.Ver, cause: ev.Aux, seq: seq})
		case stm.EvSnapTruncate:
			p.truncs = append(p.truncs,
				truncRec{varID: ev.Var, horizon: ev.Ver, dropped: ev.Aux, seq: seq})
		}
	}
	for _, vs := range p.writes {
		sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	}
	return p
}

// writeIn reports whether some recorded write to varID has a version in
// (lo, hi) — exclusive — or (lo, hi] when inclusive is set.
func (p *parsed) writeIn(varID, lo, hi uint64, inclusive bool) (uint64, bool) {
	vs := p.writes[varID]
	i := sort.Search(len(vs), func(i int) bool { return vs[i] > lo })
	if i == len(vs) {
		return 0, false
	}
	if vs[i] < hi || (inclusive && vs[i] == hi) {
		return vs[i], true
	}
	return 0, false
}

// maxReadVer returns the newest version in a read set.
func maxReadVer(reads []readRec) uint64 {
	var t uint64
	for _, r := range reads {
		if r.ver > t {
			t = r.ver
		}
	}
	return t
}

// snapshotViolations verifies that a read set could have been taken as
// one atomic snapshot: there must exist a clock instant t at which every
// read value was still current. Such a t exists iff no read has an
// intervening write between its version and the newest read version.
//
// A write at exactly the newest read version needs writer identity:
// with GV4 timestamp sharing several disjoint writers may commit at
// `top`, and a co-timestamped writer whose commit this transaction
// never observed can simply be serialized after it. Only a write at
// `top` by a writer the transaction DID observe at `top` (it read one
// of that writer's values) proves the snapshot torn.
func (p *parsed) snapshotViolations(t *txInfo, rule, what string) []Violation {
	var out []Violation
	top := maxReadVer(t.reads)
	var obs map[uint64]bool // writers observed at version top
	for _, r := range t.reads {
		if r.ver != top || top == 0 {
			continue
		}
		if w, ok := p.writerOf[varVer{r.varID, top}]; ok {
			if obs == nil {
				obs = make(map[uint64]bool, 4)
			}
			obs[w] = true
		}
	}
	for _, r := range t.reads {
		w, ok := p.writeIn(r.varID, r.ver, top, true)
		if !ok {
			continue
		}
		if w == top {
			u, known := p.writerOf[varVer{r.varID, top}]
			if !known || !obs[u] {
				continue
			}
		}
		out = append(out, Violation{
			Rule: rule, TxID: t.id, Seq: r.seq,
			Msg: fmt.Sprintf("%s: read var %d at version %d alongside a read at version %d, but var %d was overwritten at version %d — no consistent snapshot exists",
				what, r.varID, r.ver, top, r.varID, w),
		})
	}
	return out
}

// checkVersionGroups validates commit-timestamp sharing (the TL2 GV4
// "pass on failure" clock): a version may carry several writers only if
// (a) no var was written twice at that version — write sets pairwise
// disjoint — and (b) the read-before constraints among the writers
// admit a serial order. If T read one of U's written vars at an older
// version, T must serialize before U; if T read it at exactly the
// shared version, U must serialize before T; a cycle means no serial
// order of the co-timestamped writers exists.
func checkVersionGroups(p *parsed) []Violation {
	var out []Violation
	for ver, group := range p.verWriters {
		if len(group) < 2 {
			continue
		}
		seen := make(map[uint64]uint64, 8) // varID -> writer
		for _, w := range group {
			for _, v := range w.vars {
				if prev, ok := seen[v]; ok {
					out = append(out, Violation{
						Rule: RuleSerializability, TxID: w.id,
						Msg: fmt.Sprintf("commit version %d: var %d written by tx %d and tx %d — writers sharing a timestamp must have disjoint write sets", ver, v, prev, w.id),
					})
					continue
				}
				seen[v] = w.id
			}
		}
		member := make(map[uint64]bool, len(group))
		for _, w := range group {
			member[w.id] = true
		}
		edges := make(map[uint64][]uint64) // id -> writers it must precede
		for _, w := range group {
			if w.id == directWriter {
				continue // direct writes have no reads
			}
			t := p.txs[w.id]
			if t == nil {
				continue
			}
			for _, r := range t.reads {
				u, ok := p.writerOf[varVer{r.varID, ver}]
				if !ok || u == w.id || !member[u] {
					continue
				}
				if r.ver < ver {
					edges[w.id] = append(edges[w.id], u) // w read u's var old: w before u
				} else if r.ver == ver {
					edges[u] = append(edges[u], w.id) // w observed u's write: u before w
				}
			}
		}
		if cyc := findCycle(edges); cyc != 0 {
			out = append(out, Violation{
				Rule: RuleSerializability, TxID: cyc,
				Msg: fmt.Sprintf("commit version %d: read-before constraints among its %d co-timestamped writers form a cycle (through tx %d) — no serial order exists", ver, len(group), cyc),
			})
		}
	}
	return out
}

// findCycle returns a node on some cycle of the directed graph, or 0.
func findCycle(edges map[uint64][]uint64) uint64 {
	const (
		white = iota
		grey
		black
	)
	color := make(map[uint64]int, len(edges))
	var visit func(n uint64) uint64
	visit = func(n uint64) uint64 {
		color[n] = grey
		for _, m := range edges[n] {
			switch color[m] {
			case grey:
				return m
			case white:
				if c := visit(m); c != 0 {
					return c
				}
			}
		}
		color[n] = black
		return 0
	}
	for n := range edges {
		if color[n] == white {
			if c := visit(n); c != 0 {
				return c
			}
		}
	}
	return 0
}

func checkSerializability(p *parsed) []Violation {
	out := checkVersionGroups(p)
	for _, t := range p.order {
		if !t.committed || t.serial {
			// Serial transactions run alone with direct reads (none
			// recorded); their writes participate via writerOf/writes.
			continue
		}
		if t.nWrites > 0 {
			// Writer serialized at its commit version: every read must
			// still be the latest committed version at that point.
			for _, r := range t.reads {
				if w, ok := p.writeIn(r.varID, r.ver, t.commitVer, false); ok {
					out = append(out, Violation{
						Rule: RuleSerializability, TxID: t.id, Seq: r.seq,
						Msg: fmt.Sprintf("committed at version %d but read var %d at version %d, which version %d had already overwritten — commit order is not serializable",
							t.commitVer, r.varID, r.ver, w),
					})
				}
			}
		} else {
			out = append(out, p.snapshotViolations(t, RuleSerializability, "read-only commit")...)
		}
	}
	return out
}

func checkOpacity(p *parsed) []Violation {
	var out []Violation
	for _, t := range p.order {
		if !t.aborted || len(t.reads) == 0 {
			continue
		}
		out = append(out, p.snapshotViolations(t, RuleOpacity, "aborted attempt")...)
	}
	return out
}

func checkDeferral(p *parsed) []Violation {
	var out []Violation
	// Index deferral-lock acquisitions by (lock var, acquire version):
	// a read of that exact pair observed the lock mid-deferral (held,
	// value = the deferring owner).
	acq := make(map[varVer]*deferUnit)
	for _, u := range p.unitOrder {
		t := p.txs[u.txID]
		if t == nil || !t.committed {
			out = append(out, Violation{
				Rule: RuleDeferral, TxID: u.txID,
				Msg: fmt.Sprintf("deferred op %d enqueued by a transaction with no recorded commit", u.op),
			})
			continue
		}
		if u.startSeq == 0 {
			out = append(out, Violation{
				Rule: RuleDeferral, TxID: u.txID,
				Msg: fmt.Sprintf("deferred op %d never ran after its transaction committed", u.op),
			})
		} else {
			if u.startSeq < t.commitSeq {
				out = append(out, Violation{
					Rule: RuleDeferral, TxID: u.txID, Seq: u.startSeq,
					Msg: fmt.Sprintf("deferred op %d started before its transaction committed", u.op),
				})
			}
			if u.endSeq != 0 && u.endSeq < u.startSeq {
				out = append(out, Violation{
					Rule: RuleDeferral, TxID: u.txID, Seq: u.endSeq,
					Msg: fmt.Sprintf("deferred op %d ended before it started", u.op),
				})
			}
		}
		for _, v := range u.lockVars {
			acq[varVer{v, t.commitVer}] = u
		}
	}
	if len(acq) == 0 {
		return out
	}
	for _, t := range p.order {
		if !t.committed {
			continue // aborted observers retried correctly
		}
		for _, r := range t.reads {
			u, ok := acq[varVer{r.varID, r.ver}]
			if !ok || t.id == u.txID || t.owner == u.owner {
				continue
			}
			out = append(out, Violation{
				Rule: RuleDeferral, TxID: t.id, Seq: r.seq,
				Msg: fmt.Sprintf("owner %d committed after observing deferral lock (var %d) held by owner %d between its commit (version %d) and λ %d's completion — deferral atomicity violated",
					t.owner, r.varID, u.owner, r.ver, u.op),
			})
		}
	}
	return out
}

func checkTwoPhase(p *parsed) []Violation {
	var out []Violation
	// Group units by deferring transaction: the 2PL entity is the
	// transaction plus all of its deferred operations.
	type span struct {
		txID     uint64
		owner    stm.OwnerID
		startSeq uint64 // commit of the deferring transaction
		endSeq   uint64 // last λ completion
		lockVars map[uint64]bool
	}
	spans := make(map[uint64]*span)
	for _, u := range p.unitOrder {
		t := p.txs[u.txID]
		if t == nil || !t.committed || u.endSeq == 0 {
			continue
		}
		s, ok := spans[u.txID]
		if !ok {
			s = &span{txID: u.txID, owner: u.owner, startSeq: t.commitSeq, lockVars: make(map[uint64]bool)}
			spans[u.txID] = s
		}
		if u.endSeq > s.endSeq {
			s.endSeq = u.endSeq
		}
		for _, v := range u.lockVars {
			s.lockVars[v] = true
		}
	}
	for _, s := range spans {
		// First release of one of the unit's own deferral locks marks
		// the start of the shrink phase; any acquisition by the same
		// owner after that point breaks two-phase locking.
		firstRel := uint64(0)
		for _, ev := range p.lockEvs {
			if ev.Owner != s.owner || ev.Seq < s.startSeq || ev.Seq > s.endSeq {
				continue
			}
			if ev.Kind == stm.EvLockRelease && s.lockVars[ev.Var] {
				if firstRel == 0 || ev.Seq < firstRel {
					firstRel = ev.Seq
				}
			}
		}
		if firstRel == 0 {
			continue
		}
		for _, ev := range p.lockEvs {
			if ev.Kind == stm.EvLockAcquire && ev.Owner == s.owner &&
				ev.Seq > firstRel && ev.Seq <= s.endSeq {
				out = append(out, Violation{
					Rule: RuleTwoPhase, TxID: s.txID, Seq: ev.Seq,
					Msg: fmt.Sprintf("owner %d acquired lock var %d after beginning to release deferral locks (first release at seq %d) — acquire phase reopened before the unit completed",
						s.owner, ev.Var, firstRel),
				})
			}
		}
	}
	return out
}
