package kv

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deferstm/internal/simio"
	"deferstm/internal/stm"
	"deferstm/internal/wal"
)

// The crash-recovery property: crash the store at an injected point
// (mid-write torn record, just before an fsync, just after one),
// reconstruct the disk from the crash image with a seeded torn-tail
// model, recover — and the recovered store must be exactly the store
// produced by replaying a PREFIX of the committed updates (LSN order =
// serialization order), a prefix that includes every update whose
// durability was acknowledged before the crash instant.
//
// The workload is sequential and deterministic: the only nondeterminism
// is the seeded reconstruction, so every failure reproduces exactly.

type committed struct {
	lsn uint64
	ops []Op
}

func applyPrefix(log []committed, upTo uint64) map[string]string {
	state := map[string]string{}
	for _, c := range log {
		if c.lsn > upTo {
			break
		}
		for _, op := range c.ops {
			if op.Put {
				state[op.Key] = op.Value
			} else {
				delete(state, op.Key)
			}
		}
	}
	return state
}

func crashScenario(t *testing.T, segBytes int, point simio.CrashPoint, n uint64, seed uint64) (fired bool, torn int) {
	t.Helper()
	opts := Options{WAL: wal.Options{SegmentBytes: segBytes}}
	fs := simio.NewFS(simio.Latency{})
	s, _, err := Open(stm.NewDefault(), wal.NewSimBackend(fs), opts)
	if err != nil {
		t.Fatal(err)
	}

	// Watermark at the crash instant: everything at or below it was
	// acknowledged durable before the crash, so it must survive recovery.
	var acked atomic.Uint64
	fs.SetCrashPlan(simio.CrashPlan{Point: point, N: n, OnCrash: func() {
		acked.Store(s.Logs()[0].DurableWatermark())
	}})

	const updates = 40
	var history []committed
	for i := 0; i < updates; i++ {
		var ops []Op
		lsn, err := s.Update(func(tx *stm.Tx, b *Batch) error {
			ops = nil
			k := fmt.Sprintf("k%d", i%7)
			if i%5 == 4 {
				b.Delete(k)
				ops = append(ops, Op{Key: k})
			} else {
				v := fmt.Sprintf("v%d", i)
				b.Put(k, v)
				ops = append(ops, Op{Put: true, Key: k, Value: v})
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		history = append(history, committed{lsn: lsn, ops: ops})
		s.WaitDurable(lsn)
		if i == 24 {
			if _, err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	img := fs.CrashImage()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if img == nil {
		return false, 0 // plan never fired (N beyond the run's I/O count)
	}

	// Reconstruct the disk as a crash at that instant would have left it
	// and recover.
	fs2 := simio.FSFromImage(img, simio.Latency{}, seed)
	s2, info, err := Open(stm.NewDefault(), wal.NewSimBackend(fs2), opts)
	if err != nil {
		t.Fatalf("%v N=%d seed=%d: recovery failed: %v", point, n, seed, err)
	}
	if info.LastLSN > updates {
		t.Fatalf("%v N=%d seed=%d: recovered LSN %d beyond %d commits", point, n, seed, info.LastLSN, updates)
	}
	if info.LastLSN < acked.Load() {
		t.Fatalf("%v N=%d seed=%d: lost acked-durable updates: recovered to %d, acked %d",
			point, n, seed, info.LastLSN, acked.Load())
	}
	want := applyPrefix(history, info.LastLSN)
	got := map[string]string{}
	if err := s2.View(func(tx *stm.Tx) error {
		clear(got)
		s2.Range(tx, func(k, v string) bool {
			got[k] = v
			return true
		})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%v N=%d seed=%d: recovered %v, want prefix-%d state %v", point, n, seed, got, info.LastLSN, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("%v N=%d seed=%d: key %q = %q, want %q (prefix %d)", point, n, seed, k, got[k], v, info.LastLSN)
		}
	}

	// The recovered store must be writable: the next LSN continues the
	// prefix.
	lsn, err := s2.Update(func(tx *stm.Tx, b *Batch) error {
		b.Put("post-crash", "ok")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if lsn != info.LastLSN+1 {
		t.Fatalf("%v N=%d seed=%d: post-recovery LSN %d, want %d", point, n, seed, lsn, info.LastLSN+1)
	}
	s2.WaitDurable(lsn)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	return true, info.TornBytes
}

// crashPoints are the instants a crash plan can capture.
var crashPoints = []simio.CrashPoint{simio.CrashMidWrite, simio.CrashPreFsync, simio.CrashPostFsync}

// A segment of rotateFirstSeg bytes holds one record of the single-lane
// crash workload (41–48 bytes each: a 16-byte frame, the 18-byte lane
// header and 7–14 bytes of ops), so every flush after a segment's first
// starts the next segment before it writes — the path a segment sized
// for many records takes once every few flushes.
const rotateFirstSeg = 64

// everyCrashPoint runs scenario at the 1st, 2nd, … write or fsync of the
// run until the plan no longer fires, and returns how many fired.
func everyCrashPoint(scenario func(n uint64) bool) int {
	n := uint64(1)
	for scenario(n) {
		n++
	}
	return int(n - 1)
}

func TestCrashRecoveryPrefixConsistent(t *testing.T) {
	fired, tornRuns := 0, 0
	for _, point := range crashPoints {
		for _, n := range []uint64{1, 3, 7, 12, 26} {
			for seed := uint64(1); seed <= 3; seed++ {
				ok, torn := crashScenario(t, 256, point, n, seed)
				if ok {
					fired++
					if torn > 0 {
						tornRuns++
					}
				}
			}
		}
	}
	// Rotate-first segments, at every crash point.
	for _, point := range crashPoints {
		for seed := uint64(1); seed <= 2; seed++ {
			fired += everyCrashPoint(func(n uint64) bool {
				ok, torn := crashScenario(t, rotateFirstSeg, point, n, seed)
				if torn > 0 {
					tornRuns++
				}
				return ok
			})
		}
	}
	if fired < 200 {
		t.Fatalf("only %d crash scenarios actually fired", fired)
	}
	if tornRuns == 0 {
		t.Fatal("no scenario recovered from a torn tail — the test is vacuous")
	}
	t.Logf("%d crash scenarios fired, %d with torn tails", fired, tornRuns)
}

// holdBackend holds the first fsync of any file it creates under prefix
// until release is closed, and closes entered when that fsync arrives;
// every later fsync passes straight through.
type holdBackend struct {
	wal.Backend
	prefix           string
	once             *sync.Once
	entered, release chan struct{}
}

func (b holdBackend) Create(name string) (wal.File, error) {
	f, err := b.Backend.Create(name)
	if err != nil || !strings.HasPrefix(name, b.prefix) {
		return f, err
	}
	return heldFile{File: f, b: b}, nil
}

type heldFile struct {
	wal.File
	b holdBackend
}

func (f heldFile) Fsync() error {
	f.b.once.Do(func() { close(f.b.entered) })
	<-f.b.release
	return f.File.Fsync()
}

// atFrontier reports whether some goroutine is inside l's frontier wait,
// read from the runtime's goroutine dump, which prints the receiver of
// each frame: wal.(*Log).awaitFrontier(0xc000…).
func atFrontier(l *wal.Log) bool {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	call := fmt.Sprintf("wal.(*Log).awaitFrontier(%p", l)
	for rest := string(buf); ; {
		i := strings.Index(rest, call)
		if i < 0 {
			return false
		}
		rest = rest[i+len(call):]
		if rest != "" && strings.ContainsRune(")?,", rune(rest[0])) {
			return true
		}
	}
}

// TestDependentCommitSurvivesCrash: a cross-shard commit X on lanes 0
// and 1, then a single-lane commit Y on lane 0 that reads X's write.
// Lane 1's fsync of X is held, and the crash is captured just before it
// takes effect. Lane 0 alone holds X's lane-0 record and Y; recovery
// cuts lane 0 at X (its lane-1 sibling is gone, or torn, on most image
// seeds) and so drops Y too. Y must therefore not be acked until lane 1
// has fsynced X — the frontier gate — and an acked Y must be recovered.
// A lane flusher that published its watermark without the gate acks Y
// here and loses it.
func TestDependentCommitSurvivesCrash(t *testing.T) {
	fs := simio.NewFS(simio.Latency{})
	hold := holdBackend{Backend: wal.NewSimBackend(fs), prefix: wal.LanePrefix(1),
		once: new(sync.Once), entered: make(chan struct{}), release: make(chan struct{})}
	opts := Options{Mode: ModeGroup, Shards: 2}
	rt := stm.NewDefault()
	s, _, err := Open(rt, hold, opts)
	if err != nil {
		t.Fatal(err)
	}
	k0, k1, y := keyFor(s, 0, "x"), keyFor(s, 1, "x"), keyFor(s, 0, "y")
	if _, err := s.Update(func(tx *stm.Tx, b *Batch) error {
		b.Put(k0, "x")
		b.Put(k1, "x")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	tokY, err := s.Update(func(tx *stm.Tx, b *Batch) error {
		if v, _ := b.Get(k0); v != "x" {
			return fmt.Errorf("Y read %q, not X's write", v)
		}
		b.Put(y, "y")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if TokenLane(tokY) != 0 {
		t.Fatalf("Y's token names lane %d, want 0", TokenLane(tokY))
	}
	select {
	case <-hold.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("lane 1 never fsynced X")
	}
	// Lane 0 fsyncs X's record, and then either waits at the frontier
	// gate or, were it not gated, goes on to ack Y.
	lane0 := s.Logs()[0]
	for deadline := time.Now().Add(5 * time.Second); lane0.DurableWatermark() < TokenLSN(tokY) && !atFrontier(lane0); {
		if time.Now().After(deadline) {
			t.Fatal("lane 0 neither acked Y nor waited for lane 1")
		}
		time.Sleep(100 * time.Microsecond)
	}
	var ackedAtCrash atomic.Uint64
	fs.SetCrashPlan(simio.CrashPlan{Point: simio.CrashPreFsync, N: 1, OnCrash: func() {
		ackedAtCrash.Store(lane0.DurableWatermark())
	}})
	close(hold.release)
	for _, l := range s.Logs() {
		l.WaitDurable(l.AssignedWatermark())
	}
	img := fs.CrashImage()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if img == nil {
		t.Fatal("the crash plan never fired")
	}
	acked := ackedAtCrash.Load() >= TokenLSN(tokY)
	if acked {
		t.Errorf("Y was acked (lane 0 watermark %d) before lane 1 fsynced X", ackedAtCrash.Load())
	}
	cut := 0
	for seed := uint64(1); seed <= 8; seed++ {
		s2, info, err := Open(stm.NewDefault(), wal.NewSimBackend(simio.FSFromImage(img, simio.Latency{}, seed)), opts)
		if err != nil {
			t.Fatalf("seed %d: recovery: %v", seed, err)
		}
		got := dump(t, s2)
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
		if info.SkippedRecords > 0 {
			cut++
		}
		if _, ok := got[k0]; ok != (got[k1] != "") {
			t.Fatalf("seed %d: X recovered on one lane only: %v", seed, got)
		}
		if got[y] != "" && got[k0] == "" {
			t.Fatalf("seed %d: Y recovered without the write it read: %v", seed, got)
		}
		if acked && got[y] == "" {
			t.Fatalf("seed %d: dependent commit was acked, then lost", seed)
		}
	}
	if cut == 0 {
		t.Fatal("no image seed lost X's lane-1 record: the test is vacuous")
	}
}
