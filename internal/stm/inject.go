package stm

import (
	"runtime"
	"sync/atomic"
)

// Inject configures seeded fault injection, used by the torture harness
// and the history-checker tests to drive the runtime onto adversarial
// schedules that a lucky run would never take: forced conflict aborts,
// forced HTM capacity aborts, artificially long commit write-back,
// stalls inside quiescence, and stalls in the window between a commit
// and its deferred operations (the window the atomic-deferral theorem
// is about).
//
// Decisions are drawn from a splitmix64 stream over Seed and a global
// decision counter, so a given seed reproduces the same decision
// sequence; under concurrency the assignment of decisions to
// transactions still depends on scheduling, so reproduction is
// statistical, not exact (see internal/check/README.md).
type Inject struct {
	// Seed selects the decision stream. The zero seed is valid.
	Seed uint64

	// ConflictPct forces this percentage of non-serial commit attempts
	// that reached write-back to abort as if validation had failed.
	ConflictPct int

	// CapacityPct forces this percentage of tracked HTM accesses to
	// overflow the simulated footprint (ModeHTM only).
	CapacityPct int

	// WriteBackDelayPct stalls this percentage of commits between
	// acquiring the commit locks and publishing, widening the locked
	// window concurrent readers can collide with.
	WriteBackDelayPct int

	// QuiesceStallPct stalls this percentage of quiescence waits,
	// lengthening the privatization wait.
	QuiesceStallPct int

	// PreHookStallPct stalls this percentage of commits between commit
	// completion and running post-commit hooks, widening the window in
	// which deferral locks are held but the λ has not yet run.
	PreHookStallPct int

	// RetryRegisterStallPct stalls this percentage of watcher-based
	// retry waits between watcher registration and the read-set
	// validation that decides whether to park — the window a lost
	// wakeup would have to slip through (see watch.go).
	RetryRegisterStallPct int

	// WakeDelayPct stalls this percentage of writing commits and direct
	// stores between publishing and waking watchers, widening the window
	// in which a parked reader's data is already new but its wakeup is
	// still pending.
	WakeDelayPct int

	// StallSpins is the busy-wait length of one stall, in iterations
	// (with periodic yields). 0 means 4096.
	StallSpins int
}

// injector is the runtime-internal state behind Config.Inject. All
// methods are safe on a nil receiver (injection disabled).
type injector struct {
	cfg Inject
	ctr atomic.Uint64
}

func newInjector(cfg Inject) *injector {
	if cfg.StallSpins <= 0 {
		cfg.StallSpins = 4096
	}
	return &injector{cfg: cfg}
}

// splitmix64 is the standard splitmix64 mixing function.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hit draws the next decision against pct.
func (in *injector) hit(pct int) bool {
	if in == nil || pct <= 0 {
		return false
	}
	n := in.ctr.Add(1)
	return splitmix64(in.cfg.Seed^n)%100 < uint64(pct)
}

// stall busy-waits for the configured stall length if the draw hits.
// It reports whether it stalled.
func (in *injector) stall(pct int) bool {
	if !in.hit(pct) {
		return false
	}
	for i := 0; i < in.cfg.StallSpins; i++ {
		if i%64 == 0 {
			runtime.Gosched()
		}
	}
	return true
}

func (in *injector) hitConflict() bool {
	return in != nil && in.hit(in.cfg.ConflictPct)
}

func (in *injector) hitCapacity() bool {
	return in != nil && in.hit(in.cfg.CapacityPct)
}

func (in *injector) stallWriteBack() bool {
	return in != nil && in.stall(in.cfg.WriteBackDelayPct)
}

func (in *injector) stallQuiesce() bool {
	return in != nil && in.stall(in.cfg.QuiesceStallPct)
}

func (in *injector) stallPreHook() bool {
	return in != nil && in.stall(in.cfg.PreHookStallPct)
}

func (in *injector) stallRetryRegister() bool {
	return in != nil && in.stall(in.cfg.RetryRegisterStallPct)
}

func (in *injector) stallWake() bool {
	return in != nil && in.stall(in.cfg.WakeDelayPct)
}
