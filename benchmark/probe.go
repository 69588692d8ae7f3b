package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The host probe is the benchmark's reference clock. Every run executes
// this fixed piece of work — on both load threads at once, before,
// between and after the parts of the measured window — and the run's host
// factor is the median probe time over the probe's nominal time. It
// imports nothing from the repository and allocates nothing on the Go
// heap (its memory is mapped directly), so no change to the code under
// test, to its heap or to the collector's pacing can move it: only the
// host can.
//
// What it does is what the stack under test does to a processor, in
// miniature: dependent loads scattered over a working set far larger than
// the caches and the TLB reach (map and pointer walks over a store),
// freshly written 64-byte records streaming through memory (allocation),
// and a cache line both threads keep writing (the version clock). Of the
// footprints tried (4, 16, 64 MiB) the largest followed the CPU-bound
// workloads best and was itself the steadiest; see NOISE.md.
const (
	probeWords     = 16 << 20 // uint32 indices: a 64 MiB walk
	probeRingBytes = 16 << 20 // per thread
	probeSteps     = 3 << 17  // per thread and probe, in the benchmark
	// probeStepNominal is one step's time on the reference host: the
	// build host of this repository in the quieter half of its hours.
	probeStepNominal = 237 * time.Nanosecond
)

type hostProbe struct {
	steps  int // per thread and probe
	walk   []uint32
	ring   [loadThreads][]byte
	mapped [][]byte
	shared atomic.Uint64
	sink   atomic.Uint64
}

func newHostProbe(steps int) (*hostProbe, error) {
	p := &hostProbe{steps: steps}
	mmap := func(n int) ([]byte, error) {
		b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err == nil {
			p.mapped = append(p.mapped, b)
		}
		return b, err
	}
	raw, err := mmap(probeWords * 4)
	if err != nil {
		return nil, err
	}
	p.walk = unsafe.Slice((*uint32)(unsafe.Pointer(&raw[0])), probeWords)
	// walk[i] is the index visited after i: a full-period linear
	// congruential step, so the walk is one cycle through every word in
	// an order no prefetcher follows.
	for i := range p.walk {
		p.walk[i] = (uint32(i)*1664525 + 1013904223) & (probeWords - 1)
	}
	for i := range p.ring {
		if p.ring[i], err = mmap(probeRingBytes); err != nil {
			p.close()
			return nil, err
		}
		for j := 0; j < len(p.ring[i]); j += 4096 {
			p.ring[i][j] = 1 // fault every page in now, not inside a timed probe
		}
	}
	return p, nil
}

func (p *hostProbe) close() {
	for _, b := range p.mapped {
		_ = syscall.Munmap(b) // process-lifetime mappings; nothing to do about a failure
	}
	p.mapped = nil
}

// mappedMB is the probe's share of the process's resident set.
func (p *hostProbe) mappedMB() float64 {
	n := 0
	for _, b := range p.mapped {
		n += len(b)
	}
	return float64(n) / (1 << 20)
}

// nominal is how long one probe takes on the reference host.
func (p *hostProbe) nominal() time.Duration { return time.Duration(p.steps) * probeStepNominal }

// probeTime is one probe: the wall time and the CPU time a thread needed
// for the fixed work, each the mean over the load threads. They differ
// when the host takes a CPU away while the probe runs: the wall time sees
// that, and so do the workload's rates and latencies; the CPU time does
// not, and neither does the workload's CPU per operation.
type probeTime struct{ wall, cpu time.Duration }

// run executes the fixed work on every load thread at once, each thread
// bound to a CPU of its own for the duration: left alone, the guest
// kernel runs two threads that wake on an idle machine on one vCPU for a
// good part of a second, which doubles the probe's wall time after a
// workload that waits and not after one that computes. Each thread times
// itself from its own first step, so that waking the second thread is not
// part of the measurement.
func (p *hostProbe) run() probeTime {
	var wg sync.WaitGroup
	var took [loadThreads]probeTime
	for ti := 0; ti < loadThreads; ti++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread() // the thread's affinity and CPU clock are its own
			defer runtime.UnlockOSThread()
			defer pinThread(ti)()
			t0, cpu0 := time.Now(), threadCPU()
			at, ring, w := uint32(ti*7919), p.ring[ti], 0
			for i := 0; i < p.steps; i++ {
				at = p.walk[at]
				rec := ring[w : w+64]
				for j := range rec {
					rec[j] = byte(at)
				}
				if w += 64; w == len(ring) {
					w = 0
				}
				if i&63 == 0 {
					p.shared.Add(1)
				}
			}
			p.sink.Add(uint64(at))
			took[ti] = probeTime{wall: time.Since(t0), cpu: threadCPU() - cpu0}
		}()
	}
	wg.Wait()
	var mean probeTime
	for _, t := range took {
		mean.wall += t.wall / loadThreads
		mean.cpu += t.cpu / loadThreads
	}
	return mean
}

// threadCPU is user+system CPU time consumed by the calling thread.
func threadCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_THREAD, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuMask is a thread's CPU affinity as the kernel takes it.
type cpuMask [16]uint64

func affinity(nr uintptr, m *cpuMask) bool {
	_, _, errno := syscall.RawSyscall(nr, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	return errno == 0
}

// pinThread binds the calling thread to the n-th CPU it is allowed to run
// on and returns the function that gives it its old affinity back. Where
// the kernel refuses, the thread stays as it is.
func pinThread(n int) (restore func()) {
	var old cpuMask
	if !affinity(syscall.SYS_SCHED_GETAFFINITY, &old) {
		return func() {}
	}
	for cpu := 0; cpu < len(old)*64; cpu++ {
		if old[cpu/64]&(1<<(cpu%64)) == 0 {
			continue
		}
		if n--; n < 0 {
			var one cpuMask
			one[cpu/64] = 1 << (cpu % 64)
			affinity(syscall.SYS_SCHED_SETAFFINITY, &one)
			break
		}
	}
	return func() { affinity(syscall.SYS_SCHED_SETAFFINITY, &old) }
}
