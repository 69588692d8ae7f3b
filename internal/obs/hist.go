// Package obs is the observability layer of the deferral runtime:
// lock-free striped latency histograms, gauges, and a registry that
// exposes them as Prometheus text, expvar JSON, and pprof over HTTP.
//
// The paper's whole argument is about where time goes — the transaction's
// critical window versus the deferred tail — so the runtime needs latency
// *distributions*, not just monotonic counts (stm.Stats). A Histogram
// uses the same cache-line-padded stripe design as the stm counters: an
// Observe touches only the calling goroutine's stripe, and reads merge
// every stripe exactly, so recorded counts are never sampled or lossy.
// Buckets are log2-spaced nanoseconds: cheap to index (one bits.Len64),
// and the ~2x bucket resolution is far below the run-to-run variance of
// any latency this repo measures.
//
// Every type is nil-safe on its write path: a nil *Histogram or *Gauge
// ignores Observe/Add, so instrumented hot paths stay allocation-free
// (and effectively free) when metrics are disabled.
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
	"unsafe"
)

// nHistBuckets is the bucket count of every Histogram. Bucket i (i >= 1)
// holds observations v with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i);
// bucket 0 holds zero. 48 buckets cover 1ns .. ~39h before clamping into
// the top bucket — wider than any latency the runtime can produce.
const nHistBuckets = 48

// histShard is one stripe of a Histogram. Shards are padded to a 64-byte
// multiple with at least one pad byte, so two shards never share a cache
// line even when the payload is an exact multiple of the line size (the
// padding expression deliberately yields 64, not 0, in that case — see
// the layout test).
type histShard struct {
	buckets [nHistBuckets]atomic.Uint64
	sum     atomic.Uint64 // total observed nanoseconds
	max     atomic.Uint64 // largest single observation, ns
	_       [64 - (nHistBuckets*8+16)%64]byte
}

// Histogram is a lock-free, striped, log2-bucketed latency histogram.
// Observe is safe for unbounded concurrency and touches only the calling
// goroutine's stripe; Snapshot merges every stripe exactly. The zero
// value is not usable — construct with NewHistogram or
// (*Registry).NewHistogram. A nil *Histogram ignores Observe.
type Histogram struct {
	name   string
	help   string
	shards []histShard
	mask   uint32
}

// NewHistogram returns an unregistered histogram (for tests and callers
// that aggregate without an HTTP endpoint). name/help follow Prometheus
// conventions; values are exposed in seconds, recorded in nanoseconds.
func NewHistogram(name, help string) *Histogram {
	h := &Histogram{name: name, help: help}
	p := StripeCount()
	h.shards = make([]histShard, p)
	h.mask = uint32(p - 1)
	return h
}

// Observe records one latency. Nil-safe and allocation-free: the nil
// check is the entire disabled cost.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := uint64(d.Nanoseconds())
	if d < 0 {
		ns = 0
	}
	i := bits.Len64(ns)
	if i >= nHistBuckets {
		i = nHistBuckets - 1
	}
	sh := &h.shards[StripeIdx()&h.mask]
	sh.buckets[i].Add(1)
	sh.sum.Add(ns)
	for {
		cur := sh.max.Load()
		if ns <= cur || sh.max.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// HistSnapshot is an exact merged copy of a histogram: per-bucket counts
// summed over every stripe, plus total count, sum and max.
type HistSnapshot struct {
	Buckets [nHistBuckets]uint64
	Count   uint64
	Sum     uint64 // nanoseconds
	Max     uint64 // nanoseconds
}

// Snapshot merges all stripes. Individual buckets are exact; cross-bucket
// skew is bounded by observations in flight during the merge.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	for i := range h.shards {
		sh := &h.shards[i]
		for j := 0; j < nHistBuckets; j++ {
			n := sh.buckets[j].Load()
			s.Buckets[j] += n
			s.Count += n
		}
		s.Sum += sh.sum.Load()
		if m := sh.max.Load(); m > s.Max {
			s.Max = m
		}
	}
	return s
}

// BucketUpper returns the exclusive upper bound, in nanoseconds, of
// bucket i (every observation in bucket i is < BucketUpper(i)).
func BucketUpper(i int) uint64 {
	if i <= 0 {
		return 1
	}
	if i >= 63 {
		return 1 << 63
	}
	return 1 << uint(i)
}

// Quantile returns an upper bound on the q-quantile (0 < q <= 1) in
// nanoseconds: the upper bound of the log2 bucket the rank falls in,
// clipped to the observed maximum. Zero observations yield 0. The bound
// is tight to within one bucket (a factor of two), which is the
// histogram's resolution by design.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(q * float64(s.Count))
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum uint64
	for i, n := range s.Buckets {
		cum += n
		if cum >= rank {
			ub := float64(BucketUpper(i))
			if m := float64(s.Max); m < ub {
				return m
			}
			return ub
		}
	}
	return float64(s.Max)
}

// Mean returns the exact mean observation in nanoseconds (0 when empty).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Gauge is a nil-safe atomic gauge (a level, not a monotone counter) —
// e.g. the number of deferred operations enqueued but not yet finished.
type Gauge struct {
	name string
	help string
	v    atomic.Int64
}

// NewGauge returns an unregistered gauge.
func NewGauge(name, help string) *Gauge { return &Gauge{name: name, help: help} }

// Add moves the gauge by n. Nil-safe.
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Load returns the current value (0 for nil).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// StripeCount sizes stripe arrays, here and for internal/stm's
// counters: 2x the machine's CPU count (hardware parallelism bounds
// concurrent writers, and GOMAXPROCS can be lowered at runtime below
// it), rounded up to a power of two for mask indexing, floored at 4 and
// capped at 64 — past 64 stripes the merge cost on every read outweighs
// contention that many CPUs could generate here.
func StripeCount() int {
	n := 2 * numCPU()
	if n < 4 {
		n = 4
	}
	if n > 64 {
		n = 64
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// StripeIdx derives a goroutine-affine stripe hint from the address of
// a stack variable: distinct goroutines run on distinct stacks, so the
// mixed address separates concurrent writers without procPin or
// goroutine IDs. The value is stable within a call frame and merely
// tends to differ across goroutines; any distribution is correct, only
// contention varies. Callers mask it with StripeCount()-1.
func StripeIdx() uint32 {
	var b byte
	p := uintptr(unsafe.Pointer(&b))
	return uint32((uint64(p) * 0x9e3779b97f4a7c15) >> 33)
}
