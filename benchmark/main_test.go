package main

import (
	"io"
	"math"
	"os"
	"testing"
	"time"
)

func TestQuantile(t *testing.T) {
	v := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ q, want float64 }{{0, 10}, {0.25, 20}, {0.5, 30}, {0.9, 46}, {1, 50}} {
		if got := quantile(v, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
// and statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0].
func TestPyQuartiles(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := pyQuartiles(ten), [3]float64{2.75, 5.5, 8.25}; got != want {
		t.Errorf("pyQuartiles(1..10) = %v, want %v", got, want)
	}
	if got, want := pyQuartiles([]float64{1, 2, 4, 8, 16}), [3]float64{1.5, 4, 12}; got != want {
		t.Errorf("pyQuartiles = %v, want %v", got, want)
	}
}

// Five slices with known rates and CPU costs: the statistics are the
// median slices, not the window mean, so one stalled slice (rate 10)
// moves neither.
func TestReduceSlices(t *testing.T) {
	rates := []uint64{100, 110, 10, 120, 130} // ops in each 1 s slice
	cpuUS := []uint64{2, 2, 9, 1, 1}          // CPU µs per op in each slice
	var s []slice
	for i, r := range rates {
		s = append(s, slice{dt: time.Second, ops: r, cpu: time.Duration(r*cpuUS[i]) * time.Microsecond})
	}
	if got, want := reduceSlices(s), (sliceStats{rate: 110, cpu: 2}); got != want {
		t.Errorf("reduceSlices = %+v, want %+v", got, want)
	}
}

// The reference clock shrinks computing time by the host factor and
// leaves waiting time alone.
func TestHostClock(t *testing.T) {
	const s = time.Second
	ws := windowStats{nominal: s, probes: []probeTime{{2 * s, s}, {9 * s, 2 * s}, {s, s}}}
	clk := ws.clock() // the median probe: a host half as fast by the wall clock
	if clk.wall != 2 || clk.cpu != 1 {
		t.Fatalf("host factors = %+v, want wall 2, cpu 1", clk)
	}
	for _, c := range []struct{ util, want float64 }{{0, 1}, {1, 0.5}, {0.5, 0.75}, {1.9, 0.5}} {
		if got := clk.scale(c.util); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("scale(%v) = %v, want %v", c.util, got, c.want)
		}
	}
	if got := utilization(3*s, 2*s); got != 1.5 {
		t.Errorf("3 s of CPU in 2 s = %v CPUs", got)
	}
}

// fakeClock advances only when told to sleep or when an operation
// "takes" time.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

// A consumer that stalls on one request must raise the latency of the
// requests queued behind it: they are timed from when they were due, not
// from when the loop finally got round to issuing them.
func TestOpenLoopCountsTheWaitAStallImposes(t *testing.T) {
	const interval = 10 * time.Millisecond
	clk := &fakeClock{now: time.Unix(100, 0)}
	start := clk.now
	var fromDue, fromIssue []time.Duration
	openLoop(clk, start, interval, 10, func(i int, due time.Time) {
		if want := start.Add(time.Duration(i) * interval); !due.Equal(want) {
			t.Errorf("request %d due at %v, want %v", i, due, want)
		}
		issued := clk.now
		service := time.Millisecond
		if i == 3 {
			service = 50 * time.Millisecond // the stall
		}
		clk.now = clk.now.Add(service)
		fromDue = append(fromDue, clk.now.Sub(due))
		fromIssue = append(fromIssue, clk.now.Sub(issued))
	})
	// Requests 0-2 and 9 see the bare service time. Request 3 sees the
	// stall; 4..7 were due while it lasted and inherit what is left of it.
	want := []time.Duration{1, 1, 1, 50, 41, 32, 23, 14, 5, 1}
	for i, w := range want {
		if fromDue[i] != w*time.Millisecond {
			t.Errorf("request %d: latency from due = %v, want %v", i, fromDue[i], w*time.Millisecond)
		}
		if i != 3 && fromIssue[i] != time.Millisecond {
			t.Errorf("request %d: latency from issue = %v (the stall would be hidden)", i, fromIssue[i])
		}
	}
	if clk.now.Before(start.Add(9 * interval)) {
		t.Errorf("the loop finished at %v, before its last request was due", clk.now.Sub(start))
	}
}

func TestValueRoundTrip(t *testing.T) {
	in := newInputs(7, 8)
	v := in.value('b', 123456)
	if len(v) != valueLen {
		t.Fatalf("value is %d bytes, want %d", len(v), valueLen)
	}
	tag, n, ok := parseValue(v)
	if !ok || tag != 'b' || n != 123456 {
		t.Errorf("parseValue = %c %d %v", tag, n, ok)
	}
	if _, _, ok := parseValue("short"); ok {
		t.Error("parseValue accepted a malformed value")
	}
	if in.value('b', 123456) != newInputs(7, 8).value('b', 123456) {
		t.Error("the same seed gave different values")
	}
	if in.pad == newInputs(8, 8).pad {
		t.Error("different seeds gave the same filler")
	}
}

func TestZipfIsSkewedAndScatterIsABijection(t *testing.T) {
	const n = 1 << 10
	z := newZipf(n, 0.99)
	if z.rank(0) != 0 || z.rank(0.999999) >= n {
		t.Fatalf("rank out of range: %d, %d", z.rank(0), z.rank(0.999999))
	}
	if top := z.cdf[9]; top < 0.3 || top > 0.5 {
		t.Errorf("the 10 hottest of %d keys draw %.2f of the requests, want ~0.39", n, top)
	}
	seen := make(map[int]bool, n)
	for r := 0; r < n; r++ {
		seen[scatter(r, n)] = true
	}
	if len(seen) != n {
		t.Errorf("scatter maps %d ranks onto %d keys", n, len(seen))
	}
}

// The smoke pass drives every workload through the untraced and the
// traced path at tiny sizes; runSmoke itself asserts that every declared
// metric is printed once per workload with a finite value, that nothing
// undeclared is reported, and that every output check passes.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke pass skipped in -short mode")
	}
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	probe, err := newHostProbe(probeSteps / 64)
	if err != nil {
		t.Fatal(err)
	}
	defer probe.close()
	if code := runSmoke(smoke(sp, probe, 200*time.Millisecond), 1, t.TempDir(), io.Discard, os.Stderr); code != 0 {
		t.Fatalf("smoke pass failed with code %d", code)
	}
}

// Ten observations since the earlier scrape, all in the (64 µs, 128 µs]
// bucket's neighbourhood: the quantile is placed inside its bucket.
func TestLagQuantileSince(t *testing.T) {
	earlier := lagBuckets{64e-6: 5, 128e-6: 1}
	now := lagBuckets{64e-6: 9, 128e-6: 7} // +4 in (32,64], +6 in (64,128]
	for _, c := range []struct{ q, want float64 }{{0.2, 48}, {0.4, 64}, {0.7, 96}, {1, 128}} {
		if got := now.quantileSince(earlier, c.q); math.Abs(got-c.want) > 1e-6 {
			t.Errorf("quantileSince(%v) = %v µs, want %v", c.q, got, c.want)
		}
	}
	if got := now.quantileSince(now, 0.5); got != 0 {
		t.Errorf("no observations since: %v, want 0", got)
	}
}
