package main

import "time"

// clock is the time source of an open loop; tests substitute a fake.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// openLoop issues n operations on a fixed schedule: operation i is due at
// start + i*interval whether or not earlier ones have finished. issue is
// called as soon as the operation is due and the previous issue call has
// returned; it receives the due instant, and callers time the operation
// from that instant, never from the call. A stall inside issue therefore
// delays later calls but not their due times, so the wait it imposes on
// the operations queued behind it is counted, not hidden.
func openLoop(clk clock, start time.Time, interval time.Duration, n int, issue func(i int, due time.Time)) {
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := due.Sub(clk.Now()); wait > 0 {
			clk.Sleep(wait)
		}
		issue(i, due)
	}
}
